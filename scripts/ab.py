#!/usr/bin/env python3
"""Paired timing of two `src/` trees on one benchmark workload.

Runs `perfbench/pipeline.py`, the benchmark's own pipeline (the same for
both trees), in a fresh interpreter per pipeline, with PYTHONPATH set to
tree A or tree B.  The workload's inputs are generated once, with tree
A's `slicesim` (the catalog workload copies its reference catalog), into
one shared directory, and both trees write their outputs into one shared
directory, so the only path that differs between the sides is the source
tree's: an input path can move `peak_rss_mb` by itself.  Pair i runs A
first when i is even and B first when it is odd.

Prints, per side, the reference-scaled median and IQR of `pipeline_s` and
`setup_s` (scaled as `perfbench/run.py` scales them) and the median,
minimum and maximum `peak_rss_mb`; then how many pairs B's `pipeline_s`
won, the median of the paired B/A ratios, the gap of the medians against
A's IQR, and in how many pairs B's `peak_rss_mb` read higher.  The range
tells a shift of every run from a peak that only some runs reach.

Every pipeline runs with PYTHONDONTWRITEBYTECODE=1, and this script
writes no bytecode either, so a run leaves both trees' bytecode as it
found it.  Bytecode already there is still read, and whether a tree holds
it moves `peak_rss_mb` by itself (about 0.8 MB), so the header says
whether either tree holds a `__pycache__` directory.

Every pipeline's output sha256 must equal the first one's; exits 1
otherwise, or when a pipeline reports a problem.  Not part of the test
suite: twelve attach-storm pairs take about a minute.

Usage: python3 scripts/ab.py A_SRC B_SRC --workload NAME [--seed N] [--pairs N]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True     # importing tree A's slicesim below

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
from run import PIPELINE_TIMEOUT_S, REFERENCE_S  # noqa: E402


def pipeline(src: Path, input_path: Path, seed: int, out: Path) -> dict:
    """One untraced pipeline over tree `src`, its figures scaled."""
    cmd = [sys.executable, str(PERFBENCH / "pipeline.py"), "--input",
           str(input_path), "--seed", str(seed), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PIPELINE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline over {src} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    figures = json.loads(proc.stdout.strip().splitlines()[-1])
    speed = REFERENCE_S / statistics.fmean(figures["reference_s"])
    return {"pipeline_s": figures["pipeline_s"] * speed,
            "setup_s": [v * speed for v in figures["setup_s"]],
            "peak_rss_mb": figures["peak_rss_mb"],
            "sha256": figures["sha256"], "problems": figures["problems"]}


def spread(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4f} ({q1:.4f}-{q3:.4f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="tree A: a directory holding slicesim/")
    parser.add_argument("b", type=Path, help="tree B: a directory holding slicesim/")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs needs at least two pairs for an interquartile range")
    trees = {"A": args.a.resolve(), "B": args.b.resolve()}
    for side, src in trees.items():
        if not (src / "slicesim" / "__init__.py").is_file():
            parser.error(f"tree {side}: no slicesim package under {src}")

    bytecode = {side: any(src.rglob("__pycache__"))
                for side, src in trees.items()}

    runs: dict = {"A": [], "B": []}
    problems: list = []
    sys.path.insert(0, str(trees["A"]))
    with tempfile.TemporaryDirectory(prefix="slicesim-ab-") as work:
        input_path = gen.write_workload(args.workload, args.seed,
                                        Path(work) / "input")
        for i in range(args.pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                run = pipeline(trees[side], input_path, args.seed,
                               Path(work) / "out")
                runs[side].append(run)
                problems += [f"pair {i} {side}: {p}" for p in run["problems"]]
    shas = {run["sha256"] for side in runs.values() for run in side}
    if len(shas) != 1:
        problems.append(f"output sha256 differs between pipelines: {sorted(shas)}")

    print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs, reference-scaled")
    for side, src in trees.items():
        side_runs = runs[side]
        rss = [r["peak_rss_mb"] for r in side_runs]
        held = "holds" if bytecode[side] else "holds no"
        print(f"  {side} {src}  ({held} __pycache__)\n"
              f"    pipeline_s {spread([r['pipeline_s'] for r in side_runs])}"
              f"  setup_s {spread([v for r in side_runs for v in r['setup_s']])}"
              f"  peak_rss_mb {statistics.median(rss):.2f} "
              f"({min(rss):.2f}-{max(rss):.2f})")
    a = [r["pipeline_s"] for r in runs["A"]]
    b = [r["pipeline_s"] for r in runs["B"]]
    wins = sum(y < x for x, y in zip(a, b))
    q1, _, q3 = statistics.quantiles(a, n=4)
    print(f"  B lower in {wins} of {args.pairs} pairs; median B/A "
          f"{statistics.median(y / x for x, y in zip(a, b)):.3f}; median gap "
          f"{statistics.median(a) - statistics.median(b):+.4f} s against "
          f"A's IQR {q3 - q1:.4f} s")
    rss_higher = sum(y["peak_rss_mb"] > x["peak_rss_mb"]
                     for x, y in zip(runs["A"], runs["B"]))
    print(f"  B's peak_rss_mb higher in {rss_higher} of {args.pairs} pairs")
    for problem in problems:
        print(f"  problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
