#!/usr/bin/env python3
"""One benchmark record of the tree: every workload over several seeds.

Runs `perfbench/run.py` for each workload that BENCHMARK.json declares,
once untraced per seed and once traced (`--trace 1`) at the first seed,
each in its own process as the benchmark runs it.  Each untraced run gives
the reference-scaled median of every end-to-end metric; the record keeps,
per workload and metric, the median and interquartile range of those run
medians over the seeds.  The traced run gives the per-layer figures.  The
record, with each workload's generator parameters (`perfbench/gen.py`'s
WORKLOADS), the machine, Python version, git revision and `src/` line
count, in total and per file, goes to BENCH_<label>.json at the repo root.  Not part of the test
suite: with the defaults it takes about three minutes.

Usage: python3 scripts/bench.py --label NAME [--seeds 1,2,3] [--seconds 10]
"""

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402


def git_rev() -> str:
    """The short HEAD revision, `+dirty` when `src/` has changes."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def src_files() -> dict:
    """Per Python file under `src/`, its path from the repo root -> its
    number of lines."""
    return {str(path.relative_to(ROOT)):
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((ROOT / "src").rglob("*.py"))}


def src_lines() -> int:
    """The number of lines of the Python files under `src/`."""
    return sum(src_files().values())


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """The last stdout line of one `perfbench/run.py` call, parsed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    """The median of `values` and their interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 6),
            "iqr": [round(q1, 6), round(q3, 6)], "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for an interquartile range")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_workload(workload, seed, args.seconds, False) for seed in seeds]
        traced = run_workload(workload, seeds[0], args.seconds, True)
        end_to_end = {name: {**spread([r["metrics"][name]["value"] for r in runs]),
                             "unit": unit}
                      for name, unit in units.items()}
        workloads[workload] = {
            "params": dataclasses.asdict(gen.WORKLOADS[workload]),
            "correct": all(r["correct"] for r in (*runs, traced)),
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        pipeline = end_to_end["pipeline_s"]
        print(f"{workload:16s} pipeline_s {pipeline['median']:.4f} "
              f"(IQR {pipeline['iqr'][0]:.4f}-{pipeline['iqr'][1]:.4f}, "
              f"n={pipeline['n']})  correct={workloads[workload]['correct']}")

    files = src_files()
    report = {
        "label": args.label,
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_lines": sum(files.values()),
        "src_files": files,
        "seeds": seeds, "seconds": args.seconds,
        "timer": "per seed, perfbench/run.py's reference-scaled median over "
                 "its untraced pipelines; median and IQR over the seeds. "
                 f"per_layer: one traced run at seed {seeds[0]}",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
