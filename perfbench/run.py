"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs pipelines one at a
time (a closed loop with one client), each in a fresh interpreter, until the
next one would end after S seconds.  Every pipeline's output must pass the
correctness gate: `trace_check` finds nothing, the trace (or grouping) bytes
equal those of the first pipeline, the metrics folded from the written trace
equal the in-run report, and the reference catalog still composes to the six
canonical blocks.

With --trace 0 the end-to-end metrics are medians over untraced pipelines.
With --trace 1 traced and untraced pipelines alternate; the per-layer metrics
are medians over the traced ones and `tracing.overhead_s` is the difference
of the two pipeline_s medians.  Times are scaled to reference speed (see
REFERENCE_S).  A table goes to stdout first; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Hard cap on one pipeline, well inside the command's own time limit.
PIPELINE_TIMEOUT_S = 120

#: What `pipeline.reference_s` reads on the machine in README.md when no
#: other tenant slows it.  Host times are scaled by this over the reading
#: taken around each pipeline, so they read as seconds at that speed.
REFERENCE_S = 0.045

UNITS = {"peak_rss_mb": "MB", "error_ratio": "ratio"}


def run_pipeline(input_path: Path, seed: int, out: Path, traced: bool,
                 audit: bool, pipeline_id: str) -> dict:
    """One pipeline in a fresh interpreter; raises RuntimeError on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--input", str(input_path),
           "--seed", str(seed), "--out", str(out), "--id", pipeline_id]
    if audit:
        cmd.append("--audit")
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PIPELINE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline {pipeline_id} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample_values(samples: list) -> dict:
    """Every figure of the untraced pipelines, as lists to take medians of."""
    values = defaultdict(list)
    for s in samples:
        speed = REFERENCE_S / statistics.fmean(s["reference_s"])
        values["pipeline_s"].append(s["pipeline_s"] * speed)
        values["setup_s"] += [v * speed for v in s["setup_s"]]
        values["peak_rss_mb"].append(s["peak_rss_mb"])
        values["wall_pipeline_s"].append(s["pipeline_s"])
        values["wall_setup_s"] += s["setup_s"]
        values["reference_s"] += s["reference_s"]
        if "audit_s" in s:
            values["audit_s"].append(s["audit_s"])
        if "ops" in s:
            values["error_ratio"].append(s["errors"] / s["ops"])
        for name, v in s.get("stages", {}).items():
            if name != "setup_s":
                values[name].append(v)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="slicesim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "slicesim" / "__init__.py").is_file():
        print(f"error: no slicesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    input_path = gen.write_workload(args.workload, args.seed, work / "input")

    untraced, traced, problems = [], [], []
    attempted = 0
    first_sha = None
    start = perf_counter()
    last = {False: 0.0, True: 0.0}     # duration of the last pipeline of each kind
    while not problems:
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        enough = untraced and (traced or not args.trace)
        if enough and perf_counter() - start + last[want_traced] > args.seconds:
            break
        pipeline_id = f"{args.workload}-s{args.seed}-p{len(untraced) + len(traced)}"
        attempted += 1
        t0 = perf_counter()
        try:
            # The audit gate needs one pipeline; traced ones need it for trace.parse_s.
            figures = run_pipeline(input_path, args.seed, work / "out", want_traced,
                                   want_traced or not untraced, pipeline_id)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(f"{pipeline_id}: {exc}")
            break
        last[want_traced] = perf_counter() - t0
        (traced if want_traced else untraced).append(figures)
        first_sha = first_sha or figures["sha256"]
        if figures["sha256"] != first_sha:
            problems.append(f"{pipeline_id}: output sha256 {figures['sha256']} "
                            f"differs from the first pipeline's {first_sha}")
        problems += [f"{pipeline_id}: {p}" for p in figures["problems"]]

    # The loop stops at the first pipeline that fails, so at most one did.
    failed = 1 if problems else 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"pipelines {len(untraced)} untraced, {len(traced)} traced  "
          f"wall {perf_counter() - start:.1f} s")
    print(f"output sha256 {first_sha}")
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {}
        if traced:
            untraced_s = statistics.median(sample_values(untraced)["pipeline_s"])
            timed = [name for name in traced[0]["layers"]
                     if name.endswith("_s") or name == "engine.us_per_record"]
            for s in traced:
                speed = REFERENCE_S / statistics.fmean(s["reference_s"])
                for name in timed:
                    s["layers"][name] *= speed
                s["layers"]["tracing.overhead_s"] = s["pipeline_s"] * speed - untraced_s
            metrics = {m["name"]: {"value": statistics.median(
                           s["layers"][m["name"]] for s in traced), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:>14.6g} {m['unit']:6s} (n={len(traced)})")
    else:
        values = sample_values(untraced)
        for name, v in values.items():
            print(f"  {name:16s} {statistics.median(v):>12.6g} "
                  f"{UNITS.get(name, 's'):6s} (n={len(v)})")
        print("  wall_pipeline_s samples: " + " ".join(
            f"{v:.4f}" for v in values["wall_pipeline_s"]))
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in end_to_end.items() if values[name]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
