#!/usr/bin/env python3
"""Per-record run cost as slices and as devices grow.

Runs two sweeps of generated benchmark scenarios (perfbench/gen.py) through
`engine.run` and reports the best time over the repeats, divided by the
number of trace records.  Each time is scaled to reference speed the way
the benchmark scales it (perfbench/run.py REFERENCE_S over a reading of
perfbench/pipeline.py `reference_s` taken just before the run):

- slices 2 / 12 / 48 / 96 at 240 slice-fanout devices
- attach-storm at 400 / 1000 / 2000 / 4000 devices, attach window =
  devices / 10

Flat cost means equal microseconds per record along a sweep.  The repeats
go round each sweep, so a swing in machine speed that the scaling misses
hits all its points alike.
The figures
and the machine, Python version, git revision and `src/` line count are
written to BENCH_scale_<label>.json at the repo root.  Not part of the test
suite; the largest run holds about 180k records in memory.

Usage: PYTHONPATH=src python3 scripts/scale.py --label NAME [--repeats N]
"""

import argparse
import dataclasses
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from pipeline import reference_s  # noqa: E402
from run import REFERENCE_S  # noqa: E402
from slicesim import engine  # noqa: E402

SEED = 1
SLICES = (2, 12, 48, 96)
SLICE_DEVICES = 240
DEVICES = (400, 1000, 2000, 4000)


def _scenario(workload: str, params):
    with tempfile.TemporaryDirectory() as tmp:
        return engine.load_scenario(
            gen.write_workload(workload, SEED, Path(tmp), params))


def _measure(points: list, repeats: int) -> None:
    """Time `engine.run` on every point's scenario, in `repeats` rounds over
    all points; keep each point's best time."""
    best: dict = {}
    for _ in range(repeats):
        for i, (row, scenario) in enumerate(points):
            gc.collect()
            scale = REFERENCE_S / reference_s()
            t0 = perf_counter()
            result = engine.run(scenario, SEED)
            elapsed = perf_counter() - t0
            row["records"] = len(result.trace)
            del result
            best[i] = min(best.get(i, (elapsed * scale, elapsed)),
                          (elapsed * scale, elapsed))
    for i, (row, _) in enumerate(points):
        row["scaled_s"], row["raw_s"] = (round(t, 4) for t in best[i])
        row["us_per_record"] = round(best[i][0] / row["records"] * 1e6, 2)


def _git_rev() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def _src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    fanout = gen.WORKLOADS["slice-fanout"]
    storm = gen.WORKLOADS["attach-storm"]
    by_slices = [({"slices": n, "devices": SLICE_DEVICES}, _scenario(
        "slice-fanout", dataclasses.replace(fanout, devices=SLICE_DEVICES, slices=n)))
        for n in SLICES]
    by_devices = [({"devices": n, "attach_window": n // 10}, _scenario(
        "attach-storm", dataclasses.replace(storm, devices=n, attach_window=n // 10)))
        for n in DEVICES]
    _measure(by_slices, args.repeats)
    _measure(by_devices, args.repeats)
    by_slices = [row for row, _ in by_slices]
    by_devices = [row for row, _ in by_devices]
    for row in by_slices + by_devices:
        print(f"slices={row['slices']:<4}" if "slices" in row
              else f"devices={row['devices']:<5}",
              f"{row['us_per_record']:8.2f} us/record ({row['records']} records)")

    ratios = {
        "slices_96_over_2": round(by_slices[-1]["us_per_record"]
                                  / by_slices[0]["us_per_record"], 3),
        "devices_4000_over_400": round(by_devices[-1]["us_per_record"]
                                       / by_devices[0]["us_per_record"], 3),
    }
    print(f"ratios: {ratios} (target: each within 1.3)")
    report = {
        "label": args.label,
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_lines": _src_lines(),
        "seed": SEED, "repeats": args.repeats, "timer": "best reference-scaled engine.run",
        "by_slices": by_slices, "by_devices": by_devices, "ratios": ratios,
    }
    out = ROOT / f"BENCH_scale_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
