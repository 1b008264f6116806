#!/usr/bin/env python3
"""Per-record run cost as slices, devices and flow rates grow.

Runs three sweeps of generated benchmark scenarios (perfbench/gen.py)
through `engine.run` and reports, per point, the median time over the
repeats and its interquartile range, and the median divided by the number
of trace records.  Each time is scaled to reference speed the way the
benchmark scales it (perfbench/run.py REFERENCE_S over a reading of
perfbench/pipeline.py `reference_s` taken just before the run):

- slices 2 / 12 / 48 / 96 at 240 slice-fanout devices
- attach-storm at 400 / 1000 / 2000 / 4000 devices, attach window =
  devices / 10
- flow-steady at flow rate 1 / 4 / 16 units per tick

Flat cost means equal microseconds per record along a sweep.  The repeats
go round each sweep, so a swing in machine speed that the scaling misses
hits all its points alike; a ratio therefore divides a sweep's last point by
its first (microseconds per record) within each round, and is reported as
the median and interquartile range over the rounds.  Each ratio with a
target of at most 1.3 gets a verdict: `met` when its third quartile is
within the target, `missed` when its first quartile is above it, and
`unresolved` otherwise.  The figures and the machine, Python version, git
revision and `src/` line count are written to BENCH_scale_<label>.json at
the repo root.  Not part of the test suite; the largest run holds about
180k records in memory.

Usage: PYTHONPATH=src python3 scripts/scale.py --label NAME [--repeats N]
"""

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from bench import git_rev, src_lines  # noqa: E402
from pipeline import reference_s  # noqa: E402
from run import REFERENCE_S  # noqa: E402
from slicesim import engine  # noqa: E402

SEED = 1
SLICES = (2, 12, 48, 96)
SLICE_DEVICES = 240
DEVICES = (400, 1000, 2000, 4000)
FLOW_RATES = (1, 4, 16)

#: The largest ratio of last to first point that counts as flat cost.
TARGET = 1.3


def _scenario(workload: str, params):
    with tempfile.TemporaryDirectory() as tmp:
        return engine.load_scenario(
            gen.write_workload(workload, SEED, Path(tmp), params))


def _measure(points: list, repeats: int) -> list:
    """Time `engine.run` on every point's scenario, in `repeats` rounds over
    all points; keep each point's median time and interquartile range.
    Returns each round's last-over-first ratio of time per record."""
    times: dict = {i: ([], []) for i in range(len(points))}
    for _ in range(repeats):
        for i, (row, scenario) in enumerate(points):
            gc.collect()
            scale = REFERENCE_S / reference_s()
            t0 = perf_counter()
            result = engine.run(scenario, SEED)
            elapsed = perf_counter() - t0
            row["records"] = len(result.trace)
            del result
            times[i][0].append(elapsed * scale)
            times[i][1].append(elapsed)
    for i, (row, _) in enumerate(points):
        scaled, raw = times[i]
        q1, _, q3 = statistics.quantiles(scaled, n=4)
        row["scaled_s"] = round(statistics.median(scaled), 4)
        row["scaled_iqr_s"] = [round(q1, 4), round(q3, 4)]
        row["raw_s"] = round(statistics.median(raw), 4)
        row["us_per_record"] = round(row["scaled_s"] / row["records"] * 1e6, 2)
    first, last = points[0][0]["records"], points[-1][0]["records"]
    return [(t_last / last) / (t_first / first)
            for t_first, t_last in zip(times[0][0], times[len(points) - 1][0])]


def _ratio(per_round: list, target: float | None = None) -> dict:
    """The median and IQR of per-round ratios and, given a target, whether
    the rounds show it met, missed or neither."""
    q1, _, q3 = statistics.quantiles(per_round, n=4)
    out = {"median": round(statistics.median(per_round), 3),
           "iqr": [round(q1, 3), round(q3, 3)]}
    if target is not None:
        out["target"] = target
        out["verdict"] = ("met" if q3 <= target else
                          "missed" if q1 > target else "unresolved")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for an interquartile range")

    fanout = gen.WORKLOADS["slice-fanout"]
    storm = gen.WORKLOADS["attach-storm"]
    steady = gen.WORKLOADS["flow-steady"]
    by_slices = [({"slices": n, "devices": SLICE_DEVICES}, _scenario(
        "slice-fanout", dataclasses.replace(fanout, devices=SLICE_DEVICES, slices=n)))
        for n in SLICES]
    by_devices = [({"devices": n, "attach_window": n // 10}, _scenario(
        "attach-storm", dataclasses.replace(storm, devices=n, attach_window=n // 10)))
        for n in DEVICES]
    by_rate = [({"flow_rate": n}, _scenario(
        "flow-steady", dataclasses.replace(steady, flow_rate=n)))
        for n in FLOW_RATES]
    sweeps = {"by_slices": by_slices, "by_devices": by_devices,
              "by_flow_rate": by_rate}
    per_round = {name: _measure(points, args.repeats)
                 for name, points in sweeps.items()}
    sweeps = {name: [row for row, _ in points] for name, points in sweeps.items()}
    for rows in sweeps.values():
        for row in rows:
            knob, value = next(iter(row.items()))
            print(f"{knob}={value:<5}", f"{row['us_per_record']:8.2f} us/record",
                  f"(IQR {row['scaled_iqr_s'][0]:.4f}-{row['scaled_iqr_s'][1]:.4f} s"
                  f" of {row['scaled_s']:.4f} s, {row['records']} records)")

    ratios = {"slices_96_over_2": _ratio(per_round["by_slices"], TARGET),
              "devices_4000_over_400": _ratio(per_round["by_devices"], TARGET),
              "flow_rate_16_over_1": _ratio(per_round["by_flow_rate"])}
    for name, ratio in ratios.items():
        print(f"{name}: median {ratio['median']} (IQR {ratio['iqr'][0]}-"
              f"{ratio['iqr'][1]})", ratio.get("verdict", ""))
    report = {
        "label": args.label,
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_lines": src_lines(),
        "seed": SEED, "repeats": args.repeats,
        "timer": "median reference-scaled engine.run, with its IQR; ratios "
                 "per round, median and IQR over rounds",
        **sweeps, "ratios": ratios,
    }
    out = ROOT / f"BENCH_scale_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
