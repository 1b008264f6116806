#!/usr/bin/env python3
"""Re-pin the golden digests of the scenario corpus.

Runs every corpus scenario at seed 7 under its own fabrics and under each
of the four interconnection models, and the benchmark's scenario workloads
(perfbench/gen.py) at seeds 1 and 7 under their own fabrics, and writes the
sha256 of the rendered trace and of the rendered metrics to
tests/golden_digests.txt, one run per line.  tests/test_goldens.py compares
fresh runs against that table, so run this only after a deliberate
behaviour change, and say so in the change.

Usage: python3 scripts/pin_goldens.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from slicesim.engine import FABRIC_MODELS, load_scenario, run
from slicesim.metrics import render_metrics
from slicesim.trace import render_trace

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden_digests.txt"
SEED = 7
#: The benchmark's scenario workloads and the seeds they are pinned at.
WORKLOADS = ("attach-storm", "slice-fanout", "flow-steady")
WORKLOAD_SEEDS = (1, 7)

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _line(scenario, seed: int, label: str, model=None) -> str:
    result = run(scenario, seed, fabric_override=model)
    return (f"{scenario.scenario_id} {label} "
            f"{_sha256(render_trace(result.trace))} "
            f"{_sha256(render_metrics(result.metrics))}")


def golden_lines() -> list:
    """One `<scenario> <fabric> <trace sha256> <metrics sha256>` line per
    corpus scenario and fabric choice, then one per workload and seed (the
    scenario id names the seed); `own` keeps the blueprints' fabrics."""
    lines = []
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        scenario = load_scenario(path)
        for label, model in (("own", None),
                             *((m.value, m) for m in FABRIC_MODELS)):
            lines.append(_line(scenario, SEED, label, model))
    for name in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                scenario = load_scenario(gen.write_workload(name, seed, Path(tmp)))
            lines.append(_line(scenario, seed, "own"))
    return lines


def main() -> int:
    lines = golden_lines()
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"pinned {len(lines)} runs in {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
