#!/usr/bin/env python3
"""Re-pin the golden digests of the scenario corpus.

Runs every corpus scenario at seed 7 under its own fabrics and under each
of the four interconnection models, and writes the sha256 of the rendered
trace and of the rendered metrics to tests/golden_digests.txt, one run per
line.  tests/test_goldens.py compares fresh runs against that table, so run
this only after a deliberate behaviour change, and say so in the change.

Usage: python3 scripts/pin_goldens.py
"""

import hashlib
import sys
from pathlib import Path

from slicesim.engine import FABRIC_MODELS, load_scenario, run
from slicesim.metrics import render_metrics
from slicesim.trace import render_trace

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden_digests.txt"
SEED = 7


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_lines() -> list:
    """One `<scenario> <fabric> <trace sha256> <metrics sha256>` line per
    corpus scenario and fabric choice; `own` keeps the blueprints' fabrics."""
    lines = []
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        scenario = load_scenario(path)
        for label, model in (("own", None),
                             *((m.kind.value, m) for m in FABRIC_MODELS)):
            result = run(scenario, SEED, fabric_override=model)
            lines.append(f"{scenario.scenario_id} {label} "
                         f"{_sha256(render_trace(result.trace))} "
                         f"{_sha256(render_metrics(result.metrics))}")
    return lines


def main() -> int:
    lines = golden_lines()
    TABLE.write_text("\n".join(lines) + "\n")
    print(f"pinned {len(lines)} runs in {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
