#!/usr/bin/env python3
"""Run every corpus scenario and write traces/metrics under out/corpus/.

Usage: python3 scripts/run_corpus.py [seed]
"""

import sys
from pathlib import Path

from slicesim.engine import load_scenario, run
from slicesim.metrics import render_metrics
from slicesim.trace import render_trace, trace_check

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    out_root = ROOT / "out" / "corpus"
    failures = 0
    for path in SCENARIOS:
        scenario = load_scenario(path)
        result = run(scenario, seed)
        out_dir = out_root / scenario.scenario_id
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trace.log").write_text(render_trace(result.trace),
                                           encoding="utf-8")
        (out_dir / "metrics.txt").write_text(render_metrics(result.metrics),
                                             encoding="utf-8")
        violations = trace_check(result.trace)
        failures += len(violations)
        flows = ", ".join(
            f"{f}: {s['delivered']}/{s['sent']} (-{s['lost']})"
            for f, s in sorted(result.metrics.flows.items())) or "no flows"
        print(f"{scenario.scenario_id:26s} records={len(result.trace):4d} "
              f"violations={len(violations)}  {flows}")
    print(f"\noutputs under {out_root}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
