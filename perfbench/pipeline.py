"""One pipeline of one workload, in the fresh interpreter that runs it.

    python3 perfbench/pipeline.py --input FILE --seed N --out DIR [--audit]
                                  [--traced --id ID]

A `.scn` input runs what `slicesim run` does and, with --audit, what
`slicesim trace-check` then does on the written trace; a `.cat` input runs
`slicesim compose`.  The last stdout line is one JSON
object with the timings, the peak RSS and what the correctness gate needs.
With --traced the layers are wrapped (see tracing.py), the spans are written
to DIR/spans.tsv and the per-layer figures are added under "layers".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from slicesim import catalog, cli, engine, metrics, trace
from slicesim.trace import EventRecord

from gen import reference_catalog_text
from tracing import Tracer, layer_metrics

#: Extra set-ups per interpreter before the pipeline, so set-up time is a
#: median of many short measurements.
SETUP_REPEATS = 4

CANONICAL_BLOCKS = {"AF", "CM", "MM", "SAM", "FM", "CGHF"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python task that uses no
    slicesim code: how fast this machine runs the interpreter right now."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        rows = [{"id": i, "name": f"n{i % 97}", "v": (i * 7919) % 1000}
                for i in range(20000)]
        heap: list = []
        for row in rows:
            heapq.heappush(heap, (row["v"], row["id"]))
        digests = {hashlib.sha256(json.dumps(row, sort_keys=True).encode())
                   .hexdigest(): row for row in rows[:8000]}
        sorted(digests)
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def run_scenario(path: Path, seed: int, out: Path, tracer, audit: bool = True) -> dict:
    reference = [reference_s()]
    setups = []
    if tracer is None:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            env = engine.Environment(engine.load_scenario(path), seed)
            setups.append(perf_counter() - t0)
            del env
        gc.collect()
    scope = tracer.installed() if tracer else contextlib.nullcontext()
    with scope:
        t0 = perf_counter()
        scenario = engine.load_scenario(path)
        env = engine.Environment(scenario, seed)
        t1 = perf_counter()
        result = env.run()
        t2 = perf_counter()
        text = trace.render_trace(result.trace)
        (out / "trace.log").write_text(text, encoding="utf-8")
        (out / "metrics.txt").write_text(metrics.render_metrics(result.metrics),
                                         encoding="utf-8")
        t3 = perf_counter()
        violations = trace.trace_check(result.trace)
        t4 = perf_counter()
        peak = _peak_rss_mb()
        reference.append(reference_s())
        data = text.encode()
        figures = {
            "pipeline_s": t4 - t0, "setup_s": setups + [t1 - t0],
            "reference_s": reference,
            "stages": {"setup_s": t1 - t0, "sim_s": t2 - t1,
                       "render_s": t3 - t2, "check_s": t4 - t3},
            "peak_rss_mb": peak,
            "sha256": hashlib.sha256(data).hexdigest(),
            "problems": violations[:3], "records": len(result.trace),
            "ticks": env.tick, "trace_bytes": len(data),
            "ops": len(scenario.script),
            "errors": sum(1 for r in result.trace
                          if isinstance(r, EventRecord) and r.kind == "error"),
        }
        in_run = result.metrics
        del scenario, env, result, text, data
        if not audit:
            return figures
        gc.collect()
        # `slicesim trace-check` on the written trace, starting clean.
        t0 = perf_counter()
        records = trace.parse_trace((out / "trace.log").read_text(encoding="utf-8"),
                                    source=str(out / "trace.log"))
        violations = trace.trace_check(records)
        figures["audit_s"] = perf_counter() - t0
    figures["problems"] += violations[:3]
    if metrics.compute_metrics(records) != in_run:
        figures["problems"].append(
            "metrics folded from the written trace differ from the in-run report")
    return figures


def run_compose(path: Path, out: Path, tracer) -> dict:
    reference = [reference_s()]
    setups = []
    if tracer is None:
        for _ in range(SETUP_REPEATS + 1):
            t0 = perf_counter()
            catalog.load_catalog_file(path)
            setups.append(perf_counter() - t0)
    args = argparse.Namespace(catalog=str(path), out_dir=str(out))
    scope = tracer.installed() if tracer else contextlib.nullcontext()
    with scope, contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        status = cli.cmd_compose(args)
        pipeline_s = perf_counter() - t0
    peak = _peak_rss_mb()
    reference.append(reference_s())
    text = (out / "grouping.txt").read_text(encoding="utf-8")
    blocks = {line.split()[1] for line in text.splitlines() if line.startswith("bb ")}
    canonical, _, _ = catalog.compose(catalog.load_catalog(reference_catalog_text()))
    problems = []
    if status != 0:
        problems.append(f"compose exited with {status}")
    if {bb.bb_id for bb in canonical} != CANONICAL_BLOCKS:
        problems.append("reference catalog no longer composes to the six "
                        f"canonical blocks: {sorted(bb.bb_id for bb in canonical)}")
    if not CANONICAL_BLOCKS < blocks:
        problems.append(f"generated catalog lost a canonical block: {sorted(blocks)}")
    return {"pipeline_s": pipeline_s, "setup_s": setups, "reference_s": reference,
            "peak_rss_mb": peak,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "problems": problems, "records": 0, "ticks": 0, "trace_bytes": 0}


def main() -> None:
    parser = argparse.ArgumentParser(description="run one benchmark pipeline")
    parser.add_argument("--input", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--audit", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--id", default="pipeline")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(args.id) if args.traced else None
    if args.input.suffix == ".cat":
        figures = run_compose(args.input, args.out, tracer)
    else:
        figures = run_scenario(args.input, args.seed, args.out, tracer, args.audit)
    if tracer is not None:
        tracer.write(args.out / "spans.tsv")
        figures["layers"] = layer_metrics(tracer, figures["records"],
                                          figures["ticks"], figures["trace_bytes"])
    print(json.dumps(figures))


if __name__ == "__main__":
    sys.exit(main())
