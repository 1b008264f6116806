"""Command-line entry point: compose, validate, run, compare-fabrics,
trace-check.

Outputs land under --out-dir with stable names (grouping.txt, trace.log,
metrics.txt, compare.txt).  Exit status 0 means no errors and no invariant
violations; domain errors exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog as catalog_mod
from . import slices as slices_mod
from .engine import compare_fabrics, load_scenario, run
from .errors import SliceSimError
from .fabric import FabricModel
from .metrics import render_metrics
from .trace import iter_trace, render_trace, trace_check


def _load_catalog(arg: str):
    path = (catalog_mod.reference_catalog_path() if arg == "reference"
            else Path(arg))
    return catalog_mod.load_catalog_file(path)


def cmd_compose(args) -> int:
    cat = _load_catalog(args.catalog)
    bbs, report, decision = catalog_mod.compose(cat)
    out = Path(args.out_dir) / "grouping.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    text = catalog_mod.render_grouping(bbs, report)
    text += f"# refinement: {decision.action.value}"
    if decision.offending_procedures:
        text += " " + ",".join(decision.offending_procedures)
    text += "\n"
    out.write_text(text, encoding="utf-8")
    print(f"{len(bbs)} building blocks -> {out}")
    return 0


def cmd_validate(args) -> int:
    if args.blueprint:
        bp = slices_mod.load_blueprint_file(args.blueprint)
        verdict = slices_mod.validate_blueprint(bp)
        if not verdict:
            for violation in verdict.violations:
                print(f"violation: {violation}")
            return 1
        print(f"blueprint {bp.slice_id}: valid")
        return 0
    scenario = load_scenario(args.scenario)
    print(f"scenario {scenario.scenario_id}: valid "
          f"({len(scenario.blueprints)} slices, {len(scenario.devices)} devices, "
          f"{len(scenario.script)} events)")
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run(scenario, args.seed, fabric_override=args.fabric)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.log").write_text(render_trace(result.trace), encoding="utf-8")
    (out_dir / "metrics.txt").write_text(render_metrics(result.metrics),
                                         encoding="utf-8")
    violations = trace_check(result.trace)
    for violation in violations:
        print(f"invariant violation: {violation}")
    print(f"{len(result.trace)} records -> {out_dir / 'trace.log'}")
    return 1 if violations else 0


def cmd_compare_fabrics(args) -> int:
    scenario = load_scenario(args.scenario)
    comparison = compare_fabrics(scenario, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["model | fabric-hops | trace-records"]
    for name, result in comparison.results.items():
        lines.append(f"{name} | {result.metrics.fabric_hops_total} "
                     f"| {len(result.trace)}")
    digest_line = next(iter(comparison.results.values())).digests
    lines.append(f"digests (identical across models): {digest_line}")
    text = "\n".join(lines) + "\n"
    (out_dir / "compare.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_trace_check(args) -> int:
    count = 0

    def counted(records):
        nonlocal count
        for count, record in enumerate(records, start=1):
            yield record

    with open(args.trace, encoding="utf-8") as lines:
        violations = trace_check(counted(iter_trace(lines, source=args.trace)))
    for violation in violations:
        print(f"invariant violation: {violation}")
    if violations:
        return 1
    print(f"{count} records, no violations")
    return 0


def _fabric_model(text: str) -> FabricModel:
    try:
        return FabricModel.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown fabric model '{text}'") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesim",
        description="Modular core-network control plane simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    compose = sub.add_parser("compose", help="derive building blocks from a catalog")
    compose.add_argument("--catalog", required=True,
                         help="catalog document path, or 'reference'")
    compose.add_argument("--out-dir", default=".")
    compose.set_defaults(fn=cmd_compose)

    validate = sub.add_parser("validate", help="validate a blueprint or scenario")
    group = validate.add_mutually_exclusive_group(required=True)
    group.add_argument("--blueprint")
    group.add_argument("--scenario")
    validate.set_defaults(fn=cmd_validate)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--out-dir", default=".")
    run_p.add_argument("--fabric", type=_fabric_model,
                       help="override the fabric model "
                       "(full_mesh, relay[:ROLE], dispatcher, pubsub)")
    run_p.set_defaults(fn=cmd_run)

    cmp_p = sub.add_parser("compare-fabrics",
                           help="run a scenario over all four fabric models")
    cmp_p.add_argument("--scenario", required=True)
    cmp_p.add_argument("--seed", type=int, default=7)
    cmp_p.add_argument("--out-dir", default=".")
    cmp_p.set_defaults(fn=cmd_compare_fabrics)

    check = sub.add_parser("trace-check", help="audit a trace file")
    check.add_argument("--trace", required=True)
    check.set_defaults(fn=cmd_trace_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SliceSimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
