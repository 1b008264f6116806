"""Tests of the benchmark's own code: generator, tracing and pipeline.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses

import pytest

import gen
import pipeline
import tracing
from slicesim import catalog, cli, engine, fabric, metrics, netsim, slices, trace

#: Small stand-ins for the workloads: every knob but the size is kept.
SMALL = {
    "attach-storm": dataclasses.replace(gen.WORKLOADS["attach-storm"], devices=24),
    "slice-fanout": dataclasses.replace(gen.WORKLOADS["slice-fanout"], devices=24,
                                        slices=8),
    "flow-steady": dataclasses.replace(gen.WORKLOADS["flow-steady"], devices=4,
                                       flow_duration=40),
    "compose-catalog": gen.CatalogParams(extra_sfs=4),
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    first = _files(gen.write_workload(name, 3, tmp_path / "a").parent)
    again = _files(gen.write_workload(name, 3, tmp_path / "b").parent)
    other = _files(gen.write_workload(name, 4, tmp_path / "c").parent)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(n for n, p in gen.WORKLOADS.items()
                                        if isinstance(p, gen.ScenarioParams)))
def test_generated_scenarios_validate(name, tmp_path):
    path = gen.write_workload(name, 5, tmp_path)
    assert cli.main(["validate", "--scenario", str(path)]) == 0
    params = gen.WORKLOADS[name]
    scenario = engine.load_scenario(path)
    assert len(scenario.devices) == params.devices
    assert len(scenario.blueprints) == params.slices


def test_knobs_scale_one_at_a_time(tmp_path):
    base = gen.WORKLOADS["attach-storm"]
    bigger = dataclasses.replace(base, devices=base.devices * 2)
    a = engine.load_scenario(gen.write_workload("attach-storm", 1, tmp_path / "a"))
    b = engine.load_scenario(gen.write_workload("attach-storm", 1, tmp_path / "b", bigger))
    assert len(b.devices) == 2 * len(a.devices)
    assert len(b.blueprints) == len(a.blueprints)
    assert a.topology == b.topology


def _originals():
    return {
        "handlers": dict(engine._HANDLERS), "hooks": dict(engine._TICK_HOOKS),
        "engine": {n: getattr(engine, n) for n in (
            "BlockContext", "validate_message", "compute_metrics", "load_scenario")},
        "methods": (engine.Environment.__dict__["run"], fabric.Fabric.__dict__["send"],
                    netsim.DPlane.__dict__["step"], netsim.DPlane.__dict__["configure"]),
        "modules": (slices.instantiate, catalog.load_catalog_file,
                    catalog.derive_separation_constraints, catalog.group_into_bbs,
                    catalog.evaluate_grouping, trace.render_trace, trace.trace_check,
                    trace.parse_trace, metrics.render_metrics),
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_restores_wrappers(name, tmp_path):
    path = gen.write_workload(name, 2, tmp_path / "in", SMALL[name])
    before = _originals()
    run = pipeline.run_compose if path.suffix == ".cat" else (
        lambda p, out, tracer: pipeline.run_scenario(p, 2, out, tracer))
    for out in ("plain", "traced"):
        (tmp_path / out).mkdir()
    plain = run(path, tmp_path / "plain", None)
    tracer = tracing.Tracer("test")
    traced = run(path, tmp_path / "traced", tracer)
    assert _originals() == before
    assert plain["problems"] == traced["problems"] == []
    assert plain["sha256"] == traced["sha256"]
    layers = tracing.layer_metrics(tracer, traced["records"], traced["ticks"],
                                   traced["trace_bytes"])
    if path.suffix == ".cat":
        assert layers["catalog.sfs"] > 0 and layers["catalog.group_s"] > 0
    else:
        assert layers["engine.records"] == plain["records"]
        assert layers["slices.instances"] == SMALL[name].slices
        assert layers["engine.self_s"] <= layers["engine.sim_s"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer("t")
    tracer.call("outer", lambda: tracer.call("inner", sum, range(10000)))
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert [s[1] for s in tracer.spans] == [1, 0]   # inner's parent is outer
