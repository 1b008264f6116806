"""Engine integration tests: scenario validation, determinism, replay,
event semantics and cross-fabric equivalence plumbing."""

import dataclasses

import pytest

from slicesim.engine import (
    Environment, ScriptEvent, compare_fabrics, load_scenario, run,
)
from slicesim.errors import EquivalenceViolation, ScenarioError
from slicesim.fabric import DEFAULT_PROJECTIONS
from slicesim.messages import ProcedureKind, Role
from slicesim.metrics import compute_metrics, render_metrics
from slicesim.netsim import SignalingMode
from slicesim.trace import (
    EventRecord, MessageRecord, parse_trace, render_trace, trace_check,
)

from conftest import scenario_path

CORPUS = ("attach-two-slices", "attach-method2-redirect", "handover-mbb",
          "handover-bbm", "paging", "cghf-reselect", "isolation-pair",
          "isolation-pair-noisy", "fixed-nomm", "teardown")


def load(name):
    return load_scenario(scenario_path(f"{name}.scn"))


def messages(result, kind=None, predicate=None):
    out = []
    for rec in result.trace:
        if not isinstance(rec, MessageRecord):
            continue
        if kind is not None and rec.msg.kind is not kind:
            continue
        if predicate is not None and not predicate(rec):
            continue
        out.append(rec)
    return out


def events(result, kind):
    return [r for r in result.trace
            if isinstance(r, EventRecord) and r.kind == kind]


def errors(result, name):
    return [r for r in events(result, "error") if r.detail.get("error") == name]


class TestScenarioLoading:
    def test_corpus_loads(self):
        for name in CORPUS:
            scenario = load(name)
            assert scenario.scenario_id == name

    def test_unknown_blueprint_reference(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("""
scenario bad
  topology: topo-core.txt
  device d1
    psi: imsi-1
    proof: p
    allowed: ghost-slice
    default: ghost-slice
    mode: direct
    node: n1
  end
end
""")
        (tmp_path / "topo-core.txt").write_text(
            scenario_path("topo-core.txt").read_text())
        with pytest.raises(ScenarioError):
            load_scenario(bad)

    def test_event_for_unknown_device(self, tmp_path):
        bad = tmp_path / "bad.scn"
        (tmp_path / "topo-core.txt").write_text(
            scenario_path("topo-core.txt").read_text())
        bad.write_text("""
scenario bad
  topology: topo-core.txt
  at 1 attach ghost method=2
end
""")
        with pytest.raises(ScenarioError):
            load_scenario(bad)

    def test_decreasing_event_ticks_rejected(self, tmp_path):
        (tmp_path / "topo-core.txt").write_text(
            scenario_path("topo-core.txt").read_text())
        (tmp_path / "bp.bp").write_text(
            scenario_path("bp-fixed.bp").read_text())
        bad = tmp_path / "bad.scn"
        bad.write_text("""
scenario bad
  topology: topo-core.txt
  blueprint bp.bp
  device d1
    psi: imsi-1
    proof: p
    allowed: fixed-a
    default: fixed-a
    mode: direct
    node: n1
  end
  at 5 attach d1 method=2
  at 2 detach d1
end
""")
        with pytest.raises(ScenarioError):
            load_scenario(bad)


class TestDeterminism:
    def test_equal_seeds_produce_identical_traces(self):
        scenario = load("attach-two-slices")
        first = render_trace(run(scenario, 7).trace)
        second = render_trace(run(scenario, 7).trace)
        assert first == second

    def test_different_seeds_differ_only_in_minted_identities(self):
        scenario = load("attach-two-slices")
        first = run(scenario, 7)
        second = run(scenario, 8)
        lines7 = render_trace(first.trace).splitlines()
        lines8 = render_trace(second.trace).splitlines()
        assert len(lines7) == len(lines8)
        for a, b in zip(lines7, lines8):
            if a == b:
                continue
            # minted identities, the seed header, and state digests derived
            # from minted identities are the only admissible differences
            assert ("psn-" in a or "ctx-" in a or "key-" in a
                    or '"seed"' in a or '"digest"' in a
                    or a.startswith("EVT") and "digest." in a), a
        # procedure outcomes identical
        assert [e.subject for e in events(first, "attach-complete")] == \
            [e.subject for e in events(second, "attach-complete")]

    def test_trace_parses_and_audits_clean(self):
        for name in CORPUS:
            result = run(load(name), 7)
            text = render_trace(result.trace)
            assert parse_trace(text) == result.trace
            assert trace_check(result.trace) == []

    def test_metrics_are_a_pure_fold_over_the_trace(self):
        for name in CORPUS:
            result = run(load(name), 7)
            recomputed = compute_metrics(parse_trace(render_trace(result.trace)))
            assert render_metrics(recomputed) == render_metrics(result.metrics)

    def test_replay_from_recorded_inputs(self):
        scenario = load("handover-mbb")
        result = run(scenario, 7)
        header = result.trace[0]
        assert header.kind == "run-start"
        replay = run(load(header.subject), header.detail["seed"])
        assert render_trace(replay.trace) == render_trace(result.trace)


class TestEventSemantics:
    def test_traffic_while_detached_is_an_illegal_event(self):
        scenario = load("attach-two-slices")
        script = (ScriptEvent(tick=1, action="traffic-start", args=("d1",),
                              options={"flow": "f1"}),)
        result = run(dataclasses.replace(scenario, script=script), 7)
        assert errors(result, "IllegalEventError")

    def test_move_while_detached_is_an_illegal_event(self):
        scenario = load("attach-two-slices")
        script = (ScriptEvent(tick=1, action="move", args=("d1", "n2"),
                              options={}),)
        result = run(dataclasses.replace(scenario, script=script), 7)
        assert errors(result, "IllegalEventError")

    def test_move_on_mm_slice_enters_handover_prepare(self):
        result = run(load("handover-mbb"), 7)
        prepares = messages(result, ProcedureKind.HANDOVER_PREPARE,
                            lambda r: r.msg.source.role is Role.UE)
        assert prepares, "move event must inject HandoverPrepare"

    def test_move_without_mm_traces_one_unsupported_event(self):
        result = run(load("fixed-nomm"), 7)
        assert len(errors(result, "MobilityUnsupported")) == 1
        # session state unchanged: the flow keeps delivering afterwards
        assert result.metrics.flows["f9"]["lost"] == 0

    @pytest.mark.parametrize("mode", list(SignalingMode))
    @pytest.mark.parametrize("action,args", [
        pytest.param("idle", ("d9",), id="idle"),
        pytest.param("page", ("d9",), id="page"),
        pytest.param("move", ("d9", "n1"), id="move")])
    def test_mobility_event_without_mm_is_traced_not_raised(
            self, action, args, mode):
        scenario = load("fixed-nomm")
        device = dataclasses.replace(scenario.devices[0], mode=mode)
        script = (ScriptEvent(tick=1, action="attach", args=("d9",),
                              options={"method": "2"}),
                  ScriptEvent(tick=10, action=action, args=args, options={}))
        result = run(dataclasses.replace(scenario, devices=(device,),
                                         script=script), 7)
        assert len(errors(result, "MobilityUnsupported")) == 1
        assert events(result, "attach-complete")
        assert trace_check(result.trace) == []

    def test_detach_releases_everything(self):
        result = run(load("isolation-pair-noisy"), 7)
        detaches = [e for e in events(result, "detach") if e.subject == "dA2"]
        assert detaches

    def test_page_fans_out_to_area_nodes(self):
        result = run(load("paging"), 7)
        af_pages = messages(result, ProcedureKind.PAGE,
                            lambda r: r.msg.destination.role is Role.AF)
        assert len(af_pages) == 3
        assert len(events(result, "page-complete")) == 1

    def test_teardown_scenario_traces_detaches_and_rejects_late_messages(self):
        result = run(load("teardown"), 7)
        detaches = [e for e in events(result, "detach")
                    if e.detail.get("reason") == "teardown"]
        assert len(detaches) == 2


class TestAttachOrchestration:
    def test_methods_bind_to_the_same_slice(self):
        scenario = load("attach-method2-redirect")
        env1 = Environment(scenario, seed=7)
        bound1, msgs1 = env1.attach_device("d3", method=1)
        env2 = Environment(scenario, seed=7)
        bound2, msgs2 = env2.attach_device("d3", method=2)
        assert bound1 == bound2 == "embb-a"
        kinds1 = {m.msg.kind for m in msgs1}
        kinds2 = {m.msg.kind for m in msgs2}
        assert ProcedureKind.SLICE_REDIRECT not in kinds1
        assert ProcedureKind.SLICE_REDIRECT in kinds2
        assert ProcedureKind.SLICE_SELECT in kinds1

    def test_device_already_on_target_slice_sees_no_redirect(self):
        scenario = load("attach-method2-redirect")
        env = Environment(scenario, seed=7)
        bound, msgs = env.attach_device("d4", method=2)
        assert bound == "default-a"
        assert all(m.msg.kind is not ProcedureKind.SLICE_REDIRECT for m in msgs)


class TestFabricEquivalence:
    def test_terminal_state_equal_across_models(self):
        comparison = compare_fabrics(load("attach-two-slices"), 7)
        hops = comparison.hop_totals()
        assert hops["full_mesh"] < hops["relay"]
        assert hops["full_mesh"] < hops["dispatcher"]

    def test_broken_dispatcher_projection_detected(self):
        # slice-local authentication rides the fabric in method 2; dropping
        # the verdict from the dispatcher's proxy interface diverges the run
        broken = dict(DEFAULT_PROJECTIONS)
        broken[ProcedureKind.AUTH_RESPONSE] = frozenset({"device"})
        with pytest.raises(EquivalenceViolation):
            compare_fabrics(load("attach-method2-redirect"), 7,
                            projections=broken)

    def test_zero_inter_bb_traffic_keeps_all_hop_totals_zero(self):
        scenario = load("attach-two-slices")
        quiet = dataclasses.replace(scenario, script=())
        comparison = compare_fabrics(quiet, 7)
        assert set(comparison.hop_totals().values()) == {0}


class TestHandoverContinuity:
    def test_session_ids_unchanged_across_handover(self):
        result = run(load("handover-mbb"), 7)
        sessions = {r.msg.payload.get("session")
                    for r in messages(result)
                    if r.msg.kind in (ProcedureKind.HANDOVER_PREPARE,
                                      ProcedureKind.HANDOVER_EXECUTE,
                                      ProcedureKind.SESSION_RELEASE)
                    and r.msg.payload.get("session")}
        assert len(sessions) == 1
        assert events(result, "handover-complete")

    def test_make_before_break_is_lossless(self):
        result = run(load("handover-mbb"), 7)
        assert result.metrics.flows["f5"]["lost"] == 0
        assert result.metrics.flows["f5"]["sent"] == 40

    def test_break_before_make_loses_units(self):
        result = run(load("handover-bbm"), 7)
        assert result.metrics.flows["f5"]["lost"] >= 1

    def test_handover_keeps_conservation(self):
        for name in ("handover-mbb", "handover-bbm"):
            summary = run(load(name), 7).metrics.flows["f5"]
            assert summary["sent"] == (summary["delivered"] + summary["lost"]
                                       + summary["in_flight"])
