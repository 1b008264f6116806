"""Engine integration tests: scenario validation, determinism, replay,
event semantics and cross-fabric equivalence plumbing."""

import copy
import dataclasses
import gc
import sys
from collections import Counter
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

import pytest

from slicesim import engine
from slicesim.blocks.fm import shortest_path
from slicesim.engine import (
    Environment, ScriptEvent, _normalize, compare_fabrics, load_scenario, run,
)
from slicesim.errors import (
    EquivalenceViolation, NoPathError, PolicyForbidsError, ScenarioError,
)
from slicesim.fabric import DeliveryOutcome, Fabric, FabricModelKind
from slicesim.messages import (
    Endpoint, ProcedureKind, Role, SignalMessage, draft,
)
from slicesim.metrics import compute_metrics, render_metrics
from slicesim.netsim import DPlane, SignalingMode, build_view
from slicesim.slices import LifecycleState
from slicesim.trace import (
    EventRecord, MessageRecord, canonical_json, parse_trace, render_trace,
    trace_check,
)

from conftest import CORPUS, attach_once, scenario_path


def load(name):
    return load_scenario(scenario_path(f"{name}.scn"))


def messages(result, kind=None, predicate=None):
    out = []
    for rec in result.trace:
        if not isinstance(rec, MessageRecord):
            continue
        if kind is not None and rec.kind is not kind:
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


def _edit_at_line(tmp_path, at_line: str, edited: str) -> tuple:
    """A copy of `attach-two-slices` in `tmp_path` with `at_line` replaced
    by `edited`, and the number of that line."""
    for name in ("topo-core.txt", "bp-embb.bp", "bp-miot.bp"):
        (tmp_path / name).write_text(scenario_path(name).read_text())
    text = scenario_path("attach-two-slices.scn").read_text()
    path = tmp_path / "edited.scn"
    path.write_text(text.replace(at_line, edited))
    return path, text.splitlines().index(at_line) + 1


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

    def test_empty_topology_field_names_the_field(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("scenario bad\n  topology: \nend\n")
        with pytest.raises(ScenarioError, match="field 'topology' is empty"):
            load_scenario(bad)

    @pytest.mark.parametrize("method", [0, 3, 7, -1])
    def test_attach_method_other_than_1_or_2_names_the_at_line(self, tmp_path,
                                                               method):
        at_line = "  at 2 attach d2 method=1"
        bad, line = _edit_at_line(tmp_path, at_line, f"{at_line[:-1]}{method}")
        with pytest.raises(ScenarioError) as raised:
            load_scenario(bad)
        assert str(raised.value) == (f"{bad}:{line}: at 2 attach d2 "
                                     f"method={method}: method must be 1 or 2")

    @pytest.mark.parametrize("accesses", ["bogus,,x", "", "wifi,",
                                          "cellular,satellite", "WIFI"])
    def test_attach_accesses_outside_the_techs_name_the_at_line(
            self, tmp_path, accesses):
        at_line = "  at 1 attach d1 method=1"
        bad, line = _edit_at_line(tmp_path, at_line,
                                  f"{at_line} accesses={accesses}")
        with pytest.raises(ScenarioError) as raised:
            load_scenario(bad)
        assert str(raised.value) == (
            f"{bad}:{line}: at 1 attach d1 method=1 accesses={accesses}: "
            "accesses may name only cellular, fixed, wifi")

    def test_attach_accesses_load_as_a_tuple(self, tmp_path):
        at_line = "  at 1 attach d1 method=1"
        scn, _ = _edit_at_line(tmp_path, at_line,
                               f"{at_line} accesses=wifi,fixed")
        [attach] = [e for e in load_scenario(scn).script
                    if e.action == "attach" and e.args == ("d1",)]
        assert attach.options == {"method": 1, "accesses": ("wifi", "fixed")}

    @pytest.mark.parametrize("field, old, new", [
        ("topology", "topology: topo-core.txt", "topology: topo-"),
        ("blueprint", "blueprint bp-embb.bp", "blueprint bp-em")])
    def test_missing_referenced_file_names_the_field(self, tmp_path, field,
                                                     old, new):
        for name in ("topo-core.txt", "bp-default.bp", "bp-embb.bp"):
            (tmp_path / name).write_text(scenario_path(name).read_text())
        text = scenario_path("attach-method2-redirect.scn").read_text()
        assert old in text
        bad = tmp_path / "cut.scn"
        bad.write_text(text.replace(old, new))
        missing = tmp_path / new.split()[-1]
        with pytest.raises(ScenarioError) as raised:
            load_scenario(bad)
        assert str(raised.value) == (
            f"{bad}: field '{field}' names {missing}, which cannot be read: "
            "No such file or directory")


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

    @pytest.mark.parametrize("action, args, options, detail", [
        pytest.param("move", ("d1", "n2"), {}, "move while detached", id="move"),
        pytest.param("idle", ("d1",), {}, "idle while detached", id="idle"),
        pytest.param("detach", ("d1",), {}, "detach while detached",
                     id="detach"),
        pytest.param("traffic-start", ("d1",), {"flow": "f1"},
                     "traffic for unattached device", id="traffic-start"),
        pytest.param("attach", ("d1",), {"method": 2}, "attach while attached",
                     id="attach")])
    def test_mobility_event_while_detached_is_an_illegal_event(
            self, action, args, options, detail):
        """Each action its device's state forbids is traced with its own
        text: an attach once the device is attached, any other while it is
        detached."""
        scenario = load("attach-two-slices")
        script = (ScriptEvent(tick=40, action=action, args=args,
                              options=options),)
        if action == "attach":
            script = (ScriptEvent(tick=1, action="attach", args=("d1",),
                                  options={"method": 2}),) + script
        result = run(dataclasses.replace(scenario, script=script), 7)
        assert [e.detail["detail"] for e in errors(result, "IllegalEventError")] \
            == [detail]
        assert len(events(result, "attach-complete")) == (action == "attach")

    def test_move_on_mm_slice_enters_handover_prepare(self):
        result = run(load("handover-mbb"), 7)
        prepares = messages(result, ProcedureKind.HANDOVER_PREPARE,
                            lambda r: r.source.role is Role.UE)
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
                              options={"method": 2}),
                  ScriptEvent(tick=10, action=action, args=args, options={}))
        result = run(dataclasses.replace(scenario, devices=(device,),
                                         script=script), 7)
        assert len(errors(result, "MobilityUnsupported")) == 1
        assert events(result, "attach-complete")
        assert trace_check(result.trace) == []

    @pytest.mark.parametrize("gap", range(7))
    def test_attach_while_attaching_is_traced_not_raised(self, gap):
        scenario = load("attach-two-slices")
        script = (ScriptEvent(tick=1, action="attach", args=("d1",),
                              options={"method": 1}),
                  ScriptEvent(tick=1 + gap, action="attach", args=("d1",),
                              options={"method": 2}))
        scenario = dataclasses.replace(scenario, script=script)
        result = run(scenario, 7)
        rejected = errors(result, "IllegalEventError")
        assert [e.detail["detail"] for e in rejected] == ["attach while attaching"]
        assert len(messages(result, ProcedureKind.ATTACH_REQUEST,
                            lambda r: r.source.role is Role.UE)) == 1
        assert events(result, "attach-complete")
        assert trace_check(result.trace) == []
        assert render_trace(run(scenario, 7).trace) == render_trace(result.trace)

    def test_failed_attach_does_not_block_the_next_one(self):
        scenario = load("attach-two-slices")
        device = dataclasses.replace(scenario.devices[0], allowed=(),
                                     default_slice=None)
        script = (ScriptEvent(tick=1, action="attach", args=("d1",),
                              options={"method": 1}),
                  ScriptEvent(tick=5, action="attach", args=("d1",),
                              options={"method": 1}))
        result = run(dataclasses.replace(scenario, devices=(device,),
                                         script=script), 7)
        assert len(errors(result, "NoEligibleSliceError")) == 2
        assert not errors(result, "IllegalEventError")
        assert trace_check(result.trace) == []

    def test_refused_flow_scenario_takes_the_refusal_leg(self):
        # FM finds no path for the critical flow, replies flow-err, and the
        # CM traces the failure; the default flow installs and delivers
        result = run(load("flow-refused"), 7)
        assert [e.subject for e in errors(result, "CapacityError")] == ["f2"]
        replies = messages(result, ProcedureKind.SESSION_ESTABLISH,
                           lambda r: r.payload.get("phase") in ("flow-ok",
                                                                "flow-err"))
        assert [(r.payload["flow"], r.payload["phase"]) for r in replies] == \
            [("f2", "flow-err"), ("f1", "flow-ok")]
        assert [(e.subject, e.detail["flow"])
                for e in errors(result, "FlowSetupFailed")] == [("d2", "f2")]
        assert result.metrics.flows["f1"]["delivered"] == 10
        assert trace_check(result.trace) == []

    def test_detach_releases_everything(self):
        result = run(load("isolation-pair-noisy"), 7)
        detaches = [e for e in events(result, "detach") if e.subject == "dA2"]
        assert detaches

    def test_page_fans_out_to_area_nodes(self):
        result = run(load("paging"), 7)
        af_pages = messages(result, ProcedureKind.PAGE,
                            lambda r: r.destination.role is Role.AF)
        assert len(af_pages) == 3
        assert len(events(result, "page-complete")) == 1

    def test_teardown_scenario_traces_detaches_and_rejects_late_messages(self):
        result = run(load("teardown"), 7)
        detaches = [e for e in events(result, "detach")
                    if e.detail.get("reason") == "teardown"]
        assert len(detaches) == 2

    @pytest.mark.parametrize("model", engine.FABRIC_MODELS,
                             ids=lambda m: m.value)
    def test_teardown_as_installs_land_leaves_the_plane_empty(self, model):
        # teardown.scn with its teardown at tick 15, the tick its flow's
        # three installs land: script events run first, so the installs
        # reach a torn down plane and are refused as a block's messages are
        scenario = load("teardown")
        scenario.script = tuple(
            ScriptEvent(15, e.action, e.args, e.options)
            if e.action == "teardown" else e for e in scenario.script)
        env = Environment(scenario, 7, fabric_override=model)
        result = env.run()
        installs = messages(result, ProcedureKind.FLOW_CONFIGURE)
        assert [(r.tick, r.destination.ident) for r in installs] == [
            (15, "embb-a:i1"), (15, "embb-a:t1"), (15, "embb-a:a1")]
        refused = errors(result, "LifecycleOrderError")
        assert [(r.tick, r.subject, r.detail["detail"]) for r in refused] == \
            [(15, "embb-a", "message to a torn down slice")] * 3
        assert not messages(result, ProcedureKind.FLOW_NOTIFY)
        plane = env.slices["embb-a"].dplane
        assert plane.rules == {}
        assert env.slices["embb-a"].lifecycle_state is LifecycleState.TORN_DOWN
        assert trace_check(result.trace) == []

    @pytest.mark.parametrize("model", engine.FABRIC_MODELS,
                             ids=lambda m: m.value)
    def test_teardown_leaves_the_block_states_as_it_found_them(
            self, monkeypatch, model):
        # only a block writes its state: the teardown does not, and no
        # message or hook reaches the torn down blocks, so the digest sees
        # them as they were at the teardown
        teardown = engine.slices_mod.teardown
        seen = []

        def checked(instance, attached=()):
            before = _normalize(instance.states)
            result = teardown(instance, attached)
            assert _normalize(instance.states) == before
            seen.append((instance, before))
            return result

        monkeypatch.setattr(engine.slices_mod, "teardown", checked)
        run(load("teardown"), 7, fabric_override=model)
        [(instance, before)] = seen
        assert before["CM"]["sessions"] and before["FM"]["path_table"]
        assert _normalize(instance.states) == before


class TestAttachOrchestration:
    def test_methods_bind_to_the_same_slice(self):
        scenario = load("attach-method2-redirect")
        bound1, msgs1 = attach_once(scenario, "d3", method=1)
        bound2, msgs2 = attach_once(scenario, "d3", method=2)
        assert bound1 == bound2 == "embb-a"
        kinds1 = {m.kind for m in msgs1}
        kinds2 = {m.kind for m in msgs2}
        assert ProcedureKind.SLICE_REDIRECT not in kinds1
        assert ProcedureKind.SLICE_REDIRECT in kinds2
        assert ProcedureKind.SLICE_SELECT in kinds1

    def test_device_already_on_target_slice_sees_no_redirect(self):
        scenario = load("attach-method2-redirect")
        bound, msgs = attach_once(scenario, "d4", method=2)
        assert bound == "default-a"
        assert all(m.kind is not ProcedureKind.SLICE_REDIRECT for m in msgs)

    @pytest.mark.parametrize("model", engine.FABRIC_MODELS,
                             ids=lambda m: m.value)
    def test_method1_attach_again_after_a_detach(self, model):
        # the global CM keeps no per-device state, so the detach, which
        # reaches the slice's CM only, leaves it nothing stale
        scenario = load("attach-two-slices")
        scenario.script += (ScriptEvent(20, "detach", ("d1",), {}),
                            ScriptEvent(30, "attach", ("d1",), {"method": 1}))
        env = Environment(scenario, 7, fabric_override=model)
        result = env.run()
        assert [e.detail["session"] for e in events(result, "attach-complete")
                if e.subject == "d1"] == ["s-embb-a-1", "s-embb-a-2"]
        assert events(result, "error") == []
        assert trace_check(result.trace) == []
        assert env.devices["d1"].bound_slice == "embb-a"
        assert [e for e in events(result, "transition")
                if e.detail["slice"] == "global"] == []
        assert env.global_states[Role.CM].device_table == {}


def hop_totals(results: dict) -> dict:
    """Per model name, the fabric hops of a `compare_fabrics` run."""
    return {name: result.metrics.fabric_hops_total
            for name, result in results.items()}


class TestFabricEquivalence:
    def test_terminal_state_equal_across_models(self):
        hops = hop_totals(compare_fabrics(load("attach-two-slices"), 7))
        assert hops["full_mesh"] < hops["relay"]
        assert hops["full_mesh"] < hops["dispatcher"]

    def test_dispatcher_that_delivers_to_nobody_detected(self, monkeypatch):
        # slice-local authentication rides the fabric in method 2; a
        # dispatcher that drops every unicast diverges the run
        send = Fabric.send

        def drop(fabric, msg):
            record = send(fabric, msg).record
            if fabric.model is FabricModelKind.DISPATCHER:
                record = dataclasses.replace(record, recipients=())
            return DeliveryOutcome(record)

        monkeypatch.setattr(Fabric, "send", drop)
        with pytest.raises(EquivalenceViolation):
            compare_fabrics(load("attach-method2-redirect"), 7)

    def test_zero_inter_bb_traffic_keeps_all_hop_totals_zero(self):
        scenario = load("attach-two-slices")
        quiet = dataclasses.replace(scenario, script=())
        assert set(hop_totals(compare_fabrics(quiet, 7)).values()) == {0}


class TestHandoverContinuity:
    def test_session_ids_unchanged_across_handover(self):
        result = run(load("handover-mbb"), 7)
        sessions = {r.payload.get("session")
                    for r in messages(result)
                    if r.kind in (ProcedureKind.HANDOVER_PREPARE,
                                      ProcedureKind.HANDOVER_EXECUTE,
                                      ProcedureKind.SESSION_RELEASE)
                    and r.payload.get("session")}
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

    def test_run_cut_with_batches_in_flight(self):
        """A run that `max-ticks` ends with several units of each emission
        still in flight counts them in its summary, digests them alike under
        every fabric and replays byte for byte."""
        base = load("handover-mbb")
        scenario = dataclasses.replace(base, max_ticks=30, script=tuple(
            dataclasses.replace(e, options={**e.options, "rate": 3})
            if e.action == "traffic-start" else e for e in base.script))
        env = Environment(scenario, 7)
        result = env.run()
        assert events(result, "max-ticks-reached")
        flow = env.slices["mob-a"].dplane.flows["f5"]
        assert len(flow.in_flight) < flow.units_in_flight
        summary = result.metrics.flows["f5"]
        assert summary["in_flight"] == flow.units_in_flight
        assert summary["sent"] == (summary["delivered"] + summary["lost"]
                                   + summary["in_flight"])
        compare_fabrics(scenario, 7)    # raises if a digest differs
        assert render_trace(run(scenario, 7).trace) == \
            render_trace(result.trace)


def _hook_blocks(env):
    """(ident, instance, role, state) of every block with a tick hook in a
    slice not torn down."""
    for ident, (instance, role, state, *_) in env._route.items():
        if instance is not None and role in engine._TICK_HOOKS and \
                instance.lifecycle_state is not LifecycleState.TORN_DOWN:
            yield ident, instance, role, state


def _skipped(monkeypatch, name):
    """Run a corpus scenario and collect, once per distinct state, every
    block and every plane whose tick hook a tick's end did not call: blocks
    as (ident, instance, role, state copy, tick), planes as (plane copy,
    tick).  A hook writes only its own state, so a state whose hook was not
    called is as the tick's end found it."""
    called: set = set()     # (slice, role) of the hooks called this tick
    for role, hook in list(engine._TICK_HOOKS.items()):
        def calling(state, ctx, hook=hook):
            called.add((ctx.slice_id, ctx.role))
            return hook(state, ctx)

        monkeypatch.setitem(engine._TICK_HOOKS, role, calling)
    env = Environment(load(name), 7)
    blocks: dict = {}
    planes: dict = {}
    original = Environment._run_hooks

    def recording(self):
        called.clear()
        original(self)
        for ident, instance, role, state in _hook_blocks(self):
            if (instance.slice_id, role) not in called:
                key = (ident, canonical_json(_normalize(state)))
                blocks.setdefault(key, (ident, instance, role,
                                        copy.deepcopy(state), self.tick))
        for sid, instance in self.slices.items():
            if (sid, Role.D_PLANE) not in called:
                key = (sid, canonical_json(_normalize(instance.dplane)))
                planes.setdefault(key, (copy.deepcopy(instance.dplane),
                                        self.tick))

    monkeypatch.setattr(Environment, "_run_hooks", recording)
    env.run()
    monkeypatch.undo()
    return env, list(blocks.values()), list(planes.values())


def _force_everything_due(monkeypatch):
    """Call the tick hook of every hooked block and plane at each tick's
    end, whether or not its state has work: the sweep that the has-work
    test replaces, which passed over the blocks of torn down slices.
    Whether the run goes on still reads the states' work."""
    def everything(self):
        for _, _, state, ctx, hook, _ in self._hooked:
            object.__setattr__(ctx, "tick", self.tick)
            _, drafts, events = hook(state, ctx)
            self._absorb(events, ctx.slice_id)
            self.emit(drafts)

    monkeypatch.setattr(Environment, "_run_hooks", everything)


def _flowless_planes():
    for name in CORPUS:
        env = Environment(load(name), 7)
        env.run()
        for instance in env.slices.values():
            if not instance.dplane.flows:
                yield env.tick, instance.dplane
    yield 0, DPlane(spec=load("paging").topology)


class TestSweepSkips:
    """A tick's end calls only the hooks of blocks with work and of planes
    with live flows.  A skipped hook call or plane step would have been a
    no-op."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_skipped_tick_hooks_are_no_ops(self, monkeypatch, name):
        env, idle, _ = _skipped(monkeypatch, name)
        assert idle
        for ident, instance, role, state, tick in idle:
            before = _normalize(state)
            for later in (tick, tick + 1, tick + 9, tick + 1000):
                ctx = dataclasses.replace(env._route[ident][3], tick=later)
                _, drafts, events = engine._TICK_HOOKS[role](state, ctx)
                assert not drafts and not events, (ident, later)
                assert _normalize(state) == before, (ident, later)

    @pytest.mark.parametrize("name", CORPUS)
    def test_skipped_planes_step_to_nothing(self, monkeypatch, name):
        _, _, idle = _skipped(monkeypatch, name)
        assert idle
        for plane, tick in idle:
            before = _normalize(plane)
            for later in (tick, tick + 1, tick + 9, tick + 1000):
                assert plane.step(later) == ([], {}, {}, {})
                assert _normalize(plane) == before

    def test_every_hook_role_is_seen_idle(self, monkeypatch):
        # planes, the one hook role outside a slice's blocks, are the
        # subject of the tests on skipped planes
        roles = {role for name in ("paging", "cghf-reselect")
                 for _, _, role, _, _ in _skipped(monkeypatch, name)[1]}
        assert roles == set(engine._TICK_HOOKS) - {Role.D_PLANE}

    def test_finished_flows_leave_the_due_list(self, monkeypatch):
        _, _, idle = _skipped(monkeypatch, "handover-mbb")
        assert any(plane.flows for plane, _ in idle)

    def test_flowless_planes_step_to_nothing(self):
        planes = list(_flowless_planes())
        assert len(planes) > 1
        for tick, plane in planes:
            before = _normalize(plane)
            for later in (tick, tick + 1, tick + 9, tick + 1000):
                assert plane.step(later) == ([], {}, {}, {})
                assert _normalize(plane) == before

    @pytest.mark.parametrize("name", CORPUS)
    def test_unskipped_hook_sweep_traces_the_same(self, monkeypatch, name):
        skipped = run(load(name), 7)
        _force_everything_due(monkeypatch)
        swept = run(load(name), 7)
        assert render_trace(swept.trace) == render_trace(skipped.trace)
        assert swept.digests == skipped.digests

    def test_context_handling_woken_by_its_first_sample_traces_the_same(
            self, monkeypatch):
        calls: list = []
        hook = engine._TICK_HOOKS[Role.CGHF]

        def counting(state, ctx):
            calls.append(ctx.tick)
            return hook(state, ctx)

        monkeypatch.setitem(engine._TICK_HOOKS, Role.CGHF, counting)
        skipped = run(load("cghf-reselect"), 7)
        woken_at, skipped_calls = calls[0], len(calls)
        calls.clear()
        _force_everything_due(monkeypatch)
        swept = run(load("cghf-reselect"), 7)
        assert calls[0] == 0 < woken_at
        assert skipped_calls < len(calls)
        assert events(skipped, "context")
        assert render_trace(swept.trace) == render_trace(skipped.trace)


def _one_flow_scenario(tmp_path, starts):
    """A one-device scenario on the default blueprint with a `traffic-start`
    of flow fx at each (tick, duration) of `starts`."""
    for name in ("topo-core.txt", "bp-default.bp"):
        (tmp_path / name).write_text(scenario_path(name).read_text())
    lines = ["scenario one-flow", "  topology: topo-core.txt",
             "  blueprint bp-default.bp", "  device d1", "    psi: imsi-1",
             "    proof: tok-1", "    allowed: default-a",
             "    default: default-a", "    mode: direct", "    node: n1",
             "  end", "  at 1 attach d1 method=2"]
    lines += [f"  at {tick} traffic-start d1 flow=fx rate=1 duration={duration}"
              for tick, duration in starts]
    (tmp_path / "one.scn").write_text("\n".join(lines + ["end", ""]))
    return load_scenario(tmp_path / "one.scn")


def _counting_steps(monkeypatch):
    ticks: list = []
    step = DPlane.step

    def counting(plane, tick):
        ticks.append(tick)
        return step(plane, tick)

    monkeypatch.setattr(DPlane, "step", counting)
    return ticks


class TestDueList:
    def test_finished_flow_restarted_under_its_id_steps_again(
            self, tmp_path, monkeypatch):
        ticks = _counting_steps(monkeypatch)
        result = run(_one_flow_scenario(tmp_path, [(10, 2), (40, 3)]), 7)
        delivered = [r.tick for r in events(result, "flow-delivered")]
        assert delivered and min(delivered) < 40 < max(delivered)
        assert sum(r.detail["units"] for r in events(result, "flow-delivered")
                   if r.tick > 40) == 3
        # the plane rests between the two runs of the flow
        assert not [t for t in ticks if max(delivered[:2]) < t < 40]
        summary, = events(result, "flow-summary")
        assert (summary.detail["sent"], summary.detail["delivered"]) == (3, 3)

    def test_plane_emits_its_trailing_zero_loads_once(
            self, tmp_path, monkeypatch):
        ticks = _counting_steps(monkeypatch)
        result = run(_one_flow_scenario(tmp_path, [(10, 2)]), 7)
        loads = [(r.tick, r.payload["link"], r.payload["load"])
                 for r in messages(result, ProcedureKind.FLOW_NOTIFY)
                 if r.payload.get("phase") == "load"]
        links = {link for _, link, _ in loads}
        assert links
        for link in links:
            samples = [load for _, name, load in loads if name == link]
            assert samples[-1] == 0.0
            assert samples.count(0.0) == 1, (link, samples)
        # the last step is the one that sent the trailing zeros
        assert max(ticks) + 1 == max(tick for tick, _, _ in loads)

    def test_compare_fabrics_digests_stay_equal_on_the_corpus(self):
        for name in CORPUS:
            digests = [r.digests for r in compare_fabrics(load(name), 7).values()]
            assert all(d == digests[0] for d in digests), name


class TestSharedRoster:
    def test_one_read_only_roster_is_shared_by_every_cm_and_sam(self):
        env = Environment(load("attach-two-slices"), 7)
        cms = [env.global_states[Role.CM]] + [
            i.states[Role.CM] for i in env.slices.values()]
        sams = [env.global_states[Role.SAM]] + [
            i.states[Role.SAM] for i in env.slices.values()]
        assert len(cms) == len(sams) > 2
        assert len({id(cm.subscription_view) for cm in cms}) == 1
        assert len({id(sam.identity_db) for sam in sams}) == 1
        view, db = cms[-1].subscription_view, sams[-1].identity_db
        assert set(view) == set(env.devices)
        with pytest.raises(TypeError):
            view["d-new"] = view[next(iter(view))]
        with pytest.raises(TypeError):
            del db[next(iter(db))]
        with pytest.raises(AttributeError):
            view.clear()

    def test_roster_is_digested_under_global_only(self):
        env = Environment(load("attach-two-slices"), 7)
        env.run()
        for instance in env.slices.values():
            for role in (Role.CM, Role.SAM):
                blocks = engine._without_roster(instance.states[role])
                assert not engine._ROSTER_FIELDS & set(blocks)
        global_cm = _normalize(env.global_states[Role.CM])
        assert set(global_cm["subscription_view"]) == set(env.devices)


def _first_configure_tick(result):
    return min(r.tick for r in messages(result, ProcedureKind.FLOW_CONFIGURE))


class TestStopRule:
    """The run ends when nothing is queued, scripted or due with work."""

    def test_teardown_ends_unacknowledged_path_applies(self, tmp_path):
        scenario = _one_flow_scenario(tmp_path, [(10, 2)])
        tick = _first_configure_tick(run(scenario, 7))
        scenario.script += (ScriptEvent(tick, "teardown", ("default-a",), {}),)
        env = Environment(scenario, 7)
        result = env.run()
        # the installs reach a torn down plane and are refused unapplied, so
        # nothing acknowledges them and the run ends with them
        installs = messages(result, ProcedureKind.FLOW_CONFIGURE)
        assert installs and {r.tick for r in installs} == {tick}
        assert len(errors(result, "LifecycleOrderError")) == len(installs)
        assert not messages(result, ProcedureKind.FLOW_NOTIFY,
                            lambda r: r.payload["phase"] == "config-ack")
        assert env.slices["default-a"].dplane.rules == {}
        assert not events(result, "max-ticks-reached")
        last_message = max(r.tick for r in messages(result))
        assert events(result, "run-end")[0].tick == last_message == tick

    @staticmethod
    def _last_work_tick(result):
        footer = {"flow-summary", "slice-digest", "run-end"}
        return max(r.tick for r in result.trace
                   if not isinstance(r, EventRecord) or r.kind not in footer)

    def test_teardown_with_rules_to_retire_ends_the_run(self):
        # a traffic-stop leaves the FM rules to retire past the teardown at
        # 30; the torn down FM keeps them, but its hook never runs again
        scenario = load("teardown")
        scenario.script += (
            ScriptEvent(25, "traffic-stop", ("dT1",), {"flow": "fT"}),)
        env = Environment(scenario, 7)
        result = env.run()
        assert [e.tick for e in events(result, "flow-released")] == [27]
        assert env.slices["embb-a"].states[Role.FM].retiring
        assert not events(result, "max-ticks-reached")
        assert events(result, "run-end")[0].tick == self._last_work_tick(result)

    def test_teardown_with_a_page_out_ends_the_run(self):
        scenario = load("paging")
        scenario.script += (ScriptEvent(18, "teardown", ("mob-a",), {}),)
        env = Environment(scenario, 7)
        result = env.run()
        assert env.slices["mob-a"].states[Role.MM].pages
        assert not events(result, "max-ticks-reached")
        assert events(result, "run-end")[0].tick == self._last_work_tick(result) == 18

    def test_flow_that_never_starts_does_not_keep_the_run_going(self, tmp_path):
        scenario = _one_flow_scenario(tmp_path, [(10, 2)])
        topo = (tmp_path / "topo-core.txt").read_text()
        (tmp_path / "topo-core.txt").write_text(
            topo.replace("capacity=50", "capacity=1"))
        scenario = load_scenario(tmp_path / "one.scn")
        scenario.script += (ScriptEvent(
            11, "traffic-start", ("d1",),
            {"flow": "fy", "rate": 1, "duration": 2}),)
        result = run(scenario, 7)
        assert errors(result, "CapacityError")
        sent = {r.subject: r.detail["sent"] for r in events(result, "flow-summary")}
        assert sent == {"fx": 2, "fy": 0}
        assert not events(result, "max-ticks-reached")


def _read_only_emit(monkeypatch):
    """Make every payload `Environment.emit` queues a read-only mapping, so
    a handler that writes to a delivered payload raises."""
    emit = Environment.emit

    def read_only(self, drafts):
        emit(self, [d._replace(payload=MappingProxyType(d.payload))
                    for d in drafts])

    monkeypatch.setattr(Environment, "emit", read_only)


class TestReadOnlyPayloads:
    """Handlers read a delivered payload in place and never write to it,
    so messages may share the dict `draft` keeps."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_read_only_payloads_trace_the_same(self, monkeypatch, name):
        for model in (None, *engine.FABRIC_MODELS):
            plain = run(load(name), 7, fabric_override=model)
            with monkeypatch.context() as patched:
                _read_only_emit(patched)
                read_only = run(load(name), 7, fabric_override=model)
            assert render_trace(read_only.trace) == render_trace(plain.trace)
            assert read_only.digests == plain.digests

    def test_a_write_to_a_delivered_payload_raises(self, monkeypatch):
        handle = engine._HANDLERS[Role.CM]

        def writing(state, msg, ctx):
            msg.payload["device"] = "d-other"
            return handle(state, msg, ctx)

        _read_only_emit(monkeypatch)
        monkeypatch.setitem(engine._HANDLERS, Role.CM, writing)
        with pytest.raises(TypeError):
            run(load("attach-two-slices"), 7)


def _copying_draft(monkeypatch) -> list:
    """Patch a `draft` that builds each message over its own copy of the
    payload into every module that imports `draft` by name; returns them."""
    def copying(kind, source, destination, correlation_id, payload=None):
        return draft(kind, source, destination, correlation_id,
                     dict(payload or {}))

    modules = [module for name, module in sorted(sys.modules.items())
               if name.startswith("slicesim.") and name != "slicesim.messages"
               and getattr(module, "draft", None) is draft]
    for module in modules:
        monkeypatch.setattr(module, "draft", copying)
    return modules


class TestPayloadOwnership:
    """A message keeps the dict it is drafted with, and a forward or a
    publish's unicasts share one: a run traces what it traced when every
    message had a copy of its own."""

    def test_the_copy_reaches_every_module_that_drafts(self, monkeypatch):
        modules = {m.__name__ for m in _copying_draft(monkeypatch)}
        assert {"slicesim.engine", "slicesim.netsim"} | {
            f"slicesim.blocks.{role}" for role in
            ("af", "cghf", "cm", "fm", "mm", "sam")} <= modules

    @pytest.mark.parametrize("name", CORPUS)
    def test_shared_payloads_trace_as_copies(self, monkeypatch, name):
        for model in (None, *engine.FABRIC_MODELS):
            shared = run(load(name), 7, fabric_override=model)
            with monkeypatch.context() as patched:
                _copying_draft(patched)
                copied = run(load(name), 7, fabric_override=model)
            assert render_trace(shared.trace) == render_trace(copied.trace)
            assert shared.digests == copied.digests


def _oracle_latency(scenario, bp):
    """One slice's (ingress, anchor) latencies as a per-slice set-up found
    them: one shortest-path search over its own topology view each."""
    view = build_view(scenario.topology)
    latency = {}
    for ingress in sorted({i.ingress for i in scenario.topology.access.values()}):
        for anchor in bp.anchors:
            try:
                latency[(ingress, anchor)] = shortest_path(view, ingress, anchor)[0]
            except NoPathError:
                continue
    return latency


class TestBuiltOnce:
    """Set-up builds the contexts and the anchor-latency table once per
    run: one context per block and per plane, and one that every device
    shares; the tick loop builds none."""

    def test_no_context_is_built_during_the_run(self, monkeypatch):
        built: list = []
        context_cls = engine.BlockContext

        def counting(*args, **kwargs):
            built.append(context_cls(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(engine, "BlockContext", counting)
        passed: list = []
        for table in (engine._HANDLERS, engine._TICK_HOOKS):
            for role, fn in table.items():
                def recording(*args, fn=fn):
                    passed.append(args[-1])
                    return fn(*args)
                monkeypatch.setitem(table, role, recording)
        env = Environment(load("cghf-reselect"), 7)
        blocks = len(env.global_states) + sum(
            len(instance.states) for instance in env.slices.values())
        assert len(built) == blocks + len(env.slices) + 1
        assert {id(entry[3]) for entry in env._route.values()} == \
            {id(ctx) for ctx in built}
        result = env.run()
        assert len(built) == blocks + len(env.slices) + 1
        # every handler and hook call got its entry's one context, the
        # planes' calls included
        assert {id(ctx) for ctx in passed} <= {id(ctx) for ctx in built}
        assert Role.D_PLANE in {ctx.role for ctx in passed}
        assert len(passed) > len(built)
        assert messages(result) and events(result, "context")

    def test_devices_share_a_context_and_each_plane_has_one(self):
        scenario = load("attach-two-slices")
        env = Environment(scenario, 7)
        device_ctx = env._route[scenario.devices[0].device_id][3]
        assert device_ctx.slice_id is None
        assert all(env._route[d.device_id][3] is device_ctx
                   for d in scenario.devices)
        for sid in env.slices:
            plane = env._route[f"{sid}:probe"]
            assert plane[2] is env.slices[sid].dplane
            assert plane[3].self_endpoint == Endpoint(Role.D_PLANE,
                                                      f"{sid}:probe")
            assert all(env._route[f"{sid}:{node}"] is plane
                       for node in scenario.topology.nodes)

    def test_endpoints_are_built_once(self):
        env = Environment(load("cghf-reselect"), 7)
        built = {ident: (ctx.self_endpoint,
                         {role: ctx.peer_endpoint(role) for role in ctx.peers})
                 for ident, (_, _, _, ctx, *_) in env._route.items()}
        result = env.run()
        for ident, (_, _, _, ctx, *_) in env._route.items():
            own, peers = built[ident]
            assert ctx.self_endpoint is own
            assert all(ctx.peer_endpoint(role) is endpoint
                       for role, endpoint in peers.items())
        # each slice's telemetry leaves one probe endpoint for one FM endpoint
        telemetry = messages(result, ProcedureKind.FLOW_NOTIFY, lambda r:
                             r.source.ident.endswith(":probe"))
        assert telemetry
        for rec in telemetry:
            ctx = env._route[rec.source.ident][3]
            assert rec.source is ctx.self_endpoint
            assert rec.destination is ctx.peer_endpoint(Role.FM)

    def test_handler_cannot_write_to_its_context(self, monkeypatch):
        handle = engine._HANDLERS[Role.CM]

        def writing(state, msg, ctx):
            ctx.slice_id = "elsewhere"
            return handle(state, msg, ctx)

        monkeypatch.setitem(engine._HANDLERS, Role.CM, writing)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run(load("attach-two-slices"), 7)

    @pytest.mark.parametrize("name", CORPUS)
    def test_anchor_latency_table_matches_per_slice_searches(self, name):
        scenario = load(name)
        env = Environment(scenario, 7)
        tables = {id(entry[3].ingress_latency) for entry in env._route.values()}
        table = next(entry[3] for entry in env._route.values()).ingress_latency
        assert len(tables) == 1
        union: dict = {}
        for bp in scenario.blueprints:
            oracle = _oracle_latency(scenario, bp)
            assert {k: v for k, v in table.items() if k[1] in bp.anchors} == oracle
            union.update(oracle)
        assert table == union


class Delivery(NamedTuple):
    tick: int
    priority: int
    seq: int
    correlation_id: str


def _delivery_log(monkeypatch):
    """Log every delivery and the tick each queued message's sequence number
    is drawn at: the tick of the `emit` call that queued it."""
    delivered: list = []
    drawn: dict = {}
    deliver, emit = Environment._deliver, Environment.emit

    def logged_deliver(self, seq, msg):
        delivered.append(Delivery(self.tick, engine._PRIORITY[msg.kind], seq,
                                  msg.correlation_id))
        deliver(self, seq, msg)

    def logged_emit(self, drafts):
        emit(self, drafts)
        for bucket in self.queue:
            for seq, _ in bucket:
                drawn.setdefault(seq, self.tick)

    monkeypatch.setattr(Environment, "_deliver", logged_deliver)
    monkeypatch.setattr(Environment, "emit", logged_emit)
    return delivered, drawn


class TestDeliveryQueue:
    """Each message is delivered one tick after it is emitted; a tick
    delivers by priority class, then by emission order."""

    def test_a_tick_delivers_by_class_then_seq(self, monkeypatch):
        delivered, drawn = _delivery_log(monkeypatch)
        reordered = 0
        for name in CORPUS:
            delivered.clear()
            drawn.clear()
            run(load(name), 7)
            assert delivered
            assert delivered == sorted(delivered), name
            assert all(d.tick == drawn[d.seq] + 1 for d in delivered), name
            reordered += [d.seq for d in delivered] != sorted(
                d.seq for d in delivered)
        # the classes do reorder emissions somewhere in the corpus
        assert reordered

    def test_script_emissions_wait_for_the_next_tick(self, monkeypatch):
        delivered, drawn = _delivery_log(monkeypatch)
        scenario = load("handover-mbb")
        [move] = [e for e in scenario.script if e.action == "move"]
        run(scenario, 7)
        first = next(i for i, d in enumerate(delivered)
                     if d.correlation_id == f"{move.args[0]}:handover:1")
        queued = [i for i, d in enumerate(delivered)
                  if drawn[d.seq] == move.tick - 1]
        assert delivered[first].tick == move.tick + 1
        # the queued messages include a class the handover outranks
        assert any(delivered[i].priority > delivered[first].priority
                   for i in queued)
        assert max(queued) < first

    def test_attach_in_flight_sees_this_tick_and_the_next(self):
        # d1's request, emitted at tick 1, waits in the next tick's buckets
        # for the second attach at tick 1 and in the current ones for the
        # attach at tick 2; the torn down slice drops it, so nothing of it
        # is left at tick 3
        scenario = load("attach-two-slices")
        script = tuple(ScriptEvent(tick, action, args, {})
                       for tick, action, args in (
                           (1, "attach", ("d1",)), (1, "attach", ("d1",)),
                           (1, "teardown", ("embb-a",)),
                           (2, "attach", ("d1",)), (3, "attach", ("d1",))))
        result = run(dataclasses.replace(scenario, script=script), 7)
        assert [(e.tick, e.detail["detail"])
                for e in errors(result, "IllegalEventError")] == [
            (1, "attach while attaching"), (2, "attach while attaching")]
        assert [r.tick for r in messages(
            result, ProcedureKind.ATTACH_REQUEST)] == [2, 4]
        assert [e.tick for e in errors(result, "LifecycleOrderError")] == [
            2, 4]


class TestTickOrder:
    """A finished tick's records are final: when the tick ends, the trace
    is already in its (tick, seq) order, which nothing later changes."""

    @pytest.mark.parametrize("model", engine.FABRIC_MODELS,
                             ids=lambda m: m.value)
    def test_finished_ticks_are_final(self, monkeypatch, model):
        # `_pending_work` runs once at the end of each tick that does not
        # stop the run at max-ticks
        unordered: list = []
        ends = []
        pending_work = Environment._pending_work

        def checked(env):
            ends.append(env.tick)
            if env.trace != sorted(env.trace, key=attrgetter("tick", "seq")):
                unordered.append((env.scenario.scenario_id, env.tick))
            return pending_work(env)

        monkeypatch.setattr(Environment, "_pending_work", checked)
        for name in CORPUS:
            run(load(name), 7, fabric_override=model)
        assert ends
        assert unordered == []


class TestOneRecordPerMessage:
    """A delivered message is one object: the traced record, which is
    also what its receivers get; no drafted message outlives the run."""

    def test_the_trace_holds_no_drafted_message(self, monkeypatch):
        # blocks, devices and planes alike receive through the handler table
        received: list = []
        for role, fn in engine._HANDLERS.items():
            def recording(state, msg, ctx, fn=fn):
                received.append(msg)
                return fn(state, msg, ctx)
            monkeypatch.setitem(engine._HANDLERS, role, recording)

        def drafted() -> int:
            gc.collect()
            return sum(type(o) is SignalMessage for o in gc.get_objects())

        before = drafted()
        result = run(load("handover-mbb"), 7)
        assert drafted() == before
        assert "msg" not in MessageRecord._fields
        assert MessageRecord._fields[2:8] == SignalMessage._fields
        traced = {id(rec) for rec in messages(result)}
        assert received and {id(msg) for msg in received} <= traced
        assert {msg.destination.role for msg in received} >= {
            Role.UE, Role.D_PLANE}


class TestHandlerFaults:
    """What a faulty handler leaves in the trace: the run goes on."""

    def test_domain_error_in_a_handler_is_traced_as_a_refusal(self, monkeypatch):
        def refusing(state, msg, ctx):
            raise PolicyForbidsError("no challenges today")

        monkeypatch.setitem(engine._HANDLERS, Role.SAM, refusing)
        result = run(load("handover-mbb"), 7)
        refusals = errors(result, "PolicyForbidsError")
        assert [(e.subject, e.detail) for e in refusals] == [
            ("SAM.mob-a.1", {"error": "PolicyForbidsError",
                             "detail": "no challenges today"})]
        assert not messages(result, ProcedureKind.AUTH_RESPONSE)
        assert result.trace[-1].kind == "run-end"

    def test_draft_outside_its_schema_is_an_invalid_message(self, monkeypatch):
        handle = engine._HANDLERS[Role.SAM]

        def embellishing(state, msg, ctx):
            state, drafts, events = handle(state, msg, ctx)
            return state, [draft(d.kind, d.source, d.destination,
                                 d.correlation_id, {**d.payload, "surprise": 1})
                           for d in drafts], events

        monkeypatch.setitem(engine._HANDLERS, Role.SAM, embellishing)
        result = run(load("handover-mbb"), 7)
        invalid = errors(result, "InvalidMessage")
        assert [(e.subject, e.detail) for e in invalid] == [
            ("SAM:SAM.mob-a.1", {
                "error": "InvalidMessage",
                "violations": ["payload fields ['surprise'] outside "
                               "AuthResponse schema"]})]
        assert not messages(result, ProcedureKind.AUTH_RESPONSE)
        assert result.trace[-1].kind == "run-end"


class TestScriptPaths:
    @pytest.mark.parametrize("mode", list(SignalingMode))
    def test_attach_without_an_eligible_slice_is_traced(self, mode):
        scenario = load("handover-mbb")
        device = dataclasses.replace(scenario.devices[0], mode=mode,
                                     allowed=(), default_slice=None)
        result = run(dataclasses.replace(scenario, devices=(device,)), 7)
        refused = errors(result, "NoEligibleSliceError")
        assert [(e.tick, e.subject, e.detail) for e in refused] == [
            (1, "d5", {"error": "NoEligibleSliceError",
                       "detail": "no slice to attach to"})]
        assert not messages(result, ProcedureKind.ATTACH_REQUEST)
        assert trace_check(result.trace) == []

    @pytest.mark.parametrize("action,args,detail", [
        ("detach", ("d5",), "detach while detached"),
        ("idle", ("d5",), "idle while detached"),
        # to its own node: the attachment is checked first
        ("move", ("d5", "n1"), "move while detached"),
        ("traffic-start", ("d5",), "traffic for unattached device")])
    def test_event_for_a_detached_device_is_refused(self, action, args,
                                                    detail):
        scenario = load("handover-mbb")
        script = (ScriptEvent(1, action, args, {}),)
        result = run(dataclasses.replace(scenario, script=script), 7)
        assert [(e.tick, e.subject, e.detail) for e in events(result, "error")] \
            == [(1, "d5", {"error": "IllegalEventError", "detail": detail})]
        assert not messages(result)

    def test_traffic_stop_of_a_named_flow_ends_it(self):
        scenario = load("handover-mbb")
        script = scenario.script[:2] + (
            ScriptEvent(20, "traffic-stop", ("d5",), {"flow": "f5"}),)
        env = Environment(dataclasses.replace(scenario, script=script), 7)
        result = env.run()
        flow = env.slices["mob-a"].dplane.flows["f5"]
        assert not flow.active and 0 < flow.sent < 40
        assert [e.subject for e in events(result, "flow-released")] == ["f5"]
        fm_state = env.slices["mob-a"].states[Role.FM]
        assert all("f5" not in b.flows for b in fm_state.sessions.values())
        assert trace_check(result.trace) == []

    def test_device_behind_an_access_function_hands_over_through_it(self):
        scenario = load("handover-mbb")
        device = dataclasses.replace(scenario.devices[0],
                                     mode=SignalingMode.VIA_AF)
        env = Environment(dataclasses.replace(scenario, devices=(device,)), 7)
        result = env.run()
        executes = [(r.source.role, r.destination.role,
                     r.payload["phase"])
                    for r in messages(result, ProcedureKind.HANDOVER_EXECUTE)]
        assert executes == [(Role.MM, Role.AF, "execute"),
                            (Role.AF, Role.UE, "execute"),
                            (Role.UE, Role.AF, "confirm"),
                            (Role.AF, Role.MM, "confirm")]
        assert len(events(result, "handover-complete")) == 1
        assert env.slices["mob-a"].states[Role.AF].device_location["d5"] == "n2"
        assert result.metrics.flows["f5"]["lost"] == 0


class TestDeviceAndPlaneEntries:
    """Devices and planes take messages through routing entries of the
    block shape, which no fabric carries."""

    @pytest.mark.parametrize("model", engine.FABRIC_MODELS,
                             ids=lambda m: m.value)
    def test_device_and_plane_records_cross_no_fabric(self, model):
        seen = set()
        for name in CORPUS:
            for rec in messages(run(load(name), 7, fabric_override=model)):
                if rec.destination.role in (Role.UE, Role.D_PLANE):
                    assert (rec.hop_count, rec.mediators, rec.recipients) \
                        == (1, (), ()), (name, rec)
                    seen.add(rec.destination.role)
        assert seen == {Role.UE, Role.D_PLANE}

    def test_a_stale_remove_is_rejected_without_an_ack(self):
        # cghf-reselect's reselection removes a rule at t1 that is gone
        result = run(load("cghf-reselect"), 7)
        [reject] = events(result, "config-reject")
        assert (reject.subject, reject.detail) == (
            "t1", {"reason": "no matching rule", "slice": "ctx-a"})
        [stale] = messages(result, ProcedureKind.FLOW_CONFIGURE, lambda r:
                           r.tick == reject.tick
                           and r.destination.ident == "ctx-a:t1"
                           and r.payload["action"] == "remove")
        configures = Counter(
            (r.destination, r.correlation_id)
            for r in messages(result, ProcedureKind.FLOW_CONFIGURE))
        acks = Counter(
            (r.source, r.correlation_id)
            for r in messages(result, ProcedureKind.FLOW_NOTIFY, lambda r:
                              r.payload.get("phase") == "config-ack"))
        assert configures - acks == Counter(
            {(stale.destination, stale.correlation_id): 1})

    def test_a_redirect_to_an_unknown_slice_names_no_slice(self):
        env = Environment(load("handover-mbb"), 7)
        cm = Endpoint(Role.CM, env.slices["mob-a"].peers[Role.CM])
        env.emit([draft(ProcedureKind.SLICE_REDIRECT, cm,
                        Endpoint(Role.UE, "d5"), "d5:attach:9",
                        {"device": "d5", "target": "ghost"})])
        result = env.run()
        assert [(e.tick, e.subject, e.detail)
                for e in errors(result, "NoEligibleSliceError")] == [
            (0, "d5", {"error": "NoEligibleSliceError",
                       "detail": "no slice to attach to"})]
        assert not messages(result, predicate=lambda r:
                            r.correlation_id == "d5:attach:9"
                            and r.source.role is Role.UE)


class TestNoSubscriber:
    """A context published on a topic nobody subscribes to: cghf-reselect
    without its `subscribe` line.  Non-broker fabrics expand the publish at
    emission and find no one; the broker carries it and flags the empty
    delivery.  Neither reselects, so the digests stay equal."""

    def unsubscribed(self):
        scenario = load("cghf-reselect")
        bp = dataclasses.replace(scenario.blueprints[0], subscriptions=())
        return dataclasses.replace(scenario, blueprints=(bp,))

    @pytest.mark.parametrize("model", engine.FABRIC_MODELS[:3],
                             ids=lambda m: m.value)
    def test_expanded_publish_with_no_subscriber(self, model):
        result = run(self.unsubscribed(), 7, fabric_override=model)
        assert [(e.tick, e.subject, e.detail)
                for e in errors(result, "NoSubscriberError")] == [
            (46, "dplane-latency", {"error": "NoSubscriberError",
                                    "publisher": "CGHF.ctx-a.1"})]
        assert not messages(result, ProcedureKind.CONTEXT_NOTIFY)
        assert not events(result, "reselect")

    def test_broker_publish_with_no_subscriber(self):
        result = run(self.unsubscribed(), 7,
                     fabric_override=engine.FABRIC_MODELS[3])
        assert [(e.tick, e.subject, e.detail)
                for e in errors(result, "NoSubscriberError")] == [
            (47, "topic:dplane-latency", {"error": "NoSubscriberError"})]
        [notify] = messages(result, ProcedureKind.CONTEXT_NOTIFY)
        assert (notify.tick, notify.hop_count, notify.mediators,
                notify.recipients) == (47, 2, ("PS.ctx-a.1",), ())
        assert not events(result, "reselect")

    def test_digests_stay_equal_across_the_four_models(self):
        compare_fabrics(self.unsubscribed(), 7)
