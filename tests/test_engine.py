"""Engine integration tests: scenario validation, determinism, replay,
event semantics and cross-fabric equivalence plumbing."""

import copy
import dataclasses
from types import MappingProxyType

import pytest

from slicesim import engine
from slicesim.blocks.fm import shortest_path
from slicesim.engine import (
    Environment, ScriptEvent, _normalize, compare_fabrics, load_scenario, run,
)
from slicesim.errors import EquivalenceViolation, NoPathError, ScenarioError
from slicesim.fabric import DEFAULT_PROJECTIONS
from slicesim.messages import ProcedureKind, Role
from slicesim.metrics import compute_metrics, render_metrics
from slicesim.netsim import DPlane, SignalingMode, build_view
from slicesim.slices import LifecycleState
from slicesim.trace import (
    EventRecord, MessageRecord, canonical_json, parse_trace, render_trace,
    trace_check,
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
                            lambda r: r.msg.source.role is Role.UE)) == 1
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

    def test_broken_dispatcher_projection_detected(self, monkeypatch):
        # slice-local authentication rides the fabric in method 2; dropping
        # the verdict from the dispatcher's proxy interface diverges the run
        monkeypatch.setitem(DEFAULT_PROJECTIONS, ProcedureKind.AUTH_RESPONSE,
                            frozenset({"device"}))
        with pytest.raises(EquivalenceViolation):
            compare_fabrics(load("attach-method2-redirect"), 7)

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


def _hook_blocks(env):
    """(ident, instance, role, state) of every block with a tick hook in a
    slice not torn down."""
    for ident, (instance, role, state, _) in env._route.items():
        if instance is not None and role in engine._TICK_HOOKS and \
                instance.lifecycle_state is not LifecycleState.TORN_DOWN:
            yield ident, instance, role, state


def _skipped(monkeypatch, name):
    """Run a corpus scenario and collect, once per distinct state, every
    block and every plane the due list left out of a tick's sweep: blocks
    as (ident, instance, role, state copy, tick), planes as (plane copy,
    tick)."""
    env = Environment(load(name), 7)
    blocks: dict = {}
    planes: dict = {}
    original = Environment._run_due

    def recording(self):
        due = {(entry[0].slice_id, entry[1]) for entry in self._due.values()}
        for ident, instance, role, state in _hook_blocks(self):
            if (instance.slice_id, role) not in due:
                key = (ident, canonical_json(_normalize(state)))
                blocks.setdefault(key, (ident, instance, role,
                                        copy.deepcopy(state), self.tick))
        for sid, instance in self.slices.items():
            if (sid, None) not in due:
                key = (sid, canonical_json(_normalize(instance.dplane)))
                planes.setdefault(key, (copy.deepcopy(instance.dplane),
                                        self.tick))
        original(self)

    monkeypatch.setattr(Environment, "_run_due", recording)
    env.run()
    monkeypatch.undo()
    return env, list(blocks.values()), list(planes.values())


def _force_everything_due(monkeypatch):
    """Put every block with a tick hook and every plane on the due list
    before each tick's sweep: the sweep the due list replaces, which passed
    over torn down slices."""
    original = Environment._run_due

    def everything(self):
        for _, instance, role, _ in _hook_blocks(self):
            self._wake(instance, role)
        for instance in self.slices.values():
            self._wake(instance)
        original(self)

    monkeypatch.setattr(Environment, "_run_due", everything)


def _flowless_planes():
    for name in CORPUS:
        env = Environment(load(name), 7)
        env.run()
        for instance in env.slices.values():
            if not instance.dplane.flows:
                yield env.tick, instance.dplane
    yield 0, DPlane(spec=load("paging").topology)


class TestSweepSkips:
    """A tick sweeps only the due list: blocks with work and planes with
    live flows.  A skipped hook call or plane step would have been a no-op."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_skipped_tick_hooks_are_no_ops(self, monkeypatch, name):
        env, idle, _ = _skipped(monkeypatch, name)
        assert idle
        for ident, instance, role, state, tick in idle:
            before = _normalize(state)
            for later in (tick, tick + 1, tick + 9, tick + 1000):
                ctx = dataclasses.replace(env._route[ident][3], tick=later)
                _, drafts, events = engine._TICK_HOOKS[role](state, ctx)
                assert (drafts, events) == ([], []), (ident, later)
                assert _normalize(state) == before, (ident, later)

    @pytest.mark.parametrize("name", CORPUS)
    def test_skipped_planes_step_to_nothing(self, monkeypatch, name):
        _, _, idle = _skipped(monkeypatch, name)
        assert idle
        for plane, tick in idle:
            before = _normalize(plane)
            for later in (tick, tick + 1, tick + 9, tick + 1000):
                assert plane.step(later) == ([], [], {}, {})
                assert _normalize(plane) == before

    def test_every_hook_role_is_seen_idle(self, monkeypatch):
        roles = {role for name in ("paging", "cghf-reselect")
                 for _, _, role, _, _ in _skipped(monkeypatch, name)[1]}
        assert roles == set(engine._TICK_HOOKS)

    def test_finished_flows_leave_the_due_list(self, monkeypatch):
        _, _, idle = _skipped(monkeypatch, "handover-mbb")
        assert any(plane.flows for plane, _ in idle)

    def test_flowless_planes_step_to_nothing(self):
        planes = list(_flowless_planes())
        assert len(planes) > 1
        for tick, plane in planes:
            before = _normalize(plane)
            for later in (tick, tick + 1, tick + 9, tick + 1000):
                assert plane.step(later) == ([], [], {}, {})
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
        loads = [(r.tick, r.msg.payload["link"], r.msg.payload["load"])
                 for r in messages(result, ProcedureKind.FLOW_NOTIFY)
                 if r.msg.payload.get("phase") == "load"]
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
            comparison = compare_fabrics(load(name), 7)
            digests = [r.digests for r in comparison.results.values()]
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
        # the acknowledgements reach a torn down slice and are refused; the
        # teardown already ended the apply, so the run ends with them
        fm = env.slices["default-a"].states[Role.FM]
        assert not fm.pending and not fm.handover_jobs
        assert errors(result, "LifecycleOrderError")
        assert not events(result, "max-ticks-reached")
        last_message = max(r.tick for r in messages(result))
        assert events(result, "run-end")[0].tick == last_message == tick + 1

    @staticmethod
    def _last_work_tick(result):
        footer = {"flow-summary", "slice-digest", "run-end"}
        return max(r.tick for r in result.trace
                   if not isinstance(r, EventRecord) or r.kind not in footer)

    def test_teardown_with_rules_to_retire_ends_the_run(self):
        # the torn down FM keeps its retiring rules, but its hook never runs
        env = Environment(load("teardown"), 7)
        result = env.run()
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
        emit(self, [dataclasses.replace(d, payload=MappingProxyType(d.payload))
                    for d in drafts])

    monkeypatch.setattr(Environment, "emit", read_only)


class TestReadOnlyPayloads:
    """Handlers read a delivered payload in place and never write to it:
    the copy `draft` makes is the only one a message has."""

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
    """Set-up builds each block's context and the anchor-latency table
    once per run; the tick loop builds none."""

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
        assert len(built) == len(env._route)
        assert [entry[3] for entry in env._route.values()] == built
        result = env.run()
        assert len(built) == len(env._route)
        # every handler and hook call got its block's one context
        assert {id(ctx) for ctx in passed} <= {id(ctx) for ctx in built}
        assert len(passed) > len(built)
        assert messages(result) and events(result, "context")

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
