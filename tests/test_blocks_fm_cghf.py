"""Flow-management path strategies/reservations and context generation."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.blocks.cghf import (
    DEFAULT_WINDOW, CGHFState, ContextModelRule, Sample, cghf_generate,
    cghf_ingest,
)
from slicesim.blocks.common import (
    AccessNodeInfo, BlockContext, BlockEvent, PathStrategy, SlicePolicy, Tech,
)
from slicesim.blocks.fm import (
    QOS_DEMAND, FMState, LinkState, SessionBinding, TopologyView, choose_path,
    fm_apply, fm_define_path, fm_release_path, handle as fm_handle, link_key,
    post_install_utilisation, shortest_path,
)
from slicesim.engine import _normalize
from slicesim.errors import CapacityError, NoPathError
from slicesim.messages import (
    Endpoint, InterfacePoint, ProcedureKind, Role, SignalMessage, block_id,
    draft,
)
from slicesim.netsim import (
    NodeKind, build_view, load_topology, load_topology_file,
)

from conftest import SCENARIO_DIR, perfbench_module

SLICE = "slice-a"


def view_from(links, nodes=None):
    view = TopologyView()
    for a, b, capacity, latency in links:
        view.links[link_key(a, b)] = LinkState(capacity=capacity, latency=latency)
        view.nodes.setdefault(a, "transport")
        view.nodes.setdefault(b, "transport")
    for node, kind in (nodes or {}).items():
        view.nodes[node] = kind
    return view


def line_view():
    return view_from([("a", "b", 10, 1), ("b", "c", 10, 2)])


def diamond_view(cap=10):
    # s - x - t and s - y - t, equal latency arms
    return view_from([("s", "x", cap, 1), ("x", "t", cap, 1),
                      ("s", "y", cap, 1), ("y", "t", cap, 1)])


def fm_ctx():
    peers = {r: block_id(r, SLICE)
             for r in (Role.AF, Role.CM, Role.SAM, Role.FM, Role.CGHF)}
    return BlockContext(
        slice_id=SLICE, self_id=block_id(Role.FM, SLICE),
        role=Role.FM, tick=0, seed=7, peers=peers, policy=SlicePolicy(),
        access_nodes={"n1": AccessNodeInfo("n1", Tech.CELLULAR, "area-1", "a")})


# -- independent brute-force oracle ------------------------------------------

def all_simple_paths(view, src, dst):
    paths = []

    def walk(node, seen):
        if node == dst:
            paths.append(tuple(seen))
            return
        for (a, b) in sorted(view.links):
            for u, v in ((a, b), (b, a)):
                if u == node and v not in seen:
                    walk(v, seen + [v])

    walk(src, [src])
    return paths


def oracle_shortest(view, src, dst):
    scored = [(view.path_latency(p), p) for p in all_simple_paths(view, src, dst)]
    return min(scored) if scored else None


def oracle_load_distribution(view, src, dst, demand, stretch):
    shortest = oracle_shortest(view, src, dst)
    if shortest is None:
        return None
    budget = (1 + stretch) * shortest[0]
    candidates = [p for p in all_simple_paths(view, src, dst)
                  if view.path_latency(p) <= budget]
    return min((post_install_utilisation(view, p, demand), p)
               for p in candidates)


class TestPathSearch:
    def test_line_topology_has_the_unique_path(self):
        state = FMState(view=line_view())
        path = fm_define_path(state, "f1", "a", "c", "default")
        assert path.nodes == ("a", "b", "c")

    def test_shortest_ties_break_lexicographically(self):
        dist, path = shortest_path(diamond_view(), "s", "t")
        assert dist == 2 and path == ("s", "x", "t")

    def test_load_distribution_avoids_the_congested_arm(self):
        view = diamond_view()
        view.link("s", "x").observed = 0.9
        state = FMState(view=view, strategy=PathStrategy.LOAD_DISTRIBUTION)
        path = fm_define_path(state, "f1", "s", "t", "default")
        assert path.nodes == ("s", "y", "t")

    def test_observed_load_update_flips_the_choice(self):
        state = FMState(view=diamond_view(), strategy=PathStrategy.LOAD_DISTRIBUTION)
        first = fm_define_path(state, "f1", "s", "t", "default")
        assert first.nodes == ("s", "x", "t")   # tie -> lexicographic
        ctx = fm_ctx()
        load = SignalMessage(
            kind=ProcedureKind.FLOW_NOTIFY,
            source=Endpoint(Role.D_PLANE, f"{SLICE}:x"),
            destination=Endpoint(Role.FM, ctx.self_id),
            interface=InterfacePoint.I4_SBI, correlation_id="telemetry",
            payload={"phase": "load", "link": "s~x", "load": 0.9})
        fm_handle(state, load, ctx)
        second = fm_define_path(state, "f2", "s", "t", "default")
        assert second.nodes == ("s", "y", "t")

    def test_unknown_endpoint_has_no_path(self):
        with pytest.raises(NoPathError, match="unknown endpoint 'a' or 'zz'"):
            shortest_path(line_view(), "a", "zz")

    def test_disconnected_endpoints_raise(self):
        view = view_from([("a", "b", 10, 1), ("c", "d", 10, 1)])
        state = FMState(view=view)
        with pytest.raises(NoPathError):
            fm_define_path(state, "f1", "a", "d", "default")

    def test_critical_flow_beyond_link_capacity(self):
        view = view_from([("a", "b", 1, 1)])
        state = FMState(view=view)
        assert QOS_DEMAND["critical"] == 2
        with pytest.raises(CapacityError):
            fm_define_path(state, "f1", "a", "b", "critical")

    def test_reservation_accumulates_until_capacity(self):
        view = view_from([("a", "b", 2, 1)])
        state = FMState(view=view)
        fm_define_path(state, "f1", "a", "b", "default")
        fm_define_path(state, "f2", "a", "b", "default")
        with pytest.raises(CapacityError):
            fm_define_path(state, "f3", "a", "b", "default")

    def test_release_frees_reservation(self):
        view = view_from([("a", "b", 1, 1)])
        state = FMState(view=view)
        fm_define_path(state, "f1", "a", "b", "default")
        assert view.link("a", "b").reserved == 1
        fm_release_path(state, "f1", tick=0)
        assert view.link("a", "b").reserved == 0
        assert "f1" not in state.path_table


@st.composite
def random_views(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = [f"v{i}" for i in range(n)]
    links = []
    # random connected-ish graph: a spine plus extras
    for i in range(1, n):
        links.append((nodes[i - 1], nodes[i],
                      draw(st.integers(min_value=1, max_value=8)),
                      draw(st.integers(min_value=1, max_value=5))))
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    for i, j in extras:
        if i != j and link_key(nodes[i], nodes[j]) not in {link_key(a, b) for a, b, *_ in links}:
            links.append((nodes[i], nodes[j],
                          draw(st.integers(min_value=1, max_value=8)),
                          draw(st.integers(min_value=1, max_value=5))))
    view = view_from(links)
    for key in draw(st.sets(st.sampled_from(sorted(view.links)), max_size=3)):
        view.links[key].observed = draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return view, nodes


class TestPathOracles:
    @settings(max_examples=40, deadline=None)
    @given(random_views())
    def test_shortest_matches_brute_force(self, view_nodes):
        view, nodes = view_nodes
        expected = oracle_shortest(view, nodes[0], nodes[-1])
        dist, path = shortest_path(view, nodes[0], nodes[-1])
        assert (dist, path) == expected

    @settings(max_examples=40, deadline=None)
    @given(random_views())
    def test_load_distribution_matches_brute_force(self, view_nodes):
        import copy

        view, nodes = view_nodes
        expected_util, expected_nodes = oracle_load_distribution(
            copy.deepcopy(view), nodes[0], nodes[-1], demand=1, stretch=0.5)
        state = FMState(view=view, strategy=PathStrategy.LOAD_DISTRIBUTION)
        try:
            path = fm_define_path(state, "f1", nodes[0], nodes[-1], "default")
        except CapacityError:
            links = [view.link(a, b)
                     for a, b in zip(expected_nodes, expected_nodes[1:])]
            assert any(l.reserved + 1 > l.capacity for l in links)
            return
        # (utilisation, sequence) ordering has a unique winner
        assert path.nodes == expected_nodes


class UncachedView(TopologyView):
    """A view that builds its adjacency and searches afresh on every call."""

    @property
    def adjacency(self):
        return TopologyView.adjacency.func(self)

    @property
    def shortest(self):
        return {}


def corpus_topologies() -> list:
    """Every topology the corpus loads and each benchmark workload's."""
    gen = perfbench_module("gen")
    specs = [load_topology_file(path) for path in sorted(SCENARIO_DIR.glob("*.txt"))]
    specs += [load_topology(gen.topology_text(params))
              for params in gen.WORKLOADS.values()
              if hasattr(params, "link_capacity")]
    return specs


def outcome(call):
    """What `call()` returns, or the type and text of what it raises."""
    try:
        return call()
    except (NoPathError, CapacityError) as exc:
        return type(exc), str(exc)


def oracle_choice(view, src, dst, strategy):
    """`choose_path`'s (path, utilisation) at demand 1 and stretch 0.5, by
    brute force."""
    if strategy is PathStrategy.SHORTEST_PATH:
        return oracle_shortest(view, src, dst)[1], None
    utilisation, path = oracle_load_distribution(view, src, dst, 1, 0.5)
    return path, utilisation


class TestPathCache:
    @pytest.mark.parametrize("strategy", list(PathStrategy))
    def test_cached_search_matches_a_fresh_one_on_corpus_topologies(self, strategy):
        """Three rounds over every (ingress, anchor) pair, with reservations,
        releases and observed loads moving between them: the cached view
        chooses what brute force chooses, and defines the paths that a view
        searching afresh defines."""
        for spec in corpus_topologies():
            fresh = build_view(spec)
            cached = FMState(view=build_view(spec), strategy=strategy)
            uncached = FMState(view=UncachedView(nodes=fresh.nodes,
                                                 links=fresh.links),
                               strategy=strategy)
            pairs = [(i, a) for i, ik in sorted(spec.nodes.items())
                     if ik is NodeKind.INGRESS
                     for a, ak in sorted(spec.nodes.items())
                     if ak is NodeKind.ANCHOR]
            for rnd in range(3):
                for n, (ingress, anchor) in enumerate(pairs):
                    qos = "critical" if (rnd + n) % 2 else "default"
                    assert choose_path(cached.view, ingress, anchor, 1,
                                       strategy, 0.5) == \
                        oracle_choice(uncached.view, ingress, anchor, strategy)
                    flow = f"f{rnd}-{n}"
                    assert outcome(lambda: fm_define_path(
                        cached, flow, ingress, anchor, qos)) == \
                        outcome(lambda: fm_define_path(
                            uncached, flow, ingress, anchor, qos))
                for n, key in enumerate(sorted(spec.links)):
                    for state in (cached, uncached):
                        state.view.links[key].observed = (rnd * 7 + n) % 5 / 4
                for flow in sorted(cached.path_table)[::2]:
                    fm_release_path(cached, flow, tick=rnd)
                    fm_release_path(uncached, flow, tick=rnd)
            assert _normalize(cached) == _normalize(uncached)
            assert sorted(cached.view.shortest) == pairs

    def test_digest_form_holds_only_the_fields_after_searches(self):
        spec = corpus_topologies()[0]
        state = FMState(view=build_view(spec))
        before = _normalize(state)
        fm_define_path(state, "f1", "i1", "a1", "default")
        fm_release_path(state, "f1", tick=0)
        shortest_path(state.view, "i2", "a2")
        assert state.view.shortest and state.view.adjacency
        after = _normalize(state)
        assert set(after) == {f.name for f in fields(FMState)}
        assert set(after["view"]) == {"nodes", "links"}
        assert after["view"] == before["view"]

    def test_a_missing_path_raises_on_every_call(self):
        view = view_from([("a", "b", 10, 1), ("c", "d", 10, 1)])
        for _ in range(2):
            with pytest.raises(NoPathError, match="^no path a -> d$"):
                shortest_path(view, "a", "d")
            with pytest.raises(NoPathError, match="unknown endpoint 'a' or 'zz'"):
                shortest_path(view, "a", "zz")
        assert view.shortest == {}
        assert shortest_path(view, "a", "b") == (1, ("a", "b"))
        assert view.shortest == {("a", "b"): (1, ("a", "b"))}


class TestApply:
    def test_three_node_path_emits_three_sbi_commands(self):
        state = FMState(view=line_view())
        ctx = fm_ctx()
        path = fm_define_path(state, "f1", "a", "c", "default")
        drafts = fm_apply(state, path, ctx, "c1", "flow",
                          Endpoint(Role.CM, ctx.peers[Role.CM]), "s-1")
        assert len(drafts) == 3
        assert all(d.kind is ProcedureKind.FLOW_CONFIGURE for d in drafts)
        assert all(d.interface is InterfacePoint.I4_SBI for d in drafts)
        assert drafts[-1].payload["next"] == "deliver"

    def ack(self, state, ctx, corr, node, ok=True, flow="f1"):
        msg = SignalMessage(
            kind=ProcedureKind.FLOW_NOTIFY,
            source=Endpoint(Role.D_PLANE, f"{SLICE}:{node}"),
            destination=Endpoint(Role.FM, ctx.self_id),
            interface=InterfacePoint.I4_SBI, correlation_id=corr,
            payload={"phase": "config-ack", "node": node, "flow": flow,
                     "ok": ok, "action": "install"})
        return fm_handle(state, msg, ctx)

    def test_rejection_mid_apply_rolls_back(self):
        state = FMState(view=line_view())
        ctx = fm_ctx()
        state.sessions["s-1"] = type(
            "B", (), {"device": "d1", "anchor": "c", "ingress": "a",
                      "flows": []})()
        path = fm_define_path(state, "f1", "a", "c", "default")
        fm_apply(state, path, ctx, "c1", "flow",
                 Endpoint(Role.CM, ctx.peers[Role.CM]), "s-1")
        self.ack(state, ctx, "c1", "a", ok=True)
        _, drafts, events = self.ack(state, ctx, "c1", "b", ok=False)
        assert "f1" not in state.path_table
        assert state.view.link("a", "b").reserved == 0
        assert any(e.detail.get("error") == "AdaptorError" for e in events)
        removals = [d for d in drafts if d.payload.get("action") == "remove"]
        assert {d.destination.ident.partition(":")[2]
                for d in removals} == {"a"}
        failure = [d for d in drafts if d.kind is ProcedureKind.SESSION_ESTABLISH]
        assert failure and failure[0].payload["phase"] == "flow-err"

    def test_full_ack_commits_and_confirms(self):
        state = FMState(view=line_view())
        ctx = fm_ctx()
        state.sessions["s-1"] = type(
            "B", (), {"device": "d1", "anchor": "c", "ingress": "a",
                      "flows": []})()
        path = fm_define_path(state, "f1", "a", "c", "default")
        fm_apply(state, path, ctx, "c1", "flow",
                 Endpoint(Role.CM, ctx.peers[Role.CM]), "s-1")
        for node in ("a", "b"):
            self.ack(state, ctx, "c1", node)
        _, drafts, _ = self.ack(state, ctx, "c1", "c")
        confirm = [d for d in drafts if d.kind is ProcedureKind.SESSION_ESTABLISH]
        assert confirm and confirm[0].payload["phase"] == "flow-ok"
        assert state.path_table["f1"] is path

    def test_rejected_reanchor_restores_the_old_path(self):
        state = FMState(view=view_from([("a", "b", 10, 1), ("b", "c", 10, 2),
                                        ("b", "d", 10, 1)]))
        ctx = fm_ctx()
        state.sessions["s-1"] = SessionBinding("c", ["f1"])
        old = fm_define_path(state, "f1", "a", "c", "default")
        fm_handle(state, to_fm(ProcedureKind.SESSION_ESTABLISH, {
            "session": "s-1", "phase": "reanchor", "flow": "f1",
            "anchor": "d"}), ctx)
        assert state.path_table["f1"].nodes == ("a", "b", "d")
        self.ack(state, ctx, "c1", "a")
        _, _, events = self.ack(state, ctx, "c1", "b", ok=False)
        assert state.path_table["f1"] is old
        assert "f1" not in state.swapped_out
        assert state.view.link("b", "d").reserved == 0
        assert [e.detail["error"] for e in events] == ["AdaptorError"]


def to_fm(kind, payload, source_role=Role.CM, corr="c1"):
    return draft(kind, Endpoint(source_role, block_id(source_role, SLICE)),
                 Endpoint(Role.FM, block_id(Role.FM, SLICE)), corr,
                 payload)


def fm_with_flow(flow="f1", session="s-1"):
    state = FMState(view=line_view())
    state.sessions[session] = SessionBinding("c", [flow])
    state.flow_sessions[flow] = session
    fm_define_path(state, flow, "a", "c", "default")
    return state


class TestFmHandlerRefusals:
    """Flow management's refusal paths, driven through `handle`."""

    def test_reanchor_of_a_flow_without_a_path_is_dropped(self):
        msg = to_fm(ProcedureKind.SESSION_ESTABLISH, {
            "session": "s-1", "phase": "reanchor", "flow": "f1", "anchor": "c"})
        assert fm_handle(FMState(view=line_view()), msg, fm_ctx())[1:] == ([], [])

    def test_reanchor_without_a_path_to_the_anchor_is_refused(self):
        state = fm_with_flow()
        msg = to_fm(ProcedureKind.SESSION_ESTABLISH, {
            "session": "s-1", "phase": "reanchor", "flow": "f1", "anchor": "zz"})
        assert fm_handle(state, msg, fm_ctx())[1:] == ([], [BlockEvent(
            "error", "f1", {"error": "NoPathError",
                            "detail": "unknown endpoint 'a' or 'zz'"})])
        assert state.path_table["f1"].nodes == ("a", "b", "c")
        assert state.swapped_out == {} and state.pending == {}

    def test_handover_for_an_unknown_session_is_refused(self):
        msg = to_fm(ProcedureKind.HANDOVER_PREPARE, {
            "session": "s-9", "phase": "new-path", "ingress": "b"}, Role.MM)
        assert fm_handle(fm_with_flow(), msg, fm_ctx())[1:] == ([], [BlockEvent(
            "error", "s-9", {"error": "NoSessionError",
                             "detail": "handover for unknown session"})])

    def test_handover_prepare_in_another_phase_is_ignored(self):
        state = fm_with_flow()
        msg = to_fm(ProcedureKind.HANDOVER_PREPARE, {
            "session": "s-1", "phase": "new-path-ok"}, Role.MM)
        assert fm_handle(state, msg, fm_ctx())[1:] == ([], [])
        assert state.swapped_out == {} and state.pending == {}
        assert state.handover_jobs == {}

    def test_flow_for_an_unknown_session_is_refused(self):
        # a flow request carries no anchor: the FM reads its session's
        msg = to_fm(ProcedureKind.SESSION_ESTABLISH, {
            "session": "s-9", "phase": "flow", "flow": "f2", "ingress": "a"})
        state = fm_with_flow()
        assert fm_handle(state, msg, fm_ctx())[1:] == ([], [BlockEvent(
            "error", "s-9", {"error": "NoSessionError",
                             "detail": "flow for unknown session"})])
        assert "f2" not in state.path_table

    def test_flow_runs_to_its_session_anchor(self):
        msg = to_fm(ProcedureKind.SESSION_ESTABLISH, {
            "session": "s-1", "phase": "flow", "flow": "f2", "ingress": "a"})
        state = fm_with_flow()
        fm_handle(state, msg, fm_ctx())
        assert state.path_table["f2"].nodes == ("a", "b", "c")

    def test_handover_path_refusal_is_traced_per_flow(self):
        state = fm_with_flow()
        msg = to_fm(ProcedureKind.HANDOVER_PREPARE, {
            "session": "s-1", "phase": "new-path", "ingress": "zz"}, Role.MM)
        drafts, events = fm_handle(state, msg, fm_ctx())[1:]
        assert events == [BlockEvent(
            "error", "f1", {"error": "NoPathError",
                            "detail": "unknown endpoint 'zz' or 'c'"})]
        assert state.path_table["f1"].nodes == ("a", "b", "c")
        # no new path to await: the handover goes on at once
        assert [(d.kind, d.destination, d.payload) for d in drafts] == [
            (ProcedureKind.HANDOVER_PREPARE, msg.source,
             {"phase": "new-path-ok"})]
        assert state.handover_jobs == {}

    def test_handover_awaits_only_the_flows_it_applied(self):
        state = fm_with_flow()
        state.sessions["s-1"].flows.append("f2")
        state.flow_sessions["f2"] = "s-1"
        fm_define_path(state, "f2", "a", "c", "critical")
        state.view.link("b", "c").reserved = 8   # room for f1's unit, not f2's two
        ctx = fm_ctx()
        msg = to_fm(ProcedureKind.HANDOVER_PREPARE, {
            "session": "s-1", "phase": "new-path", "ingress": "b"}, Role.MM)
        _, drafts, events = fm_handle(state, msg, ctx)
        assert [(e.subject, e.detail["error"]) for e in events] == [
            ("f2", "CapacityError")]
        assert [d.destination.ident.partition(":")[2]
                for d in drafts] == ["b", "c"]
        assert state.handover_jobs["c1"].remaining == 1
        replies = []
        for node in ("b", "c"):
            replies += fm_handle(state, SignalMessage(
                kind=ProcedureKind.FLOW_NOTIFY,
                source=Endpoint(Role.D_PLANE, f"{SLICE}:{node}"),
                destination=Endpoint(Role.FM, ctx.self_id),
                interface=InterfacePoint.I4_SBI, correlation_id="c1",
                payload={"phase": "config-ack", "node": node, "flow": "f1",
                         "ok": True}), ctx)[1]
        assert [(d.destination, d.payload) for d in replies] == [
            (msg.source, {"phase": "new-path-ok"})]
        assert state.handover_jobs == {}

    def test_handover_release_keeps_other_sessions_old_paths(self):
        state = fm_with_flow()
        state.sessions["s-2"] = SessionBinding("c", ["f2"])
        state.flow_sessions["f2"] = "s-2"
        for flow in ("f1", "f2"):
            state.swapped_out[flow] = fm_define_path(state, flow, "a", "c",
                                                     "default")
            fm_define_path(state, flow, "b", "c", "default")
        msg = to_fm(ProcedureKind.SESSION_RELEASE,
                    {"session": "s-1", "scope": "handover-old"}, Role.MM)
        assert fm_handle(state, msg, fm_ctx())[1:] == ([], [BlockEvent(
            "old-path-released", "f1", {"session": "s-1"})])
        assert list(state.swapped_out) == ["f2"]


class TestCapacitySafety:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=20))
    def test_reservation_never_exceeds_capacity(self, ops):
        view = diamond_view(cap=3)
        state = FMState(view=view)
        live = []
        for fidx, (define, _) in enumerate(ops):
            if define:
                try:
                    fm_define_path(state, f"f{fidx}", "s", "t", "default")
                    live.append(f"f{fidx}")
                except CapacityError:
                    pass
            elif live:
                fm_release_path(state, live.pop(0), tick=0)
            for link in state.view.links.values():
                assert 0 <= link.reserved <= link.capacity


def cghf_ctx():
    peers = {Role.CM: block_id(Role.CM, SLICE),
             Role.CGHF: block_id(Role.CGHF, SLICE)}
    return BlockContext(
        slice_id=SLICE, self_id=block_id(Role.CGHF, SLICE),
        role=Role.CGHF, tick=0, seed=7, peers=peers, policy=SlicePolicy(),
        access_nodes={})


LATENCY_RULE = ContextModelRule(
    topic="dplane-latency", metric="flow-latency",
    statement="latency_above_normal", factor=1.5, window=4)


class TestContextGeneration:
    def warm(self, state, subject="f1", baseline=10.0, ticks=4):
        for t in range(ticks):
            cghf_ingest(state, "flow-latency", subject, baseline, t)

    def test_sample_buffered_and_window_evicted(self):
        state = CGHFState(models=(LATENCY_RULE,))
        cghf_ingest(state, "flow-latency", "f1", 12.0, tick=0)
        assert len(state.buffer[("flow-latency", "f1")]) == 1
        for t in range(1, 6):
            cghf_ingest(state, "flow-latency", "f1", 12.0, tick=t)
        buffered = state.buffer[("flow-latency", "f1")]
        assert all(s.tick > 5 - LATENCY_RULE.window for s in buffered)
        assert len(buffered) <= LATENCY_RULE.window

    def test_mean_above_baseline_fires_once(self):
        state = CGHFState(models=(LATENCY_RULE,))
        self.warm(state, baseline=10.0)             # baseline locks at 10
        ctx = cghf_ctx()
        for t in range(8, 12):
            cghf_ingest(state, "flow-latency", "f1", 18.0, t)
            state, drafts, _ = cghf_generate(state, t, ctx)
            if drafts:
                break
        assert len(drafts) == 1
        notify = drafts[0]
        assert notify.kind is ProcedureKind.CONTEXT_NOTIFY
        assert notify.payload["statement"] == "latency_above_normal"
        # sustained condition does not re-fire
        for t in range(12, 16):
            cghf_ingest(state, "flow-latency", "f1", 18.0, t)
            state, more, _ = cghf_generate(state, t, ctx)
            drafts += more
        assert len(drafts) == 1

    def test_empty_buffer_generates_nothing(self):
        state = CGHFState(models=(LATENCY_RULE,))
        state, drafts, _ = cghf_generate(state, 0, cghf_ctx())
        assert drafts == []

    def test_two_models_fire_ordered_by_topic(self):
        loss_rule = ContextModelRule(
            topic="a-loss", metric="flow-loss", statement="loss_above_normal",
            factor=1.5, window=2)
        state = CGHFState(models=(LATENCY_RULE, loss_rule))
        ctx = cghf_ctx()
        for t in range(4):
            cghf_ingest(state, "flow-latency", "f1", 10.0, t)
        for t in range(2):
            cghf_ingest(state, "flow-loss", "f1", 1.0, t + 2)
        cghf_ingest(state, "flow-latency", "f1", 40.0, 4)
        cghf_ingest(state, "flow-loss", "f1", 9.0, 4)
        state, drafts, _ = cghf_generate(state, 4, ctx)
        topics = [d.destination.ident for d in drafts]
        assert topics == sorted(topics) == ["a-loss", "dplane-latency"]


def generate_over_every_key(state, tick, ctx):
    """The evaluation over every buffered key, which `cghf_generate`
    narrows to the keys with a sample since the last one: the oracle."""
    drafts, events = [], []
    for model in sorted(state.models, key=lambda m: m.topic):
        subjects = sorted(subject for (metric, subject) in state.buffer
                          if metric == model.metric)
        for subject in subjects:
            samples = state.buffer[(model.metric, subject)]
            bkey = (model.topic, subject)
            baseline = state.baselines.get(bkey)
            condition = False
            if baseline is not None and len(samples) >= model.min_samples:
                mean = sum(s.value for s in samples) / len(samples)
                condition = mean > model.factor * baseline
            if condition and state.armed.get(bkey, True):
                state.armed[bkey] = False
                state.assertion_counter += 1
                evidence = tuple((s.tick, s.value) for s in samples[-3:])
                events.append(("context", subject, model.topic))
                drafts.append(draft(
                    ProcedureKind.CONTEXT_NOTIFY, ctx.self_endpoint,
                    Endpoint(Role.TOPIC, model.topic),
                    f"{ctx.slice_id}:context:{state.assertion_counter}",
                    {"subject": subject, "statement": model.statement,
                     "evidence": [list(e) for e in evidence]}))
            elif not condition:
                state.armed[bkey] = True
    return drafts, events


_CGHF_STEPS = st.lists(st.one_of(
    st.just(None),
    st.tuples(st.sampled_from(("flow-latency", "flow-loss")),
              st.sampled_from(("f1", "f2", "f3")),
              st.sampled_from((1.0, 2.0, 10.0, 40.0)))), max_size=60)


@settings(max_examples=150, deadline=None)
@given(_CGHF_STEPS, st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=3))
def test_generation_over_fresh_keys_matches_every_key(steps, window,
                                                        min_samples):
    """Evaluating only the keys with a sample since the last generation
    gives the drafts, events and state that evaluating every key gives."""
    models = (ContextModelRule(topic="dplane-latency", metric="flow-latency",
                               statement="latency_above_normal", factor=1.5,
                               window=window, min_samples=min_samples),
              ContextModelRule(topic="a-loss", metric="flow-loss",
                               statement="loss_above_normal", factor=2.0,
                               window=2))
    fresh, every = CGHFState(models=models), CGHFState(models=models)
    ctx = cghf_ctx()
    for tick, step in enumerate(steps):
        if step is None:
            _, drafts, events = cghf_generate(fresh, tick, ctx)
            assert (drafts, [(e.kind, e.subject, e.detail["topic"])
                             for e in events]) == \
                generate_over_every_key(every, tick, ctx)
            assert _normalize(fresh) == _normalize(every)
        else:
            for state in (fresh, every):
                cghf_ingest(state, *step, tick=tick)


def ingest_by_rescan(oracle: dict, models, metric, subject, value, tick):
    """Buffer a sample by filtering the whole list against the widest
    window of the metric's models, rescanned per sample, then feed every
    model's warm-up: the rule `cghf_ingest` trims in place."""
    windows = [m.window for m in models if m.metric == metric]
    window = max(windows) if windows else DEFAULT_WINDOW
    buffer = oracle["buffer"]
    samples = buffer.setdefault((metric, subject), [])
    samples.append(Sample(tick=tick, value=value))
    buffer[(metric, subject)] = [s for s in samples if s.tick > tick - window]
    for model in models:
        if model.metric != metric:
            continue
        bkey = (model.topic, subject)
        if bkey in oracle["baselines"]:
            continue
        pending = oracle["warmup"].setdefault(bkey, [])
        pending.append(value)
        if len(pending) >= model.window:
            oracle["baselines"][bkey] = sum(pending[:model.window]) / model.window
            del oracle["warmup"][bkey]


_INGESTS = st.lists(st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(("flow-latency", "flow-loss", "link-load")),
    st.sampled_from(("f1", "f2")),
    st.sampled_from((1.0, 2.0, 10.0, 40.0))), max_size=80)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_INGESTS, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_in_place_trim_matches_filter_and_rescan(ingests, short, long):
    """Ingests in tick order, with two models of different windows on one
    metric and a metric no model watches, leave the buffer, warm-ups and
    baselines that filtering every list and rescanning the models leave."""
    models = (ContextModelRule(topic="latency-short", metric="flow-latency",
                               statement="s", window=short),
              ContextModelRule(topic="latency-long", metric="flow-latency",
                               statement="l", window=long),
              ContextModelRule(topic="loss", metric="flow-loss",
                               statement="x", window=2))
    state = CGHFState(models=models)
    oracle: dict = {"buffer": {}, "warmup": {}, "baselines": {}}
    tick = 0
    for advance, metric, subject, value in ingests:
        tick += advance
        cghf_ingest(state, metric, subject, value, tick)
        ingest_by_rescan(oracle, models, metric, subject, value, tick)
        assert state.buffer == oracle["buffer"]
        assert state.warmup == oracle["warmup"]
        assert state.baselines == oracle["baselines"]
