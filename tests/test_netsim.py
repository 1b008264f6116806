"""Forwarded-plane executor tests: rule application, unit motion, loss
accounting and conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.blocks.fm import link_key
from slicesim.engine import _HAS_WORK
from slicesim.errors import SchemaError
from slicesim.messages import Role
from slicesim.netsim import (
    DPlane, FlowRun, NodeKind, UnitState, load_topology,
)

#: The engine's test of whether a plane's tick hook can change anything.
due = _HAS_WORK[Role.D_PLANE]


def anchor_nodes(spec) -> tuple:
    """The topology's anchor-kind nodes, sorted."""
    return tuple(sorted(n for n, k in spec.nodes.items()
                        if k is NodeKind.ANCHOR))


def conserved(run: FlowRun) -> bool:
    """Every unit a flow sent is delivered, lost or still in flight."""
    return run.sent == run.delivered + run.lost + run.units_in_flight


TOPOLOGY_TEXT = """
topology t1
  node i1 kind=ingress
  node i2 kind=ingress
  node t kind=transport
  node a1 kind=anchor
  link i1 t capacity=10 latency=2
  link i2 t capacity=10 latency=1
  link t a1 capacity=10 latency=3
  access n1 tech=cellular area=area-1 ingress=i1
  access n2 tech=wifi area=area-1 ingress=i2
end
"""


def make_dplane():
    return DPlane(spec=load_topology(TOPOLOGY_TEXT))


def install_path(dp, flow, nodes):
    hops = list(zip(nodes, list(nodes[1:]) + ["deliver"]))
    for node, nxt in hops:
        ok, reason = dp.configure(node, {"flow": flow,
                                         "action": "install", "next": nxt})
        assert ok, reason


class TestTopologyLoading:
    def test_loads_nodes_links_access(self):
        spec = load_topology(TOPOLOGY_TEXT)
        assert spec.nodes["a1"] is NodeKind.ANCHOR
        assert spec.links[("i1", "t")] == (10, 2)
        assert spec.access["n1"].ingress == "i1"
        assert anchor_nodes(spec) == ("a1",)

    def test_link_to_unknown_node_rejected(self):
        with pytest.raises(SchemaError):
            load_topology("topology x\n  node a kind=ingress\n  link a b\nend\n")

    def test_access_requires_ingress_kind(self):
        with pytest.raises(SchemaError):
            load_topology(
                "topology x\n  node a kind=transport\n"
                "  access n1 tech=cellular area=z ingress=a\nend\n")


class TestConfigure:
    def test_install_on_existing_link(self):
        dp = make_dplane()
        ok, _ = dp.configure("i1", {"flow": "f1", "action": "install",
                                    "next": "t"})
        assert ok and dp.rules["i1"]["f1"] == "t"

    def test_install_towards_missing_link_rejected(self):
        dp = make_dplane()
        ok, reason = dp.configure("i1", {"flow": "f1",
                                         "action": "install", "next": "a1"})
        assert not ok and "no link" in reason

    def test_remove_unknown_rule_rejected_idempotently(self):
        dp = make_dplane()
        ok, reason = dp.configure("i1", {"flow": "f1",
                                         "action": "remove", "next": "t"})
        assert not ok and reason == "no matching rule"

    def test_remove_checks_the_expected_next_hop(self):
        dp = make_dplane()
        dp.configure("i1", {"flow": "f1", "action": "install", "next": "t"})
        ok, _ = dp.configure("i1", {"flow": "f1", "action": "remove",
                                    "next": "a1"})
        assert not ok                     # stale removal leaves the rule alone
        assert dp.rules["i1"]["f1"] == "t"

    @pytest.mark.parametrize("node,command,reason", [
        ("zz", {"flow": "f1", "action": "install", "next": "t"},
         "unknown node 'zz'"),
        ("i1", {"flow": "f1", "action": "replace", "next": "t"},
         "unknown action 'replace'")])
    def test_malformed_command_rejected(self, node, command, reason):
        dp = make_dplane()
        assert dp.configure(node, command) == (False, reason)
        assert dp.rules == {}

    def test_rule_loop_is_a_broken_path(self):
        dp = make_dplane()
        for node, nxt in (("i1", "t"), ("t", "i1")):
            dp.configure(node, {"flow": "f1", "action": "install",
                                "next": nxt})
        path, complete = dp._snapshot("i1", "f1")
        assert not complete and len(path) == len(dp.spec.nodes) + 2


class TestUnitMotion:
    def test_latency_equals_link_latency_sum(self):
        dp = make_dplane()
        install_path(dp, "f1", ("i1", "t", "a1"))
        dp.add_flow(FlowRun(flow_id="f1", rate=1,
                            remaining_emissions=1, ingress="i1"))
        arrivals = []
        for tick in range(0, 10):
            _, latency_samples, delivered, _ = dp.step(tick)
            arrivals.extend((tick, lat) for lat in latency_samples.get("f1", ()))
        # emitted at tick 0, path latency 2 + 3
        assert arrivals == [(5, 5)]
        assert dp.flows["f1"].delivered == 1
        assert dp.flows["f1"].lost == 0

    def test_flow_waits_for_first_rule_then_counts_gap_losses(self):
        dp = make_dplane()
        run = FlowRun(flow_id="f1", rate=1,
                      remaining_emissions=5, ingress="i1")
        dp.add_flow(run)
        dp.step(0)
        assert run.sent == 0 and not run.started     # nothing installed yet
        install_path(dp, "f1", ("i1", "t", "a1"))
        dp.step(1)
        assert run.started and run.sent == 1
        # tear the ingress rule down: emissions continue and are lost
        dp.configure("i1", {"flow": "f1", "action": "remove", "next": "t"})
        _, _, _, lost = dp.step(2)
        assert lost == {"f1": 1}
        assert run.lost == 1

    def test_teardown_mid_flight_loses_the_unit(self):
        dp = make_dplane()
        install_path(dp, "f1", ("i1", "t", "a1"))
        run = FlowRun(flow_id="f1", rate=1,
                      remaining_emissions=1, ingress="i1")
        dp.add_flow(run)
        dp.step(0)    # unit on link i1~t (2 ticks)
        dp.configure("t", {"flow": "f1", "action": "remove", "next": "a1"})
        for tick in range(1, 7):
            dp.step(tick)
        assert run.lost == 1 and run.delivered == 0

    def test_idle_topology_emits_nothing(self):
        dp = make_dplane()
        loads, latencies, delivered, lost = dp.step(0)
        assert loads == [] and latencies == {} and delivered == {} and lost == {}

    def test_load_samples_report_zero_crossings(self):
        dp = make_dplane()
        install_path(dp, "f1", ("i2", "t", "a1"))
        dp.add_flow(FlowRun(flow_id="f1", rate=1,
                            remaining_emissions=1, ingress="i2"))
        loads0, *_ = dp.step(0)
        assert ("i2~t", 0.1) in loads0
        dp.step(1)   # unit moves to link t~a1
        loads2, *_ = dp.step(2)
        link_names = [name for name, _ in loads2]
        assert "a1~t" in link_names

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=6),
           st.lists(st.integers(min_value=0, max_value=9), max_size=4))
    def test_conservation_under_random_teardown(self, rate, duration, cut_ticks):
        dp = make_dplane()
        install_path(dp, "f1", ("i1", "t", "a1"))
        run = FlowRun(flow_id="f1", rate=rate,
                      remaining_emissions=duration, ingress="i1")
        dp.add_flow(run)
        for tick in range(0, 20):
            if tick in cut_ticks:
                dp.configure("t", {"flow": "f1", "action": "remove",
                                   "next": "a1"})
            dp.step(tick)
            assert conserved(run)
        assert not run.in_flight
        assert run.sent == run.delivered + run.lost


class TestLiveFlows:
    def test_finished_flow_leaves_the_step_loop_and_keeps_its_counters(self):
        dp = make_dplane()
        install_path(dp, "f1", ("i1", "t", "a1"))
        dp.add_flow(FlowRun(flow_id="f1", rate=1,
                            remaining_emissions=1, ingress="i1"))
        for tick in range(6):
            assert due(dp)
            dp.step(tick)
        assert not due(dp) and not dp.has_work()
        assert dp.flows["f1"].delivered == 1
        assert dp.step(6) == ([], {}, {}, {})

    def test_replaced_flow_owes_its_links_one_zero_sample(self):
        dp = make_dplane()
        install_path(dp, "f1", ("i1", "t", "a1"))
        dp.add_flow(FlowRun(flow_id="f1", rate=1,
                            remaining_emissions=1, ingress="i1"))
        loads, *_ = dp.step(0)
        assert loads == [("i1~t", 0.1)]
        dp.add_flow(FlowRun(flow_id="f1", rate=1,
                            remaining_emissions=0, ingress="i1"))
        assert due(dp) and not dp.has_work()
        loads, *_ = dp.step(1)
        assert loads == [("i1~t", 0.0)]
        assert not due(dp)
        assert dp.step(2) == ([], {}, {}, {})


class PerUnitDPlane(DPlane):
    """The plane that moves every unit on its own: each emission appends
    `rate` single units, each checked against the rules by itself, and each
    takes a snapshot walked afresh; the loads are counted after the step.
    The oracle for the batched step and its route cache."""

    def step(self, tick: int) -> tuple:
        delivered_now: dict = {}
        lost_now: dict = {}
        latency_samples: dict = {}

        def count(counter, flow_id, n=1):
            counter[flow_id] = counter.get(flow_id, 0) + n

        live = sorted(self._live.items())
        for flow_id, run in live:
            survivors = []
            for unit in run.in_flight:
                unit.remaining -= 1
                if unit.remaining > 0:
                    survivors.append(unit)
                    continue
                unit.hop += 1
                node = unit.path[unit.hop]
                rule = self.rules.get(node, {}).get(flow_id)
                if unit.hop == len(unit.path) - 1:
                    if unit.complete and rule == "deliver":
                        run.delivered += 1
                        count(delivered_now, flow_id)
                        latency_samples.setdefault(flow_id, []).append(
                            tick - unit.sent_tick)
                    else:
                        run.lost += 1
                        count(lost_now, flow_id)
                    continue
                expected = unit.path[unit.hop + 1]
                if rule != expected:
                    run.lost += 1
                    count(lost_now, flow_id)
                    continue
                unit.remaining = self._latency(node, expected)
                survivors.append(unit)
            run.in_flight = survivors

        for flow_id, run in live:
            if not run.active or run.remaining_emissions <= 0:
                continue
            has_rule = self.rules.get(run.ingress, {}).get(flow_id) is not None
            if not run.started:
                if not has_rule:
                    continue
                run.started = True
            run.remaining_emissions -= 1
            run.sent += run.rate
            if not has_rule:
                run.lost += run.rate
                count(lost_now, flow_id, run.rate)
                continue
            path, complete = self._snapshot(run.ingress, flow_id)
            for _ in range(run.rate):
                if len(path) == 1:
                    if complete:
                        run.delivered += 1
                        count(delivered_now, flow_id)
                        latency_samples.setdefault(flow_id, []).append(0)
                    else:
                        run.lost += 1
                        count(lost_now, flow_id)
                    continue
                run.in_flight.append(UnitState(
                    path=path, complete=complete, hop=0,
                    remaining=self._latency(path[0], path[1]), sent_tick=tick))

        self._live = {flow_id: run for flow_id, run in live if run.in_flight
                      or run.active and run.remaining_emissions > 0}
        return self._load_samples(), latency_samples, delivered_now, lost_now

    def _latency(self, a: str, b: str) -> int:
        return self.spec.links[link_key(a, b)][1]

    def _load_samples(self) -> list:
        counts: dict = {}
        for run in self._live.values():
            for unit in run.in_flight:
                key = link_key(unit.path[unit.hop], unit.path[unit.hop + 1])
                counts[key] = counts.get(key, 0) + unit.count
        samples = []
        loaded = set(counts)
        for key in sorted(loaded | self._last_loaded):
            capacity = self.spec.links[key][0]
            samples.append((f"{key[0]}~{key[1]}", counts.get(key, 0) / capacity))
        self._last_loaded = loaded
        return samples


#: Forwarded paths over TOPOLOGY_TEXT: two full ones, one that delivers at
#: a transport node and one that delivers at its ingress.
PATHS = (("i1", "t", "a1"), ("i2", "t", "a1"), ("i1", "t"), ("i2",))

_FLOWS = st.lists(st.tuples(st.sampled_from(range(len(PATHS))),
                            st.integers(min_value=0, max_value=4),
                            st.integers(min_value=0, max_value=6),
                            st.booleans()),
                  min_size=1, max_size=3)

#: (tick, flow index, path position, change): drop one rule of a flow's
#: path, install its whole path again, move the flow to the other ingress
#: (`handover`: with its path installed from there first), add a fresh flow
#: under its id, or clear every rule as a slice teardown does.  `reroute`
#: (see `_change`) is drawn only for the flows that share `t`.
_CHANGES = st.lists(st.tuples(st.integers(min_value=0, max_value=14),
                              st.integers(min_value=0, max_value=2),
                              st.integers(min_value=0, max_value=2),
                              st.sampled_from(("drop", "reinstall", "move",
                                               "handover", "re-add",
                                               "clear"))),
                    max_size=8)


def _change(plane, flow, nodes, position, change) -> None:
    """Apply one drawn change to flow `flow` of `plane`, whose path is
    `nodes`."""
    run = plane.flows[flow]
    if change == "reinstall":
        install_path(plane, flow, nodes)
    elif change in ("move", "handover"):
        run.ingress = "i2" if run.ingress == "i1" else "i1"
        if change == "handover":
            install_path(plane, flow, (run.ingress, *nodes[1:]))
    elif change == "re-add":
        plane.add_flow(FlowRun(flow_id=flow, rate=run.rate,
                               remaining_emissions=run.remaining_emissions,
                               ingress=run.ingress))
    elif change == "clear":
        plane.clear_rules()
    elif change == "reroute":
        # the flow's rule at the shared node `t` now delivers, or goes on
        nxt = plane.rules.get("t", {}).get(flow)
        plane.configure("t", {"flow": flow, "action": "install",
                              "next": "a1" if nxt == "deliver" else "deliver"})
    else:
        node = nodes[min(position, len(nodes) - 1)]
        rule = plane.rules.get(node, {}).get(flow)
        if rule is not None:
            plane.configure(node, {"flow": flow, "action": "remove",
                                   "next": rule})


def _flow_figures(run: FlowRun) -> tuple:
    return (run.sent, run.delivered, run.lost,
            run.units_in_flight, run.started, run.remaining_emissions)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_FLOWS, _CHANGES)
def test_batched_step_matches_the_per_unit_oracle(flows, changes):
    """Moving each tick's emission as one batch along a cached route gives,
    tick by tick, the step outputs and flow counters that moving every unit
    alone along a fresh snapshot gives, under any rates, paths, rule
    changes, ingress moves, re-added flows and rule clears mid-flight."""
    _step_against_the_oracle(flows, changes)


#: Two flows on paths through the shared node `t` (PATHS 0 to 2).
_SHARED_FLOWS = st.lists(st.tuples(st.sampled_from(range(3)),
                                   st.integers(min_value=1, max_value=4),
                                   st.integers(min_value=2, max_value=8),
                                   st.booleans()),
                         min_size=2, max_size=2)

#: Changes to the first flow's rules only, its rule at `t` included.
_FIRST_FLOW_CHANGES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=14), st.just(0),
              st.integers(min_value=0, max_value=2),
              st.sampled_from(("drop", "reinstall", "reroute"))),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_SHARED_FLOWS, _FIRST_FLOW_CHANGES)
def test_one_flows_rule_change_keeps_the_other_flows_route(flows, changes):
    """The plane drops a flow's cached snapshots when one of its own rules
    changes: with two flows sharing nodes and only the first one's rules
    changing between steps, the batched step still matches the oracle."""
    _step_against_the_oracle(flows, changes)


def _step_against_the_oracle(flows, changes) -> None:
    """Run the drawn flows and changes on the batched plane and on
    `PerUnitDPlane` for 24 ticks, comparing them after every step."""
    planes = (make_dplane(), PerUnitDPlane(spec=load_topology(TOPOLOGY_TEXT)))
    for plane in planes:
        for i, (path, rate, duration, complete) in enumerate(flows):
            nodes = PATHS[path]
            install_path(plane, f"f{i}", nodes)
            if not complete:    # snapshots stop short of a deliver rule
                plane.configure(nodes[-1], {"flow": f"f{i}",
                                            "action": "remove",
                                            "next": "deliver"})
            plane.add_flow(FlowRun(flow_id=f"f{i}", rate=rate,
                                   remaining_emissions=duration,
                                   ingress=nodes[0]))
    for tick in range(24):
        for at, i, position, change in changes:
            if at != tick or i >= len(flows):
                continue
            for plane in planes:
                _change(plane, f"f{i}", PATHS[flows[i][0]], position, change)
        batched, per_unit = (plane.step(tick) for plane in planes)
        assert batched == per_unit
        for flow_id, run in planes[0].flows.items():
            assert _flow_figures(run) == _flow_figures(planes[1].flows[flow_id])
            assert conserved(run)
        assert bool(due(planes[0])) == bool(due(planes[1]))
        assert planes[0].has_work() == planes[1].has_work()


def test_one_emission_travels_as_one_batch():
    dp = make_dplane()
    install_path(dp, "f1", ("i1", "t", "a1"))
    run = FlowRun(flow_id="f1", rate=3, remaining_emissions=2,
                  ingress="i1")
    dp.add_flow(run)
    dp.step(0)
    dp.step(1)
    assert [unit.count for unit in run.in_flight] == [3, 3]
    assert run.units_in_flight == 6 and conserved(run)
    for tick in range(2, 5):
        dp.step(tick)
    _, latencies, delivered, _ = dp.step(5)
    assert latencies == {"f1": [5, 5, 5]} and delivered == {"f1": 3}
    assert run.units_in_flight == 3
