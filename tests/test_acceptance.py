"""Acceptance suite: one test per criterion, each printing a pass/fail line
(see conftest).  Oracles are brute-force enumerations independent of the
implementation paths they check; every tolerance is exact."""

import itertools
import random
import time

from slicesim.blocks.common import AuthScheme, PathStrategy
from slicesim.blocks.fm import (
    FMState, LinkState, TopologyView, fm_define_path, link_key,
    post_install_utilisation, shortest_path,
)
from slicesim.blocks.sam import IdentityRecord, SAMState, sam_authenticate
from slicesim.catalog import (
    EvolutionCycle, FunctionalDomain, Optionality, Originator, Placement,
    ProcedureSpec, Reusability, SFCatalog, SFDescriptor, compose,
    derive_separation_constraints, evaluate_grouping, group_into_bbs,
    load_catalog,
)
from slicesim.engine import Environment, compare_fabrics, load_scenario, run
from slicesim.errors import CapacityError
from slicesim.messages import InterfacePoint, ProcedureKind, Role
from slicesim.metrics import compute_metrics, render_metrics
from slicesim.trace import (
    EventRecord, MessageRecord, parse_trace, render_trace,
)

from conftest import (
    CORPUS, attach_once, reference_catalog_text, sam_single_sign_on,
    scenario_path,
)

SEED = 7

TABLE_GROUPS = {
    "AF": {"dplane-control", "an-management", "cn-access-control", "path-record"},
    "CM": {"network-access-control", "access-functions-control",
           "session-management", "slice-management", "roaming-management"},
    "MM": {"mobility-policy-enforcement", "device-location-tracking",
           "device-paging", "mobility-assistance"},
    "SAM": {"identity-management", "authentication", "single-sign-on",
            "security-monitoring"},
    "FM": {"forwarding-monitoring", "path-definition", "flow-decision"},
    "CGHF": {"pubsub-management", "context-generation", "context-management"},
}

def load(name):
    return load_scenario(scenario_path(f"{name}.scn"))


def msgs_of(trace, kind=None):
    return [r for r in trace if isinstance(r, MessageRecord)
            and (kind is None or r.kind is kind)]


def events_of(trace, kind):
    return [r for r in trace if isinstance(r, EventRecord) and r.kind == kind]


# -- criterion 1: Table reproduction -------------------------------------------

def test_criterion_1_reference_grouping_reproduction():
    started = time.monotonic()
    catalog = load_catalog(reference_catalog_text())
    bbs, report, decision = compose(catalog)
    got = {bb.bb_id: set(bb.sf_set) for bb in bbs}
    assert got == TABLE_GROUPS
    assert {k: len(v) for k, v in got.items()} == {
        "AF": 4, "CM": 5, "MM": 4, "SAM": 4, "FM": 3, "CGHF": 3}
    assert decision.action.value == "accept"
    assert time.monotonic() - started < 5.0


# -- criterion 2: grouping optimality oracle -------------------------------------

def _all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _all_partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [block + [first]] + partition[i + 1:]
        yield partition + [[first]]


def _random_catalog(rng):
    n = rng.randint(1, 6)
    domains = [FunctionalDomain.MOBILITY, FunctionalDomain.SECURITY,
               FunctionalDomain.CONTEXT]
    sfs = {}
    for i in range(n):
        sf_id = f"sf{i}"
        sfs[sf_id] = SFDescriptor(
            sf_id=sf_id, name=sf_id, description="",
            originator=rng.choice(list(Originator)),
            functional_domain=rng.choice(domains),
            placement=rng.choice(list(Placement)),
            reusability=rng.choice(list(Reusability)),
            optionality=rng.choice(list(Optionality)),
            evolution_cycle=rng.choice(list(EvolutionCycle)))
    procedures = {}
    for p in range(rng.randint(0, 3)):
        steps = tuple((rng.choice(list(sfs)), rng.choice(list(sfs)))
                      for _ in range(rng.randint(1, 5)))
        procedures[f"p{p}"] = ProcedureSpec(f"p{p}", f"p{p}", steps)
    return SFCatalog(sfs=sfs, procedures=procedures)


def test_criterion_2_grouping_optimality_oracle():
    started = time.monotonic()
    rng = random.Random(424242)
    checked = 0
    while checked < 50:
        catalog = _random_catalog(rng)
        # the oracle's own reading of step 2: a pair differing in a
        # separation attribute, placement only when edge meets core
        forbidden = {frozenset((a.sf_id, b.sf_id)) for a, b in
                     itertools.combinations(catalog.sfs.values(), 2)
                     if {a.placement, b.placement} == {Placement.EDGE,
                                                       Placement.CORE}
                     or a.reusability is not b.reusability
                     or a.optionality is not b.optionality
                     or a.evolution_cycle is not b.evolution_cycle}

        def feasible(partition):
            for block in partition:
                if len({catalog.sfs[sf].functional_domain for sf in block}) > 1:
                    return False
                for a, b in itertools.combinations(block, 2):
                    if frozenset((a, b)) in forbidden:
                        return False
            return True

        def score(partition):
            owner = {sf: i for i, blk in enumerate(partition) for sf in blk}
            pairs = set()
            for proc in catalog.procedures.values():
                for producer, consumer in proc.steps:
                    if owner[producer] != owner[consumer]:
                        pairs.add(frozenset((owner[producer], owner[consumer])))
            return len(pairs)

        best = min(score(p) for p in _all_partitions(list(catalog.sfs))
                   if feasible(p))
        bbs = group_into_bbs(catalog, derive_separation_constraints(catalog))
        report = evaluate_grouping(bbs, catalog.procedures.values())
        assert report.total_inter_bb_interfaces == best
        checked += 1
    assert time.monotonic() - started < 30.0


# -- criterion 3: fabric equivalence ------------------------------------------------

def test_criterion_3_fabric_equivalence_and_cost_ordering():
    for name in CORPUS:
        results = compare_fabrics(load(name), SEED)   # digests asserted inside
        hops = {model: result.metrics.fabric_hops_total
                for model, result in results.items()}
        assert hops["full_mesh"] >= 1, name    # every scenario crosses the fabric
        assert hops["full_mesh"] < hops["relay"], name
        assert hops["full_mesh"] < hops["dispatcher"], name


# -- criterion 4: slice-selection methods ---------------------------------------------

def test_criterion_4_selection_methods_agree():
    scenario = load("attach-method2-redirect")
    bound1, msgs1 = attach_once(scenario, "d3", method=1, seed=SEED)
    bound2, msgs2 = attach_once(scenario, "d3", method=2, seed=SEED)
    assert bound1 == bound2 == "embb-a"
    # method 1 never redirects; method 2 redirects because default != target
    assert not [m for m in msgs1 if m.kind is ProcedureKind.SLICE_REDIRECT]
    assert [m for m in msgs2 if m.kind is ProcedureKind.SLICE_REDIRECT]
    # device already on its subscribed slice: no redirect either way
    bound3, msgs3 = attach_once(scenario, "d4", method=2, seed=SEED)
    assert bound3 == "default-a"
    assert not [m for m in msgs3 if m.kind is ProcedureKind.SLICE_REDIRECT]
    # the scripted method-2 run shows the same predicates end to end
    result = run(scenario, SEED)
    assert msgs_of(result.trace, ProcedureKind.SLICE_REDIRECT)


# -- criterion 5: mobility and continuity ----------------------------------------------

def test_criterion_5_handover_loss_and_session_continuity():
    mbb = run(load("handover-mbb"), SEED)
    bbm = run(load("handover-bbm"), SEED)
    assert mbb.metrics.flows["f5"]["lost"] == 0
    assert bbm.metrics.flows["f5"]["lost"] >= 1
    for result in (mbb, bbm):
        sessions = {r.payload.get("session")
                    for r in msgs_of(result.trace)
                    if r.kind in (ProcedureKind.HANDOVER_PREPARE,
                                      ProcedureKind.HANDOVER_EXECUTE)
                    and r.payload.get("session")}
        assert sessions == {"s-mob-a-1"}
        assert events_of(result.trace, "handover-complete")


# -- criterion 6: slices without mobility management -------------------------------------

def test_criterion_6_no_mm_slice_rule():
    result = run(load("fixed-nomm"), SEED)
    assert events_of(result.trace, "attach-complete")
    mm_addressed = [r for r in msgs_of(result.trace)
                    if getattr(r.destination, "role", None) is Role.MM]
    assert mm_addressed == []
    unsupported = [r for r in events_of(result.trace, "error")
                   if r.detail.get("error") == "MobilityUnsupported"]
    assert len(unsupported) == 1
    # CM <-> AF direct signalling appears on I3
    assert any(r.interface is InterfacePoint.I3 for r in msgs_of(result.trace))


# -- criterion 7: path strategy oracles ------------------------------------------------

def _random_view(rng):
    n = rng.randint(2, 8)
    nodes = [f"v{i}" for i in range(n)]
    view = TopologyView()
    for node in nodes:
        view.nodes[node] = "transport"
    for i in range(1, n):
        view.links[link_key(nodes[i - 1], nodes[i])] = LinkState(
            capacity=rng.randint(1, 8), latency=rng.randint(1, 5))
    for _ in range(rng.randint(0, 6)):
        a, b = rng.sample(nodes, 2)
        view.links.setdefault(link_key(a, b), LinkState(
            capacity=rng.randint(1, 8), latency=rng.randint(1, 5)))
    for key in rng.sample(sorted(view.links), k=min(3, len(view.links))):
        view.links[key].observed = round(rng.random(), 3)
    return view, nodes


def _oracle_paths(view, src, dst):
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


def test_criterion_7_path_oracles():
    started = time.monotonic()
    rng = random.Random(99)
    checked = 0
    while checked < 20:
        view, nodes = _random_view(rng)
        src, dst = nodes[0], nodes[-1]
        all_paths = _oracle_paths(view, src, dst)
        assert all_paths, "spine guarantees connectivity"
        expected_short = min((view.path_latency(p), p) for p in all_paths)
        assert shortest_path(view, src, dst) == expected_short
        # every ordered pair, twice: the second answer comes from the memo
        for a, b in itertools.permutations(nodes, 2):
            expected = min((view.path_latency(p), p)
                           for p in _oracle_paths(view, a, b))
            assert shortest_path(view, a, b) == expected
            assert shortest_path(view, a, b) == expected
        assert len(view.shortest) == len(nodes) * (len(nodes) - 1)

        budget = 1.5 * expected_short[0]
        candidates = [p for p in all_paths if view.path_latency(p) <= budget]
        expected_ld = min((post_install_utilisation(view, p, 1), p)
                          for p in candidates)
        state = FMState(view=view, strategy=PathStrategy.LOAD_DISTRIBUTION)
        try:
            path = fm_define_path(state, "f", src, dst, "default")
        except CapacityError:
            links = [view.link(a, b) for a, b in zip(expected_ld[1],
                                                     expected_ld[1][1:])]
            assert any(l.reserved + 1 > l.capacity for l in links)
        else:
            assert path.nodes == expected_ld[1]
        checked += 1
    assert time.monotonic() - started < 60.0


# -- criterion 8: security properties --------------------------------------------------

def test_criterion_8_audit_secrecy_and_single_sign_on():
    # audit entries equal authentication attempts on every corpus trace
    for name in CORPUS:
        env = Environment(load(name), seed=SEED)
        result = env.run()
        challenges = [r for r in msgs_of(result.trace,
                                         ProcedureKind.AUTH_CHALLENGE)]
        audit_total = sum(
            sum(1 for e in inst.states[Role.SAM].audit_log
                if e.kind == "auth")
            for inst in env.slices.values())
        audit_total += sum(1 for e in env.global_states[Role.SAM].audit_log
                           if e.kind == "auth")
        assert audit_total == len(challenges), name

        # permanent identities stay off the west-bound interfaces after the
        # device's first successful authentication
        authenticated_at = {}
        for rec in result.trace:
            if isinstance(rec, EventRecord) and rec.kind == "auth" \
                    and rec.detail.get("ok"):
                authenticated_at.setdefault(rec.subject, (rec.tick, rec.seq))
        psi_of = {d.device_id: d.permanent_id for d in env.scenario.devices}
        for rec in msgs_of(result.trace):
            if rec.interface not in (InterfacePoint.I1, InterfacePoint.I2,
                                         InterfacePoint.I3):
                continue
            for device, (tick, seq) in authenticated_at.items():
                if (rec.tick, rec.seq) <= (tick, seq):
                    continue
                rendered = render_trace([rec])
                assert psi_of[device] not in rendered, (name, rendered)

    # single sign-on to further services emits no new credential exchange
    state = SAMState(identity_db={
        "imsi-1": IdentityRecord(device="d1", permanent_id="imsi-1",
                                 proof="tok")})
    verdict = sam_authenticate(state, "d1", "imsi-1", "tok",
                               AuthScheme.FULL, seed=SEED, tick=0)
    assert verdict.ok
    sam_single_sign_on(state, "d1", "svc-1", tick=1)
    sam_single_sign_on(state, "d1", "svc-2", tick=2)
    assert [e.kind for e in state.audit_log] == ["auth", "sso", "sso"]


# -- criterion 9: context loop ----------------------------------------------------------

def test_criterion_9_context_triggered_reselection():
    result = run(load("cghf-reselect"), SEED)
    notifies = [r for r in msgs_of(result.trace, ProcedureKind.CONTEXT_NOTIFY)
                if r.payload.get("statement") == "latency_above_normal"]
    assert len(notifies) == 1
    reanchors = [r for r in msgs_of(result.trace, ProcedureKind.SESSION_ESTABLISH)
                 if r.payload.get("phase") == "reanchor"
                 and r.source.role is Role.CM]
    configs = [r for r in msgs_of(result.trace, ProcedureKind.FLOW_CONFIGURE)
               if r.correlation_id.split(":")[1] == "reanchor"]
    assert reanchors and configs
    assert (notifies[0].tick, notifies[0].seq) \
        < (reanchors[0].tick, reanchors[0].seq) \
        < (configs[0].tick, configs[0].seq)
    reselects = events_of(result.trace, "reselect")
    assert reselects and reselects[0].detail["to"] != reselects[0].detail["from"]


# -- criterion 10: determinism and replay ----------------------------------------------

def test_criterion_10_determinism_and_replay():
    for name in CORPUS:
        scenario = load(name)
        first = run(scenario, SEED)
        second = run(scenario, SEED)
        text_first = render_trace(first.trace)
        assert text_first == render_trace(second.trace), name
        recomputed = compute_metrics(parse_trace(text_first))
        assert render_metrics(recomputed) == render_metrics(first.metrics), name


# -- criterion 11: slice isolation ------------------------------------------------------

def test_criterion_11_slice_isolation():
    quiet = run(load("isolation-pair"), SEED)
    noisy = run(load("isolation-pair-noisy"), SEED)
    assert quiet.digests["miot-a"] == noisy.digests["miot-a"]
    # the noisy run genuinely did extra work in slice A
    assert noisy.metrics.flows["fA2"]["sent"] > 0
