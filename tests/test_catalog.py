"""Methodology tests: constraint derivation, exact grouping vs brute force,
evaluation counts and the step-4 decision rule."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.catalog import (
    BBDefinition, DEFAULT_CROSS_BB_THRESHOLD, EvolutionCycle, FunctionalDomain,
    GroupingReport, Optionality, Originator, Placement, ProcedureSpec,
    RefinementAction, Reusability, SFCatalog, SFDescriptor,
    derive_separation_constraints, evaluate_grouping, DOMAIN_BB_CODES,
    _maximal_partitions, _parse_sf, group_into_bbs, load_catalog, refine,
    render_grouping,
)
from slicesim.errors import (
    DuplicateSfError, MissingAttributeError, SchemaError, SliceSimError,
    UnassignedSfError,
)
from slicesim.textfmt import parse_blocks

from conftest import reference_catalog_text


def make_sf(sf_id, domain=FunctionalDomain.CONNECTIVITY,
            placement=Placement.CORE, reusability=Reusability.MULTI_SERVICE,
            optionality=Optionality.ALL_USE_CASES,
            evolution=EvolutionCycle.SLOW):
    return SFDescriptor(
        sf_id=sf_id, name=sf_id, description="", originator=Originator.THREE_GPP,
        functional_domain=domain, placement=placement, reusability=reusability,
        optionality=optionality, evolution_cycle=evolution)


def catalog_of(sfs, procedures=()):
    return SFCatalog(sfs={sf.sf_id: sf for sf in sfs},
                     procedures={p.procedure_id: p for p in procedures})


# -- independent oracles ------------------------------------------------------

def all_partitions(items):
    """Every set partition of `items`, generated independently of the solver."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [block + [first]] + partition[i + 1:]
        yield partition + [[first]]


def oracle_feasible(partition, catalog, forbidden):
    for block in partition:
        domains = {catalog.sfs[sf].functional_domain for sf in block}
        if len(domains) > 1:
            return False
        for a, b in itertools.combinations(block, 2):
            if frozenset((a, b)) in forbidden:
                return False
    return True


def oracle_score(partition, procedures):
    owner = {sf: i for i, block in enumerate(partition) for sf in block}
    pairs = set()
    for proc in procedures:
        for producer, consumer in proc.steps:
            if owner[producer] != owner[consumer]:
                pairs.add(frozenset((owner[producer], owner[consumer])))
    return len(pairs)


def oracle_feasible_partitions(members, forbidden):
    """All partitions of `members` with no forbidden pair co-located, as
    tuples of sorted tuples, in restricted-growth order.  It lists all
    Bell(k) of them, so it serves only as the reference for the solver."""
    members = sorted(members)
    results = []

    def extend(index, blocks):
        if index == len(members):
            results.append(tuple(tuple(b) for b in blocks))
            return
        sf = members[index]
        for block in blocks:
            if all(frozenset((sf, other)) not in forbidden for other in block):
                block.append(sf)
                extend(index + 1, blocks)
                block.pop()
        blocks.append([sf])
        extend(index + 1, blocks)
        blocks.pop()

    extend(0, [])
    return results


def oracle_is_maximal(partition, forbidden):
    return all(any(frozenset((a, b)) in forbidden for a in x for b in y)
               for x, y in itertools.combinations(partition, 2))


def oracle_maximal_partitions(members, forbidden):
    return [p for p in oracle_feasible_partitions(members, forbidden)
            if oracle_is_maximal(p, forbidden)]


def oracle_grouping(catalog, forbidden):
    """Brute-force winner under (score, block count, sorted-block key),
    named as block id -> sub-function set."""
    best = None
    for partition in all_partitions(list(catalog.sfs)):
        if not oracle_feasible(partition, catalog, forbidden):
            continue
        blocks = tuple(sorted(tuple(sorted(b)) for b in partition))
        key = (oracle_score(partition, catalog.procedures.values()), len(blocks), blocks)
        if best is None or key < best:
            best = key
    named = {}
    for domain, (code, _) in DOMAIN_BB_CODES.items():
        mine = [b for b in best[2] if catalog.sfs[b[0]].functional_domain is domain]
        for i, block in enumerate(mine, start=1):
            named[code if len(mine) == 1 else f"{code}-{i}"] = frozenset(block)
    return named


def oracle_best_score(catalog, forbidden):
    best = None
    for partition in all_partitions(list(catalog.sfs)):
        if not oracle_feasible(partition, catalog, forbidden):
            continue
        score = oracle_score(partition, catalog.procedures.values())
        if best is None or score < best:
            best = score
    return best


# -- loading -------------------------------------------------------------------

SF_X = """
sf x
  name: x
  domain: mobility
  originator: 3gpp
  placement: core
  reusability: multi_service
  optionality: all_use_cases
  evolution: slow
end
"""


class TestLoadCatalog:
    def test_reference_catalog_loads(self):
        cat = load_catalog(reference_catalog_text())
        assert len(cat.sfs) == 23
        assert len(cat.procedures) == 6

    def test_empty_document_is_a_valid_empty_catalog(self):
        cat = load_catalog("")
        assert cat.sfs == {} and cat.procedures == {}

    def test_duplicate_sf_id_rejected(self):
        text = """
sf device-paging
  name: a
  domain: mobility
  originator: 3gpp
  placement: core
  reusability: multi_service
  optionality: all_use_cases
  evolution: slow
end
sf device-paging
  name: b
  domain: mobility
  originator: 3gpp
  placement: core
  reusability: multi_service
  optionality: all_use_cases
  evolution: slow
end
"""
        with pytest.raises(DuplicateSfError):
            load_catalog(text)

    def test_missing_separation_attribute_rejected(self):
        text = """
sf x
  name: x
  domain: mobility
  originator: 3gpp
  placement: core
  reusability: multi_service
  optionality: all_use_cases
end
"""
        with pytest.raises(MissingAttributeError):
            load_catalog(text)

    def test_malformed_document_rejected(self):
        with pytest.raises(SchemaError):
            load_catalog("sf x\n  name: x\n")  # unterminated block

    def test_unknown_attribute_value_rejected(self):
        with pytest.raises(SchemaError, match="^sf 'x': 'roaming' is not a"):
            load_catalog(SF_X.replace("domain: mobility", "domain: roaming"))

    def test_malformed_step_rejected(self):
        with pytest.raises(SchemaError, match="step must read"):
            load_catalog(SF_X + "procedure p\n  step x x\nend\n")

    def test_duplicate_procedure_rejected(self):
        procedure = "procedure p\n  step x -> x\nend\n"
        with pytest.raises(SchemaError, match="duplicate procedure 'p'"):
            load_catalog(SF_X + procedure + procedure)

    def test_procedure_with_unknown_sf_rejected(self):
        with pytest.raises(SchemaError):
            load_catalog("procedure p\n  step a -> b\nend\n")


# -- step 2 ---------------------------------------------------------------------

class TestSeparationConstraints:
    def test_fast_vs_slow_evolution_separates(self):
        auth = make_sf("authentication", domain=FunctionalDomain.SECURITY,
                       evolution=EvolutionCycle.FAST)
        session = make_sf("session-management", evolution=EvolutionCycle.SLOW)
        assert derive_separation_constraints(catalog_of([auth, session])) == \
            {frozenset(("authentication", "session-management"))}

    def test_identical_attributes_produce_no_constraint(self):
        a = make_sf("policy-control", optionality=Optionality.USE_CASE_SPECIFIC)
        b = make_sf("handover-management", optionality=Optionality.USE_CASE_SPECIFIC)
        assert derive_separation_constraints(catalog_of([a, b])) == frozenset()

    def test_either_placement_conflicts_with_nothing(self):
        edge = make_sf("a", placement=Placement.EDGE)
        either = make_sf("b", placement=Placement.EITHER)
        core = make_sf("c", placement=Placement.CORE)
        assert derive_separation_constraints(catalog_of([edge, either, core])) == \
            {frozenset(("a", "c"))}

    def test_one_pair_however_many_attributes_differ(self):
        a = make_sf("a", placement=Placement.EDGE)
        b = make_sf("b", placement=Placement.CORE,
                    reusability=Reusability.SERVICE_SPECIFIC,
                    optionality=Optionality.USE_CASE_SPECIFIC,
                    evolution=EvolutionCycle.FAST)
        assert derive_separation_constraints(catalog_of([a, b])) == \
            {frozenset(("a", "b"))}

    def test_reference_constraints_match_exhaustive_pairwise_scan(self):
        cat = load_catalog(reference_catalog_text())
        got = derive_separation_constraints(cat)
        expected = set()
        for a, b in itertools.combinations(sorted(cat.sfs.values(), key=lambda s: s.sf_id), 2):
            if ({a.placement, b.placement} == {Placement.EDGE, Placement.CORE}
                    or a.reusability != b.reusability
                    or a.optionality != b.optionality
                    or a.evolution_cycle != b.evolution_cycle):
                expected.add(frozenset((a.sf_id, b.sf_id)))
        assert got == frozenset(expected)


# -- steps 1 and 2 against references ----------------------------------------

def oracle_parse_sf(block):
    """Step 1 for one sf block with one enum call per attribute, kept as the
    reference."""
    missing = [f for f in ("placement", "reusability", "optionality", "evolution")
               if f not in block.fields]
    if missing:
        raise MissingAttributeError(
            f"sf '{block.ident}' missing separation attribute(s): {', '.join(missing)}")
    try:
        return SFDescriptor(
            sf_id=block.ident,
            name=block.require("name"),
            description=block.get("desc", ""),
            originator=Originator(block.require("originator")),
            functional_domain=FunctionalDomain(block.require("domain")),
            placement=Placement(block.require("placement")),
            reusability=Reusability(block.require("reusability")),
            optionality=Optionality(block.require("optionality")),
            evolution_cycle=EvolutionCycle(block.require("evolution")),
        )
    except ValueError as exc:
        raise SchemaError(f"sf '{block.ident}': {exc}") from None


def oracle_separation_constraints(catalog):
    """Step 2 with two sets per pair, kept as the reference."""
    return frozenset(
        frozenset((a.sf_id, b.sf_id))
        for a, b in itertools.combinations(catalog.sfs.values(), 2)
        if {a.placement, b.placement} == {Placement.EDGE, Placement.CORE}
        or a.reusability is not b.reusability
        or a.optionality is not b.optionality
        or a.evolution_cycle is not b.evolution_cycle)


#: Every enum-valued field of an sf block with every value it may take.
SF_FIELD_VALUES = {"originator": Originator, "domain": FunctionalDomain,
                   "placement": Placement, "reusability": Reusability,
                   "optionality": Optionality, "evolution": EvolutionCycle}


@st.composite
def sf_documents(draw):
    """Catalog documents whose sfs draw every attribute value, `either`
    included; a third of the sfs lose a field or get an unknown value, some
    of them twice, so that the order of the checks shows."""
    lines = []
    for i in range(draw(st.integers(0, 9))):
        fields = {"name": f"n{i}", "desc": "d"}
        fields.update({key: draw(st.sampled_from([m.value for m in enum]))
                       for key, enum in SF_FIELD_VALUES.items()})
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            key = draw(st.sampled_from(sorted(fields)))
            if draw(st.booleans()):
                fields.pop(key, None)
            else:
                fields[key] = "bogus"
        lines.append(f"sf sf{i}")
        lines += [f"  {key}: {value}" for key, value in fields.items()]
        lines.append("end")
    return "\n".join(lines) + "\n"


def parsed_or_error(parse, block):
    try:
        return parse(block)
    except SliceSimError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(sf_documents())
def test_steps_1_and_2_match_their_oracles(text):
    blocks = parse_blocks(text, {"sf", "procedure"})
    parsed = {}
    for block in blocks:
        expected = parsed_or_error(oracle_parse_sf, block)
        assert parsed_or_error(_parse_sf, block) == expected
        if isinstance(expected, SFDescriptor):
            parsed[block.ident] = expected
    cat = catalog_of(parsed.values())
    assert derive_separation_constraints(cat) == oracle_separation_constraints(cat)
    if len(parsed) == len(blocks):
        assert load_catalog(text).sfs == cat.sfs


# -- step 3 ---------------------------------------------------------------------

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


class TestGrouping:
    def test_reference_catalog_reproduces_the_six_blocks(self):
        cat = load_catalog(reference_catalog_text())
        bbs = group_into_bbs(cat, derive_separation_constraints(cat))
        assert {bb.bb_id: set(bb.sf_set) for bb in bbs} == TABLE_GROUPS

    def test_single_sf_catalog_yields_one_block(self):
        cat = catalog_of([make_sf("only")])
        bbs = group_into_bbs(cat, frozenset())
        assert len(bbs) == 1 and bbs[0].sf_set == frozenset({"only"})

    def test_toy_catalog_matches_partition_enumeration_oracle(self):
        # 4 SFs, 2 domains, 1 constraint, 2 procedures.
        sfs = [
            make_sf("a1", domain=FunctionalDomain.MOBILITY),
            make_sf("a2", domain=FunctionalDomain.MOBILITY,
                    evolution=EvolutionCycle.FAST),
            make_sf("b1", domain=FunctionalDomain.SECURITY),
            make_sf("b2", domain=FunctionalDomain.SECURITY),
        ]
        procs = [
            ProcedureSpec("p1", "p1", (("a1", "a2"), ("a2", "b1"))),
            ProcedureSpec("p2", "p2", (("b1", "b2"), ("a1", "b2"))),
        ]
        cat = catalog_of(sfs, procs)
        constraints = derive_separation_constraints(cat)
        bbs = group_into_bbs(cat, constraints)
        report = evaluate_grouping(bbs, procs)
        assert report.total_inter_bb_interfaces == oracle_best_score(cat, constraints)
        # the constrained pair is split
        for bb in bbs:
            assert not {"a1", "a2"} <= bb.sf_set

    def test_grouping_never_mixes_domains_or_colocates_constraints(self):
        cat = load_catalog(reference_catalog_text())
        forbidden = derive_separation_constraints(cat)
        for bb in group_into_bbs(cat, forbidden):
            domains = {cat.sfs[sf].functional_domain for sf in bb.sf_set}
            assert len(domains) == 1
            for a, b in itertools.combinations(sorted(bb.sf_set), 2):
                assert frozenset((a, b)) not in forbidden

    def test_grouping_is_deterministic_under_input_shuffling(self):
        cat = load_catalog(reference_catalog_text())
        baseline = None
        for seed in range(3):
            rng = random.Random(seed)
            ids = list(cat.sfs)
            rng.shuffle(ids)
            shuffled = SFCatalog(
                sfs={i: cat.sfs[i] for i in ids},
                procedures=dict(reversed(list(cat.procedures.items()))))
            constraints = derive_separation_constraints(shuffled)
            rendered = render_grouping(
                group_into_bbs(shuffled, constraints),
                evaluate_grouping(group_into_bbs(shuffled, constraints),
                                  shuffled.procedures.values()))
            if baseline is None:
                baseline = rendered
            assert rendered == baseline


@st.composite
def small_catalogs(draw, min_sfs=1, max_sfs=6, n_domains=3):
    n = draw(st.integers(min_value=min_sfs, max_value=max_sfs))
    ids = [f"sf{i}" for i in range(n)]
    choices = [FunctionalDomain.MOBILITY, FunctionalDomain.SECURITY,
               FunctionalDomain.CONTEXT][:n_domains]
    domains = [draw(st.sampled_from(choices)) for _ in ids]
    sfs = [make_sf(
        sf_id, domain=domains[i],
        placement=draw(st.sampled_from(list(Placement))),
        reusability=draw(st.sampled_from(list(Reusability))),
        optionality=draw(st.sampled_from(list(Optionality))),
        evolution=draw(st.sampled_from(list(EvolutionCycle))),
    ) for i, sf_id in enumerate(ids)]
    n_procs = draw(st.integers(min_value=0, max_value=3 if ids else 0))
    procs = []
    for p in range(n_procs):
        steps = draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
            min_size=1, max_size=5))
        procs.append(ProcedureSpec(f"p{p}", f"p{p}", tuple(steps)))
    return catalog_of(sfs, procs)


@st.composite
def catalogs_with_arbitrary_constraints(draw):
    # Two domains of up to seven SFs give many equal-score candidates.
    cat = draw(small_catalogs(min_sfs=0, max_sfs=7, n_domains=2))
    pairs = list(itertools.combinations(cat.sfs, 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return cat, frozenset(frozenset(pair) for pair in chosen)


@st.composite
def conflict_graphs(draw):
    members = draw(st.permutations([f"s{i}" for i in range(draw(st.integers(0, 8)))]))
    pairs = list(itertools.combinations(sorted(members), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return members, {frozenset(pair) for pair in chosen}


class TestMaximalPartitions:
    @settings(max_examples=200, deadline=None)
    @given(conflict_graphs())
    def test_matches_the_filtered_enumeration_oracle(self, graph):
        members, forbidden = graph
        assert _maximal_partitions(members, forbidden) == \
            oracle_maximal_partitions(members, forbidden)

    def test_separator_may_conflict_only_with_an_unplaced_member(self):
        # Once s0, s1 and s2 open one block each, only the unplaced conflicting
        # pair s3, s4 can still come between {s0} and {s2}.
        members = [f"s{i}" for i in range(6)]
        forbidden = {frozenset(p) for p in (("s0", "s1"), ("s1", "s2"), ("s3", "s4"))}
        got = _maximal_partitions(members, forbidden)
        assert got == oracle_maximal_partitions(members, forbidden)
        assert (("s0", "s3"), ("s1",), ("s2", "s4", "s5")) in got

    @pytest.mark.parametrize("m", [0, 1, 4, 10])
    def test_either_sfs_split_between_edge_and_core(self, m):
        sfs = [make_sf(f"{p.value}-{i:02d}", placement=p)
               for p in (Placement.CORE, Placement.EDGE) for i in range(3)]
        sfs += [make_sf(f"either-{i:02d}", placement=Placement.EITHER) for i in range(m)]
        cat = catalog_of(sfs)
        got = _maximal_partitions(list(cat.sfs),
                                  derive_separation_constraints(cat))
        assert len(got) == len(set(got)) == 2 ** m
        assert all(len(p) == 2 for p in got)

    def test_thirty_equal_sfs_compose_to_one_block(self):
        cat = catalog_of([make_sf(f"sf{i:02d}") for i in range(30)])
        bbs = group_into_bbs(cat, derive_separation_constraints(cat))
        assert [(bb.bb_id, bb.sf_set) for bb in bbs] == [("CM", frozenset(cat.sfs))]


class TestGroupingProperties:
    def test_every_tie_on_five_sfs_breaks_like_brute_force(self):
        # No procedures: every candidate scores 0, so only the tie-break decides.
        cat = catalog_of([make_sf(f"sf{i}") for i in range(5)])
        pairs = list(itertools.combinations(cat.sfs, 2))
        for bits in range(1 << len(pairs)):
            constraints = frozenset(
                frozenset(pair) for i, pair in enumerate(pairs) if bits >> i & 1)
            bbs = group_into_bbs(cat, constraints)
            assert {bb.bb_id: bb.sf_set for bb in bbs} == oracle_grouping(cat, constraints)

    @settings(max_examples=60, deadline=None)
    @given(small_catalogs())
    def test_score_is_optimal_on_small_instances(self, cat):
        constraints = derive_separation_constraints(cat)
        bbs = group_into_bbs(cat, constraints)
        report = evaluate_grouping(bbs, cat.procedures.values())
        assert report.total_inter_bb_interfaces == oracle_best_score(cat, constraints)

    @settings(max_examples=100, deadline=None)
    @given(catalogs_with_arbitrary_constraints())
    def test_result_is_the_brute_force_winner_with_its_tie_break(self, case):
        cat, constraints = case
        bbs = group_into_bbs(cat, constraints)
        assert {bb.bb_id: bb.sf_set for bb in bbs} == oracle_grouping(cat, constraints)

    @settings(max_examples=60, deadline=None)
    @given(small_catalogs())
    def test_partition_soundness(self, cat):
        forbidden = derive_separation_constraints(cat)
        bbs = group_into_bbs(cat, forbidden)
        seen = set()
        for bb in bbs:
            assert len({cat.sfs[sf].functional_domain for sf in bb.sf_set}) == 1
            for a, b in itertools.combinations(sorted(bb.sf_set), 2):
                assert frozenset((a, b)) not in forbidden
            assert not seen & bb.sf_set
            seen |= bb.sf_set
        assert seen == set(cat.sfs)


# -- step 4 ---------------------------------------------------------------------

def two_block_grouping():
    return (
        BBDefinition("X", "X", frozenset({"a", "b"}),
                     frozenset({FunctionalDomain.MOBILITY})),
        BBDefinition("Y", "Y", frozenset({"c"}),
                     frozenset({FunctionalDomain.SECURITY})),
    )


class TestEvaluation:
    def test_single_block_grouping_has_zero_cross(self):
        bbs = (BBDefinition("X", "X", frozenset({"a", "b", "c"}),
                            frozenset({FunctionalDomain.MOBILITY})),)
        proc = ProcedureSpec("p", "p", (("a", "b"), ("b", "c"), ("c", "a")))
        report = evaluate_grouping(bbs, [proc])
        assert report.cross_bb == {"p": 0}
        assert report.intra_bb == {"p": 3}
        assert report.total_inter_bb_interfaces == 0

    def test_attachment_chain_hand_count(self):
        # 5-step chain: auth->SAM handled in one block, slice-select and
        # path-define cross blocks.  Hand count: steps 2, 4 and 5 cross.
        bbs = (
            BBDefinition("SAM", "SAM", frozenset({"auth", "identity"}),
                         frozenset({FunctionalDomain.SECURITY})),
            BBDefinition("CM", "CM", frozenset({"slice-select", "session"}),
                         frozenset({FunctionalDomain.CONNECTIVITY})),
            BBDefinition("FM", "FM", frozenset({"path-define"}),
                         frozenset({FunctionalDomain.FLOW_CONTROL})),
        )
        proc = ProcedureSpec("attach", "attach", (
            ("auth", "identity"),        # intra SAM
            ("auth", "slice-select"),    # SAM -> CM
            ("slice-select", "session"), # intra CM
            ("session", "path-define"),  # CM -> FM
            ("path-define", "auth"),     # FM -> SAM
        ))
        report = evaluate_grouping(bbs, [proc])
        assert report.cross_bb == {"attach": 3}
        assert report.intra_bb == {"attach": 2}
        assert report.total_inter_bb_interfaces == 3
        assert report.cross_bb["attach"] + report.intra_bb["attach"] == len(proc.steps)

    def test_empty_procedure_list(self):
        report = evaluate_grouping(two_block_grouping(), [])
        assert report.cross_bb == {} and report.intra_bb == {}
        assert report.total_inter_bb_interfaces == 0

    def test_sf_in_two_blocks_rejected(self):
        bbs = two_block_grouping() + (
            BBDefinition("Z", "Z", frozenset({"c"}),
                         frozenset({FunctionalDomain.SECURITY})),)
        with pytest.raises(UnassignedSfError, match="'c' assigned to two blocks"):
            evaluate_grouping(bbs, [])

    def test_unassigned_sf_rejected(self):
        proc = ProcedureSpec("p", "p", (("a", "zz"),))
        with pytest.raises(UnassignedSfError):
            evaluate_grouping(two_block_grouping(), [proc])


class TestRefine:
    @pytest.mark.parametrize("count,action,offending", [
        (3, RefinementAction.ACCEPT, ()),
        (7, RefinementAction.REVISIT_STEP3, ()),
        (11, RefinementAction.REVISIT_STEP1, ("attach",)),
    ])
    def test_threshold_rules(self, count, action, offending):
        report = GroupingReport(cross_bb={"attach": count}, intra_bb={"attach": 0},
                                total_inter_bb_interfaces=1,
                                communicating_pairs=frozenset())
        decision = refine(report, threshold=5)
        assert decision.action is action
        assert decision.offending_procedures == offending

    def test_default_threshold(self):
        report = GroupingReport(cross_bb={"p": DEFAULT_CROSS_BB_THRESHOLD},
                                intra_bb={"p": 0}, total_inter_bb_interfaces=1,
                                communicating_pairs=frozenset())
        assert refine(report).action is RefinementAction.ACCEPT
