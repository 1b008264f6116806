"""Sub-function catalog and the four-step modularization methodology.

Step 1 is data: a catalog document lists elementary sub-functions with their
functional domain and four separation attributes.  Step 2 derives from those
attributes the pairs of sub-functions that must live in different blocks.
Step 3 groups unconstrained same-domain sub-functions into building blocks,
minimising the number of inter-block interfaces exercised by the registered
procedures.  Step 4 evaluates a grouping against the procedures and decides
whether to accept it or revisit an earlier step.

The step-3 search is exact and testable against brute force: per domain it
enumerates only the maximal feasible partitions, then picks one per domain
with branch-and-bound on the interface score.  Determinism is guaranteed by
canonical ordering everywhere; ties are broken by fewest blocks, then by the
lexicographic order of each block's sorted sub-function ids.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateSfError, MissingAttributeError, SchemaError, UnassignedSfError,
)
from .textfmt import Block, parse_blocks


class Originator(str, Enum):
    THREE_GPP = "3gpp"
    FIVE_G = "5g"


class FunctionalDomain(str, Enum):
    ACCESS = "access"
    CONNECTIVITY = "connectivity"
    MOBILITY = "mobility"
    SECURITY = "security"
    FLOW_CONTROL = "flow_control"
    CONTEXT = "context"
    CHARGING = "charging"
    POLICY = "policy"


class Placement(str, Enum):
    EDGE = "edge"
    CORE = "core"
    EITHER = "either"


class Reusability(str, Enum):
    MULTI_SERVICE = "multi_service"
    SERVICE_SPECIFIC = "service_specific"


class Optionality(str, Enum):
    ALL_USE_CASES = "all_use_cases"
    USE_CASE_SPECIFIC = "use_case_specific"


class EvolutionCycle(str, Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class SFDescriptor:
    sf_id: str
    name: str
    description: str
    originator: Originator
    functional_domain: FunctionalDomain
    placement: Placement
    reusability: Reusability
    optionality: Optionality
    evolution_cycle: EvolutionCycle


@dataclass(frozen=True)
class ProcedureSpec:
    procedure_id: str
    name: str
    steps: tuple[tuple[str, str], ...]   # (producer sf, consumer sf)


@dataclass(frozen=True)
class BBDefinition:
    bb_id: str
    name: str
    sf_set: frozenset
    functional_domains: frozenset


@dataclass(frozen=True)
class GroupingReport:
    cross_bb: Mapping[str, int]
    intra_bb: Mapping[str, int]
    total_inter_bb_interfaces: int
    communicating_pairs: frozenset


class RefinementAction(str, Enum):
    ACCEPT = "accept"
    REVISIT_STEP3 = "revisit-step3"
    REVISIT_STEP1 = "revisit-step1"


@dataclass(frozen=True)
class RefinementDecision:
    action: RefinementAction
    offending_procedures: tuple[str, ...] = ()


#: Default bound on tolerable cross-block exchanges per procedure (step 4).
DEFAULT_CROSS_BB_THRESHOLD = 6

#: Canonical block codes per functional domain.
DOMAIN_BB_CODES = {
    FunctionalDomain.ACCESS: ("AF", "Access Function"),
    FunctionalDomain.CONNECTIVITY: ("CM", "Connectivity Management"),
    FunctionalDomain.MOBILITY: ("MM", "Mobility Management"),
    FunctionalDomain.SECURITY: ("SAM", "Security and AAA Management"),
    FunctionalDomain.FLOW_CONTROL: ("FM", "Flow Management"),
    FunctionalDomain.CONTEXT: ("CGHF", "Context Generation and Handling Function"),
    FunctionalDomain.CHARGING: ("CHG", "Charging"),
    FunctionalDomain.POLICY: ("POL", "Policy Control"),
}


@dataclass
class SFCatalog:
    sfs: dict = field(default_factory=dict)          # sf_id -> SFDescriptor
    procedures: dict = field(default_factory=dict)   # procedure_id -> ProcedureSpec

    def __post_init__(self) -> None:
        self.sfs = {k: self.sfs[k] for k in sorted(self.sfs)}
        self.procedures = {k: self.procedures[k] for k in sorted(self.procedures)}

    def sorted_sfs(self) -> list:
        return [self.sfs[k] for k in self.sfs]


# -- loading -----------------------------------------------------------------

_SEPARATION_FIELDS = ("placement", "reusability", "optionality", "evolution")

#: The enum-valued fields of an sf block in checking order, each with its
#: enum and that enum's members by value.
_SF_ATTRIBUTES = tuple((key, enum, {member.value: member for member in enum})
                       for key, enum in (("originator", Originator),
                                         ("domain", FunctionalDomain),
                                         ("placement", Placement),
                                         ("reusability", Reusability),
                                         ("optionality", Optionality),
                                         ("evolution", EvolutionCycle)))


def _parse_sf(block: Block) -> SFDescriptor:
    fields = block.fields
    missing = [f for f in _SEPARATION_FIELDS if f not in fields]
    if missing:
        raise MissingAttributeError(
            f"sf '{block.ident}' missing separation attribute(s): {', '.join(missing)}")
    sf_id = block.ident
    name = block.require("name")
    attributes = []
    for key, enum, members in _SF_ATTRIBUTES:
        member = members.get(fields.get(key))
        if member is None:   # missing or unknown: raise the checked error
            try:
                member = enum(block.require(key))
            except ValueError as exc:
                raise SchemaError(f"sf '{sf_id}': {exc}") from None
        attributes.append(member)
    return SFDescriptor(sf_id, name, fields.get("desc", ""), *attributes)


def _parse_procedure(block: Block, sfs: Mapping) -> ProcedureSpec:
    steps = []
    for rest in block.items_of("step"):
        if len(rest) != 3 or rest[1] != "->":
            raise SchemaError(
                f"procedure '{block.ident}': step must read 'step <producer> -> <consumer>'")
        producer, _, consumer = rest
        for sf in (producer, consumer):
            if sf not in sfs:
                raise SchemaError(
                    f"procedure '{block.ident}' references unknown sf '{sf}'")
        steps.append((producer, consumer))
    return ProcedureSpec(block.ident, block.get("name", block.ident), tuple(steps))


def load_catalog(text: str, source: str = "<catalog>") -> SFCatalog:
    """Parse a catalog document (sub-functions plus registered procedures)."""
    blocks = parse_blocks(text, {"sf", "procedure"}, source)
    sfs: dict = {}
    for block in blocks:
        if block.kind != "sf":
            continue
        if block.ident in sfs:
            raise DuplicateSfError(f"duplicate sf_id '{block.ident}'")
        sfs[block.ident] = _parse_sf(block)
    procedures: dict = {}
    for block in blocks:
        if block.kind != "procedure":
            continue
        if block.ident in procedures:
            raise SchemaError(f"duplicate procedure '{block.ident}'")
        procedures[block.ident] = _parse_procedure(block, sfs)
    return SFCatalog(sfs=sfs, procedures=procedures)


def load_catalog_file(path) -> SFCatalog:
    with open(path, encoding="utf-8") as fh:
        return load_catalog(fh.read(), source=str(path))


def reference_catalog_path() -> Path:
    return Path(str(importlib.resources.files("slicesim.data") / "reference.cat"))


# -- step 2: separation constraints -------------------------------------------

#: Edge and core sit on opposite sides; 'either' sits on neither.
_PLACEMENT_SIDE = {Placement.EDGE: 1, Placement.CORE: -1, Placement.EITHER: 0}


def derive_separation_constraints(catalog: SFCatalog) -> frozenset:
    """The unordered pairs (`frozenset`s) of sub-functions that must live in
    different blocks: those that differ in any separation attribute.
    Placement separates only edge from core; 'either' conflicts with
    nothing.  Output is independent of catalog ordering."""
    keyed = [(sf.sf_id, (sf.reusability, sf.optionality, sf.evolution_cycle),
              _PLACEMENT_SIDE[sf.placement]) for sf in catalog.sfs.values()]
    return frozenset(
        frozenset((a, b))
        for (a, a_key, a_side), (b, b_key, b_side) in combinations(keyed, 2)
        if a_key != b_key or a_side * b_side < 0)


# -- step 3: grouping ----------------------------------------------------------

def _maximal_partitions(members: Sequence[str], forbidden: set) -> list:
    """Maximal feasible partitions of `members` as tuples of sorted tuples:
    no forbidden pair shares a block and no two blocks could be merged.

    Restricted-growth walk over the sorted members, pruned as soon as two
    current blocks are mergeable and no unplaced member can still come
    between them.  Such a member must fit one block and conflict with the
    other or with an unplaced member that fits the other.  With nothing
    unplaced the test is exactly maximality."""
    members = sorted(members)
    n = len(members)
    conflicts = [0] * n
    for i, j in combinations(range(n), 2):
        if frozenset((members[i], members[j])) in forbidden:
            conflicts[i] |= 1 << j
            conflicts[j] |= 1 << i
    results: list = []
    blocks: list = []   # (member mask, mask of the members it conflicts with)

    def extend(index: int) -> None:
        pending = (1 << n) - (1 << index)
        for (x, x_conflicts), (y, y_conflicts) in combinations(blocks, 2):
            if x_conflicts & y:
                continue
            x_reach = x | pending & ~x_conflicts   # what each block may yet hold
            y_reach = y | pending & ~y_conflicts
            if not any(c & y_reach and not c & x or c & x_reach and not c & y
                       for c in conflicts[index:]):
                return
        if index == n:
            results.append(tuple(
                tuple(sf for i, sf in enumerate(members) if mask >> i & 1)
                for mask, _ in blocks))
            return
        bit = 1 << index
        for pos, (mask, mask_conflicts) in enumerate(blocks):
            if not mask_conflicts & bit:
                blocks[pos] = (mask | bit, mask_conflicts | conflicts[index])
                extend(index + 1)
                blocks[pos] = (mask, mask_conflicts)
        blocks.append((bit, conflicts[index]))
        extend(index + 1)
        blocks.pop()

    extend(0)
    return results


def _score(assignment: Mapping[str, int], procedures: Iterable[ProcedureSpec]) -> int:
    pairs = set()
    for proc in procedures:
        for producer, consumer in proc.steps:
            pa, pb = assignment[producer], assignment[consumer]
            if pa != pb:
                pairs.add((pa, pb) if pa < pb else (pb, pa))
    return len(pairs)


def group_into_bbs(catalog: SFCatalog, forbidden: frozenset) -> tuple:
    """Exact step-3 search over domain-respecting partitions.

    Only maximal feasible partitions per domain are candidates: merging two
    mergeable blocks never increases the interface score and always reduces
    the block count, so the winner under (score, fewest blocks, lexicographic
    key) is maximal in every domain.  Every domain has one: merge blocks of
    the all-singletons partition until no two can be merged.  The cost grows
    with the number of maximal candidates, not with the Bell number of the
    domain size.  `forbidden` holds the pairs step 2 separates.
    """
    by_domain: dict = {}
    for sf in catalog.sorted_sfs():
        by_domain.setdefault(sf.functional_domain, []).append(sf.sf_id)
    domains = sorted(by_domain, key=lambda d: d.value)
    per_domain = [sorted(_maximal_partitions(by_domain[d], forbidden)) for d in domains]
    procedures = list(catalog.procedures.values())

    def key_of(chosen: list) -> tuple:
        blocks = sorted(blk for part in chosen for blk in part)
        assignment = {sf: i for i, blk in enumerate(blocks) for sf in blk}
        return _score(assignment, procedures), len(blocks), tuple(blocks)

    best = key_of([candidates[0] for candidates in per_domain])

    def search(depth: int, chosen: list) -> None:
        nonlocal best
        # Each undecided domain as one block bounds the score from below.
        key = key_of(chosen + [(tuple(by_domain[d]),) for d in domains[depth:]])
        if key[0] > best[0]:
            return
        if depth == len(domains):
            best = min(best, key)
            return
        for candidate in per_domain[depth]:
            chosen.append(candidate)
            search(depth + 1, chosen)
            chosen.pop()

    search(0, [])
    return _name_blocks(best[2], catalog)


def _name_blocks(blocks: list, catalog: SFCatalog) -> tuple:
    per_domain_count: dict = {}
    for blk in blocks:
        domain = catalog.sfs[blk[0]].functional_domain
        per_domain_count[domain] = per_domain_count.get(domain, 0) + 1
    seen: dict = {}
    definitions = []
    for blk in blocks:
        domain = catalog.sfs[blk[0]].functional_domain
        code, long_name = DOMAIN_BB_CODES[domain]
        seen[domain] = seen.get(domain, 0) + 1
        if per_domain_count[domain] > 1:
            bb_id = f"{code}-{seen[domain]}"
            name = f"{long_name} {seen[domain]}"
        else:
            bb_id, name = code, long_name
        definitions.append(BBDefinition(
            bb_id=bb_id, name=name, sf_set=frozenset(blk),
            functional_domains=frozenset((domain,))))
    return tuple(sorted(definitions, key=lambda d: min(d.sf_set)))


# -- step 4: evaluation and refinement ----------------------------------------

def evaluate_grouping(bbs: Iterable[BBDefinition],
                      procedures: Iterable[ProcedureSpec]) -> GroupingReport:
    owner: dict = {}
    for bb in bbs:
        for sf in bb.sf_set:
            if sf in owner:
                raise UnassignedSfError(f"sf '{sf}' assigned to two blocks")
            owner[sf] = bb.bb_id
    cross: dict = {}
    intra: dict = {}
    pairs = set()
    for proc in procedures:
        cross[proc.procedure_id] = 0
        intra[proc.procedure_id] = 0
        for producer, consumer in proc.steps:
            for sf in (producer, consumer):
                if sf not in owner:
                    raise UnassignedSfError(f"sf '{sf}' not assigned to any block")
            if owner[producer] == owner[consumer]:
                intra[proc.procedure_id] += 1
            else:
                cross[proc.procedure_id] += 1
                pairs.add(frozenset((owner[producer], owner[consumer])))
    return GroupingReport(
        cross_bb=cross, intra_bb=intra,
        total_inter_bb_interfaces=len(pairs),
        communicating_pairs=frozenset(pairs))


def refine(report: GroupingReport,
           threshold: int = DEFAULT_CROSS_BB_THRESHOLD) -> RefinementDecision:
    """Step-4 decision.  Exceeding the threshold sends the loop back to
    step 3; exceeding twice the threshold signals that sub-functions need
    redefinition (back to step 1).  Pure decision, no mutation."""
    redefine = tuple(sorted(
        p for p, n in report.cross_bb.items() if n > 2 * threshold))
    if redefine:
        return RefinementDecision(RefinementAction.REVISIT_STEP1, redefine)
    if any(n > threshold for n in report.cross_bb.values()):
        return RefinementDecision(RefinementAction.REVISIT_STEP3)
    return RefinementDecision(RefinementAction.ACCEPT)


def compose(catalog: SFCatalog) -> tuple:
    """Run steps 2-4 end to end; returns (bbs, report, decision)."""
    bbs = group_into_bbs(catalog, derive_separation_constraints(catalog))
    report = evaluate_grouping(bbs, catalog.procedures.values())
    return bbs, report, refine(report)


def render_grouping(bbs: Iterable[BBDefinition], report: GroupingReport) -> str:
    """Emit a grouping in the catalog document format."""
    lines: list = []
    for bb in bbs:
        lines.append(f"bb {bb.bb_id}")
        lines.append(f"  name: {bb.name}")
        domains = ",".join(sorted(d.value for d in bb.functional_domains))
        lines.append(f"  domain: {domains}")
        for sf in sorted(bb.sf_set):
            lines.append(f"  sf {sf}")
        lines.append("end")
    lines.append("report grouping")
    for proc in sorted(report.cross_bb):
        lines.append(
            f"  procedure {proc} cross={report.cross_bb[proc]} intra={report.intra_bb[proc]}")
    lines.append(f"  total-inter-bb-interfaces: {report.total_inter_bb_interfaces}")
    lines.append("end")
    return "\n".join(lines) + "\n"
