"""Sub-function catalog and the four-step modularization methodology.

Step 1 is data: a catalog document lists elementary sub-functions with their
functional domain and four separation attributes.  Step 2 derives pairwise
separation constraints from those attributes.  Step 3 groups unconstrained
same-domain sub-functions into building blocks, minimising the number of
inter-block interfaces exercised by the registered procedures.  Step 4
evaluates a grouping against the procedures and decides whether to accept it
or revisit an earlier step.

The step-3 search is exact and testable against brute force: per domain it
enumerates only the maximal feasible partitions, then picks one per domain
with branch-and-bound on the interface score.  Determinism is guaranteed by
canonical ordering everywhere; ties are broken by fewest blocks, then by the
lexicographic order of each block's sorted sub-function ids.
"""

from __future__ import annotations

import functools
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


class SeparationCriterion(str, Enum):
    PLACEMENT = "placement"
    REUSABILITY = "reusability"
    OPTIONALITY = "optionality"
    EVOLUTION_CYCLE = "evolution_cycle"


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
class SeparationConstraint:
    """Unordered pair of sub-functions that must live in different blocks."""

    sf_a: str
    sf_b: str
    criterion: SeparationCriterion

    def __post_init__(self) -> None:
        if self.sf_a == self.sf_b:
            raise ValueError("a sub-function cannot be separated from itself")
        if self.sf_a > self.sf_b:
            low, high = self.sf_b, self.sf_a
            object.__setattr__(self, "sf_a", low)
            object.__setattr__(self, "sf_b", high)

    @property
    def pair(self) -> frozenset:
        return frozenset((self.sf_a, self.sf_b))


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


def _parse_sf(block: Block) -> SFDescriptor:
    missing = [f for f in _SEPARATION_FIELDS if f not in block.fields]
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


def _parse_procedure(block: Block, sf_ids: set) -> ProcedureSpec:
    steps = []
    for rest in block.items_of("step"):
        if len(rest) != 3 or rest[1] != "->":
            raise SchemaError(
                f"procedure '{block.ident}': step must read 'step <producer> -> <consumer>'")
        producer, _, consumer = rest
        for sf in (producer, consumer):
            if sf not in sf_ids:
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
        procedures[block.ident] = _parse_procedure(block, set(sfs))
    return SFCatalog(sfs=sfs, procedures=procedures)


def load_catalog_file(path) -> SFCatalog:
    with open(path, encoding="utf-8") as fh:
        return load_catalog(fh.read(), source=str(path))


def reference_catalog_path() -> Path:
    return Path(str(importlib.resources.files("slicesim.data") / "reference.cat"))


@functools.cache
def reference_blocks() -> tuple:
    """The building blocks grouped from the packaged reference catalog."""
    catalog = load_catalog_file(reference_catalog_path())
    return group_into_bbs(catalog, derive_separation_constraints(catalog))


# -- step 2: separation constraints -------------------------------------------

def derive_separation_constraints(catalog: SFCatalog) -> frozenset:
    """One constraint per differing separation attribute of each unordered
    pair.  Placement separates only edge from core; 'either' conflicts with
    nothing.  Output is independent of catalog ordering."""
    constraints = set()
    for a, b in combinations(catalog.sorted_sfs(), 2):
        placements = {a.placement, b.placement}
        if placements == {Placement.EDGE, Placement.CORE}:
            constraints.add(SeparationConstraint(a.sf_id, b.sf_id, SeparationCriterion.PLACEMENT))
        if a.reusability is not b.reusability:
            constraints.add(SeparationConstraint(a.sf_id, b.sf_id, SeparationCriterion.REUSABILITY))
        if a.optionality is not b.optionality:
            constraints.add(SeparationConstraint(a.sf_id, b.sf_id, SeparationCriterion.OPTIONALITY))
        if a.evolution_cycle is not b.evolution_cycle:
            constraints.add(SeparationConstraint(a.sf_id, b.sf_id, SeparationCriterion.EVOLUTION_CYCLE))
    return frozenset(constraints)


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
    conflicts = [sum(1 << j for j, other in enumerate(members)
                     if frozenset((sf, other)) in forbidden) for sf in members]
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
                pairs.add(frozenset((pa, pb)))
    return len(pairs)


def group_into_bbs(catalog: SFCatalog, constraints: frozenset) -> tuple:
    """Exact step-3 search over domain-respecting partitions.

    Only maximal feasible partitions per domain are candidates: merging two
    mergeable blocks never increases the interface score and always reduces
    the block count, so the winner under (score, fewest blocks, lexicographic
    key) is maximal in every domain.  Every domain has one: merge blocks of
    the all-singletons partition until no two can be merged.  The cost grows
    with the number of maximal candidates, not with the Bell number of the
    domain size.
    """
    forbidden = {c.pair for c in constraints}
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


def refine(bbs: Iterable[BBDefinition], report: GroupingReport,
           threshold: int = DEFAULT_CROSS_BB_THRESHOLD) -> RefinementDecision:
    """Step-4 decision.  Exceeding the threshold sends the loop back to
    step 3; exceeding twice the threshold signals that sub-functions need
    redefinition (back to step 1).  Pure decision, no mutation."""
    del bbs  # the decision depends only on the report
    redefine = tuple(sorted(
        p for p, n in report.cross_bb.items() if n > 2 * threshold))
    if redefine:
        return RefinementDecision(RefinementAction.REVISIT_STEP1, redefine)
    if any(n > threshold for n in report.cross_bb.values()):
        return RefinementDecision(RefinementAction.REVISIT_STEP3)
    return RefinementDecision(RefinementAction.ACCEPT)


def compose(catalog: SFCatalog) -> tuple:
    """Run steps 2-4 end to end; returns (bbs, report, decision)."""
    constraints = derive_separation_constraints(catalog)
    bbs = group_into_bbs(catalog, constraints)
    report = evaluate_grouping(bbs, catalog.procedures.values())
    return bbs, report, refine(bbs, report)


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
