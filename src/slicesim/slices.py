"""Slice blueprints, composition rules and the slice lifecycle.

A blueprint names the block roles a slice deploys (whole blocks), its
interconnection model and its policies.  Access, connectivity, security and
flow management are mandatory; mobility and context handling are optional,
and a slice without mobility management wires connectivity straight to the
access function; a move event there surfaces as a MobilityUnsupported trace
event instead of a handover.

Instantiation builds fresh block states over a private copy of the
forwarded-plane topology, so two instances share nothing mutable and slices
stay isolated by construction.  What depends only on the run (the subscriber
roster, the anchor latencies) is built once per run and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from .blocks import af, cghf, cm, fm, mm, sam
from .blocks.cghf import DEFAULT_FACTOR, DEFAULT_WINDOW, ContextModelRule
from .blocks.common import (
    ALL_TECHS, DEFAULT_PAGE_TIMEOUT, DEFAULT_STRETCH, Anchoring, AuthScheme,
    BlockEvent, HandoverStyle, MobilityPolicy, PathStrategy, SlicePolicy, Tech,
)
from .blocks.fm import shortest_path
from .errors import (
    InfraCapacityError, LifecycleOrderError, NoPathError, SchemaError,
)
from .fabric import Fabric, FabricModelKind, connect
from .messages import (
    BB_ROLES, MANDATORY_BB_ROLES, OPTIONAL_BB_ROLES, Role, Verdict, block_id,
)
from .netsim import DPlane, TopologySpec, build_view
from .textfmt import parse_blocks, split_kv


class SliceType(str, Enum):
    EMBB = "embb"
    MIOT = "miot"
    CRITICAL_COMMS = "critical_comms"
    FIXED_ACCESS = "fixed_access"


class LifecycleState(str, Enum):
    OPERATING = "operating"
    TORN_DOWN = "torn_down"


@dataclass(frozen=True)
class SliceBlueprint:
    slice_id: str
    slice_type: SliceType
    bb_set: frozenset                 # of Role
    fabric_model: FabricModelKind
    mobility_policy: MobilityPolicy | None = None
    auth_scheme: AuthScheme = AuthScheme.FULL
    path_strategy: PathStrategy = PathStrategy.SHORTEST_PATH
    stretch: float = DEFAULT_STRETCH
    anchors: tuple = ()
    subscriptions: tuple = ()         # (Role, topic)
    context_models: tuple = ()

    @property
    def policy(self) -> SlicePolicy:
        return SlicePolicy(auth_scheme=self.auth_scheme,
                           mobility=self.mobility_policy)


#: The fields a blueprint reads.
_FIELDS = frozenset({"type", "fabric", "auth", "path-strategy", "stretch",
                     "anchors", "mobility"})

#: Per item word of a blueprint, and for its mobility field, the options
#: it reads.
_OPTIONS = {"bb": frozenset(),
            "context-model": frozenset({"metric", "statement", "factor",
                                        "window", "min_samples"}),
            "subscribe": frozenset(),
            "mobility": frozenset({"style", "anchoring", "allow", "timeout"})}


def load_blueprint(text: str, source: str = "<blueprint>") -> SliceBlueprint:
    blocks = parse_blocks(text, {"blueprint"}, source)
    if len(blocks) != 1:
        raise SchemaError(f"{source}: expected exactly one blueprint block")
    block = blocks[0]
    block.refuse_unknown(source, _FIELDS, _OPTIONS.keys() - {"mobility"})
    block.refuse_in_ident(source, ":.", "a separator of plane addresses "
                          "(DP:<slice>:<node>) and block ids (<ROLE>.<slice>.1)")
    block.refuse_in_ident(source, "|,", "a separator of trace columns ('|') "
                          "and of the block ids in one (',')")
    if block.ident == "global":
        raise SchemaError(f"{source}:{block.line}: {block.head}: identifier "
                          f"is 'global', the scope of the common part's "
                          f"block ids (<ROLE>.global.1)")
    try:
        bb_set = set()
        for rest in block.items_of("bb"):
            positional, _ = split_kv(rest, _OPTIONS["bb"], (source, "bb", rest))
            if len(positional) != 1:
                raise SchemaError(f"{source}: bb line needs one role")
            bb_set.add(Role(positional[0]))
        mobility = None
        if block.get("mobility") and block.get("mobility") != "none":
            rest = tuple(block.require("mobility").split())
            positional, options = split_kv(rest, _OPTIONS["mobility"],
                                           (source, "mobility", rest))
            if positional:
                raise SchemaError(f"{source}: mobility line takes options "
                                  f"only, not {' '.join(positional)!r}")
            allowed = (frozenset(Tech(t) for t in options["allow"].split(","))
                       if "allow" in options else ALL_TECHS)
            mobility = MobilityPolicy(
                style=HandoverStyle(options.get("style", "mbb")),
                anchoring=Anchoring(options.get("anchoring", "centralised")),
                allowed_techs=allowed,
                page_timeout=int(options.get("timeout", DEFAULT_PAGE_TIMEOUT)))
        models = []
        for rest in block.items_of("context-model"):
            positional, options = split_kv(rest, _OPTIONS["context-model"],
                                           (source, "context-model", rest))
            if len(positional) != 1:
                raise SchemaError(f"{source}: context-model line needs a topic")
            window = int(options.get("window", DEFAULT_WINDOW))
            if window < 1:      # a run would divide by it
                raise SchemaError(f"{source}: context-model window must be >= 1")
            models.append(ContextModelRule(
                topic=positional[0], metric=options.get("metric", ""),
                statement=options.get("statement", "latency_above_normal"),
                factor=float(options.get("factor", DEFAULT_FACTOR)), window=window,
                min_samples=int(options.get("min_samples", 1))))
        subscriptions = []
        for rest in block.items_of("subscribe"):
            positional, _ = split_kv(rest, _OPTIONS["subscribe"],
                                     (source, "subscribe", rest))
            if len(positional) != 2:
                raise SchemaError(f"{source}: subscribe line is '<role> <topic>'")
            if Role(positional[0]) not in BB_ROLES:
                raise SchemaError(f"{source}: subscribe {' '.join(rest)}: "
                                  f"{positional[0]} is not a block role")
            subscriptions.append((Role(positional[0]), positional[1]))
        stretch = float(block.get("stretch", DEFAULT_STRETCH))
        if not stretch >= 0:    # a run would find no path within the budget
            raise SchemaError(f"{source}: stretch must be >= 0, not {stretch}")
        return SliceBlueprint(
            slice_id=block.ident,
            slice_type=SliceType(block.require("type")),
            bb_set=frozenset(bb_set),
            fabric_model=FabricModelKind(block.get("fabric", "full_mesh")),
            mobility_policy=mobility,
            auth_scheme=AuthScheme(block.get("auth", "full")),
            path_strategy=PathStrategy(block.get("path-strategy", "shortest")),
            stretch=stretch,
            anchors=tuple(block.get("anchors", "").split()),
            subscriptions=tuple(subscriptions),
            context_models=tuple(models))
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from None


def load_blueprint_file(path) -> SliceBlueprint:
    with open(path, encoding="utf-8") as fh:
        return load_blueprint(fh.read(), source=str(path))


def validate_blueprint(bp: SliceBlueprint) -> Verdict:
    """Check composition rules; the verdict enumerates every violation."""
    violations: list = []
    roles = bp.bb_set
    for role in sorted(MANDATORY_BB_ROLES - roles, key=lambda r: r.value):
        violations.append(f"mandatory BB {role.value} absent")
    for role in sorted(roles - MANDATORY_BB_ROLES - OPTIONAL_BB_ROLES,
                       key=lambda r: r.value):
        violations.append(f"{role.value} is not a slice block role")
    if Role.MM not in roles and bp.mobility_policy is not None:
        violations.append("mobility policy set but MM absent")
    if Role.MM in roles and bp.mobility_policy is None:
        violations.append("MM present but no mobility policy")
    return Verdict(not violations, tuple(violations))


@dataclass
class SimInfrastructure:
    capacity_units: int
    used: int = 0

    def place(self, units: int) -> None:
        if self.used + units > self.capacity_units:
            raise InfraCapacityError(
                f"infrastructure declined placement of {units} units "
                f"({self.used}/{self.capacity_units} used)")
        self.used += units


@dataclass
class SliceInstance:
    blueprint: SliceBlueprint
    states: dict                       # Role -> block state
    peers: dict                        # Role -> block instance id
    fabric: Fabric
    dplane: DPlane
    lifecycle_state: LifecycleState = LifecycleState.OPERATING

    @property
    def slice_id(self) -> str:
        return self.blueprint.slice_id


def build_roster(devices=()) -> dict:
    """The subscriber roster, built once per run as two read-only mappings
    that the global and every slice-local CM and SAM share: CM -> device id
    -> Subscription, SAM -> permanent id -> IdentityRecord."""
    return {
        Role.CM: MappingProxyType({d.device_id: cm.Subscription(
            allowed=tuple(d.allowed), default=d.default_slice) for d in devices}),
        Role.SAM: MappingProxyType({d.permanent_id: sam.IdentityRecord(
            device=d.device_id, permanent_id=d.permanent_id, proof=d.proof)
            for d in devices})}


_STATE_FACTORIES = {
    Role.AF: lambda bp, spec, roster: af.AFState(),
    Role.CM: lambda bp, spec, roster: cm.CMState(
        role=cm.CMRole.SLICE_LOCAL, subscription_view=roster[Role.CM]),
    Role.MM: lambda bp, spec, roster: mm.MMState(),
    Role.SAM: lambda bp, spec, roster: sam.SAMState(
        identity_db=roster[Role.SAM]),
    Role.FM: lambda bp, spec, roster: fm.FMState(
        view=build_view(spec), strategy=bp.path_strategy, stretch=bp.stretch),
    Role.CGHF: lambda bp, spec, roster: cghf.CGHFState(
        models=bp.context_models),
}


def anchor_latency(topology: TopologySpec, anchors) -> dict:
    """The run's (ingress, anchor) -> shortest-path latency table over every
    ingress of the topology; an unreachable anchor has no entry and is never
    selected."""
    view = build_view(topology)
    latency: dict = {}
    for ingress in sorted({info.ingress for info in topology.access.values()}):
        for anchor in sorted(set(anchors)):
            try:
                latency[(ingress, anchor)] = shortest_path(view, ingress, anchor)[0]
            except NoPathError:
                continue
    return latency


def instantiate(bp: SliceBlueprint, infra: SimInfrastructure,
                topology: TopologySpec, roster: dict | None = None) -> SliceInstance:
    """Create fresh block states over a private forwarded plane and wire the
    fabric.  Nothing mutable is shared with any other instance: only the
    read-only `roster` (default: empty).  The blueprint must be valid and
    its anchors in `topology`, as `engine.load_scenario` checks."""
    infra.place(len(bp.bb_set))
    roster = roster or build_roster()
    peers = {role: block_id(role, bp.slice_id)
             for role in sorted(bp.bb_set, key=lambda r: r.value)}
    states = {r: _STATE_FACTORIES[r](bp, topology, roster) for r in peers}
    topics: dict = {}
    for role, topic in bp.subscriptions:
        if role in peers:
            topics.setdefault(topic, set()).add(peers[role])
    fabric = connect(peers, bp.fabric_model, scope=bp.slice_id, subscriptions={
        topic: tuple(sorted(subscribers)) for topic, subscribers in topics.items()})
    return SliceInstance(blueprint=bp, states=states, peers=peers,
                         fabric=fabric, dplane=DPlane(spec=topology))


def teardown(instance: SliceInstance, attached=()) -> list:
    """Detach every device of `attached` (the ids of the devices bound to
    the slice, in trace order) and clear the forwarded plane's rules.
    Returns the detach and slice-torn-down events for the engine to trace
    and apply; applying a detach ends the device's flows, and an active
    flow's device is always attached to the flow's slice.  Block states stay
    as they are: no message or tick hook reaches the slice's blocks again,
    and no message reaches its plane, so the rules stay cleared."""
    if instance.lifecycle_state is LifecycleState.TORN_DOWN:
        raise LifecycleOrderError("teardown on an already torn down slice")
    events = [BlockEvent("detach", device, {"slice": instance.slice_id,
                                            "reason": "teardown"})
              for device in attached]
    instance.dplane.clear_rules()
    instance.lifecycle_state = LifecycleState.TORN_DOWN
    events.append(BlockEvent("slice-torn-down", instance.slice_id))
    return events
