"""Slice blueprints, composition rules and the slice lifecycle.

A blueprint names the block roles a slice deploys (with optional
sub-function subsets), its interconnection model and its policies.  Access,
connectivity, security and flow management are mandatory; mobility and
context handling are optional, and a slice without mobility management wires
connectivity straight to the access function; a move event there surfaces
as a MobilityUnsupported trace event instead of a handover.

Instantiation builds fresh block states over a private copy of the
forwarded-plane topology, so two instances share nothing mutable and slices
stay isolated by construction.  What depends only on the run (the subscriber
roster, the anchor latencies) is built once per run and shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

from . import catalog
from .blocks import af, cghf, cm, fm, mm, sam
from .blocks.cghf import ContextModelRule
from .blocks.common import (
    ALL_TECHS, Anchoring, AuthScheme, HandoverStyle, MobilityPolicy,
    PathStrategy, SlicePolicy, Tech,
)
from .blocks.fm import shortest_path
from .errors import (
    BlueprintError, InfraCapacityError, LifecycleOrderError, NoPathError,
    SchemaError,
)
from .fabric import Fabric, FabricModel, FabricModelKind, connect
from .messages import (
    BBInstanceId, MANDATORY_BB_ROLES, OPTIONAL_BB_ROLES, Role,
)
from .netsim import DPlane, TopologySpec, build_view
from .textfmt import parse_blocks, split_kv


class SliceType(str, Enum):
    EMBB = "embb"
    MIOT = "miot"
    CRITICAL_COMMS = "critical_comms"
    FIXED_ACCESS = "fixed_access"


class LifecycleState(str, Enum):
    DESIGNED = "designed"
    INSTANTIATED = "instantiated"
    OPERATING = "operating"
    TORN_DOWN = "torn_down"


@dataclass(frozen=True)
class SliceBlueprint:
    slice_id: str
    slice_type: SliceType
    bb_set: dict                      # Role -> frozenset of sf ids ( () = all )
    fabric_model: FabricModel
    mobility_policy: MobilityPolicy | None = None
    auth_scheme: AuthScheme = AuthScheme.FULL
    path_strategy: PathStrategy = PathStrategy.SHORTEST_PATH
    stretch: float = 0.5
    anchors: tuple = ()
    subscriptions: tuple = ()         # (Role, topic)
    context_models: tuple = ()

    @property
    def policy(self) -> SlicePolicy:
        return SlicePolicy(auth_scheme=self.auth_scheme,
                           mobility=self.mobility_policy,
                           path_strategy=self.path_strategy,
                           stretch=self.stretch)


@dataclass(frozen=True)
class BlueprintVerdict:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def load_blueprint(text: str, source: str = "<blueprint>") -> SliceBlueprint:
    blocks = parse_blocks(text, {"blueprint"}, source)
    if len(blocks) != 1:
        raise SchemaError(f"{source}: expected exactly one blueprint block")
    block = blocks[0]
    try:
        bb_set: dict = {}
        for rest in block.items_of("bb"):
            positional, options = split_kv(rest)
            if len(positional) != 1:
                raise SchemaError(f"{source}: bb line needs one role")
            bb_set[Role(positional[0])] = frozenset(
                options["sfs"].split(",") if "sfs" in options else ())
        mobility = None
        if block.get("mobility") and block.get("mobility") != "none":
            _, options = split_kv(tuple(block.require("mobility").split()))
            allowed = (frozenset(Tech(t) for t in options["allow"].split(","))
                       if "allow" in options else ALL_TECHS)
            mobility = MobilityPolicy(
                style=HandoverStyle(options.get("style", "mbb")),
                anchoring=Anchoring(options.get("anchoring", "centralised")),
                allowed_techs=allowed,
                page_timeout=int(options.get("timeout", 8)))
        models = []
        for rest in block.items_of("context-model"):
            positional, options = split_kv(rest)
            if len(positional) != 1:
                raise SchemaError(f"{source}: context-model line needs a topic")
            window = int(options.get("window", 16))
            if window < 1:      # a run would divide by it
                raise SchemaError(f"{source}: context-model window must be >= 1")
            models.append(ContextModelRule(
                topic=positional[0], metric=options.get("metric", ""),
                statement=options.get("statement", "latency_above_normal"),
                factor=float(options.get("factor", 1.5)), window=window,
                min_samples=int(options.get("min_samples", 1))))
        subscriptions = []
        for rest in block.items_of("subscribe"):
            positional, _ = split_kv(rest)
            if len(positional) != 2:
                raise SchemaError(f"{source}: subscribe line is '<role> <topic>'")
            subscriptions.append((Role(positional[0]), positional[1]))
        stretch = float(block.get("stretch", "0.5"))
        if not stretch >= 0:    # a run would find no path within the budget
            raise SchemaError(f"{source}: stretch must be >= 0, not {stretch}")
        return SliceBlueprint(
            slice_id=block.ident,
            slice_type=SliceType(block.require("type")),
            bb_set=bb_set,
            fabric_model=FabricModel.parse(block.get("fabric", "full_mesh")),
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


def validate_blueprint(bp: SliceBlueprint) -> BlueprintVerdict:
    """Check composition rules; the verdict enumerates every violation.  A
    sub-function subset must belong to its block as composed from the
    reference catalog."""
    violations: list = []
    roles = set(bp.bb_set)
    for role in sorted(MANDATORY_BB_ROLES - roles, key=lambda r: r.value):
        violations.append(f"mandatory BB {role.value} absent")
    for role in sorted(roles - MANDATORY_BB_ROLES - OPTIONAL_BB_ROLES,
                       key=lambda r: r.value):
        violations.append(f"{role.value} is not a slice block role")
    if Role.MM not in roles and bp.mobility_policy is not None:
        violations.append("mobility policy set but MM absent")
    if Role.MM in roles and bp.mobility_policy is None:
        violations.append("MM present but no mobility policy")
    by_id = ({bb.bb_id: bb for bb in catalog.reference_blocks()}
             if any(bp.bb_set.values()) else {})
    for role in sorted(roles, key=lambda r: r.value):
        subset = bp.bb_set[role]
        if not subset:
            continue
        definition = by_id.get(role.value)
        if definition is None:
            violations.append(f"no block definition named {role.value}")
            continue
        for sf in sorted(subset - definition.sf_set):
            violations.append(f"sf '{sf}' does not belong to {role.value}")
    return BlueprintVerdict(not violations, tuple(violations))


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
    lifecycle_state: LifecycleState = LifecycleState.INSTANTIATED
    attached_devices: set = field(default_factory=set)

    @property
    def slice_id(self) -> str:
        return self.blueprint.slice_id

    def has_sf(self, role: Role, sf_id: str) -> bool:
        subset = self.blueprint.bb_set.get(role)
        if subset is None:
            return False
        return not subset or sf_id in subset


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
    Role.AF: lambda bp, spec, roster: af.AFState(
        access_nodes=dict(spec.access)),
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
    read-only `roster` (default: empty)."""
    verdict = validate_blueprint(bp)
    if not verdict:
        raise BlueprintError("; ".join(verdict.violations))
    for anchor in bp.anchors:
        if anchor not in topology.nodes:
            raise BlueprintError(f"anchor '{anchor}' not in topology")
    infra.place(len(bp.bb_set))
    roster = roster or build_roster()
    ids = [BBInstanceId(role, bp.slice_id)
           for role in sorted(bp.bb_set, key=lambda r: r.value)]
    states = {i.role: _STATE_FACTORIES[i.role](bp, topology, roster) for i in ids}
    peers = {i.role: str(i) for i in ids}
    fabric = connect(ids, bp.fabric_model, scope=bp.slice_id)
    if Role.CGHF in states:
        state = states[Role.CGHF]
        for role, topic in bp.subscriptions:
            if role not in peers:
                continue
            subscribers = set(state.subscriptions.get(topic, ()))
            subscribers.add(peers[role])
            state.subscriptions[topic] = tuple(sorted(subscribers))
            if fabric.model.kind is FabricModelKind.PUB_SUB:
                fabric.subscribe(peers[role], topic)
    return SliceInstance(blueprint=bp, states=states, peers=peers,
                         fabric=fabric, dplane=DPlane(spec=topology))


def operate(instance: SliceInstance) -> SliceInstance:
    if instance.lifecycle_state is not LifecycleState.INSTANTIATED:
        raise LifecycleOrderError(
            f"operate on a {instance.lifecycle_state.value} slice")
    instance.lifecycle_state = LifecycleState.OPERATING
    return instance


def teardown(instance: SliceInstance, tick: int = 0) -> list:
    """Detach every device, release reservations, end in-flight path
    applies and clear the forwarded plane.  Returns the detach/teardown
    events for tracing."""
    if instance.lifecycle_state is LifecycleState.TORN_DOWN:
        raise LifecycleOrderError("teardown on an already torn down slice")
    events = []
    cm_state = instance.states[Role.CM]
    fm_state = instance.states[Role.FM]
    for device in sorted(instance.attached_devices):
        events.append(("detach", device, {"slice": instance.slice_id,
                                          "reason": "teardown"}))
    for session_id in sorted(fm_state.sessions):
        binding = fm_state.sessions[session_id]
        for flow in list(binding.flows):
            fm.fm_release_path(fm_state, flow, tick)
    fm_state.sessions.clear()
    # acknowledgements to a torn down slice are refused: stop awaiting them
    fm_state.pending.clear()
    fm_state.handover_jobs.clear()
    for link in fm_state.view.links.values():
        link.reserved = 0
    cm_state.device_table = {d: cm.ConvergentState.DETACHED
                             for d in cm_state.device_table}
    cm_state.sessions.clear()
    cm_state.device_sessions.clear()
    cm_state.slice_bindings.clear()
    instance.dplane.rules.clear()
    for run in instance.dplane.flows.values():
        run.active = False
    instance.attached_devices.clear()
    instance.lifecycle_state = LifecycleState.TORN_DOWN
    events.append(("slice-torn-down", instance.slice_id, {}))
    return events
