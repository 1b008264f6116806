"""Slice blueprints, composition rules and the slice lifecycle.

A blueprint names the block roles a slice deploys (with optional
sub-function subsets), its interconnection model and its policies.  Access,
connectivity, security and flow management are mandatory; mobility and
context handling are optional, and a slice without mobility management wires
connectivity straight to the access function; a move event there surfaces
as a MobilityUnsupported trace event instead of a handover.

Instantiation builds fresh block states over a private copy of the
forwarded-plane topology, so two instances share nothing mutable and slices
stay isolated by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .blocks import af, cghf, cm, fm, mm, sam
from .blocks.cghf import ContextModelRule
from .blocks.common import (
    ALL_TECHS, Anchoring, AuthScheme, HandoverStyle, MobilityPolicy,
    PathStrategy, SlicePolicy, Tech,
)
from .blocks.fm import shortest_path
from .errors import (
    BlueprintError, InfraCapacityError, LifecycleOrderError, SchemaError,
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
    bb_set: dict = {}
    for rest in block.items_of("bb"):
        positional, options = split_kv(rest)
        if len(positional) != 1:
            raise SchemaError(f"{source}: bb line needs one role")
        try:
            role = Role(positional[0])
        except ValueError:
            raise SchemaError(f"{source}: unknown block role '{positional[0]}'") from None
        sfs = frozenset(options["sfs"].split(",")) if "sfs" in options else frozenset()
        bb_set[role] = sfs
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
        models.append(ContextModelRule(
            topic=positional[0], metric=options.get("metric", ""),
            statement=options.get("statement", "latency_above_normal"),
            factor=float(options.get("factor", 1.5)),
            window=int(options.get("window", 16)),
            min_samples=int(options.get("min_samples", 1))))
    subscriptions = []
    for rest in block.items_of("subscribe"):
        positional, _ = split_kv(rest)
        if len(positional) != 2:
            raise SchemaError(f"{source}: subscribe line is '<role> <topic>'")
        subscriptions.append((Role(positional[0]), positional[1]))
    try:
        return SliceBlueprint(
            slice_id=block.ident,
            slice_type=SliceType(block.require("type")),
            bb_set=bb_set,
            fabric_model=FabricModel.parse(block.get("fabric", "full_mesh")),
            mobility_policy=mobility,
            auth_scheme=AuthScheme(block.get("auth", "full")),
            path_strategy=PathStrategy(block.get("path-strategy", "shortest")),
            stretch=float(block.get("stretch", "0.5")),
            anchors=tuple(block.get("anchors", "").split()),
            subscriptions=tuple(subscriptions),
            context_models=tuple(models))
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from None


def load_blueprint_file(path) -> SliceBlueprint:
    with open(path, encoding="utf-8") as fh:
        return load_blueprint(fh.read(), source=str(path))


def validate_blueprint(bp: SliceBlueprint, bb_definitions=()) -> BlueprintVerdict:
    """Check composition rules; the verdict enumerates every violation."""
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
    by_id = {bb.bb_id: bb for bb in bb_definitions}
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
class BBInstance:
    instance_id: BBInstanceId
    state: object


@dataclass
class SliceInstance:
    blueprint: SliceBlueprint
    bb_instances: dict                 # Role -> BBInstance
    fabric: Fabric
    dplane: DPlane
    ingress_latency: dict
    lifecycle_state: LifecycleState = LifecycleState.INSTANTIATED
    attached_devices: set = field(default_factory=set)

    @property
    def slice_id(self) -> str:
        return self.blueprint.slice_id

    def instance_of(self, role: Role) -> str:
        return str(self.bb_instances[role].instance_id)

    def peers(self) -> dict:
        return {role: str(inst.instance_id)
                for role, inst in self.bb_instances.items()}

    def has_sf(self, role: Role, sf_id: str) -> bool:
        subset = self.blueprint.bb_set.get(role)
        if subset is None:
            return False
        return not subset or sf_id in subset


_STATE_FACTORIES = {
    Role.AF: lambda bp, spec, roster: af.AFState(
        access_nodes=dict(spec.access)),
    Role.CM: lambda bp, spec, roster: cm.CMState(
        role=cm.CMRole.SLICE_LOCAL,
        subscription_view={d.device_id: cm.Subscription(
            allowed=tuple(d.allowed), default=d.default_slice)
            for d in roster}),
    Role.MM: lambda bp, spec, roster: mm.MMState(),
    Role.SAM: lambda bp, spec, roster: sam.SAMState(
        identity_db={d.permanent_id: sam.IdentityRecord(
            device=d.device_id, permanent_id=d.permanent_id, proof=d.proof)
            for d in roster}),
    Role.FM: lambda bp, spec, roster: fm.FMState(
        view=build_view(spec), strategy=bp.path_strategy, stretch=bp.stretch),
    Role.CGHF: lambda bp, spec, roster: cghf.CGHFState(
        models=bp.context_models),
}


def instantiate(bp: SliceBlueprint, infra: SimInfrastructure,
                topology: TopologySpec, roster=(), bb_definitions=(),
                projections=None) -> SliceInstance:
    """Create fresh block states over a private forwarded plane and wire the
    fabric.  Nothing mutable is shared with any other instance."""
    verdict = validate_blueprint(bp, bb_definitions)
    if not verdict:
        raise BlueprintError("; ".join(verdict.violations))
    for anchor in bp.anchors:
        if anchor not in topology.nodes:
            raise BlueprintError(f"anchor '{anchor}' not in topology")
    infra.place(len(bp.bb_set))
    instances = {
        role: BBInstance(instance_id=BBInstanceId(role, bp.slice_id),
                         state=_STATE_FACTORIES[role](bp, topology, roster))
        for role in sorted(bp.bb_set, key=lambda r: r.value)
    }
    fabric = connect([inst.instance_id for inst in instances.values()],
                     bp.fabric_model, scope=bp.slice_id,
                     projections=projections)
    view = build_view(topology)
    latency: dict = {}
    ingresses = sorted({info.ingress for info in topology.access.values()})
    for ingress in ingresses:
        for anchor in bp.anchors:
            try:
                latency[(ingress, anchor)] = shortest_path(view, ingress, anchor)[0]
            except Exception:
                continue    # unreachable anchor: never selected
    instance = SliceInstance(
        blueprint=bp, bb_instances=instances, fabric=fabric,
        dplane=DPlane(spec=topology), ingress_latency=latency)
    if Role.CGHF in instances:
        state = instances[Role.CGHF].state
        for role, topic in bp.subscriptions:
            if role not in instances:
                continue
            subscribers = set(state.subscriptions.get(topic, ()))
            subscribers.add(str(instances[role].instance_id))
            state.subscriptions[topic] = tuple(sorted(subscribers))
            if fabric.model.kind is FabricModelKind.PUB_SUB:
                fabric.subscribe(str(instances[role].instance_id), topic)
    return instance


def operate(instance: SliceInstance) -> SliceInstance:
    if instance.lifecycle_state is not LifecycleState.INSTANTIATED:
        raise LifecycleOrderError(
            f"operate on a {instance.lifecycle_state.value} slice")
    instance.lifecycle_state = LifecycleState.OPERATING
    return instance


def teardown(instance: SliceInstance, tick: int = 0) -> list:
    """Detach every device, release reservations and clear the forwarded
    plane.  Returns the detach/teardown events for tracing."""
    if instance.lifecycle_state is LifecycleState.TORN_DOWN:
        raise LifecycleOrderError("teardown on an already torn down slice")
    events = []
    cm_state = instance.bb_instances[Role.CM].state
    fm_state = instance.bb_instances[Role.FM].state
    for device in sorted(instance.attached_devices):
        events.append(("detach", device, {"slice": instance.slice_id,
                                          "reason": "teardown"}))
    for session_id in sorted(fm_state.sessions):
        binding = fm_state.sessions[session_id]
        for flow in list(binding.flows):
            fm.fm_release_path(fm_state, flow, tick)
    fm_state.sessions.clear()
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
