"""Deterministic discrete-event engine binding devices, slices, fabrics and
the forwarded plane into reproducible runs.

Time is integer ticks with no wall-clock meaning.  Every message emitted at
tick t is processed at t+1; within a tick, processing order is (priority
class, emission sequence number) with auth > mobility > session > flow >
context.  All randomness reduces to seed-keyed identity minting, so equal
(scenario, seed) pairs serialize to byte-identical traces, and per-device
keying keeps one slice's traffic from perturbing another's draws.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from operator import attrgetter, itemgetter
from pathlib import Path

from . import netsim
from . import slices as slices_mod
from .blocks import af as af_mod
from .blocks import cghf as cghf_mod
from .blocks import cm as cm_mod
from .blocks import fm as fm_mod
from .blocks import mm as mm_mod
from .blocks import sam as sam_mod
from .blocks.common import (
    BlockContext, BlockEvent, SlicePolicy, error_event, refusal,
)
from .errors import EquivalenceViolation, ScenarioError, SliceSimError
from .fabric import FabricModelKind
from .messages import (
    Endpoint, ProcedureKind, Role, SignalMessage, block_id, draft,
    validate_message,
)
from .metrics import MetricsReport, compute_metrics
from .netsim import (
    DeviceSpec, FlowRun, SignalingMode, SimDevice, TopologySpec,
    load_topology_file,
)
from .textfmt import parse_blocks, split_kv
from .trace import EventRecord, MessageRecord, canonical_json

#: Intra-tick processing priority per kind class.
_PRIORITY = {
    ProcedureKind.AUTH_CHALLENGE: 0, ProcedureKind.AUTH_RESPONSE: 0,
    ProcedureKind.HANDOVER_PREPARE: 1, ProcedureKind.HANDOVER_EXECUTE: 1,
    ProcedureKind.PAGE: 1, ProcedureKind.LOCATION_UPDATE: 1,
    ProcedureKind.PATH_RECORD_UPDATE: 1,
    ProcedureKind.ATTACH_REQUEST: 2, ProcedureKind.SLICE_SELECT: 2,
    ProcedureKind.SLICE_REDIRECT: 2, ProcedureKind.SESSION_ESTABLISH: 2,
    ProcedureKind.SESSION_RELEASE: 2,
    ProcedureKind.FLOW_CONFIGURE: 3, ProcedureKind.FLOW_NOTIFY: 3,
    ProcedureKind.CONTEXT_PUBLISH: 4, ProcedureKind.CONTEXT_NOTIFY: 4,
}


def _buckets() -> list:
    """One empty list per priority class."""
    return [[] for _ in range(max(_PRIORITY.values()) + 1)]


#: Per role, the handler of a block, a device or a plane and, for four
#: roles, its tick hook; an Environment copies them into its routing and
#: hooked entries when it is built.
_HANDLERS = {
    Role.AF: af_mod.af_handle, Role.CM: cm_mod.handle, Role.MM: mm_mod.handle,
    Role.SAM: sam_mod.handle, Role.FM: fm_mod.handle, Role.CGHF: cghf_mod.handle,
    Role.UE: netsim.device_handle, Role.D_PLANE: netsim.plane_handle,
}

_TICK_HOOKS = {
    Role.MM: mm_mod.tick_hook, Role.FM: fm_mod.tick_hook,
    Role.CGHF: cghf_mod.tick_hook, Role.D_PLANE: netsim.plane_tick,
}

#: Per tick-hook role, whether a state holds work for its hook: a page out,
#: rules to retire, a key sampled since the last generation, a live flow
#: (the step that ends the last one reports its links at zero load).  Each
#: getter is C-level and returns a container, truthy when it holds work.
#: A tick's end calls the hook of each state that holds work then; a hook
#: called without work would be a no-op.  An FM awaiting acknowledgements
#: needs no hook: each install it awaits is answered through the queue.
_HAS_WORK = {
    Role.MM: attrgetter("pages"),
    Role.FM: attrgetter("retiring"),
    Role.CGHF: attrgetter("_fresh"),
    Role.D_PLANE: attrgetter("_live"),
}

DEFAULT_MAX_TICKS = 400

#: Builds a `MessageRecord` without its named tuple's own `__new__`, which
#: costs a Python call per record; the record's fields are its message's
#: between the trace and delivery fields.
_tuple_new = tuple.__new__

#: Members the engine tests for, read once: member reads are slow.
_TOPIC, _D_PLANE = Role.TOPIC, Role.D_PLANE
_TORN_DOWN = slices_mod.LifecycleState.TORN_DOWN
_AUTH_RESPONSE = ProcedureKind.AUTH_RESPONSE


@dataclass(frozen=True)
class ScriptEvent:
    tick: int
    action: str
    args: tuple
    options: dict


@dataclass
class Scenario:
    scenario_id: str
    topology: TopologySpec
    blueprints: tuple
    devices: tuple
    script: tuple
    max_ticks: int = DEFAULT_MAX_TICKS
    infra_capacity: int = 64


#: The script's actions, each with the at-line options it reads.
_ACTIONS = {"attach": frozenset({"method", "accesses"}),
            "traffic-start": frozenset({"flow", "rate", "duration", "qos"}),
            "traffic-stop": frozenset({"flow"}),
            "detach": frozenset(), "move": frozenset(), "idle": frozenset(),
            "page": frozenset(), "inject-latency": frozenset(),
            "teardown": frozenset()}

#: Per action, the at-line options that hold integers, parsed at load.
_INT_OPTIONS = {"attach": ("method",), "traffic-start": ("rate", "duration")}

#: The fields a scenario block and a device block read.
_SCENARIO_FIELDS = frozenset({"topology", "max-ticks", "infra-capacity"})
_DEVICE_FIELDS = frozenset({"psi", "proof", "allowed", "default", "mode",
                            "node"})

#: Per action that needs an attached device, the error detail traced when
#: its device is not attached.
_NEEDS_ATTACHED = {"detach": "detach while detached",
                   "idle": "idle while detached",
                   "move": "move while detached",
                   "traffic-start": "traffic for unattached device"}


def load_scenario(path) -> Scenario:
    """Parse and cross-validate a scenario file; all references must resolve
    and every value must parse."""
    try:
        return _load_scenario(Path(path))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _load_referenced(path: Path, field: str, target: Path, load):
    """`load(target)` for the file a scenario `field` names."""
    try:
        return load(target)
    except OSError as exc:
        raise ScenarioError(f"{path}: field '{field}' names {target}, which "
                            f"cannot be read: {exc.strerror}") from None


def _load_scenario(path: Path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        blocks = parse_blocks(fh.read(), {"scenario", "device"}, str(path))
    if len(blocks) != 1 or blocks[0].kind != "scenario":
        raise ScenarioError(f"{path}: expected exactly one scenario block and "
                            f"no other, found {[b.head for b in blocks]}")
    block = blocks[0]
    source = str(path)
    block.refuse_unknown(source, _SCENARIO_FIELDS,
                         frozenset({"blueprint", "at"}), frozenset({"device"}))
    block.refuse_in_ident(source)
    base = path.parent

    topology_path = block.require("topology")
    if not topology_path:   # `base / ""` would name the scenario's directory
        raise ScenarioError(f"{path}: field 'topology' is empty")
    topology = _load_referenced(path, "topology", base / topology_path,
                                load_topology_file)
    blueprints = []
    for rest in block.items_of("blueprint"):
        if len(rest) != 1:
            raise ScenarioError(f"{path}: blueprint line needs one path")
        blueprints.append(_load_referenced(path, "blueprint", base / rest[0],
                                           slices_mod.load_blueprint_file))
    slice_ids = {bp.slice_id for bp in blueprints}

    devices = []
    for child in block.children_of("device"):
        child.refuse_unknown(source, _DEVICE_FIELDS)
        child.refuse_in_ident(source, ":.", "a separator of correlation ids "
                              "(<device>:<family>:<n>) and block ids "
                              "(<ROLE>.<scope>.1)")
        child.refuse_in_ident(source)
        allowed = tuple(child.get("allowed", "").split())
        default = child.get("default") or None
        mode = SignalingMode(child.get("mode", "direct"))
        node = child.require("node")
        if node not in topology.access:
            raise ScenarioError(f"{path}: device '{child.ident}' starts at "
                                f"unknown access node '{node}'")
        for ref in (*allowed, *((default,) if default else ())):
            if ref not in slice_ids:
                raise ScenarioError(f"{path}: device '{child.ident}' references "
                                    f"unknown slice '{ref}'")
        devices.append(DeviceSpec(
            device_id=child.ident, permanent_id=child.require("psi"),
            proof=child.require("proof"), allowed=allowed,
            default_slice=default, mode=mode, home_node=node))
    device_ids = {d.device_id for d in devices}

    script = []
    last_tick = 0
    for rest in block.items_of("at"):
        if len(rest) < 2:
            raise ScenarioError(f"{path}: at-line needs a tick and an action")
        tick = int(rest[0])
        if tick < last_tick:
            raise ScenarioError(f"{path}: event ticks must be non-decreasing")
        last_tick = tick
        action = rest[1]
        if action not in _ACTIONS:
            raise ScenarioError(f"{path}: unknown event action '{action}'")
        positional, options = split_kv(rest[2:], _ACTIONS[action],
                                       (source, "at", rest))
        block.refuse_in_ident(source, item=("at", rest, options.get("flow", "")))
        if action == "teardown":
            if not positional or positional[0] not in slice_ids:
                raise ScenarioError(f"{path}: teardown of unknown slice")
        elif action == "inject-latency":
            if len(positional) != 2:
                raise ScenarioError(f"{path}: inject-latency <flow> <value>")
            block.refuse_in_ident(source, item=("at", rest, positional[0]))
            positional[1] = float(positional[1])
        else:
            if not positional or positional[0] not in device_ids:
                raise ScenarioError(f"{path}: event for unknown device "
                                    f"{positional[:1]}")
        if action == "move":
            if len(positional) != 2 or positional[1] not in topology.access:
                raise ScenarioError(f"{path}: move needs a known target node")
        for key in _INT_OPTIONS.get(action, ()):
            if key in options:
                options[key] = int(options[key])
                if action == "traffic-start" and options[key] < 0:
                    raise ScenarioError(f"{path}: traffic-start {key} must "
                                        f"be >= 0")
        script.append(ScriptEvent(tick=tick, action=action,
                                  args=tuple(positional), options=options))

    for bp in blueprints:
        verdict = slices_mod.validate_blueprint(bp)
        if not verdict.ok:
            raise ScenarioError(
                f"{path}: blueprint {bp.slice_id}: " + "; ".join(verdict.violations))
        for anchor in bp.anchors:
            if anchor not in topology.nodes:
                raise ScenarioError(
                    f"{path}: blueprint {bp.slice_id} anchor '{anchor}' unknown")

    return Scenario(
        scenario_id=block.ident, topology=topology,
        blueprints=tuple(blueprints), devices=tuple(devices),
        script=tuple(script),
        max_ticks=int(block.get("max-ticks", DEFAULT_MAX_TICKS)),
        infra_capacity=int(block.get("infra-capacity", 64)))


@dataclass
class RunResult:
    trace: list
    metrics: MetricsReport
    digests: dict


class Environment:
    """One simulation run: slices, global control part, devices, queue."""

    def __init__(self, scenario: Scenario, seed: int,
                 fabric_override: FabricModelKind | None = None):
        self.scenario = scenario
        self.seed = seed
        self.tick = 0
        self._seq = 0
        # The records in (tick, seq) order up to the last finished tick; the
        # run sorts each tick's records by seq when the tick ends.
        self.trace: list = []
        # The messages emitted this tick, which the next tick delivers: per
        # priority class, a list of (seq, message) in seq order.  At the
        # start of a tick it becomes `_now`, the buckets that tick delivers.
        self.queue: list = _buckets()
        self._now: list = []
        self.devices = {d.device_id: SimDevice(spec=d) for d in scenario.devices}
        self.infra = slices_mod.SimInfrastructure(scenario.infra_capacity)
        self.slices: dict = {}
        roster = slices_mod.build_roster(scenario.devices)
        for bp in scenario.blueprints:
            if fabric_override is not None:
                bp = replace(bp, fabric_model=fabric_override)
            instance = slices_mod.instantiate(
                bp, self.infra, scenario.topology, roster=roster)
            self.slices[bp.slice_id] = instance
        # Common control part for method-1 selection: a global connectivity
        # instance plus the unified identity store behind it.
        self.global_states = {
            Role.CM: cm_mod.CMState(role=cm_mod.CMRole.GLOBAL,
                                    subscription_view=roster[Role.CM]),
            Role.SAM: sam_mod.SAMState(identity_db=roster[Role.SAM]),
        }
        self._script_by_tick: dict = {}
        for event in scenario.script:
            self._script_by_tick.setdefault(event.tick, []).append(event)
        self._last_script_tick = max(self._script_by_tick, default=0)

        # The routing index, ident -> (fabric instance, role, state, context,
        # handler, slice instance), one dispatch entry per block, device and
        # plane.  The fabric instance is the slice whose fabric carries
        # messages between its blocks: None for the global part, a device
        # and a plane.  The slice instance is the one whose lifecycle gates
        # the entry: None for the global part and a device.  Each context is
        # built here once: one per block, one per plane, whose own endpoint
        # is its probe `DP:<slice>:probe` and whose entry is aliased under
        # `<slice>:<node>` for every node, and one that every device shares,
        # with no slice.  The engine sets a context's tick before each call.
        # The hooked list holds (fabric instance, role, state, context, tick
        # hook, has-work getter) for every block and plane with a tick hook,
        # blocks before planes, by slice and role: the order a tick's end
        # calls them in.  The handler and hook tables are read here, not at
        # import, so that what patches them before a run is what the run
        # calls.
        global_peers = {r: block_id(r, "global") for r in (Role.CM, Role.SAM)}
        shared = dict(
            seed=seed, access_nodes=scenario.topology.access,
            global_cm=global_peers[Role.CM],
            ingress_latency=slices_mod.anchor_latency(
                scenario.topology,
                [a for bp in scenario.blueprints for a in bp.anchors]),
            slice_directory={sid: inst.peers[Role.CM]
                             for sid, inst in self.slices.items()},
            mediated=frozenset(d.device_id for d in scenario.devices
                               if d.mode is SignalingMode.VIA_AF))
        scopes = [(None, "global", global_peers, self.global_states,
                   SlicePolicy(), ())] + [
            (inst, sid, inst.peers, inst.states, inst.blueprint.policy,
             inst.blueprint.anchors) for sid, inst in self.slices.items()]
        self._route: dict = {}
        hooked: dict = {}      # (is a plane, slice, role) -> hooked entry

        def entry(carrier, instance, role, state, **context):
            ctx = BlockContext(role=role, tick=0, **context, **shared)
            if role in _TICK_HOOKS:
                hooked[role is _D_PLANE, ctx.slice_id, role.value] = (
                    carrier, role, state, ctx, _TICK_HOOKS[role],
                    _HAS_WORK[role])
            return carrier, role, state, ctx, _HANDLERS[role], instance

        for instance, sid, peers, states, policy, anchors in scopes:
            for role, ident in peers.items():
                self._route[ident] = entry(
                    instance, instance, role, states[role], slice_id=sid,
                    self_id=ident, peers=peers, policy=policy, anchors=anchors)
            if instance is not None:
                plane = entry(None, instance, Role.D_PLANE, instance.dplane,
                              slice_id=sid, self_id=f"{sid}:probe", peers=peers,
                              policy=policy, anchors=anchors)
                for node in ("probe", *scenario.topology.nodes):
                    self._route[f"{sid}:{node}"] = plane
        self._hooked = [hooked[key] for key in sorted(hooked)]
        # the devices' entries differ only in their state
        device = entry(None, None, Role.UE, None, slice_id=None, self_id="",
                       peers={}, policy=SlicePolicy())
        for ident, state in self.devices.items():
            self._route[ident] = (*device[:2], state, *device[3:])

    # -- bookkeeping -------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def trace_event(self, kind: str, subject: str, detail: dict) -> None:
        """Trace an event; its record keeps `detail`, a dict of the caller's
        own that nothing writes to afterwards."""
        self.trace.append(EventRecord(self.next_seq(), self.tick, kind,
                                      subject, detail))

    def trace_error(self, error: str, subject: str, detail: dict) -> None:
        self.trace_block_event(error_event(subject, error, **detail))

    def trace_block_event(self, event: BlockEvent,
                          slice_id: str | None = None) -> None:
        """Trace a block event; with `slice_id`, its detail names that
        slice unless it names one already."""
        detail = event.detail
        if slice_id is not None:
            detail = dict(detail)
            detail.setdefault("slice", slice_id)
        self.trace_event(event.kind, event.subject, detail)

    # -- emission ------------------------------------------------------------

    def emit(self, drafts) -> None:
        queue = self.queue
        for item in drafts:
            for msg in (self._expand(item) if item.destination.role is _TOPIC
                        else (item,)):
                seq = self.next_seq()
                verdict = validate_message(msg)
                if not verdict.ok:
                    self.trace_error("InvalidMessage", str(msg.source),
                                     {"violations": list(verdict.violations)})
                    continue
                queue[_PRIORITY[msg.kind]].append((seq, msg))

    def _expand(self, item: SignalMessage) -> list:
        """A topic publish becomes per-subscriber unicasts on non-broker
        fabrics; the broker fabric keeps the single topic message."""
        fabric = self._route[item.source.ident][0].fabric
        if fabric.model is FabricModelKind.PUB_SUB:
            return [item]
        subscribers = fabric.subscriptions.get(item.destination.ident, ())
        if not subscribers:
            self.trace_error("NoSubscriberError", item.destination.ident,
                             {"publisher": item.source.ident})
            return []
        return [draft(item.kind, item.source,
                      Endpoint(self._route[ident][1], ident),
                      item.correlation_id, item.payload)
                for ident in subscribers]

    # -- delivery ------------------------------------------------------------

    def _deliver(self, seq: int, msg: SignalMessage) -> None:
        """Deliver a message to its destination's handler.  The fabric of
        the source's slice carries a topic publish and a unicast between
        two blocks of one slice: a unicast to its destination or to nobody,
        a publish to each subscriber."""
        route = self._route
        if msg.destination.role is _TOPIC:
            instance, entry = route[msg.source.ident][0], None
        else:
            entry = route[msg.destination.ident]
            instance = entry[0]
            if instance is None or \
                    route.get(msg.source.ident, (None,))[0] is not instance:
                self._invoke_block(entry, self._trace_msg(seq, msg))
                return
        if instance.lifecycle_state is _TORN_DOWN:
            self.trace_error("LifecycleOrderError", instance.slice_id,
                             {"detail": "message to a torn down slice"})
            return
        record = instance.fabric.send(msg).record
        recipients = record.recipients
        rec = self._trace_msg(seq, msg, record.hop_count, record.mediators,
                              recipients)
        if not recipients:
            self.trace_error("NoSubscriberError", str(msg.destination), {})
        elif entry is not None:
            self._invoke_block(entry, rec)
        else:
            for ident in recipients:
                self._invoke_block(route[ident], rec)

    def _trace_msg(self, seq: int, msg: SignalMessage, hop_count: int = 1,
                   mediators: tuple = (), recipients: tuple = ()
                   ) -> MessageRecord:
        """Trace a message at its delivery; the record is what its
        receivers get."""
        rec = _tuple_new(MessageRecord, (seq, self.tick, *msg, hop_count,
                                         mediators, recipients))
        self.trace.append(rec)
        return rec

    def _invoke_block(self, entry: tuple, msg: MessageRecord) -> None:
        """Hand a delivered message to the handler of a routing entry,
        unless the entry's slice is torn down."""
        _, _, state, ctx, handle, instance = entry
        if instance is not None and instance.lifecycle_state is _TORN_DOWN:
            self.trace_error("LifecycleOrderError", instance.slice_id,
                             {"detail": "message to a torn down slice"})
            return
        object.__setattr__(ctx, "tick", self.tick)
        try:
            _, drafts, events = handle(state, msg, ctx)
        except SliceSimError as exc:
            self.trace_block_event(refusal(ctx.self_id, exc))
            return
        if events:
            self._absorb(events, ctx.slice_id)
        if msg.kind is _AUTH_RESPONSE:
            self._post_delivery_hooks(msg)
        if drafts:
            self.emit(drafts)

    def _absorb(self, events, slice_id: str) -> None:
        for event in events:
            self.trace_block_event(event, slice_id)
            self._apply_event(event, slice_id)

    def _apply_event(self, event: BlockEvent, slice_id: str) -> None:
        device = self.devices.get(event.subject)
        if event.kind == "attach-complete" and device is not None:
            device.attaching = None
            device.bound_slice = event.detail.get("slice", slice_id)
        elif event.kind == "detach" and device is not None:
            device.bound_slice = None
            for run in device.flows.values():
                run.active = False

    def _post_delivery_hooks(self, msg: MessageRecord) -> None:
        # Identity material reaches the device inside protected signalling;
        # modelled as state sync when an AuthResponse verdict passes through
        # the CM.
        if msg.payload.get("ok"):
            device = self.devices.get(msg.payload.get("device", ""))
            if device is not None:
                device.alias = msg.payload.get("pseudonym") or device.alias
                device.context_token = msg.payload.get("token") or device.context_token

    # -- script events -----------------------------------------------------------

    def _attach_in_flight(self, device: SimDevice) -> bool:
        """Whether the device's last attach is still under way.  It ends at
        attach-complete; a denied, rejected or dropped attach ends when no
        message of its correlation is left to deliver, this tick or the
        next."""
        corr = device.attaching
        if corr is not None and not any(
                msg.correlation_id == corr
                for bucket in (*self._now, *self.queue) for _, msg in bucket):
            device.attaching = None
        return device.attaching is not None

    def _run_script_event(self, event: ScriptEvent) -> None:
        action = event.action
        if action == "teardown":
            instance = self.slices[event.args[0]]
            try:
                events = slices_mod.teardown(instance, sorted(
                    ident for ident, device in self.devices.items()
                    if device.bound_slice == instance.slice_id))
            except SliceSimError as exc:
                self.trace_block_event(refusal(event.args[0], exc))
                return
            for block_event in events:
                self.trace_block_event(block_event)
                self._apply_event(block_event, instance.slice_id)
            # no message reaches its blocks again: their hooks leave for
            # good, and its plane steps on to lose what is in flight
            self._hooked = [entry for entry in self._hooked
                            if entry[0] is not instance]
            return
        if action == "inject-latency":
            self._inject_latency(*event.args)
            return

        device = self.devices[event.args[0]]
        if action in _NEEDS_ATTACHED and not device.attached:
            self.trace_error("IllegalEventError", device.device_id,
                             {"detail": _NEEDS_ATTACHED[action]})
            return
        if action == "attach":
            if device.attached:
                self.trace_error("IllegalEventError", device.device_id,
                                 {"detail": "attach while attached"})
                return
            if self._attach_in_flight(device):
                self.trace_error("IllegalEventError", device.device_id,
                                 {"detail": "attach while attaching"})
                return
            accesses = tuple(event.options.get("accesses", "").split(",")) \
                if event.options.get("accesses") else ()
            drafts, events = [], []
            device.attach(self._route[device.device_id][3],
                          event.options.get("method", 2), drafts, events,
                          accesses=accesses)
            self._absorb(events, None)
            self.emit(drafts)
        elif action == "detach":
            corr = device.next_correlation("detach")
            self.emit(device.uplink(
                ProcedureKind.SESSION_RELEASE, Role.CM, device.bound_slice,
                corr, {"device": device.device_id, "scope": "detach"}))
        elif action == "move":
            self._move_device(device, event.args[1])
        elif action == "traffic-start":
            self._traffic_start(device, event.options)
        elif action == "traffic-stop":
            flow = event.options.get("flow", "")
            for run in device.flows.values():
                if run.flow_id == flow:
                    run.active = False
            corr = device.next_correlation("session")
            self.emit(device.uplink(
                ProcedureKind.SESSION_RELEASE, Role.CM, device.bound_slice,
                corr, {"device": device.device_id, "scope": "flow",
                       "flow": flow}))
        elif action == "idle":
            if self._mobility_slice(device, {
                    "slice": device.bound_slice,
                    "detail": "idle needs mobility management"}) is None:
                return
            corr = device.next_correlation("idle")
            self.emit(device.uplink(
                ProcedureKind.LOCATION_UPDATE, Role.MM, device.bound_slice,
                corr, {"device": device.device_id, "phase": "idle"}))
        elif action == "page":
            self._page_device(device)

    def _move_device(self, device: SimDevice, target: str) -> None:
        if target == device.current_node:
            # a node never appears as the target of a mobility event it
            # originates; this also covers fixed-access nodes
            self.trace_error("IllegalEventError", device.device_id,
                             {"detail": "handover to the current node"})
            return
        if self._mobility_slice(device, {"slice": device.bound_slice,
                                         "target": target}) is None:
            return
        corr = device.next_correlation("handover")
        self.emit(device.uplink(
            ProcedureKind.HANDOVER_PREPARE, Role.MM, device.bound_slice, corr,
            {"device": device.device_id, "node": target}))

    def _traffic_start(self, device: SimDevice, options: dict) -> None:
        instance = self.slices[device.bound_slice]
        device.flow_counter += 1
        flow = options.get("flow", f"{device.device_id}-f{device.flow_counter}")
        rate, duration = options.get("rate", 1), options.get("duration", 10)
        qos = options.get("qos", "default")
        info = self.scenario.topology.access[device.current_node]
        run = FlowRun(flow_id=flow, rate=rate, remaining_emissions=duration,
                      ingress=info.ingress)
        instance.dplane.add_flow(run)
        device.flows[(instance.slice_id, flow)] = run
        corr = device.next_correlation("session")
        self.emit(device.uplink(
            ProcedureKind.SESSION_ESTABLISH, Role.CM, device.bound_slice, corr,
            {"device": device.device_id, "flow": flow, "qos": qos,
             "node": device.current_node}))

    def _mobility_slice(self, device: SimDevice, detail: dict):
        """The device's slice if it deploys mobility management; otherwise
        traces MobilityUnsupported with `detail` and returns None."""
        instance = self.slices.get(device.bound_slice or "")
        if instance is None or Role.MM not in instance.peers:
            self.trace_error("MobilityUnsupported", device.device_id, detail)
            return None
        return instance

    def _page_device(self, device: SimDevice) -> None:
        instance = self._mobility_slice(
            device, {"detail": "paging needs mobility management"})
        if instance is None:
            return
        corr = device.next_correlation("page")
        # downlink demand surfaces at the connectivity block, which asks for
        # reachability
        self.emit([draft(
            ProcedureKind.PAGE,
            Endpoint(Role.CM, instance.peers[Role.CM]),
            Endpoint(Role.MM, instance.peers[Role.MM]), corr,
            {"device": device.device_id})])

    def _inject_latency(self, flow: str, value: float) -> None:
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            if flow in instance.dplane.flows:
                ctx = self._route[f"{slice_id}:probe"][3]
                self.emit([draft(
                    ProcedureKind.FLOW_NOTIFY, ctx.self_endpoint,
                    ctx.peer_endpoint(Role.FM),
                    f"{slice_id}:telemetry:{self.tick}",
                    {"phase": "latency", "flow": flow, "values": [value]})])
                return
        self.trace_error("UnknownDestinationError", flow,
                         {"detail": "latency injection for unknown flow"})

    # -- per-tick machinery ---------------------------------------------------------

    def _run_hooks(self) -> None:
        """The tick hooks of the hooked entries whose state has work."""
        for _, _, state, ctx, hook, has_work in self._hooked:
            if has_work(state):
                object.__setattr__(ctx, "tick", self.tick)
                _, drafts, events = hook(state, ctx)
                self._absorb(events, ctx.slice_id)
                self.emit(drafts)

    def _pending_work(self) -> bool:
        """Whether the run goes on: a message in flight, a script event to
        come, a hooked block with work, or a plane with a flow under way."""
        return any(self.queue) or self.tick < self._last_script_tick or any(
            state.has_work() if role is _D_PLANE else has_work(state)
            for _, role, state, _, _, has_work in self._hooked)

    # -- the run itself ---------------------------------------------------------------

    def run(self) -> RunResult:
        self.trace_event("run-start", self.scenario.scenario_id,
                         {"seed": self.seed,
                          "fabrics": {s: i.fabric.model.value
                                      for s, i in sorted(self.slices.items())}})
        for slice_id in sorted(self.slices):
            self.trace_event("slice-operating", slice_id,
                             {"blocks": sorted(
                                 r.value for r in self.slices[slice_id].states)})
        trace = self.trace
        start = 0       # where the records of this tick begin in the trace
        while True:
            # this tick delivers what the last one emitted; from here on,
            # script events included, every emission waits for the next
            self._now, self.queue = self.queue, _buckets()
            for event in self._script_by_tick.get(self.tick, []):
                self._run_script_event(event)
            deliver = self._deliver
            for bucket in self._now:
                for seq, msg in bucket:
                    deliver(seq, msg)
            self._now = []
            self._run_hooks()
            # The tick ends: sort its records by seq (field 0, unique, so
            # no further field is compared).
            # Messages are numbered at emission but traced at delivery, in
            # class order.  Records minted during tick t outnumber anything
            # delivered at t, so (tick, seq) is a causally consistent total
            # order; what the run traces after its last tick comes in order.
            trace[start:] = sorted(trace[start:], key=itemgetter(0))
            start = len(trace)
            if self.tick >= self.scenario.max_ticks:
                self.trace_event("max-ticks-reached", self.scenario.scenario_id,
                                 {"tick": self.tick})
                break
            if not self._pending_work():
                break
            self.tick += 1

        digests = self._final_digests()
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            for flow_id in sorted(instance.dplane.flows):
                run = instance.dplane.flows[flow_id]
                self.trace_event("flow-summary", flow_id, {
                    "slice": slice_id, "sent": run.sent,
                    "delivered": run.delivered, "lost": run.lost,
                    "in_flight": run.units_in_flight})
        for slice_id in sorted(digests):
            self.trace_event("slice-digest", slice_id,
                             {"digest": digests[slice_id]})
        self.trace_event("run-end", self.scenario.scenario_id,
                         {"tick": self.tick})
        metrics = compute_metrics(self.trace)
        return RunResult(trace=self.trace, metrics=metrics, digests=digests)

    # -- digests -----------------------------------------------------------------------

    def _final_digests(self) -> dict:
        digests = {}
        bound: dict = {}    # slice id -> its devices' digest forms
        for ident, d in self.devices.items():
            if d.bound_slice is not None:
                bound.setdefault(d.bound_slice, {})[ident] = {
                    "alias": d.alias, "node": d.current_node,
                    "token": d.context_token}
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            snapshot = {
                "blocks": {role.value: _without_roster(state)
                           for role, state in sorted(
                               instance.states.items(),
                               key=lambda kv: kv[0].value)},
                "lifecycle": instance.lifecycle_state.value,
                "rules": _normalize(instance.dplane.rules),
                "flows": _normalize(instance.dplane.flows),
                "devices": bound.get(slice_id, {}),
            }
            digests[slice_id] = hashlib.sha256(
                canonical_json(snapshot).encode()).hexdigest()[:16]
        digests["global"] = hashlib.sha256(canonical_json(
            {role.value: _normalize(state)
             for role, state in sorted(self.global_states.items(),
                                       key=lambda kv: kv[0].value)}
        ).encode()).hexdigest()[:16]
        return digests


def _without_roster(state) -> dict:
    """A slice block's digest form: its fields but the shared subscriber
    roster, which the `global` digest holds once."""
    return {f.name: _normalize(getattr(state, f.name)) for f in fields(state)
            if f.name not in _ROSTER_FIELDS}


#: The block-state fields that hold the shared subscriber roster.
_ROSTER_FIELDS = frozenset({"subscription_view", "identity_db"})


def _normalize(value):
    """The JSON-ready form of a value in a terminal digest: a dataclass
    becomes its field dict, an enum its value, a mapping a dict with `str`
    keys, a set its sorted `str` list, a list or tuple a list, a str,
    number, bool or None itself, and any other object its `str`.  The
    treatment depends only on the value's type, which is classified once."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    normalizer = _NORMALIZERS.get(cls)
    if normalizer is None:
        normalizer = _NORMALIZERS[cls] = _normalizer_for(cls)
    return normalizer(value)


def _normalizer_for(cls):
    if is_dataclass(cls) and not issubclass(cls, type):
        names = tuple(f.name for f in fields(cls))
        return lambda v: {n: x if type(x := getattr(v, n)) in _SCALARS
                          else _normalize(x) for n in names}
    if issubclass(cls, Enum):
        return attrgetter("value")
    if issubclass(cls, Mapping):
        return lambda v: {str(k): x if type(x) in _SCALARS else _normalize(x)
                          for k, x in v.items()}
    if issubclass(cls, (set, frozenset)):
        return lambda v: sorted(map(str, v))
    if issubclass(cls, (list, tuple)):
        return lambda v: [x if type(x) in _SCALARS else _normalize(x)
                          for x in v]
    if issubclass(cls, (str, int, float, bool)):
        return lambda v: v
    return str


#: Types `_normalize` returns as they are (their subclasses are classified).
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Per concrete type, the function `_normalize` applies to its values.
_NORMALIZERS: dict = {}


def run(scenario: Scenario, seed: int,
        fabric_override: FabricModelKind | None = None) -> RunResult:
    """Execute a scenario: returns the trace, metrics and terminal digests."""
    return Environment(scenario, seed, fabric_override).run()


#: The four models a comparison run exercises, in report order.
FABRIC_MODELS = tuple(FabricModelKind)


def compare_fabrics(scenario: Scenario, seed: int) -> dict:
    """Run the scenario once per interconnection model and require identical
    terminal-state digests; returns model name -> RunResult, whose hop
    totals make the models comparable."""
    results = {}
    for model in FABRIC_MODELS:
        results[model.value] = run(scenario, seed, fabric_override=model)
    baseline_name, baseline = next(iter(results.items()))
    for name, result in results.items():
        if result.digests != baseline.digests:
            diff = sorted(k for k in baseline.digests
                          if result.digests.get(k) != baseline.digests[k])
            raise EquivalenceViolation(
                f"terminal digests diverge between {baseline_name} and {name} "
                f"for {diff}")
    return results
