"""Deterministic discrete-event engine binding devices, slices, fabrics and
the forwarded plane into reproducible runs.

Time is integer ticks with no wall-clock meaning.  Every message emitted at
tick t is processed at t+1; within a tick, processing order is (priority
class, msg_id) with auth > mobility > session > flow > context.  All
randomness reduces to seed-keyed identity minting, so equal (scenario, seed)
pairs serialize to byte-identical traces, and per-device keying keeps one
slice's traffic from perturbing another's draws.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path

from . import slices as slices_mod
from .blocks import af as af_mod
from .blocks import cghf as cghf_mod
from .blocks import cm as cm_mod
from .blocks import fm as fm_mod
from .blocks import mm as mm_mod
from .blocks import sam as sam_mod
from .blocks.common import BlockContext, BlockEvent, SlicePolicy
from .errors import EquivalenceViolation, ScenarioError, SliceSimError
from .fabric import FabricModel, FabricModelKind
from .messages import (
    BBInstanceId, BB_ROLES, Draft, Endpoint, ProcedureKind, Role,
    SignalMessage, Topic, draft, validate_message,
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

_HANDLERS = {
    Role.AF: af_mod.af_handle, Role.CM: cm_mod.handle, Role.MM: mm_mod.handle,
    Role.SAM: sam_mod.handle, Role.FM: fm_mod.handle, Role.CGHF: cghf_mod.handle,
}

_TICK_HOOKS = {
    Role.MM: mm_mod.tick_hook, Role.FM: fm_mod.tick_hook,
    Role.CGHF: cghf_mod.tick_hook,
}

#: Tick hooks run in role-name order within each slice.
_TICK_HOOK_ORDER = tuple(sorted(_TICK_HOOKS, key=lambda r: r.value))

#: Routing-index entry of an ident that names no block.
_UNROUTED = (None, None, None)

DEFAULT_MAX_TICKS = 400


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
    fabric_override: FabricModel | None = None   # forces one model on every slice

    def blueprint_ids(self) -> set:
        return {bp.slice_id for bp in self.blueprints}


_EVENT_ACTIONS = {"attach", "detach", "move", "traffic-start", "traffic-stop",
                  "idle", "page", "inject-latency", "teardown"}


def load_scenario(path) -> Scenario:
    """Parse and cross-validate a scenario file; all references must resolve."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        blocks = parse_blocks(fh.read(), {"scenario", "device"}, str(path))
    top = [b for b in blocks if b.kind == "scenario"]
    if len(top) != 1:
        raise ScenarioError(f"{path}: expected exactly one scenario block")
    block = top[0]
    base = path.parent

    topology = load_topology_file(base / block.require("topology"))
    blueprints = []
    for rest in block.items_of("blueprint"):
        if len(rest) != 1:
            raise ScenarioError(f"{path}: blueprint line needs one path")
        blueprints.append(slices_mod.load_blueprint_file(base / rest[0]))
    slice_ids = {bp.slice_id for bp in blueprints}

    devices = []
    for child in block.children_of("device"):
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
    for word, rest in block.items:
        if word != "at":
            continue
        if len(rest) < 2:
            raise ScenarioError(f"{path}: at-line needs a tick and an action")
        tick = int(rest[0])
        if tick < last_tick:
            raise ScenarioError(f"{path}: event ticks must be non-decreasing")
        last_tick = tick
        action = rest[1]
        positional, options = split_kv(rest[2:])
        if action not in _EVENT_ACTIONS:
            raise ScenarioError(f"{path}: unknown event action '{action}'")
        if action == "teardown":
            if not positional or positional[0] not in slice_ids:
                raise ScenarioError(f"{path}: teardown of unknown slice")
        elif action == "inject-latency":
            if len(positional) != 2:
                raise ScenarioError(f"{path}: inject-latency <flow> <value>")
        else:
            if not positional or positional[0] not in device_ids:
                raise ScenarioError(f"{path}: event for unknown device "
                                    f"{positional[:1]}")
        if action == "move":
            if len(positional) != 2 or positional[1] not in topology.access:
                raise ScenarioError(f"{path}: move needs a known target node")
        script.append(ScriptEvent(tick=tick, action=action,
                                  args=tuple(positional), options=options))

    for bp in blueprints:
        verdict = slices_mod.validate_blueprint(bp)
        if not verdict:
            raise ScenarioError(
                f"{path}: blueprint {bp.slice_id}: " + "; ".join(verdict.violations))
        for anchor in bp.anchors:
            if anchor not in topology.nodes:
                raise ScenarioError(
                    f"{path}: blueprint {bp.slice_id} anchor '{anchor}' unknown")

    override = None
    if block.get("fabric-override"):
        override = FabricModel.parse(block.require("fabric-override"))
    return Scenario(
        scenario_id=block.ident, topology=topology,
        blueprints=tuple(blueprints), devices=tuple(devices),
        script=tuple(script),
        max_ticks=int(block.get("max-ticks", DEFAULT_MAX_TICKS)),
        infra_capacity=int(block.get("infra-capacity", 64)),
        fabric_override=override)


@dataclass
class RunResult:
    trace: list
    metrics: MetricsReport
    digests: dict


class Environment:
    """One simulation run: slices, global control part, devices, queue."""

    def __init__(self, scenario: Scenario, seed: int,
                 fabric_override: FabricModel | None = None,
                 projections=None):
        self.scenario = scenario
        self.seed = seed
        self.tick = 0
        self._seq = 0
        self.trace: list = []
        self.queue: list = []       # heap of (tick, priority, seq, msg)
        self.devices = {d.device_id: SimDevice(spec=d) for d in scenario.devices}
        self.infra = slices_mod.SimInfrastructure(scenario.infra_capacity)
        self.slices: dict = {}
        override = fabric_override or scenario.fabric_override
        for bp in scenario.blueprints:
            if override is not None:
                bp = replace(bp, fabric_model=override)
            instance = slices_mod.instantiate(
                bp, self.infra, scenario.topology, roster=scenario.devices,
                projections=projections)
            slices_mod.operate(instance)
            self.slices[bp.slice_id] = instance
        # Common control part for method-1 selection: a global connectivity
        # instance plus the unified identity store behind it.
        self.global_cm = BBInstanceId(Role.CM, "global")
        self.global_sam = BBInstanceId(Role.SAM, "global")
        self.global_states = {
            Role.CM: cm_mod.CMState(
                role=cm_mod.CMRole.GLOBAL,
                subscription_view={d.device_id: cm_mod.Subscription(
                    allowed=tuple(d.allowed), default=d.default_slice)
                    for d in scenario.devices}),
            Role.SAM: sam_mod.SAMState(
                identity_db={d.permanent_id: sam_mod.IdentityRecord(
                    device=d.device_id, permanent_id=d.permanent_id,
                    proof=d.proof) for d in scenario.devices}),
        }
        self._script_by_tick: dict = {}
        for event in scenario.script:
            self._script_by_tick.setdefault(event.tick, []).append(event)

        # The routing index, ident -> (slice instance, or None for the global
        # part, role, state), and what the contexts of one slice (key None:
        # the global part) share.
        global_peers = {Role.CM: str(self.global_cm),
                        Role.SAM: str(self.global_sam)}
        self._route: dict = {ident: (None, role, self.global_states[role])
                             for role, ident in global_peers.items()}
        shared = {"seed": seed, "access_nodes": scenario.topology.access,
                  "global_cm": global_peers[Role.CM],
                  "slice_directory": {sid: inst.instance_of(Role.CM)
                                      for sid, inst in self.slices.items()}}
        self._scopes: dict = {None: dict(shared, slice_id="global",
                                         policy=SlicePolicy(), peers=global_peers)}
        for sid, instance in self.slices.items():
            peers = instance.peers()
            for role, ident in peers.items():
                self._route[ident] = (instance, role,
                                      instance.bb_instances[role].state)
            bp = instance.blueprint
            self._scopes[sid] = dict(
                shared, slice_id=sid, peers=peers, policy=bp.policy,
                anchors=bp.anchors, ingress_latency=instance.ingress_latency)
        self._contexts: dict = {}   # ident -> BlockContext

    # -- bookkeeping -------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def trace_event(self, kind: str, subject: str, detail: dict) -> None:
        self.trace.append(EventRecord(seq=self.next_seq(), tick=self.tick,
                                      kind=kind, subject=subject,
                                      detail=dict(detail)))

    def trace_error(self, error: str, subject: str, detail: dict) -> None:
        self.trace_event("error", subject, {"error": error, **detail})

    def _context(self, ident: str, instance, role: Role) -> BlockContext:
        """The block's context, built on its first use in a tick: handlers
        read `ctx.tick`, and nothing else in a context changes in a run."""
        ctx = self._contexts.get(ident)
        if ctx is None or ctx.tick != self.tick:
            scope = self._scopes[instance.slice_id if instance else None]
            ctx = self._contexts[ident] = BlockContext(
                self_id=ident, role=role, tick=self.tick, **scope)
        return ctx

    # -- emission ------------------------------------------------------------

    def emit(self, drafts) -> None:
        for item in drafts:
            for expanded in self._expand(item):
                seq = self.next_seq()
                msg = expanded.seal(seq, self.tick)
                verdict = validate_message(msg)
                if not verdict:
                    self.trace_error("InvalidMessage", str(msg.source),
                                     {"violations": list(verdict.violations)})
                    continue
                heapq.heappush(self.queue, (
                    self.tick + 1, _PRIORITY[msg.kind], seq, msg))

    def _expand(self, item: Draft) -> list:
        """Topic publishes become per-subscriber unicasts on non-broker
        fabrics; the broker fabric keeps the single topic message."""
        if not isinstance(item.destination, Topic):
            return [item]
        instance = self._route.get(item.source.ident, _UNROUTED)[0]
        if instance is None:
            return []
        if instance.fabric.model.kind is FabricModelKind.PUB_SUB:
            return [item]
        cghf_state = instance.bb_instances[Role.CGHF].state
        subscribers = cghf_state.subscriptions.get(item.destination.topic_id, ())
        if not subscribers:
            self.trace_error("NoSubscriberError", item.destination.topic_id,
                             {"publisher": item.source.ident})
            return []
        expanded = []
        for ident in subscribers:
            role = instance.fabric.members.get(ident)
            if role is None:
                continue
            expanded.append(draft(item.kind, item.source,
                                  Endpoint(role, ident), item.correlation_id,
                                  dict(item.payload)))
        return expanded

    # -- delivery ------------------------------------------------------------

    def _deliver(self, msg: SignalMessage) -> None:
        if isinstance(msg.destination, Topic):
            self._deliver_fabric(msg)
            return
        role = msg.destination.role
        if role is Role.UE:
            self._trace_msg(msg)
            self.emit(self._ue_receive(msg))
        elif role is Role.D_PLANE:
            self._trace_msg(msg)
            self.emit(self._dplane_receive(msg))
        elif role in BB_ROLES:
            src_instance = self._route.get(msg.source.ident, _UNROUTED)[0]
            dst_instance = self._route.get(msg.destination.ident, _UNROUTED)[0]
            if src_instance is not None and src_instance is dst_instance:
                self._deliver_fabric(msg)
            else:
                self._trace_msg(msg)
                self._invoke_block(msg.destination.ident, msg)
        else:
            self.trace_error("UnknownDestinationError", str(msg.destination), {})

    def _deliver_fabric(self, msg: SignalMessage) -> None:
        instance = self._route.get(msg.source.ident, _UNROUTED)[0]
        if instance is None:
            self.trace_error("UnknownDestinationError", str(msg.source), {})
            return
        if instance.lifecycle_state is slices_mod.LifecycleState.TORN_DOWN:
            self.trace_error("LifecycleOrderError", instance.slice_id,
                             {"detail": "message to a torn down slice"})
            return
        outcome = instance.fabric.send(msg)
        record = outcome.record
        if outcome.deliveries:
            delivered_msg = outcome.deliveries[0][1]
        else:
            delivered_msg = msg
        self._trace_msg(delivered_msg, hop_count=record.hop_count,
                        mediators=record.mediators,
                        recipients=record.recipients)
        if outcome.flag:
            self.trace_error(outcome.flag, str(msg.destination), {})
        for ident, dmsg in outcome.deliveries:
            self._invoke_block(ident, dmsg)

    def _trace_msg(self, msg: SignalMessage, hop_count: int = 1,
                   mediators: tuple = (), recipients: tuple = ()) -> None:
        delivered = replace(msg, tick=self.tick)
        self.trace.append(MessageRecord(
            seq=msg.msg_id, tick=self.tick, msg=delivered, hop_count=hop_count,
            mediators=mediators, recipients=recipients))

    def _invoke_block(self, ident: str, msg: SignalMessage) -> None:
        instance, role, state = self._route.get(ident, _UNROUTED)
        if role is None:
            self.trace_error("UnknownDestinationError", ident, {})
            return
        if instance is not None and \
                instance.lifecycle_state is slices_mod.LifecycleState.TORN_DOWN:
            self.trace_error("LifecycleOrderError", instance.slice_id,
                             {"detail": "message to a torn down slice"})
            return
        ctx = self._context(ident, instance, role)
        try:
            _, drafts, events = _HANDLERS[role](state, msg, ctx)
        except SliceSimError as exc:
            self.trace_error(type(exc).__name__, ident, {"detail": str(exc)})
            return
        self._absorb(events, ctx.slice_id)
        self._post_delivery_hooks(msg)
        self.emit(drafts)

    def _absorb(self, events, slice_id: str) -> None:
        for event in events:
            detail = dict(event.detail)
            detail.setdefault("slice", slice_id)
            self.trace_event(event.kind, event.subject, detail)
            self._apply_event(event, slice_id)

    def _apply_event(self, event: BlockEvent, slice_id: str) -> None:
        device = self.devices.get(event.subject)
        if event.kind == "attach-complete" and device is not None:
            device.attached = True
            device.bound_slice = event.detail.get("slice", slice_id)
            instance = self.slices.get(device.bound_slice)
            if instance is not None:
                instance.attached_devices.add(device.device_id)
        elif event.kind == "detach" and device is not None:
            if device.bound_slice in self.slices:
                self.slices[device.bound_slice].attached_devices.discard(
                    device.device_id)
            device.attached = False
            device.bound_slice = None
            for run in self._device_flows(device.device_id):
                run.active = False

    def _post_delivery_hooks(self, msg: SignalMessage) -> None:
        # Identity material reaches the device inside protected signalling;
        # modelled as state sync when the verdict passes through the CM.
        if msg.kind is ProcedureKind.AUTH_RESPONSE and msg.payload.get("ok"):
            device = self.devices.get(msg.payload.get("device", ""))
            if device is not None:
                device.alias = msg.payload.get("pseudonym") or device.alias
                device.context_token = msg.payload.get("token") or device.context_token

    # -- endpoint behaviour ----------------------------------------------------

    def _ue_receive(self, msg: SignalMessage) -> list:
        device = self.devices.get(msg.destination.ident)
        if device is None:
            self.trace_error("UnknownDevice", msg.destination.ident, {})
            return []
        payload = dict(msg.payload)
        if msg.kind is ProcedureKind.SLICE_REDIRECT:
            target = payload.get("target", "")
            return self._attach_drafts(device, method=2, target_slice=target,
                                       corr=msg.correlation_id, reattach=True)
        if msg.kind is ProcedureKind.HANDOVER_EXECUTE and \
                payload.get("phase") == "execute":
            node = payload.get("node", "")
            device.current_node = node
            info = self.scenario.topology.access[node]
            for run in self._device_flows(device.device_id):
                run.ingress = info.ingress
            confirm = dict(payload)
            confirm["phase"] = "confirm"
            return [draft(ProcedureKind.HANDOVER_EXECUTE,
                          Endpoint(Role.UE, device.device_id), msg.source,
                          msg.correlation_id, confirm)]
        return []

    def _dplane_receive(self, msg: SignalMessage) -> list:
        slice_id, _, node = msg.destination.ident.partition(":")
        instance = self.slices.get(slice_id)
        if instance is None:
            self.trace_error("UnknownDestinationError", msg.destination.ident, {})
            return []
        payload = dict(msg.payload)
        if msg.kind is not ProcedureKind.FLOW_CONFIGURE:
            return []
        ok, reason = instance.dplane.configure(payload)
        if not ok and payload.get("action") == "remove":
            # stale removals are rejected silently to keep them idempotent
            self.trace_event("config-reject", node, {"reason": reason,
                                                     "slice": slice_id})
            return []
        return [draft(ProcedureKind.FLOW_NOTIFY, msg.destination, msg.source,
                      msg.correlation_id,
                      {"phase": "config-ack", "node": node,
                       "flow": payload.get("flow", ""), "ok": ok,
                       "action": payload.get("action", "")})]

    def _device_flows(self, device_id: str):
        for instance in self.slices.values():
            for run in instance.dplane.flows.values():
                if run.device == device_id:
                    yield run

    # -- script events -----------------------------------------------------------

    def _serving_slice(self, device: SimDevice):
        sid = (device.bound_slice or device.spec.default_slice
               or (sorted(device.spec.allowed)[0] if device.spec.allowed else None))
        return self.slices.get(sid) if sid else None

    def _attach_drafts(self, device: SimDevice, method: int,
                       target_slice: str | None = None, corr: str | None = None,
                       accesses: tuple = (), reattach: bool = False) -> list:
        corr = corr or device.next_correlation("attach")
        info = self.scenario.topology.access[device.current_node]
        payload = {
            "device": device.device_id, "alias": device.presented_alias(),
            "accesses": list(accesses), "node": device.current_node,
            "area": info.area, "tech": info.tech.value, "method": method,
        }
        if reattach:
            payload["reattach"] = True
            payload["token"] = device.context_token or ""
        else:
            payload["proof"] = device.spec.proof
        source = Endpoint(Role.UE, device.device_id)
        if device.spec.mode is SignalingMode.DIRECT:
            if method == 1 and not reattach:
                dst = Endpoint(Role.CM, str(self.global_cm))
            else:
                instance = (self.slices.get(target_slice)
                            if target_slice else self._serving_slice(device))
                if instance is None:
                    self.trace_error("NoEligibleSliceError", device.device_id,
                                     {"detail": "no slice to attach to"})
                    return []
                dst = Endpoint(Role.CM, instance.instance_of(Role.CM))
            return [draft(ProcedureKind.ATTACH_REQUEST, source, dst, corr,
                          payload)]
        instance = (self.slices.get(target_slice)
                    if target_slice else self._serving_slice(device))
        if instance is None or Role.AF not in instance.bb_instances:
            self.trace_error("NoEligibleSliceError", device.device_id,
                             {"detail": "no access function to mediate"})
            return []
        dst = Endpoint(Role.AF, instance.instance_of(Role.AF))
        return [draft(ProcedureKind.ATTACH_REQUEST, source, dst, corr, payload)]

    def _mode_route(self, device: SimDevice, kind: ProcedureKind,
                    target_role: Role, corr: str, payload: dict) -> list:
        """Uplink from a device: direct to the core block, or via its AF."""
        instance = self.slices.get(device.bound_slice or "")
        if instance is None:
            return []
        source = Endpoint(Role.UE, device.device_id)
        if device.spec.mode is SignalingMode.VIA_AF and \
                Role.AF in instance.bb_instances:
            dst = Endpoint(Role.AF, instance.instance_of(Role.AF))
        else:
            dst = Endpoint(target_role, instance.instance_of(target_role))
        return [draft(kind, source, dst, corr, payload)]

    def _run_script_event(self, event: ScriptEvent) -> None:
        action = event.action
        if action == "teardown":
            instance = self.slices[event.args[0]]
            try:
                for kind, subject, detail in slices_mod.teardown(instance, self.tick):
                    self.trace_event(kind, subject, detail)
                    if kind == "detach" and subject in self.devices:
                        self.devices[subject].attached = False
                        self.devices[subject].bound_slice = None
            except SliceSimError as exc:
                self.trace_error(type(exc).__name__, event.args[0],
                                 {"detail": str(exc)})
            return
        if action == "inject-latency":
            flow, value = event.args
            self._inject_latency(flow, float(value))
            return

        device = self.devices[event.args[0]]
        if action == "attach":
            if device.attached:
                self.trace_error("IllegalEventError", device.device_id,
                                 {"detail": "attach while attached"})
                return
            accesses = tuple(event.options.get("accesses", "").split(",")) \
                if event.options.get("accesses") else ()
            self.emit(self._attach_drafts(
                device, method=int(event.options.get("method", 2)),
                accesses=accesses))
        elif action == "detach":
            if not device.attached:
                self.trace_error("IllegalEventError", device.device_id,
                                 {"detail": "detach while detached"})
                return
            corr = device.next_correlation("detach")
            self.emit(self._mode_route(
                device, ProcedureKind.SESSION_RELEASE, Role.CM, corr,
                {"device": device.device_id, "scope": "detach"}))
        elif action == "move":
            self._move_device(device, event.args[1])
        elif action == "traffic-start":
            self._traffic_start(device, event.options)
        elif action == "traffic-stop":
            flow = event.options.get("flow", "")
            for run in self._device_flows(device.device_id):
                if run.flow_id == flow:
                    run.active = False
            corr = device.next_correlation("session")
            self.emit(self._mode_route(
                device, ProcedureKind.SESSION_RELEASE, Role.CM, corr,
                {"device": device.device_id, "scope": "flow", "flow": flow}))
        elif action == "idle":
            if not device.attached:
                self.trace_error("IllegalEventError", device.device_id,
                                 {"detail": "idle while detached"})
                return
            if self._mobility_slice(device, {
                    "slice": device.bound_slice,
                    "detail": "idle needs mobility management"}) is None:
                return
            device.idle = True
            corr = device.next_correlation("idle")
            self.emit(self._mode_route(
                device, ProcedureKind.LOCATION_UPDATE, Role.MM, corr,
                {"device": device.device_id, "phase": "idle"}))
        elif action == "page":
            self._page_device(device)

    def _move_device(self, device: SimDevice, target: str) -> None:
        if not device.attached:
            self.trace_error("IllegalEventError", device.device_id,
                             {"detail": "move while detached"})
            return
        if target == device.current_node:
            # a node never appears as the target of a mobility event it
            # originates; this also covers fixed-access nodes
            self.trace_error("IllegalEventError", device.device_id,
                             {"detail": "handover to the current node"})
            return
        if self._mobility_slice(device, {"slice": device.bound_slice,
                                         "target": target}) is None:
            return
        info = self.scenario.topology.access[target]
        corr = device.next_correlation("handover")
        self.emit(self._mode_route(
            device, ProcedureKind.HANDOVER_PREPARE, Role.MM, corr,
            {"device": device.device_id, "node": target,
             "tech": info.tech.value, "area": info.area,
             "ingress": info.ingress}))

    def _traffic_start(self, device: SimDevice, options: dict) -> None:
        if not device.attached or device.bound_slice is None:
            self.trace_error("IllegalEventError", device.device_id,
                             {"detail": "traffic for unattached device"})
            return
        instance = self.slices[device.bound_slice]
        device.flow_counter += 1
        flow = options.get("flow", f"{device.device_id}-f{device.flow_counter}")
        info = self.scenario.topology.access[device.current_node]
        instance.dplane.flows[flow] = FlowRun(
            flow_id=flow, device=device.device_id,
            rate=int(options.get("rate", 1)),
            remaining_emissions=int(options.get("duration", 10)),
            qos=options.get("qos", "default"), ingress=info.ingress)
        corr = device.next_correlation("session")
        self.emit(self._mode_route(
            device, ProcedureKind.SESSION_ESTABLISH, Role.CM, corr,
            {"device": device.device_id, "flow": flow,
             "rate": int(options.get("rate", 1)),
             "duration": int(options.get("duration", 10)),
             "qos": options.get("qos", "default"),
             "node": device.current_node}))

    def _mobility_slice(self, device: SimDevice, detail: dict):
        """The device's slice if it deploys mobility management; otherwise
        traces MobilityUnsupported with `detail` and returns None."""
        instance = self.slices.get(device.bound_slice or "")
        if instance is None or Role.MM not in instance.bb_instances:
            self.trace_error("MobilityUnsupported", device.device_id, detail)
            return None
        return instance

    def _page_device(self, device: SimDevice) -> None:
        instance = self._mobility_slice(
            device, {"detail": "paging needs mobility management"})
        if instance is None:
            return
        if not instance.has_sf(Role.MM, "device-paging"):
            self.trace_error("SfInactive", device.device_id,
                             {"sf": "device-paging", "slice": instance.slice_id})
            return
        corr = device.next_correlation("page")
        # downlink demand surfaces at the connectivity block, which asks for
        # reachability
        self.emit([draft(
            ProcedureKind.PAGE,
            Endpoint(Role.CM, instance.instance_of(Role.CM)),
            Endpoint(Role.MM, instance.instance_of(Role.MM)), corr,
            {"device": device.device_id, "reason": "downlink-demand"})])

    def _inject_latency(self, flow: str, value: float) -> None:
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            if flow in instance.dplane.flows:
                fm_id = instance.instance_of(Role.FM)
                self.emit([draft(
                    ProcedureKind.FLOW_NOTIFY,
                    Endpoint(Role.D_PLANE, f"{slice_id}:probe"),
                    Endpoint(Role.FM, fm_id), f"{slice_id}:telemetry:{self.tick}",
                    {"phase": "latency", "flow": flow, "values": [value]})])
                return
        self.trace_error("UnknownDestinationError", flow,
                         {"detail": "latency injection for unknown flow"})

    # -- per-tick machinery ---------------------------------------------------------

    def _run_tick_hooks(self) -> None:
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            if instance.lifecycle_state is slices_mod.LifecycleState.TORN_DOWN:
                continue
            for role in _TICK_HOOK_ORDER:
                block = instance.bb_instances.get(role)
                if block is None:
                    continue
                ctx = self._context(str(block.instance_id), instance, role)
                _, drafts, events = _TICK_HOOKS[role](block.state, ctx)
                self._absorb(events, slice_id)
                self.emit(drafts)

    def _run_dplanes(self) -> None:
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            loads, latencies, delivered, lost = instance.dplane.step(self.tick)
            fm_endpoint = Endpoint(Role.FM, instance.instance_of(Role.FM))
            probe = Endpoint(Role.D_PLANE, f"{slice_id}:probe")
            corr = f"{slice_id}:telemetry:{self.tick}"
            drafts = []
            for link, load in loads:
                drafts.append(draft(ProcedureKind.FLOW_NOTIFY, probe,
                                    fm_endpoint, corr,
                                    {"phase": "load", "link": link,
                                     "load": load}))
            by_flow: dict = {}
            for flow, latency in latencies:
                by_flow.setdefault(flow, []).append(latency)
            for flow in sorted(by_flow):
                drafts.append(draft(ProcedureKind.FLOW_NOTIFY, probe,
                                    fm_endpoint, corr,
                                    {"phase": "latency", "flow": flow,
                                     "values": by_flow[flow]}))
            for flow in sorted(delivered):
                self.trace_event("flow-delivered", flow,
                                 {"units": delivered[flow], "slice": slice_id})
            for flow in sorted(lost):
                self.trace_event("flow-lost", flow,
                                 {"units": lost[flow], "slice": slice_id})
            self.emit(drafts)

    def _advance(self) -> None:
        """The current tick's work after its script events: due deliveries,
        then the tick hooks, then the forwarded planes."""
        while self.queue and self.queue[0][0] <= self.tick:
            self._deliver(heapq.heappop(self.queue)[3])
        self._run_tick_hooks()
        self._run_dplanes()

    def _pending_work(self) -> bool:
        if self.queue:
            return True
        if any(t > self.tick for t in self._script_by_tick):
            return True
        for instance in self.slices.values():
            if instance.dplane.has_work():
                return True
            fm_state = instance.bb_instances[Role.FM].state
            if fm_state.retiring or fm_state.pending:
                return True
            if Role.MM in instance.bb_instances and \
                    instance.bb_instances[Role.MM].state.pages:
                return True
        return False

    # -- the run itself ---------------------------------------------------------------

    def run(self) -> RunResult:
        self.trace_event("run-start", self.scenario.scenario_id,
                         {"seed": self.seed,
                          "fabrics": {s: i.fabric.model.kind.value
                                      for s, i in sorted(self.slices.items())}})
        for slice_id in sorted(self.slices):
            self.trace_event("slice-operating", slice_id,
                             {"blocks": sorted(
                                 r.value for r in self.slices[slice_id].bb_instances)})
        while True:
            for event in self._script_by_tick.get(self.tick, []):
                self._run_script_event(event)
            self._advance()
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
                    "in_flight": len(run.in_flight)})
        for slice_id in sorted(digests):
            self.trace_event("slice-digest", slice_id,
                             {"digest": digests[slice_id]})
        self.trace_event("run-end", self.scenario.scenario_id,
                         {"tick": self.tick})
        # Messages are sequence-numbered at emission but traced at delivery;
        # within a tick the priority classes reorder processing.  Records
        # minted during tick t always outnumber anything delivered at t, so
        # (tick, seq) is a causally consistent total order.
        self.trace.sort(key=lambda r: (r.tick, r.seq))
        metrics = compute_metrics(self.trace)
        return RunResult(trace=self.trace, metrics=metrics, digests=digests)

    # -- digests -----------------------------------------------------------------------

    def _final_digests(self) -> dict:
        digests = {}
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            snapshot = {
                "blocks": {role.value: _normalize(inst.state)
                           for role, inst in sorted(
                               instance.bb_instances.items(),
                               key=lambda kv: kv[0].value)},
                "lifecycle": instance.lifecycle_state.value,
                "attached": sorted(instance.attached_devices),
                "rules": _normalize(instance.dplane.rules),
                "flows": _normalize(instance.dplane.flows),
                "devices": {
                    d.device_id: {
                        "alias": d.alias, "node": d.current_node,
                        "attached": d.attached, "idle": d.idle,
                        "token": d.context_token}
                    for d in sorted(self.devices.values(),
                                    key=lambda d: d.device_id)
                    if d.bound_slice == slice_id},
            }
            digests[slice_id] = hashlib.sha256(
                canonical_json(snapshot).encode()).hexdigest()[:16]
        digests["global"] = hashlib.sha256(canonical_json(
            {role.value: _normalize(state)
             for role, state in sorted(self.global_states.items(),
                                       key=lambda kv: kv[0].value)}
        ).encode()).hexdigest()[:16]
        return digests

    # -- direct orchestration API --------------------------------------------------------

    def attach_device(self, device_id: str, method: int):
        """Inject one attachment and pump ticks, ignoring the script, until
        no message is in flight.  Returns (bound slice id or None,
        correlated message records)."""
        device = self.devices[device_id]
        corr_before = device.corr_counters.get("attach", 0)
        self.emit(self._attach_drafts(device, method=method))
        corr = f"{device_id}:attach:{corr_before + 1}"
        for _ in range(64):
            self.tick += 1
            self._advance()
            if not self.queue:
                break
        related = [r for r in self.trace
                   if isinstance(r, MessageRecord)
                   and r.msg.correlation_id == corr]
        return device.bound_slice, related


def _normalize(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _normalize(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def run(scenario: Scenario, seed: int,
        fabric_override: FabricModel | None = None,
        projections=None) -> RunResult:
    """Execute a scenario: returns the trace, metrics and terminal digests."""
    return Environment(scenario, seed, fabric_override, projections).run()


#: The four models a comparison run exercises, in report order.
FABRIC_MODELS = (
    FabricModel(FabricModelKind.FULL_MESH),
    FabricModel(FabricModelKind.RELAY),
    FabricModel(FabricModelKind.DISPATCHER),
    FabricModel(FabricModelKind.PUB_SUB),
)


@dataclass
class FabricComparison:
    results: dict           # model kind value -> RunResult

    def hop_totals(self) -> dict:
        return {name: result.metrics.fabric_hops_total
                for name, result in self.results.items()}


def compare_fabrics(scenario: Scenario, seed: int,
                    projections=None) -> FabricComparison:
    """Run the scenario once per interconnection model and require identical
    terminal-state digests; hop totals make the models comparable."""
    results = {}
    for model in FABRIC_MODELS:
        results[model.kind.value] = run(scenario, seed, fabric_override=model,
                                        projections=projections)
    baseline_name, baseline = next(iter(results.items()))
    for name, result in results.items():
        if result.digests != baseline.digests:
            diff = sorted(k for k in baseline.digests
                          if result.digests.get(k) != baseline.digests[k])
            raise EquivalenceViolation(
                f"terminal digests diverge between {baseline_name} and {name} "
                f"for {diff}")
    return FabricComparison(results=results)
