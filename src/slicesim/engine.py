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
import heapq
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from operator import attrgetter
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
    BBInstanceId, BB_ROLES, Endpoint, ProcedureKind, Role, SignalMessage,
    Topic, draft, validate_message,
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

#: Per tick-hook role, whether a block has work, after handling `msg` (it
#: joins the due list) or at the end of a tick with `msg` None (it leaves
#: without): a page out, rules to retire or acknowledgements to await, a
#: sample ingested this tick.  A hook called without work is a no-op.
_HAS_WORK = {
    Role.MM: lambda state, msg: state.pages,
    Role.FM: lambda state, msg: state.retiring or state.pending,
    Role.CGHF: lambda state, msg: (
        msg is not None and msg.kind is ProcedureKind.CONTEXT_PUBLISH),
}

#: Routing-index entry of an ident that names no block.
_UNROUTED = (None, None, None, None)

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


_EVENT_ACTIONS = {"attach", "detach", "move", "traffic-start", "traffic-stop",
                  "idle", "page", "inject-latency", "teardown"}

#: Per action, the at-line options that hold integers, parsed at load.
_INT_OPTIONS = {"attach": ("method",), "traffic-start": ("rate", "duration")}


def load_scenario(path) -> Scenario:
    """Parse and cross-validate a scenario file; all references must resolve
    and every value must parse."""
    try:
        return _load_scenario(Path(path))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _load_scenario(path: Path) -> Scenario:
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
                 fabric_override: FabricModel | None = None):
        self.scenario = scenario
        self.seed = seed
        self.tick = 0
        self._seq = 0
        self.trace: list = []
        self.queue: list = []       # heap of (tick, priority, seq, msg)
        self.devices = {d.device_id: SimDevice(spec=d) for d in scenario.devices}
        self.infra = slices_mod.SimInfrastructure(scenario.infra_capacity)
        self.slices: dict = {}
        roster = slices_mod.build_roster(scenario.devices)
        override = fabric_override or scenario.fabric_override
        for bp in scenario.blueprints:
            if override is not None:
                bp = replace(bp, fabric_model=override)
            instance = slices_mod.instantiate(
                bp, self.infra, scenario.topology, roster=roster)
            slices_mod.operate(instance)
            self.slices[bp.slice_id] = instance
        # Common control part for method-1 selection: a global connectivity
        # instance plus the unified identity store behind it.
        self.global_cm = BBInstanceId(Role.CM, "global")
        self.global_sam = BBInstanceId(Role.SAM, "global")
        self.global_states = {
            Role.CM: cm_mod.CMState(role=cm_mod.CMRole.GLOBAL,
                                    subscription_view=roster[Role.CM]),
            Role.SAM: sam_mod.SAMState(identity_db=roster[Role.SAM]),
        }
        self._script_by_tick: dict = {}
        for event in scenario.script:
            self._script_by_tick.setdefault(event.tick, []).append(event)
        self._last_script_tick = max(self._script_by_tick, default=0)
        # The due list, all a tick's end runs: (0, slice, role) or
        # (1, slice, "") -> (instance, role or None, state or plane, context
        # or None).
        self._due: dict = {}
        # device id -> {(slice id, flow id): FlowRun} of the flows it started;
        # a run another start replaced under its id lingers here unreachable
        self._flows_of: dict = {}

        # The routing index, ident -> (slice instance, or None for the global
        # part, role, state, context).  Each block's context is built here
        # once; the engine sets its tick before each call.
        global_peers = {Role.CM: str(self.global_cm),
                        Role.SAM: str(self.global_sam)}
        shared = dict(
            seed=seed, access_nodes=scenario.topology.access,
            global_cm=global_peers[Role.CM],
            ingress_latency=slices_mod.anchor_latency(
                scenario.topology,
                [a for bp in scenario.blueprints for a in bp.anchors]),
            slice_directory={sid: inst.peers[Role.CM]
                             for sid, inst in self.slices.items()})
        scopes = [(None, "global", global_peers, self.global_states,
                   SlicePolicy(), ())] + [
            (inst, sid, inst.peers, inst.states, inst.blueprint.policy,
             inst.blueprint.anchors) for sid, inst in self.slices.items()]
        self._route: dict = {}
        for instance, sid, peers, states, policy, anchors in scopes:
            for role, ident in peers.items():
                self._route[ident] = (instance, role, states[role], BlockContext(
                    slice_id=sid, self_id=ident, role=role, tick=0, peers=peers,
                    policy=policy, anchors=anchors, **shared))

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

    # -- emission ------------------------------------------------------------

    def emit(self, drafts) -> None:
        for item in drafts:
            for msg in self._expand(item):
                seq = self.next_seq()
                verdict = validate_message(msg)
                if not verdict:
                    self.trace_error("InvalidMessage", str(msg.source),
                                     {"violations": list(verdict.violations)})
                    continue
                heapq.heappush(self.queue, (
                    self.tick + 1, _PRIORITY[msg.kind], seq, msg))

    def _expand(self, item: SignalMessage) -> list:
        """Topic publishes become per-subscriber unicasts on non-broker
        fabrics; the broker fabric keeps the single topic message."""
        if not isinstance(item.destination, Topic):
            return [item]
        instance = self._route.get(item.source.ident, _UNROUTED)[0]
        if instance is None:
            return []
        if instance.fabric.model.kind is FabricModelKind.PUB_SUB:
            return [item]
        cghf_state = instance.states[Role.CGHF]
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
                                  item.payload))
        return expanded

    # -- delivery ------------------------------------------------------------

    def _deliver(self, seq: int, msg: SignalMessage) -> None:
        if isinstance(msg.destination, Topic):
            self._deliver_fabric(seq, msg)
            return
        role = msg.destination.role
        if role is Role.UE:
            self._trace_msg(seq, msg)
            self.emit(self._ue_receive(msg))
        elif role is Role.D_PLANE:
            self._trace_msg(seq, msg)
            self.emit(self._dplane_receive(msg))
        elif role in BB_ROLES:
            src_instance = self._route.get(msg.source.ident, _UNROUTED)[0]
            dst_instance = self._route.get(msg.destination.ident, _UNROUTED)[0]
            if src_instance is not None and src_instance is dst_instance:
                self._deliver_fabric(seq, msg)
            else:
                self._trace_msg(seq, msg)
                self._invoke_block(msg.destination.ident, msg)
        else:
            self.trace_error("UnknownDestinationError", str(msg.destination), {})

    def _deliver_fabric(self, seq: int, msg: SignalMessage) -> None:
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
        self._trace_msg(seq, outcome.msg, hop_count=record.hop_count,
                        mediators=record.mediators,
                        recipients=record.recipients)
        if outcome.flag:
            self.trace_error(outcome.flag, str(msg.destination), {})
        for ident in record.recipients:
            self._invoke_block(ident, outcome.msg)

    def _trace_msg(self, seq: int, msg: SignalMessage, hop_count: int = 1,
                   mediators: tuple = (), recipients: tuple = ()) -> None:
        self.trace.append(MessageRecord(
            seq=seq, tick=self.tick, msg=msg, hop_count=hop_count,
            mediators=mediators, recipients=recipients))

    def _invoke_block(self, ident: str, msg: SignalMessage) -> None:
        instance, role, state, ctx = self._route.get(ident, _UNROUTED)
        if role is None:
            self.trace_error("UnknownDestinationError", ident, {})
            return
        if instance is not None and \
                instance.lifecycle_state is slices_mod.LifecycleState.TORN_DOWN:
            self.trace_error("LifecycleOrderError", instance.slice_id,
                             {"detail": "message to a torn down slice"})
            return
        object.__setattr__(ctx, "tick", self.tick)
        try:
            _, drafts, events = _HANDLERS[role](state, msg, ctx)
        except SliceSimError as exc:
            self.trace_error(type(exc).__name__, ident, {"detail": str(exc)})
            return
        finally:
            if role in _HAS_WORK and _HAS_WORK[role](state, msg):
                self._wake(instance, role)
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
            device.attaching = None
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
            for run in self._flows_of.get(device.device_id, {}).values():
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
        payload = msg.payload
        if msg.kind is ProcedureKind.SLICE_REDIRECT:
            target = payload.get("target", "")
            return self._attach_drafts(device, method=2, target_slice=target,
                                       corr=msg.correlation_id, reattach=True)
        if msg.kind is ProcedureKind.HANDOVER_EXECUTE and \
                payload.get("phase") == "execute":
            node = payload.get("node", "")
            device.current_node = node
            info = self.scenario.topology.access[node]
            for run in self._flows_of.get(device.device_id, {}).values():
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
        payload = msg.payload
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
        direct = device.spec.mode is SignalingMode.DIRECT
        if direct and method == 1 and not reattach:
            dst = Endpoint(Role.CM, str(self.global_cm))
        else:
            role = Role.CM if direct else Role.AF
            instance = (self.slices.get(target_slice)
                        if target_slice else self._serving_slice(device))
            if instance is None or role not in instance.peers:
                self.trace_error("NoEligibleSliceError", device.device_id, {
                    "detail": "no slice to attach to" if direct
                    else "no access function to mediate"})
                return []
            dst = Endpoint(role, instance.peers[role])
        device.attaching = corr
        return [draft(ProcedureKind.ATTACH_REQUEST,
                      Endpoint(Role.UE, device.device_id), dst, corr, payload)]

    def _attach_in_flight(self, device: SimDevice) -> bool:
        """Whether the device's last attach is still under way.  It ends at
        attach-complete; a denied, rejected or dropped attach ends when no
        message of its correlation is left in the queue."""
        if device.attaching is not None and not any(
                entry[3].correlation_id == device.attaching
                for entry in self.queue):
            device.attaching = None
        return device.attaching is not None

    def _mode_route(self, device: SimDevice, kind: ProcedureKind,
                    target_role: Role, corr: str, payload: dict) -> list:
        """Uplink from a device: direct to the core block, or via its AF."""
        instance = self.slices.get(device.bound_slice or "")
        if instance is None:
            return []
        source = Endpoint(Role.UE, device.device_id)
        if device.spec.mode is SignalingMode.VIA_AF and \
                Role.AF in instance.peers:
            dst = Endpoint(Role.AF, instance.peers[Role.AF])
        else:
            dst = Endpoint(target_role, instance.peers[target_role])
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
            # no message reaches its blocks again: their hooks leave for good
            self._due = {key: entry for key, entry in self._due.items()
                         if entry[0] is not instance or entry[1] is None}
            return
        if action == "inject-latency":
            self._inject_latency(*event.args)
            return

        device = self.devices[event.args[0]]
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
            self.emit(self._attach_drafts(
                device, method=event.options.get("method", 2),
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
            for run in self._flows_of.get(device.device_id, {}).values():
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
        rate, duration = options.get("rate", 1), options.get("duration", 10)
        qos = options.get("qos", "default")
        info = self.scenario.topology.access[device.current_node]
        run = FlowRun(flow_id=flow, device=device.device_id, rate=rate,
                      remaining_emissions=duration, qos=qos,
                      ingress=info.ingress)
        instance.dplane.add_flow(run)
        self._flows_of.setdefault(device.device_id, {})[
            (instance.slice_id, flow)] = run
        self._wake(instance)
        corr = device.next_correlation("session")
        self.emit(self._mode_route(
            device, ProcedureKind.SESSION_ESTABLISH, Role.CM, corr,
            {"device": device.device_id, "flow": flow, "rate": rate,
             "duration": duration, "qos": qos, "node": device.current_node}))

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
        if not instance.has_sf(Role.MM, "device-paging"):
            self.trace_error("SfInactive", device.device_id,
                             {"sf": "device-paging", "slice": instance.slice_id})
            return
        corr = device.next_correlation("page")
        # downlink demand surfaces at the connectivity block, which asks for
        # reachability
        self.emit([draft(
            ProcedureKind.PAGE,
            Endpoint(Role.CM, instance.peers[Role.CM]),
            Endpoint(Role.MM, instance.peers[Role.MM]), corr,
            {"device": device.device_id, "reason": "downlink-demand"})])

    def _inject_latency(self, flow: str, value: float) -> None:
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            if flow in instance.dplane.flows:
                self.emit([draft(
                    ProcedureKind.FLOW_NOTIFY,
                    Endpoint(Role.D_PLANE, f"{slice_id}:probe"),
                    Endpoint(Role.FM, instance.peers[Role.FM]),
                    f"{slice_id}:telemetry:{self.tick}",
                    {"phase": "latency", "flow": flow, "values": [value]})])
                return
        self.trace_error("UnknownDestinationError", flow,
                         {"detail": "latency injection for unknown flow"})

    # -- per-tick machinery ---------------------------------------------------------

    def _wake(self, instance, role: Role | None = None) -> None:
        """Put a block's tick hook, or with no role the slice's forwarded
        plane, on the due list."""
        if role is None:
            self._due[(1, instance.slice_id, "")] = (
                instance, None, instance.dplane, None)
        else:
            self._due[(0, instance.slice_id, role.value)] = \
                self._route[instance.peers[role]]

    def _run_due(self) -> None:
        """The due blocks' tick hooks, then the due planes, by slice and
        role; what is then without work leaves."""
        for key in sorted(self._due):
            instance, role, state, ctx = self._due[key]
            if role is None:
                self._step_plane(instance)
                continue
            # an FM that only awaits acknowledgements has nothing to retire
            if role is Role.FM and not state.retiring:
                continue
            object.__setattr__(ctx, "tick", self.tick)
            _, drafts, events = _TICK_HOOKS[role](state, ctx)
            self._absorb(events, instance.slice_id)
            self.emit(drafts)
        self._due = {key: entry for key, entry in self._due.items()
                     if (entry[2].due() if entry[1] is None
                         else _HAS_WORK[entry[1]](entry[2], None))}

    def _step_plane(self, instance) -> None:
        sid = instance.slice_id
        loads, latencies, delivered, lost = instance.dplane.step(self.tick)
        by_flow: dict = {}
        for flow, latency in latencies:
            by_flow.setdefault(flow, []).append(latency)
        for kind, units in (("flow-delivered", delivered), ("flow-lost", lost)):
            for flow in sorted(units):
                self.trace_event(kind, flow, {"units": units[flow], "slice": sid})
        payloads = [{"phase": "load", "link": link, "load": load}
                    for link, load in loads]
        payloads += [{"phase": "latency", "flow": flow, "values": by_flow[flow]}
                     for flow in sorted(by_flow)]
        probe = Endpoint(Role.D_PLANE, f"{sid}:probe")
        fm = Endpoint(Role.FM, instance.peers[Role.FM])
        corr = f"{sid}:telemetry:{self.tick}"
        self.emit([draft(ProcedureKind.FLOW_NOTIFY, probe, fm, corr, payload)
                   for payload in payloads])

    def _advance(self) -> None:
        """The current tick's work after its script events: the messages
        due now, then what is due on the due list."""
        while self.queue and self.queue[0][0] <= self.tick:
            _, _, seq, msg = heapq.heappop(self.queue)
            self._deliver(seq, msg)
        self._run_due()

    def _pending_work(self) -> bool:
        """Whether the run goes on: a message in flight, a script event to
        come, a due block, or a due plane with a flow under way."""
        return bool(self.queue) or self.tick < self._last_script_tick or any(
            role is not None or item.has_work()
            for _, role, item, _ in self._due.values())

    # -- the run itself ---------------------------------------------------------------

    def run(self) -> RunResult:
        self.trace_event("run-start", self.scenario.scenario_id,
                         {"seed": self.seed,
                          "fabrics": {s: i.fabric.model.kind.value
                                      for s, i in sorted(self.slices.items())}})
        for slice_id in sorted(self.slices):
            self.trace_event("slice-operating", slice_id,
                             {"blocks": sorted(
                                 r.value for r in self.slices[slice_id].states)})
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
        devices = sorted(self.devices.values(), key=lambda d: d.device_id)
        for slice_id in sorted(self.slices):
            instance = self.slices[slice_id]
            snapshot = {
                "blocks": {role.value: _without_roster(state)
                           for role, state in sorted(
                               instance.states.items(),
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
                    for d in devices if d.bound_slice == slice_id},
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
        return lambda v: {n: _normalize(getattr(v, n)) for n in names}
    if issubclass(cls, Enum):
        return attrgetter("value")
    if issubclass(cls, Mapping):
        return lambda v: {str(k): _normalize(x) for k, x in v.items()}
    if issubclass(cls, (set, frozenset)):
        return lambda v: sorted(map(str, v))
    if issubclass(cls, (list, tuple)):
        return lambda v: [_normalize(x) for x in v]
    if issubclass(cls, (str, int, float, bool)):
        return lambda v: v
    return str


#: Types `_normalize` returns as they are (their subclasses are classified).
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Per concrete type, the function `_normalize` applies to its values.
_NORMALIZERS: dict = {}


def run(scenario: Scenario, seed: int,
        fabric_override: FabricModel | None = None) -> RunResult:
    """Execute a scenario: returns the trace, metrics and terminal digests."""
    return Environment(scenario, seed, fabric_override).run()


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


def compare_fabrics(scenario: Scenario, seed: int) -> FabricComparison:
    """Run the scenario once per interconnection model and require identical
    terminal-state digests; hop totals make the models comparable."""
    results = {}
    for model in FABRIC_MODELS:
        results[model.kind.value] = run(scenario, seed, fabric_override=model)
    baseline_name, baseline = next(iter(results.items()))
    for name, result in results.items():
        if result.digests != baseline.digests:
            diff = sorted(k for k in baseline.digests
                          if result.digests.get(k) != baseline.digests[k])
            raise EquivalenceViolation(
                f"terminal digests diverge between {baseline_name} and {name} "
                f"for {diff}")
    return FabricComparison(results=results)
