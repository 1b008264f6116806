"""Access function: abstracts last-hop connectivity behind the west-bound
side, records each device's last access node and answers pages from it.

Uplink device signalling arrives access-specific on I1 and leaves
access-agnostic on I3 with the technology tag preserved as metadata;
downlink messages take the reverse translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..messages import (
    Endpoint, InterfacePoint, ProcedureKind, Role, SignalMessage, draft,
)
from .common import BlockContext, BlockEvent, error_event

#: Uplink kinds and the core role their access-agnostic form targets.
_UPLINK_TARGETS = {
    ProcedureKind.ATTACH_REQUEST: Role.CM,
    ProcedureKind.SESSION_ESTABLISH: Role.CM,
    ProcedureKind.SESSION_RELEASE: Role.CM,
    ProcedureKind.HANDOVER_PREPARE: Role.MM,
    ProcedureKind.HANDOVER_EXECUTE: Role.MM,
    ProcedureKind.LOCATION_UPDATE: Role.MM,
}

#: Downlink kinds forwarded to the device on I1.
_DOWNLINK_KINDS = frozenset({
    ProcedureKind.SLICE_REDIRECT,
    ProcedureKind.HANDOVER_EXECUTE,
})


@dataclass
class AFState:
    device_location: dict = field(default_factory=dict)  # device -> last node


def af_handle(state: AFState, msg, ctx: BlockContext):
    """Translate between access-specific and access-agnostic signalling and
    keep the device locations that paging reads."""
    drafts: list[SignalMessage] = []
    events: list[BlockEvent] = []
    payload = msg.payload
    device = payload.get("device", "")

    if msg.interface is InterfacePoint.I1:
        # uplink: record attachment/transition events, then translate to I3
        if msg.kind is ProcedureKind.ATTACH_REQUEST:
            state.device_location[device] = payload.get("node", "")
        elif msg.kind is ProcedureKind.HANDOVER_EXECUTE and \
                payload.get("phase") == "confirm":
            if device not in state.device_location:
                events.append(error_event(
                    device, "UnknownDevice", detail="transition for unrecorded device"))
                return state, drafts, events
            state.device_location[device] = payload.get("node", "")
        target_role = _UPLINK_TARGETS.get(msg.kind)
        if target_role is None:
            events.append(error_event(
                device, "NoInterfaceError",
                detail=f"no uplink mapping for {msg.kind.value}"))
            return state, drafts, events
        if (msg.kind is ProcedureKind.ATTACH_REQUEST
                and int(payload.get("method", 2)) == 1
                and not payload.get("reattach") and ctx.global_cm):
            target = Endpoint(Role.CM, ctx.global_cm)
        elif ctx.has(target_role):
            target = ctx.peer_endpoint(target_role)
        else:
            events.append(error_event(
                device, "NoInterfaceError",
                detail=f"no {target_role.value} in slice {ctx.slice_id} "
                       f"for {msg.kind.value}"))
            return state, drafts, events
        drafts.append(draft(msg.kind, ctx.self_endpoint, target,
                            msg.correlation_id, payload))
        return state, drafts, events

    # I3: signalling from the core side
    if msg.kind is ProcedureKind.PAGE:
        node = payload.get("node", "")
        if state.device_location.get(device) == node:
            drafts.append(draft(
                ProcedureKind.LOCATION_UPDATE, ctx.self_endpoint, msg.source,
                msg.correlation_id,
                {"device": device, "phase": "page-response", "node": node}))
            events.append(BlockEvent("page-hit", device, {"node": node}))
        return state, drafts, events

    if msg.kind is ProcedureKind.PATH_RECORD_UPDATE:
        state.device_location[device] = payload.get("node", "")
        return state, drafts, events

    if msg.kind in _DOWNLINK_KINDS:
        if msg.kind is ProcedureKind.HANDOVER_EXECUTE and device and \
                device not in state.device_location:
            events.append(error_event(
                device, "UnknownDevice", detail="transition for unrecorded device"))
            return state, drafts, events
        drafts.append(draft(msg.kind, ctx.self_endpoint,
                            Endpoint(Role.UE, device), msg.correlation_id,
                            payload))
        return state, drafts, events

    return state, drafts, events


handle = af_handle
