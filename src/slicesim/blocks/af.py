"""Access function: abstracts last-hop connectivity behind the west-bound
side, records each device's last access node and answers pages from it.

Uplink device signalling arrives access-specific on I1 and leaves
access-agnostic on I3 with the technology tag preserved as metadata;
downlink messages take the reverse translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..messages import Endpoint, InterfacePoint, ProcedureKind, Role, draft
from .common import BlockContext, BlockEvent, by_kind, error_event

_I1 = InterfacePoint.I1
_UNKNOWN = "transition for unrecorded device"


@dataclass
class AFState:
    device_location: dict = field(default_factory=dict)  # device -> last node


def af_handle(state: AFState, msg, ctx: BlockContext):
    """Translate between access-specific and access-agnostic signalling and
    keep the device locations that paging reads.  An uplink kind without a
    core target is a traced error; a core kind the AF does not serve is
    ignored."""
    if msg.interface is not _I1:
        return _downlink(state, msg, ctx)
    if msg.kind not in UPLINK:
        return state, [], [error_event(
            msg.payload.get("device", ""), "NoInterfaceError",
            detail=f"no uplink mapping for {msg.kind.value}")]
    return _uplink(state, msg, ctx)


# -- uplink (I1): record what paging reads, then translate to I3 --------------

def _to_core(role: Role, state: AFState, msg, ctx: BlockContext,
             drafts: list, events: list) -> None:
    """Forward an uplink message to the slice's `role` block."""
    if ctx.has(role):
        drafts.append(draft(msg.kind, ctx.self_endpoint, ctx.peer_endpoint(role),
                            msg.correlation_id, msg.payload))
    else:
        events.append(error_event(
            msg.payload.get("device", ""), "NoInterfaceError",
            detail=f"no {role.value} in slice {ctx.slice_id} for {msg.kind.value}"))


def _attach_up(state: AFState, msg, ctx: BlockContext, drafts: list,
               events: list) -> None:
    """Record the device's node; a first method-1 attach goes to the
    global part."""
    payload = msg.payload
    state.device_location[payload.get("device", "")] = payload.get("node", "")
    if int(payload.get("method", 2)) == 1 and not payload.get("reattach") \
            and ctx.global_cm:
        drafts.append(draft(msg.kind, ctx.self_endpoint,
                            Endpoint(Role.CM, ctx.global_cm),
                            msg.correlation_id, payload))
    else:
        _to_core(Role.CM, state, msg, ctx, drafts, events)


def _confirm_up(state: AFState, msg, ctx: BlockContext, drafts: list,
                events: list) -> None:
    """A handover's confirm moves the device's recorded node."""
    payload = msg.payload
    device = payload.get("device", "")
    if payload.get("phase") == "confirm":
        if device not in state.device_location:
            events.append(error_event(device, "UnknownDevice", detail=_UNKNOWN))
            return
        state.device_location[device] = payload.get("node", "")
    _to_core(Role.MM, state, msg, ctx, drafts, events)


# -- downlink (I3): signalling from the core side ------------------------------

def _page(state: AFState, msg, ctx: BlockContext, drafts: list,
          events: list) -> None:
    """Answer a page at the device's recorded node only."""
    payload = msg.payload
    device = payload.get("device", "")
    node = payload.get("node", "")
    if state.device_location.get(device) == node:
        drafts.append(draft(
            ProcedureKind.LOCATION_UPDATE, ctx.self_endpoint, msg.source,
            msg.correlation_id,
            {"device": device, "phase": "page-response", "node": node}))
        events.append(BlockEvent("page-hit", device, {"node": node}))


def _record_path(state: AFState, msg, ctx: BlockContext, drafts: list,
                 events: list) -> None:
    payload = msg.payload
    state.device_location[payload.get("device", "")] = payload.get("node", "")


def _to_device(state: AFState, msg, ctx: BlockContext, drafts: list,
               events: list) -> None:
    """Forward a downlink message to the device on I1."""
    drafts.append(draft(msg.kind, ctx.self_endpoint,
                        Endpoint(Role.UE, msg.payload.get("device", "")),
                        msg.correlation_id, msg.payload))


def _execute_down(state: AFState, msg, ctx: BlockContext, drafts: list,
                  events: list) -> None:
    device = msg.payload.get("device", "")
    if device and device not in state.device_location:
        events.append(error_event(device, "UnknownDevice", detail=_UNKNOWN))
    else:
        _to_device(state, msg, ctx, drafts, events)


#: Per uplink kind, its handler; each forwards to a core block.
UPLINK = {
    ProcedureKind.ATTACH_REQUEST: _attach_up,
    ProcedureKind.SESSION_ESTABLISH: partial(_to_core, Role.CM),
    ProcedureKind.SESSION_RELEASE: partial(_to_core, Role.CM),
    ProcedureKind.HANDOVER_PREPARE: partial(_to_core, Role.MM),
    ProcedureKind.HANDOVER_EXECUTE: _confirm_up,
    ProcedureKind.LOCATION_UPDATE: partial(_to_core, Role.MM),
}

#: Per downlink kind the AF serves, its handler.
DOWNLINK = {
    ProcedureKind.PAGE: _page,
    ProcedureKind.PATH_RECORD_UPDATE: _record_path,
    ProcedureKind.SLICE_REDIRECT: _to_device,
    ProcedureKind.HANDOVER_EXECUTE: _execute_down,
}

_uplink, _downlink = by_kind(UPLINK), by_kind(DOWNLINK)

handle = af_handle
