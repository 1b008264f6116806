"""Connectivity management: the per-device convergent state machine, address
allocation, data-plane function selection and both slice-selection methods.

A global-part instance authenticates first and hands the device to the
chosen slice's local instance (method 1), keeping no per-device state of
its own; a slice-local instance either accepts the device or redirects it
towards the slice its subscription names (method 2).  Redirected devices
re-attach carrying their security-context token, so no second credential
exchange happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import IllegalTransitionError, NoDPlaneFunctionError, NoEligibleSliceError
from ..messages import Endpoint, ProcedureKind, Role, draft
from .common import BlockContext, BlockEvent, by_kind, error_event, refusal


class CMRole(str, Enum):
    GLOBAL = "global"
    SLICE_LOCAL = "slice_local"


class ConvergentState(str, Enum):
    DETACHED = "detached"
    AUTHENTICATING = "authenticating"
    ATTACHED = "attached"
    SESSION_ACTIVE = "session_active"


#: Declared edges of the convergent state machine (including teardown).
ALLOWED_TRANSITIONS = frozenset({
    (ConvergentState.DETACHED, ConvergentState.AUTHENTICATING),
    (ConvergentState.AUTHENTICATING, ConvergentState.ATTACHED),
    (ConvergentState.ATTACHED, ConvergentState.SESSION_ACTIVE),
    (ConvergentState.AUTHENTICATING, ConvergentState.DETACHED),
    (ConvergentState.ATTACHED, ConvergentState.DETACHED),
    (ConvergentState.SESSION_ACTIVE, ConvergentState.ATTACHED),
    (ConvergentState.SESSION_ACTIVE, ConvergentState.DETACHED),
})


@dataclass(frozen=True)
class Subscription:
    allowed: tuple
    default: str | None = None


@dataclass
class SessionRecord:
    session_id: str
    device: str
    anchor: str
    node: str                  # access node at attach
    flows: list = field(default_factory=list)


@dataclass
class PendingAttach:
    device: str
    alias: str
    accesses: tuple
    node: str
    tech: str
    reattach: bool = False


@dataclass(frozen=True)
class SliceChoice:
    accept_here: bool
    target: str | None = None


@dataclass
class CMState:
    role: CMRole = CMRole.SLICE_LOCAL
    device_table: dict = field(default_factory=dict)    # device -> ConvergentState
    sessions: dict = field(default_factory=dict)        # session id -> SessionRecord
    device_sessions: dict = field(default_factory=dict) # device -> session id
    subscription_view: dict = field(default_factory=dict)
    pending_attach: dict = field(default_factory=dict)  # correlation -> PendingAttach
    session_counter: int = 0
    reanchor_counter: int = 0


def _transition(state: CMState, device: str, to: ConvergentState,
                events: list, slice_id: str) -> None:
    frm = state.device_table.get(device, ConvergentState.DETACHED)
    if frm is to:
        return
    if (frm, to) not in ALLOWED_TRANSITIONS:
        raise IllegalTransitionError(f"illegal edge {frm.value}->{to.value}")
    if to is ConvergentState.DETACHED:
        del state.device_table[device]      # a detached device has no entry
    else:
        state.device_table[device] = to
    events.append(BlockEvent("transition", device,
                             {"from": frm.value, "to": to.value, "slice": slice_id}))


def cm_select_slice_global(state: CMState, device: str) -> str:
    """Method 1: pick the slice the subscription designates.  The default is
    preferred when it is among the allowed slices; otherwise the smallest
    allowed slice id wins (documented tie rule)."""
    sub = state.subscription_view.get(device)
    if sub is None or not sub.allowed:
        raise NoEligibleSliceError(f"subscription of {device} lists no slice")
    if sub.default and sub.default in sub.allowed:
        return sub.default
    return sorted(sub.allowed)[0]


def cm_select_slice_local(state: CMState, device: str, this_slice: str) -> SliceChoice:
    """Method 2: accept the device here if its subscription names this slice,
    else redirect it to the slice method 1 would pick."""
    target = cm_select_slice_global(state, device)
    if this_slice in state.subscription_view[device].allowed:
        return SliceChoice(accept_here=True)
    return SliceChoice(accept_here=False, target=target)


def select_anchor(ctx: BlockContext, node: str, exclude: str | None = None) -> str:
    """Data-plane function selection: the anchor candidate with the lowest
    simulated latency from the device's access ingress, ties by node id."""
    info = ctx.access_nodes.get(node)
    candidates = [a for a in ctx.anchors if a != exclude]
    if not candidates or info is None:
        raise NoDPlaneFunctionError(
            f"slice {ctx.slice_id} exposes no anchor candidate for node {node}")
    ranked = sorted(candidates,
                    key=lambda a: (ctx.ingress_latency.get((info.ingress, a), 1 << 30), a))
    return ranked[0]


def cm_attach(state: CMState, pending: PendingAttach, auth_ok: bool,
              ctx: BlockContext, corr: str, drafts: list, events: list) -> None:
    """Complete an attachment after authentication.

    Success allocates one network address per requested access network,
    selects the data-plane anchor, creates the device's session and registers
    it with flow management.  Failure detaches the device and allocates
    nothing.  The register exchange rides the attach correlation."""
    device = pending.device
    if not auth_ok:
        _transition(state, device, ConvergentState.DETACHED, events, ctx.slice_id)
        events.append(BlockEvent("attach-denied", device, {"slice": ctx.slice_id}))
        return

    anchor = select_anchor(ctx, pending.node)   # may raise: nothing emitted yet
    state.session_counter += 1
    session_id = f"s-{ctx.slice_id}-{state.session_counter}"
    state.sessions[session_id] = SessionRecord(
        session_id=session_id, device=device, anchor=anchor,
        node=pending.node)
    state.device_sessions[device] = session_id
    _transition(state, device, ConvergentState.ATTACHED, events, ctx.slice_id)
    events.append(BlockEvent("anchor-selected", device,
                             {"anchor": anchor, "session": session_id}))
    drafts.append(draft(
        ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint,
        ctx.peer_endpoint(Role.FM), corr,
        {"session": session_id, "phase": "register", "anchor": anchor,
         "addresses": [f"ip-{ctx.slice_id}-{device}-{a}"
                       for a in pending.accesses or (pending.tech,)]}))


def _attach_request(state: CMState, msg, ctx: BlockContext, drafts: list,
                    events: list) -> None:
    payload = msg.payload
    corr = msg.correlation_id
    device = payload["device"]
    pending = PendingAttach(
        device=device, alias=payload.get("alias", ""),
        accesses=tuple(payload.get("accesses") or ()),
        node=payload.get("node", ""), tech=payload.get("tech", ""),
        reattach=bool(payload.get("reattach")))
    # the global part authenticates and hands the device off: it keeps
    # no per-device connectivity state
    if state.role is CMRole.SLICE_LOCAL:
        _transition(state, device, ConvergentState.AUTHENTICATING,
                    events, ctx.slice_id)
    if pending.reattach:
        # Redirected re-attachment: the carried context token stands in
        # for a fresh credential exchange.
        if not payload.get("token"):
            _transition(state, device, ConvergentState.DETACHED, events, ctx.slice_id)
            events.append(BlockEvent("attach-denied", device,
                                     {"reason": "missing-context-token"}))
        else:
            _continue_local_attach(state, pending, ctx, corr, drafts, events)
    else:
        state.pending_attach[corr] = pending
        drafts.append(draft(
            ProcedureKind.AUTH_CHALLENGE, ctx.self_endpoint,
            ctx.peer_endpoint(Role.SAM), corr,
            {"device": device, "alias": pending.alias,
             "proof": payload.get("proof", "")}))


def _auth_response(state: CMState, msg, ctx: BlockContext, drafts: list,
                   events: list) -> None:
    payload = msg.payload
    corr = msg.correlation_id
    pending = state.pending_attach.pop(corr, None)
    if pending is None:
        events.append(error_event(payload.get("device", "?"),
                                  "StrayAuthResponse"))
    elif not payload.get("ok"):
        cm_attach(state, pending, False, ctx, corr, drafts, events)
    elif state.role is CMRole.GLOBAL:
        try:
            target = cm_select_slice_global(state, pending.device)
        except NoEligibleSliceError as exc:
            events.append(refusal(pending.device, exc))
        else:
            events.append(BlockEvent("slice-selected", pending.device,
                                     {"slice": target, "method": 1}))
            local_cm = ctx.slice_directory[target][Role.CM]
            drafts.append(draft(
                ProcedureKind.SLICE_SELECT, ctx.self_endpoint,
                Endpoint(Role.CM, local_cm), corr,
                {"device": pending.device,
                 "accesses": list(pending.accesses), "node": pending.node,
                 "tech": pending.tech}))
    else:
        _continue_local_attach(state, pending, ctx, corr, drafts, events)


def _slice_select(state: CMState, msg, ctx: BlockContext, drafts: list,
                  events: list) -> None:
    """Hand-off from the global part: the device arrives pre-authenticated."""
    payload = msg.payload
    pending = PendingAttach(
        device=payload["device"], alias="",
        accesses=tuple(payload.get("accesses") or ()),
        node=payload.get("node", ""), tech=payload.get("tech", ""))
    _transition(state, pending.device, ConvergentState.AUTHENTICATING,
                events, ctx.slice_id)
    _attach_here(state, pending, ctx, msg.correlation_id, drafts, events)


def _continue_local_attach(state: CMState, pending: PendingAttach,
                           ctx: BlockContext, corr: str, drafts: list,
                           events: list) -> None:
    """Post-authentication slice check for method 2 (and re-attachment)."""
    try:
        choice = cm_select_slice_local(state, pending.device, ctx.slice_id)
    except NoEligibleSliceError as exc:
        _transition(state, pending.device, ConvergentState.DETACHED, events, ctx.slice_id)
        events.append(refusal(pending.device, exc))
        return
    if choice.accept_here:
        _attach_here(state, pending, ctx, corr, drafts, events)
        return
    events.append(BlockEvent("slice-redirect", pending.device,
                             {"target": choice.target, "from": ctx.slice_id}))
    drafts.append(draft(ProcedureKind.SLICE_REDIRECT, ctx.self_endpoint,
                        ctx.downlink(pending.device), corr,
                        {"device": pending.device, "target": choice.target}))
    _transition(state, pending.device, ConvergentState.DETACHED, events, ctx.slice_id)


def _attach_here(state: CMState, pending: PendingAttach, ctx: BlockContext,
                 corr: str, drafts: list, events: list) -> None:
    try:
        cm_attach(state, pending, True, ctx, corr, drafts, events)
    except NoDPlaneFunctionError as exc:
        _transition(state, pending.device, ConvergentState.DETACHED, events, ctx.slice_id)
        events.append(refusal(pending.device, exc))


def _handle_session_establish(state: CMState, msg, ctx: BlockContext,
                              drafts: list, events: list) -> None:
    payload = msg.payload
    phase = payload.get("phase", "flow")
    device = payload.get("device", "")

    if msg.source.role in (Role.UE, Role.AF):
        # flow request from the device
        current = state.device_table.get(device, ConvergentState.DETACHED)
        if current not in (ConvergentState.ATTACHED, ConvergentState.SESSION_ACTIVE):
            events.append(error_event(device, "IllegalEventError",
                                      detail="traffic for unattached device"))
            return
        session_id = state.device_sessions[device]
        record = state.sessions[session_id]
        flow = payload.get("flow") or f"{device}-f{len(record.flows) + 1}"
        record.flows.append(flow)
        node = payload.get("node") or record.node
        info = ctx.access_nodes[node]
        drafts.append(draft(
            ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint,
            ctx.peer_endpoint(Role.FM), msg.correlation_id,
            {"session": session_id, "phase": "flow", "flow": flow,
             "qos": payload.get("qos", "default"),
             "ingress": info.ingress}))
        return

    if msg.source.role is Role.FM:
        session_id = payload.get("session", "")
        record = state.sessions.get(session_id)
        if record is None:
            return
        if phase == "register-ok":
            _transition(state, record.device, ConvergentState.SESSION_ACTIVE,
                        events, ctx.slice_id)
            events.append(BlockEvent("attach-complete", record.device,
                                     {"slice": ctx.slice_id,
                                      "session": session_id}))
            if ctx.has(Role.MM):
                area = ctx.access_nodes[record.node].area  # checked at attach
                drafts.append(draft(
                    ProcedureKind.LOCATION_UPDATE, ctx.self_endpoint,
                    ctx.peer_endpoint(Role.MM), msg.correlation_id,
                    {"device": record.device, "phase": "register",
                     "area": area, "session": session_id}))
            if record.device not in ctx.mediated:
                drafts.append(draft(
                    ProcedureKind.PATH_RECORD_UPDATE, ctx.self_endpoint,
                    ctx.peer_endpoint(Role.AF), msg.correlation_id,
                    {"device": record.device, "node": record.node}))
        elif phase == "flow-ok":
            events.append(BlockEvent("flow-ready", record.device,
                                     {"flow": payload.get("flow"),
                                      "session": session_id}))
        elif phase == "flow-err":
            events.append(error_event(record.device, "FlowSetupFailed",
                                      flow=payload.get("flow")))
        elif phase == "reanchor-ok":
            record.anchor = payload.get("anchor", record.anchor)
            events.append(BlockEvent("reanchor-complete", record.device,
                                     {"anchor": record.anchor,
                                      "session": session_id}))


def _handle_session_release(state: CMState, msg, ctx: BlockContext,
                            drafts: list, events: list) -> None:
    payload = msg.payload
    device = payload.get("device", "")
    scope = payload.get("scope", "flow")
    session_id = state.device_sessions.get(device)
    if session_id is None:
        events.append(error_event(device, "IllegalEventError",
                                  detail="release for unknown session"))
        return
    if scope == "flow":
        drafts.append(draft(
            ProcedureKind.SESSION_RELEASE, ctx.self_endpoint,
            ctx.peer_endpoint(Role.FM), msg.correlation_id,
            {"session": session_id, "scope": "flow",
             "flow": payload.get("flow")}))
        return
    # detach
    drafts.append(draft(
        ProcedureKind.SESSION_RELEASE, ctx.self_endpoint,
        ctx.peer_endpoint(Role.FM), msg.correlation_id,
        {"session": session_id, "scope": "session"}))
    if ctx.has(Role.MM):
        drafts.append(draft(
            ProcedureKind.LOCATION_UPDATE, ctx.self_endpoint,
            ctx.peer_endpoint(Role.MM), msg.correlation_id,
            {"device": device, "phase": "detached"}))
    state.sessions.pop(session_id, None)
    state.device_sessions.pop(device, None)
    _transition(state, device, ConvergentState.DETACHED, events, ctx.slice_id)
    events.append(BlockEvent("detach", device, {"slice": ctx.slice_id}))


def _handle_context_notify(state: CMState, msg, ctx: BlockContext,
                           drafts: list, events: list) -> None:
    """Consume a latency context by reselecting the data-plane anchor."""
    payload = msg.payload
    if payload.get("statement") != "latency_above_normal":
        return
    flow = payload.get("subject", "")
    record = next((r for r in state.sessions.values() if flow in r.flows), None)
    if record is None:
        return
    try:
        new_anchor = select_anchor(ctx, record.node, exclude=record.anchor)
    except NoDPlaneFunctionError:
        events.append(BlockEvent("reselect-impossible", record.device,
                                 {"flow": flow, "anchor": record.anchor}))
        return
    state.reanchor_counter += 1
    corr = f"{record.device}:reanchor:{state.reanchor_counter}"
    events.append(BlockEvent("reselect", record.device,
                             {"flow": flow, "from": record.anchor,
                              "to": new_anchor}))
    drafts.append(draft(
        ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint,
        ctx.peer_endpoint(Role.FM), corr,
        {"session": record.session_id, "phase": "reanchor", "flow": flow,
         "anchor": new_anchor}))


#: Per kind, the handler of a message the CM takes.
BY_KIND = {
    ProcedureKind.ATTACH_REQUEST: _attach_request,
    ProcedureKind.AUTH_RESPONSE: _auth_response,
    ProcedureKind.SLICE_SELECT: _slice_select,
    ProcedureKind.SESSION_ESTABLISH: _handle_session_establish,
    ProcedureKind.SESSION_RELEASE: _handle_session_release,
    ProcedureKind.CONTEXT_NOTIFY: _handle_context_notify,
}

handle = by_kind(BY_KIND)
