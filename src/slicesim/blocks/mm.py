"""Mobility management: handover plans under the slice's mobility policy,
tracking areas, and paging of idle devices.

Handover plans are staged exchanges.  Make-before-break configures the new
path first, then executes the radio switch, then retires the old path;
break-before-make swaps the first two stages.  Session identifiers are never
touched, which is what carries session continuity across the move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import BlueprintError, NoSessionError, NotIdleError, PolicyForbidsError
from ..messages import ProcedureKind, Role, SignalMessage, draft
from .common import (
    BlockContext, BlockEvent, HandoverStyle, MobilityPolicy, refusal,
)


class PagingState(str, Enum):
    REACHABLE = "reachable"
    IDLE = "idle"
    PAGING_IN_PROGRESS = "paging_in_progress"


@dataclass
class HandoverPlan:
    device: str
    session: str
    style: HandoverStyle
    node: str


@dataclass
class MMState:
    tracking_areas: dict = field(default_factory=dict)  # device -> area id
    paging_state: dict = field(default_factory=dict)    # device -> PagingState
    sessions: dict = field(default_factory=dict)        # device -> session id
    handovers: dict = field(default_factory=dict)       # correlation -> HandoverPlan
    pages: dict = field(default_factory=dict)           # device -> tick paged


def mm_handover(state: MMState, device: str, target_node: str,
                policy: MobilityPolicy, ctx: BlockContext, corr: str):
    """Start a handover plan for a device with an active session."""
    session = state.sessions.get(device)
    if session is None:
        raise NoSessionError(f"device {device} has no active session")
    tech = ctx.access_nodes[target_node].tech
    if tech not in policy.allowed_techs:
        raise PolicyForbidsError(
            f"slice mobility policy excludes {tech.value} targets")
    plan = HandoverPlan(
        device=device, session=session, style=policy.style, node=target_node)
    state.handovers[corr] = plan
    if policy.style is HandoverStyle.MAKE_BEFORE_BREAK:
        return [_new_path_draft(plan, ctx, corr)]
    return [_execute_draft(plan, ctx, corr)]


def _new_path_draft(plan: HandoverPlan, ctx: BlockContext,
                    corr: str) -> SignalMessage:
    return draft(
        ProcedureKind.HANDOVER_PREPARE, ctx.self_endpoint,
        ctx.peer_endpoint(Role.FM), corr,
        {"session": plan.session, "phase": "new-path",
         "ingress": ctx.access_nodes[plan.node].ingress})


def _execute_draft(plan: HandoverPlan, ctx: BlockContext,
                   corr: str) -> SignalMessage:
    return draft(ProcedureKind.HANDOVER_EXECUTE, ctx.self_endpoint,
                 ctx.downlink(plan.device), corr,
                 {"device": plan.device, "phase": "execute", "node": plan.node})


def _release_draft(plan: HandoverPlan, ctx: BlockContext,
                   corr: str) -> SignalMessage:
    return draft(
        ProcedureKind.SESSION_RELEASE, ctx.self_endpoint,
        ctx.peer_endpoint(Role.FM), corr,
        {"session": plan.session, "scope": "handover-old"})


def mm_page(state: MMState, device: str, ctx: BlockContext, corr: str):
    """Page a device in its last tracking area: one page per candidate node."""
    if state.paging_state.get(device) is not PagingState.IDLE:
        raise NotIdleError(f"device {device} is not idle")
    area = state.tracking_areas.get(device, "")
    state.paging_state[device] = PagingState.PAGING_IN_PROGRESS
    state.pages[device] = ctx.tick
    return [draft(ProcedureKind.PAGE, ctx.self_endpoint,
                  ctx.peer_endpoint(Role.AF), corr,
                  {"device": device, "node": node})
            for node in ctx.nodes_in_area(area)]


def handle(state: MMState, msg, ctx: BlockContext):
    drafts: list[SignalMessage] = []
    events: list[BlockEvent] = []
    payload = msg.payload
    device = payload.get("device", "")
    corr = msg.correlation_id
    kind = msg.kind

    if kind is ProcedureKind.HANDOVER_PREPARE and msg.source.role in (Role.UE, Role.AF):
        policy = ctx.policy.mobility
        if policy is None:
            raise BlueprintError("MM instantiated without a mobility policy")
        target = payload["node"]
        try:
            drafts = mm_handover(state, device, target, policy, ctx, corr)
            events.append(BlockEvent("handover-start", device,
                                     {"style": policy.style.value,
                                      "target": target}))
        except (NoSessionError, PolicyForbidsError) as exc:
            events.append(refusal(device, exc))

    elif kind is ProcedureKind.HANDOVER_PREPARE and msg.source.role is Role.FM:
        plan = state.handovers.get(corr)
        if plan is None or payload.get("phase") != "new-path-ok":
            return state, drafts, events
        if plan.style is HandoverStyle.MAKE_BEFORE_BREAK:
            drafts.append(_execute_draft(plan, ctx, corr))
        else:
            # break-before-make: path came last, close out with the release
            drafts.append(_release_draft(plan, ctx, corr))
            _complete_handover(state, plan, events, corr)

    elif kind is ProcedureKind.HANDOVER_EXECUTE and payload.get("phase") == "confirm":
        plan = state.handovers.get(corr)
        if plan is None:
            return state, drafts, events
        state.tracking_areas[plan.device] = ctx.access_nodes[plan.node].area
        if plan.device not in ctx.mediated:
            drafts.append(draft(
                ProcedureKind.PATH_RECORD_UPDATE, ctx.self_endpoint,
                ctx.peer_endpoint(Role.AF), corr,
                {"device": plan.device, "node": plan.node}))
        if plan.style is HandoverStyle.MAKE_BEFORE_BREAK:
            drafts.append(_release_draft(plan, ctx, corr))
            _complete_handover(state, plan, events, corr)
        else:
            drafts.append(_new_path_draft(plan, ctx, corr))

    elif kind is ProcedureKind.PAGE:
        try:
            drafts = mm_page(state, device, ctx, corr)
            events.append(BlockEvent("page-start", device,
                                     {"candidates": len(drafts)}))
        except NotIdleError as exc:
            events.append(refusal(device, exc))

    elif kind is ProcedureKind.LOCATION_UPDATE:
        phase = payload.get("phase", "")
        if phase == "register":
            state.tracking_areas[device] = payload.get("area", "")
            state.sessions[device] = payload.get("session", "")
            state.paging_state[device] = PagingState.REACHABLE
        elif phase == "idle":
            state.paging_state[device] = PagingState.IDLE
        elif phase == "page-response":
            if state.pages.pop(device, None) is not None:
                state.paging_state[device] = PagingState.REACHABLE
                events.append(BlockEvent("page-complete", device,
                                         {"node": payload.get("node", "")}))
        elif phase == "detached":
            for table in (state.tracking_areas, state.paging_state,
                          state.sessions):
                table.pop(device, None)

    return state, drafts, events


def _complete_handover(state: MMState, plan: HandoverPlan, events: list,
                       corr: str) -> None:
    del state.handovers[corr]
    events.append(BlockEvent("handover-complete", plan.device,
                             {"session": plan.session, "node": plan.node,
                              "style": plan.style.value}))


def tick_hook(state: MMState, ctx: BlockContext):
    """Expire pages that outlived the paging timeout."""
    events: list[BlockEvent] = []
    timeout = ctx.policy.mobility.page_timeout   # MM implies a policy
    for device in sorted(state.pages):
        after = ctx.tick - state.pages[device]
        if after >= timeout:
            del state.pages[device]
            state.paging_state[device] = PagingState.IDLE
            events.append(BlockEvent("page-timeout", device, {"after": after}))
    return state, (), events
