"""Access-function translation/paging and mobility-management plan tests."""

import dataclasses

import pytest

from slicesim.blocks.af import AFState, af_handle
from slicesim.blocks.common import (
    AccessNodeInfo, BlockContext, HandoverStyle, MobilityPolicy, SlicePolicy,
    Tech,
)
from slicesim.blocks.mm import (
    MMState, PagingState, mm_handover, mm_page, tick_hook,
)
from slicesim.blocks import mm as mm_mod
from slicesim.errors import (
    BlueprintError, NoSessionError, NotIdleError, PolicyForbidsError,
)
from slicesim.messages import (
    Endpoint, InterfacePoint, ProcedureKind, Role, SignalMessage, block_id,
)

SLICE = "slice-a"


def ctx_for(role, policy=None, area_nodes=3):
    access = {}
    for i in range(1, area_nodes + 1):
        access[f"n{i}"] = AccessNodeInfo(f"n{i}", Tech.CELLULAR, "area-1", f"i{i}")
    access["w1"] = AccessNodeInfo("w1", Tech.WIFI, "area-2", "iw")
    peers = {r: block_id(r, SLICE)
             for r in (Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM)}
    return BlockContext(
        slice_id=SLICE, self_id=block_id(role, SLICE), role=role,
        tick=5, seed=7, peers=peers,
        policy=policy or SlicePolicy(mobility=MobilityPolicy(
            style=HandoverStyle.MAKE_BEFORE_BREAK)),
        access_nodes=access, anchors=("a1",),
        ingress_latency={("i1", "a1"): 1, ("i2", "a1"): 1, ("iw", "a1"): 1},
        global_cm="CM.global.1")


def message(kind, src, dst, iface, payload, corr="d1:attach:1"):
    return SignalMessage(kind=kind, source=src, destination=dst,
                         interface=iface, correlation_id=corr, payload=payload)


class TestAccessFunction:
    def test_uplink_attach_translates_to_i3_and_records_path(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        msg = message(
            ProcedureKind.ATTACH_REQUEST, Endpoint(Role.UE, "d1"),
            Endpoint(Role.AF, ctx.self_id), InterfacePoint.I1,
            {"device": "d1", "alias": "imsi-1", "proof": "p", "node": "w1",
             "tech": "wifi", "method": 2})
        _, drafts, _ = af_handle(state, msg, ctx)
        assert len(drafts) == 1
        out = drafts[0]
        assert out.interface is InterfacePoint.I3
        assert out.destination.role is Role.CM
        assert out.payload["tech"] == "wifi"     # technology tag preserved
        assert state.device_location == {"d1": "w1"}

    def test_method_one_attach_goes_to_the_global_part(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        msg = message(
            ProcedureKind.ATTACH_REQUEST, Endpoint(Role.UE, "d1"),
            Endpoint(Role.AF, ctx.self_id), InterfacePoint.I1,
            {"device": "d1", "alias": "imsi-1", "proof": "p", "node": "n1",
             "tech": "cellular", "method": 1})
        _, drafts, _ = af_handle(state, msg, ctx)
        assert drafts[0].destination.ident == "CM.global.1"

    def test_reentry_moves_the_recorded_node(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        for node in ("n1", "n2"):
            af_handle(state, message(
                ProcedureKind.ATTACH_REQUEST, Endpoint(Role.UE, "d1"),
                Endpoint(Role.AF, ctx.self_id), InterfacePoint.I1,
                {"device": "d1", "alias": "imsi-1", "proof": "p",
                 "node": node, "tech": "cellular", "method": 2}), ctx)
        assert state.device_location == {"d1": "n2"}

    def test_page_answered_only_at_the_recorded_endpoint(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        state.device_location["d1"] = "n2"
        mm = Endpoint(Role.MM, block_id(Role.MM, SLICE))
        miss = message(ProcedureKind.PAGE, mm, Endpoint(Role.AF, ctx.self_id),
                       InterfacePoint.I3, {"device": "d1", "node": "n1"},
                       corr="d1:page:1")
        _, drafts, _ = af_handle(state, miss, ctx)
        assert drafts == []
        hit = message(ProcedureKind.PAGE, mm, Endpoint(Role.AF, ctx.self_id),
                      InterfacePoint.I3, {"device": "d1", "node": "n2"},
                      corr="d1:page:1")
        _, drafts, _ = af_handle(state, hit, ctx)
        assert drafts[0].kind is ProcedureKind.LOCATION_UPDATE
        assert drafts[0].payload["phase"] == "page-response"

    def test_transition_for_unrecorded_device_is_unknown(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        msg = message(
            ProcedureKind.HANDOVER_EXECUTE, Endpoint(Role.UE, "ghost"),
            Endpoint(Role.AF, ctx.self_id), InterfacePoint.I1,
            {"device": "ghost", "phase": "confirm", "node": "n1",
             "tech": "cellular"}, corr="ghost:ho:1")
        _, drafts, events = af_handle(state, msg, ctx)
        assert any(e.detail.get("error") == "UnknownDevice" for e in events)
        assert drafts == []

    @pytest.mark.parametrize("kind, payload", [
        (ProcedureKind.LOCATION_UPDATE, {"phase": "idle"}),
        (ProcedureKind.HANDOVER_PREPARE, {"node": "n2", "tech": "cellular"}),
        (ProcedureKind.HANDOVER_EXECUTE, {"phase": "confirm", "node": "n2",
                                          "tech": "cellular"}),
    ])
    def test_uplink_to_a_block_the_slice_lacks_is_a_traced_error(self, kind, payload):
        state = AFState()
        state.device_location["d1"] = "n1"
        ctx = ctx_for(Role.AF)
        ctx = dataclasses.replace(ctx, peers={
            r: i for r, i in ctx.peers.items() if r is not Role.MM})
        msg = message(kind, Endpoint(Role.UE, "d1"),
                      Endpoint(Role.AF, ctx.self_id), InterfacePoint.I1,
                      {"device": "d1", **payload}, corr="d1:idle:1")
        _, drafts, events = af_handle(state, msg, ctx)
        assert drafts == []
        assert [(e.kind, e.subject, e.detail) for e in events] == [
            ("error", "d1", {"error": "NoInterfaceError",
                             "detail": f"no MM in slice {SLICE} for {kind.value}"})]

    def test_uplink_kind_without_a_core_target_is_a_traced_error(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        msg = message(ProcedureKind.PAGE, Endpoint(Role.UE, "d1"),
                      Endpoint(Role.AF, ctx.self_id), InterfacePoint.I1,
                      {"device": "d1"}, corr="d1:page:1")
        _, drafts, events = af_handle(state, msg, ctx)
        assert drafts == []
        assert [(e.kind, e.subject, e.detail) for e in events] == [
            ("error", "d1", {"error": "NoInterfaceError",
                             "detail": "no uplink mapping for Page"})]

    def test_downlink_handover_for_unrecorded_device_is_unknown(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        msg = message(ProcedureKind.HANDOVER_EXECUTE,
                      Endpoint(Role.MM, ctx.peers[Role.MM]),
                      Endpoint(Role.AF, ctx.self_id), InterfacePoint.I3,
                      {"device": "ghost", "phase": "execute", "node": "n2"},
                      corr="ghost:handover:1")
        _, drafts, events = af_handle(state, msg, ctx)
        assert drafts == []
        assert [(e.kind, e.subject, e.detail) for e in events] == [
            ("error", "ghost", {"error": "UnknownDevice",
                                "detail": "transition for unrecorded device"})]

    def test_core_kind_it_does_not_serve_is_dropped(self):
        state = AFState()
        ctx = ctx_for(Role.AF)
        msg = message(ProcedureKind.AUTH_RESPONSE,
                      Endpoint(Role.CM, ctx.peers[Role.CM]),
                      Endpoint(Role.AF, ctx.self_id), InterfacePoint.I3,
                      {"device": "d1", "ok": True})
        assert af_handle(state, msg, ctx) == (AFState(), [], [])


def mm_with_session(device="d1", style=HandoverStyle.MAKE_BEFORE_BREAK):
    state = MMState()
    state.sessions[device] = "s-1"
    state.tracking_areas[device] = "area-1"
    state.paging_state[device] = PagingState.REACHABLE
    policy = MobilityPolicy(style=style)
    ctx = ctx_for(Role.MM, policy=SlicePolicy(mobility=policy))
    return state, policy, ctx


def drive(state, ctx, kind, payload, src_role, corr="d1:handover:1"):
    msg = message(kind, Endpoint(src_role, f"{src_role.value}.{SLICE}.1"),
                  Endpoint(Role.MM, ctx.self_id),
                  InterfacePoint.INTER_BB if src_role not in (Role.UE,)
                  else InterfacePoint.I2, payload, corr=corr)
    return mm_mod.handle(state, msg, ctx)


class TestHandover:
    def test_make_before_break_plan_order(self):
        state, policy, ctx = mm_with_session()
        corr = "d1:handover:1"
        drafts = mm_handover(state, "d1", "n2", policy, ctx, corr)
        assert [d.kind for d in drafts] == [ProcedureKind.HANDOVER_PREPARE]
        assert drafts[0].payload["phase"] == "new-path"
        # path ready -> execute towards the device
        _, drafts, _ = drive(state, ctx, ProcedureKind.HANDOVER_PREPARE,
                             {"session": "s-1", "phase": "new-path-ok",
                              "ok": True}, Role.FM, corr)
        assert [d.kind for d in drafts] == [ProcedureKind.HANDOVER_EXECUTE]
        # execute confirmed -> release old path; session id unchanged
        _, drafts, events = drive(state, ctx, ProcedureKind.HANDOVER_EXECUTE,
                                  {"device": "d1", "phase": "confirm",
                                   "node": "n2", "tech": "cellular",
                                   "area": "area-1"}, Role.UE, corr)
        kinds = [d.kind for d in drafts]
        assert ProcedureKind.SESSION_RELEASE in kinds
        release = drafts[kinds.index(ProcedureKind.SESSION_RELEASE)]
        assert release.payload["scope"] == "handover-old"
        assert release.payload["session"] == "s-1"
        assert state.sessions["d1"] == "s-1"
        assert any(e.kind == "handover-complete" for e in events)

    def test_break_before_make_reverses_the_first_two_stages(self):
        state, policy, ctx = mm_with_session(style=HandoverStyle.BREAK_BEFORE_MAKE)
        corr = "d1:handover:1"
        drafts = mm_handover(state, "d1", "n2", policy, ctx, corr)
        assert [d.kind for d in drafts] == [ProcedureKind.HANDOVER_EXECUTE]
        _, drafts, _ = drive(state, ctx, ProcedureKind.HANDOVER_EXECUTE,
                             {"device": "d1", "phase": "confirm", "node": "n2",
                              "tech": "cellular", "area": "area-1"},
                             Role.UE, corr)
        kinds = [d.kind for d in drafts]
        assert ProcedureKind.HANDOVER_PREPARE in kinds
        assert ProcedureKind.SESSION_RELEASE not in kinds  # release comes last
        _, drafts, events = drive(state, ctx, ProcedureKind.HANDOVER_PREPARE,
                                  {"session": "s-1", "phase": "new-path-ok",
                                   "ok": True}, Role.FM, corr)
        assert [d.kind for d in drafts] == [ProcedureKind.SESSION_RELEASE]
        assert any(e.kind == "handover-complete" for e in events)

    def test_handover_prepare_without_policy_raises_a_domain_error(self):
        state, _, _ = mm_with_session()
        ctx = ctx_for(Role.MM, policy=SlicePolicy())
        with pytest.raises(BlueprintError, match="without a mobility policy"):
            drive(state, ctx, ProcedureKind.HANDOVER_PREPARE,
                  {"device": "d1", "node": "n2"}, Role.UE)

    def test_handover_without_session_rejected(self):
        state, policy, ctx = mm_with_session()
        with pytest.raises(NoSessionError):
            mm_handover(state, "ghost", "n2", policy, ctx, "c")
        # the handler traces the refusal and sends nothing
        _, drafts, events = drive(state, ctx, ProcedureKind.HANDOVER_PREPARE,
                                  {"device": "ghost", "node": "n2"}, Role.UE)
        assert drafts == []
        assert [(e.kind, e.subject, e.detail["error"]) for e in events] == [
            ("error", "ghost", "NoSessionError")]

    def test_policy_forbidding_target_technology(self):
        state, _, _ = mm_with_session()
        policy = MobilityPolicy(style=HandoverStyle.MAKE_BEFORE_BREAK,
                                allowed_techs=frozenset({Tech.CELLULAR}))
        ctx = ctx_for(Role.MM, policy=SlicePolicy(mobility=policy))
        with pytest.raises(PolicyForbidsError, match="excludes wifi targets"):
            mm_handover(state, "d1", "w1", policy, ctx, "c")

    def test_tracking_area_updated_on_confirm(self):
        state, policy, ctx = mm_with_session()
        corr = "d1:handover:1"
        mm_handover(state, "d1", "w1", policy, ctx, corr)
        drive(state, ctx, ProcedureKind.HANDOVER_PREPARE,
              {"session": "s-1", "phase": "new-path-ok", "ok": True},
              Role.FM, corr)
        drive(state, ctx, ProcedureKind.HANDOVER_EXECUTE,
              {"device": "d1", "phase": "confirm", "node": "w1",
               "tech": "wifi", "area": "area-2"}, Role.UE, corr)
        assert state.tracking_areas["d1"] == "area-2"

    @pytest.mark.parametrize("mediated, downlink, records", [
        (frozenset(), Endpoint(Role.UE, "d1"), 1),
        (frozenset({"d1"}), Endpoint(Role.AF, f"AF.{SLICE}.1"), 0)])
    def test_execute_and_path_record_follow_the_signalling_mode(
            self, mediated, downlink, records):
        # the AF records a mediated device's node from the forwarded confirm
        state, _, ctx = mm_with_session(style=HandoverStyle.BREAK_BEFORE_MAKE)
        ctx = dataclasses.replace(ctx, mediated=mediated)
        corr = "d1:handover:1"
        _, drafts, _ = drive(state, ctx, ProcedureKind.HANDOVER_PREPARE,
                             {"device": "d1", "node": "w1"}, Role.UE, corr)
        assert [(d.kind, d.destination) for d in drafts] == [
            (ProcedureKind.HANDOVER_EXECUTE, downlink)]
        _, drafts, _ = drive(state, ctx, ProcedureKind.HANDOVER_EXECUTE,
                             {"device": "d1", "phase": "confirm",
                              "node": "w1"}, Role.UE, corr)
        assert [d.kind for d in drafts].count(
            ProcedureKind.PATH_RECORD_UPDATE) == records
        assert drafts[-1].payload == {"session": "s-1", "phase": "new-path",
                                      "ingress": "iw"}
        assert state.tracking_areas["d1"] == "area-2"

    def test_path_reply_without_a_plan_is_ignored(self):
        state, _, ctx = mm_with_session()
        _, drafts, events = drive(
            state, ctx, ProcedureKind.HANDOVER_PREPARE,
            {"session": "s-1", "phase": "new-path-ok", "ok": True}, Role.FM)
        assert (drafts, events) == ([], [])

    def test_confirm_without_a_plan_is_ignored(self):
        state, _, ctx = mm_with_session()
        _, drafts, events = drive(
            state, ctx, ProcedureKind.HANDOVER_EXECUTE,
            {"device": "d1", "phase": "confirm", "node": "w1", "tech": "wifi",
             "area": "area-2"}, Role.UE)
        assert (drafts, events) == ([], [])
        assert state.tracking_areas["d1"] == "area-1"


class TestPaging:
    def idle_device(self):
        state, _, ctx = mm_with_session()
        state.paging_state["d1"] = PagingState.IDLE
        return state, ctx

    def test_page_fans_out_to_every_node_in_the_area(self):
        state, ctx = self.idle_device()
        drafts = mm_page(state, "d1", ctx, "d1:page:1")
        assert len(drafts) == 3   # area-1 holds n1..n3
        assert {d.payload["node"] for d in drafts} == {"n1", "n2", "n3"}
        assert all(d.kind is ProcedureKind.PAGE for d in drafts)
        assert state.paging_state["d1"] is PagingState.PAGING_IN_PROGRESS

    def test_paging_a_reachable_device_rejected(self):
        state, _, ctx = mm_with_session()
        with pytest.raises(NotIdleError):
            mm_page(state, "d1", ctx, "c")

    def test_page_response_restores_reachability(self):
        state, ctx = self.idle_device()
        mm_page(state, "d1", ctx, "d1:page:1")
        _, _, events = drive(state, ctx, ProcedureKind.LOCATION_UPDATE,
                             {"device": "d1", "phase": "page-response",
                              "node": "n2"}, Role.AF, "d1:page:1")
        assert state.paging_state["d1"] is PagingState.REACHABLE
        assert any(e.kind == "page-complete" for e in events)

    def test_unanswered_page_times_out_back_to_idle(self):
        state, ctx = self.idle_device()
        mm_page(state, "d1", ctx, "d1:page:1")
        late = BlockContext(
            slice_id=ctx.slice_id, self_id=ctx.self_id, role=ctx.role,
            tick=ctx.tick + 8, seed=ctx.seed, peers=ctx.peers,
            policy=ctx.policy, access_nodes=ctx.access_nodes,
            anchors=ctx.anchors, ingress_latency=ctx.ingress_latency)
        _, _, events = tick_hook(state, late)
        assert state.paging_state["d1"] is PagingState.IDLE
        assert any(e.kind == "page-timeout" for e in events)
