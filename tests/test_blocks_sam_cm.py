"""Security/AAA and connectivity-management state machine tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.blocks.cm import (
    CMRole, CMState, ConvergentState, PendingAttach, SessionRecord,
    SliceChoice, Subscription, _transition, cm_attach, cm_select_slice_global,
    cm_select_slice_local, handle as cm_handle, select_anchor,
)
from slicesim.blocks.common import (
    AccessNodeInfo, AuthScheme, BlockContext, BlockEvent, SlicePolicy, Tech,
)
from slicesim.blocks.sam import (
    IdentityRecord, SAMState, handle as sam_handle, sam_authenticate,
)
from slicesim.errors import (
    IllegalTransitionError, NoDPlaneFunctionError,
    NoEligibleSliceError,
)
from slicesim.messages import Endpoint, ProcedureKind, Role, block_id, draft

from conftest import NoContextError, sam_single_sign_on


def make_ctx(role=Role.CM, slice_id="slice-a", anchors=("a1", "a2"),
             latencies=None, policy=None, peers=None, tick=0):
    access = {
        "n1": AccessNodeInfo("n1", Tech.CELLULAR, "area-1", "i1"),
        "n2": AccessNodeInfo("n2", Tech.WIFI, "area-1", "i2"),
    }
    default_latency = {("i1", "a1"): 3, ("i1", "a2"): 5,
                       ("i2", "a1"): 4, ("i2", "a2"): 2}
    peers = peers or {r: block_id(r, slice_id)
                      for r in (Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM, Role.CGHF)}
    return BlockContext(
        slice_id=slice_id, self_id=block_id(role, slice_id),
        role=role, tick=tick, seed=7, peers=peers,
        policy=policy or SlicePolicy(),
        access_nodes=access, anchors=anchors,
        ingress_latency=latencies or default_latency)


def sam_with(device="d1", psi="imsi-001", proof="tok-1"):
    state = SAMState()
    state.identity_db[psi] = IdentityRecord(device=device, permanent_id=psi,
                                            proof=proof)
    return state


class TestAuthenticate:
    def test_full_scheme_success_issues_context_and_pseudonym(self):
        state = sam_with()
        verdict = sam_authenticate(state, "d1", "imsi-001", "tok-1",
                                   AuthScheme.FULL, seed=7, tick=1)
        assert verdict.ok
        assert verdict.pseudonym.startswith("psn-")
        assert state.security_contexts["d1"].ordinal == 1
        assert len(state.audit_log) == 1 and state.audit_log[0].ok

    def test_wrong_credentials_fail_with_audit(self):
        state, ctx = sam_with(), make_ctx(role=Role.SAM)
        challenge = draft(ProcedureKind.AUTH_CHALLENGE,
                          ctx.peer_endpoint(Role.CM), ctx.self_endpoint, "c1",
                          {"device": "d1", "alias": "imsi-001",
                           "proof": "wrong"})
        _, [response], [event] = sam_handle(state, challenge, ctx)
        assert response.payload == {"device": "d1", "ok": False}
        assert event.detail["reason"] == "credential-mismatch"
        assert "d1" not in state.security_contexts
        assert len(state.audit_log) == 1 and not state.audit_log[0].ok

    def test_unknown_subscriber_is_a_failure_verdict(self):
        state = sam_with()
        verdict = sam_authenticate(state, "dX", "imsi-999", "tok-1",
                                   AuthScheme.FULL, seed=7, tick=1)
        assert not verdict.ok and verdict.reason == "unknown-subscriber"

    def test_reauthentication_bumps_ordinal_and_invalidates_old_pseudonym(self):
        state = sam_with()
        first = sam_authenticate(state, "d1", "imsi-001", "tok-1",
                                 AuthScheme.FULL, seed=7, tick=1)
        second = sam_authenticate(state, "d1", first.pseudonym, "tok-1",
                                  AuthScheme.FULL, seed=7, tick=2)
        assert second.ok and state.security_contexts["d1"].ordinal == 2
        assert second.pseudonym != first.pseudonym
        assert first.pseudonym not in state.pseudonym_map
        assert state.pseudonym_map[second.pseudonym] == "imsi-001"

    def test_low_secure_scheme_flags_the_context(self):
        state = sam_with()
        verdict = sam_authenticate(state, "d1", "imsi-001", "tok-1",
                                   AuthScheme.LOW_SECURE, seed=7, tick=1)
        assert verdict.ok
        assert state.security_contexts["d1"].low_secure

    def test_the_challenge_takes_its_scheme_from_the_slice_policy(self):
        state = sam_with()
        ctx = make_ctx(role=Role.SAM,
                       policy=SlicePolicy(auth_scheme=AuthScheme.LOW_SECURE))
        challenge = draft(ProcedureKind.AUTH_CHALLENGE,
                          ctx.peer_endpoint(Role.CM), ctx.self_endpoint, "c1",
                          {"device": "d1", "alias": "imsi-001",
                           "proof": "tok-1"})
        _, _, [event] = sam_handle(state, challenge, ctx)
        assert event.detail["scheme"] == "low_secure"
        assert state.security_contexts["d1"].low_secure

    def test_pseudonym_map_stays_bijective(self):
        state = sam_with()
        state.identity_db["imsi-002"] = IdentityRecord("d2", "imsi-002", "tok-2")
        sam_authenticate(state, "d1", "imsi-001", "tok-1", AuthScheme.FULL, 7, 1)
        sam_authenticate(state, "d2", "imsi-002", "tok-2", AuthScheme.FULL, 7, 1)
        sam_authenticate(state, "d1", "imsi-001", "tok-1", AuthScheme.FULL, 7, 2)
        values = list(state.pseudonym_map.values())
        assert len(values) == len(set(values)) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=12))
    def test_audit_entries_equal_attempts(self, attempts):
        state = sam_with()
        for good_alias, good_proof in attempts:
            sam_authenticate(
                state, "d1",
                "imsi-001" if good_alias else "imsi-zzz",
                "tok-1" if good_proof else "bad",
                AuthScheme.FULL, seed=7, tick=0)
        auth_entries = [e for e in state.audit_log if e.kind == "auth"]
        assert len(auth_entries) == len(attempts)


class TestSingleSignOn:
    def test_grant_off_existing_context_without_challenge(self):
        state = sam_with()
        sam_authenticate(state, "d1", "imsi-001", "tok-1", AuthScheme.FULL, 7, 1)
        grant = sam_single_sign_on(state, "d1", "service-s", tick=2)
        assert grant.startswith("sso-d1-service-s")
        # one auth entry from the initial authentication, one sso entry
        assert [e.kind for e in state.audit_log] == ["auth", "sso"]

    def test_detached_device_has_no_context(self):
        state = sam_with()
        with pytest.raises(NoContextError):
            sam_single_sign_on(state, "d1", "service-s", tick=2)

    def test_two_services_off_one_context(self):
        state = sam_with()
        sam_authenticate(state, "d1", "imsi-001", "tok-1", AuthScheme.FULL, 7, 1)
        sam_single_sign_on(state, "d1", "svc-1", tick=2)
        sam_single_sign_on(state, "d1", "svc-2", tick=3)
        kinds = [e.kind for e in state.audit_log]
        assert kinds == ["auth", "sso", "sso"]
        # versus two full authentications, no extra credential exchange ran
        assert sum(k == "auth" for k in kinds) == 1


def pending(device="d1", node="n1", accesses=(), tech="cellular"):
    return PendingAttach(device=device, alias="psn-x", accesses=tuple(accesses),
                         node=node, tech=tech)


def authenticating_state(device="d1"):
    # cm_attach's precondition: the request correlates to an authenticating device
    state = CMState()
    state.device_table[device] = ConvergentState.AUTHENTICATING
    return state


class TestCmAttach:
    def test_anchor_argmin_over_candidate_latency(self):
        # candidates at 3 and 5 ticks from the device's ingress: 3 wins
        state = authenticating_state()
        ctx = make_ctx()
        assert select_anchor(ctx, "n1") == "a1"
        drafts = []
        cm_attach(state, pending(), True, ctx, "d1:attach:1", drafts, [])
        record = state.sessions[state.device_sessions["d1"]]
        assert record.anchor == "a1"
        assert drafts[0].kind is ProcedureKind.SESSION_ESTABLISH
        assert drafts[0].payload["phase"] == "register"

    def test_anchor_choice_respects_the_device_ingress(self):
        ctx = make_ctx()
        assert select_anchor(ctx, "n2") == "a2"

    def test_auth_failure_leaves_device_detached_with_no_addresses(self):
        state = authenticating_state()
        drafts, events = [], []
        cm_attach(state, pending(), False, make_ctx(), "c1", drafts, events)
        assert "d1" not in state.device_table   # detached
        assert state.sessions == {} and state.device_sessions == {}
        assert drafts == []
        assert any(e.kind == "attach-denied" for e in events)

    def test_two_requested_accesses_allocate_two_addresses(self):
        state = authenticating_state()
        drafts = []
        cm_attach(state, pending(accesses=("cellular", "wifi")), True,
                  make_ctx(), "c1", drafts, [])
        [register] = drafts
        assert register.payload["phase"] == "register"
        assert register.payload["addresses"] == [
            "ip-slice-a-d1-cellular", "ip-slice-a-d1-wifi"]

    def test_detach_leaves_no_node_or_mode_of_the_device(self):
        # the device's access node lives on its session, which the detach
        # ends, its signalling mode only in the context, and a detached
        # device has no table entry
        state = authenticating_state()
        ctx = make_ctx()
        cm_attach(state, pending(), True, ctx, "d1:attach:1", [], [])
        cm_handle(state, to_cm(ProcedureKind.SESSION_RELEASE,
                               {"device": "d1", "scope": "detach"},
                               corr="d1:detach:1"), ctx)
        assert [f.name for f in dataclasses.fields(state)
                if "d1" in str(getattr(state, f.name))] == []

    def test_no_anchor_candidates_raises(self):
        state = authenticating_state()
        ctx = make_ctx(anchors=())
        with pytest.raises(NoDPlaneFunctionError):
            cm_attach(state, pending(), True, ctx, "c1", [], [])

    def test_illegal_edge_raises_a_domain_error(self):
        state = CMState()
        state.device_table["d1"] = ConvergentState.SESSION_ACTIVE
        events = []
        with pytest.raises(IllegalTransitionError,
                           match="illegal edge session_active->authenticating"):
            _transition(state, "d1", ConvergentState.AUTHENTICATING, events,
                        "slice-a")
        assert state.device_table["d1"] is ConvergentState.SESSION_ACTIVE
        assert events == []


class TestSliceSelection:
    def subscribed(self, allowed, default=None):
        state = CMState(role=CMRole.GLOBAL)
        state.subscription_view["d1"] = Subscription(allowed=tuple(allowed),
                                                     default=default)
        return state

    def test_single_allowed_slice_selected(self):
        state = self.subscribed(["miot-slice"], default="miot-slice")
        assert cm_select_slice_global(state, "d1") == "miot-slice"

    def test_empty_allowed_set_rejected(self):
        state = self.subscribed([])
        with pytest.raises(NoEligibleSliceError):
            cm_select_slice_global(state, "d1")

    def test_default_preferred_among_multiple(self):
        state = self.subscribed(["embb", "miot"], default="embb")
        assert cm_select_slice_global(state, "d1") == "embb"

    def test_local_accepts_matching_slice(self):
        state = self.subscribed(["slice-a"])
        assert cm_select_slice_local(state, "d1", "slice-a") == SliceChoice(True)

    def test_local_redirects_to_subscribed_slice(self):
        state = self.subscribed(["critical-comms"])
        choice = cm_select_slice_local(state, "d1", "default-slice")
        assert choice == SliceChoice(False, "critical-comms")

    def test_no_subscription_record_rejected(self):
        state = CMState()
        with pytest.raises(NoEligibleSliceError):
            cm_select_slice_local(state, "d1", "slice-a")


def to_cm(kind, payload, source=Endpoint(Role.UE, "d1"), corr="d1:attach:1",
          ctx=None):
    return draft(kind, source, (ctx or make_ctx()).self_endpoint, corr, payload)


def attach_request(**extra):
    return to_cm(ProcedureKind.ATTACH_REQUEST, {
        "device": "d1", "alias": "imsi-001", "node": "n1", "area": "area-1",
        "tech": "cellular", "method": 2, **extra})


def subscribed_cm(allowed=("slice-a",)):
    state = CMState()
    state.subscription_view = {"d1": Subscription(allowed=allowed)}
    return state


@pytest.mark.parametrize("mediated, downlink", [
    (frozenset(), Endpoint(Role.UE, "d1")),
    (frozenset({"d1"}), Endpoint(Role.AF, "AF.slice-a.1"))])
def test_slice_redirect_follows_the_signalling_mode(mediated, downlink):
    state = subscribed_cm(allowed=("slice-b",))
    ctx = dataclasses.replace(make_ctx(), mediated=mediated)
    cm_handle(state, attach_request(proof="p"), ctx)
    verdict = to_cm(ProcedureKind.AUTH_RESPONSE, {"device": "d1", "ok": True},
                    source=ctx.peer_endpoint(Role.SAM))
    _, drafts, _ = cm_handle(state, verdict, ctx)
    assert [(d.kind, d.destination, d.payload) for d in drafts] == [
        (ProcedureKind.SLICE_REDIRECT, downlink,
         {"device": "d1", "target": "slice-b"})]


class TestCmHandlerRefusals:
    """The connectivity block's refusal paths, driven through `handle`."""

    def test_repeated_attach_request_takes_no_second_edge(self):
        state, ctx = subscribed_cm(), make_ctx()
        _, _, first = cm_handle(state, attach_request(proof="p"), ctx)
        _, drafts, second = cm_handle(state, attach_request(proof="p"), ctx)
        assert [e.kind for e in first] == ["transition"]
        assert second == []
        assert [d.kind for d in drafts] == [ProcedureKind.AUTH_CHALLENGE]
        assert state.device_table["d1"] is ConvergentState.AUTHENTICATING

    def test_failed_authentication_denies_the_attach(self):
        state, ctx = subscribed_cm(), make_ctx()
        cm_handle(state, attach_request(proof="wrong"), ctx)
        verdict = to_cm(ProcedureKind.AUTH_RESPONSE,
                        {"device": "d1", "ok": False,
                         "reason": "credential-mismatch"},
                        source=ctx.peer_endpoint(Role.SAM))
        _, drafts, events = cm_handle(state, verdict, ctx)
        assert drafts == [] and state.pending_attach == {}
        assert [e.kind for e in events] == ["transition", "attach-denied"]
        assert "d1" not in state.device_table   # detached

    def test_reattach_without_a_context_token_is_denied(self):
        state = subscribed_cm()
        _, drafts, events = cm_handle(
            state, attach_request(reattach=True, token=""), make_ctx())
        assert drafts == []
        assert events[-1] == BlockEvent("attach-denied", "d1",
                                        {"reason": "missing-context-token"})
        assert "d1" not in state.device_table   # detached

    def test_stray_auth_response_is_a_traced_error(self):
        ctx = make_ctx()
        msg = to_cm(ProcedureKind.AUTH_RESPONSE, {"device": "d1", "ok": True},
                    source=ctx.peer_endpoint(Role.SAM), corr="d1:attach:9")
        assert cm_handle(subscribed_cm(), msg, ctx)[1:] == (
            [], [BlockEvent("error", "d1", {"error": "StrayAuthResponse"})])

    def test_reattach_without_a_subscription_is_refused(self):
        state = CMState()
        _, drafts, events = cm_handle(
            state, attach_request(reattach=True, token="ctx-1"), make_ctx())
        assert drafts == []
        assert events[-1] == BlockEvent("error", "d1", {
            "error": "NoEligibleSliceError",
            "detail": "subscription of d1 lists no slice"})
        assert "d1" not in state.device_table   # detached

    def test_slice_hand_off_without_an_anchor_is_refused(self):
        state, ctx = subscribed_cm(), make_ctx(anchors=())
        msg = to_cm(ProcedureKind.SLICE_SELECT,
                    {"device": "d1", "slice": "slice-a", "node": "n1"},
                    source=Endpoint(Role.CM, "CM.global.1"), ctx=ctx)
        _, drafts, events = cm_handle(state, msg, ctx)
        assert drafts == []
        assert events[-1] == BlockEvent("error", "d1", {
            "error": "NoDPlaneFunctionError",
            "detail": "slice slice-a exposes no anchor candidate for node n1"})
        assert "d1" not in state.device_table   # detached
        assert state.sessions == {}

    def test_flow_request_for_an_unattached_device_is_refused(self):
        msg = to_cm(ProcedureKind.SESSION_ESTABLISH,
                    {"device": "d1", "flow": "f1"}, corr="d1:session:1")
        assert cm_handle(subscribed_cm(), msg, make_ctx())[1:] == ([], [
            BlockEvent("error", "d1", {"error": "IllegalEventError",
                                       "detail": "traffic for unattached device"})])

    def test_flow_reply_for_an_unknown_session_is_dropped(self):
        ctx = make_ctx()
        msg = to_cm(ProcedureKind.SESSION_ESTABLISH,
                    {"session": "s-9", "phase": "flow-ok", "flow": "f1"},
                    source=ctx.peer_endpoint(Role.FM), corr="d1:session:1")
        assert cm_handle(subscribed_cm(), msg, ctx)[1:] == ([], [])

    def test_release_of_an_unknown_session_is_refused(self):
        msg = to_cm(ProcedureKind.SESSION_RELEASE,
                    {"device": "d1", "scope": "flow", "flow": "f1"},
                    corr="d1:session:2")
        assert cm_handle(subscribed_cm(), msg, make_ctx())[1:] == ([], [
            BlockEvent("error", "d1", {"error": "IllegalEventError",
                                       "detail": "release for unknown session"})])


def with_session(flow="f1"):
    state = CMState()
    state.sessions["s-1"] = SessionRecord("s-1", "d1", "a1", "n1", [flow])
    state.device_sessions["d1"] = "s-1"
    return state


def context_notify(ctx, subject="f1", statement="latency_above_normal"):
    return to_cm(ProcedureKind.CONTEXT_NOTIFY,
                 {"topic": "dplane-latency", "subject": subject,
                  "statement": statement},
                 source=ctx.peer_endpoint(Role.CGHF), corr="ctx:1", ctx=ctx)


class TestCmReselection:
    def test_other_statements_are_ignored(self):
        ctx = make_ctx()
        assert cm_handle(with_session(), context_notify(
            ctx, statement="load_above_normal"), ctx)[1:] == ([], [])

    def test_context_about_an_unknown_flow_is_ignored(self):
        ctx = make_ctx()
        assert cm_handle(with_session(), context_notify(ctx, subject="f9"),
                         ctx)[1:] == ([], [])

    def test_no_other_anchor_makes_reselection_impossible(self):
        ctx = make_ctx(anchors=("a1",))
        state = with_session()
        assert cm_handle(state, context_notify(ctx), ctx)[1:] == ([], [
            BlockEvent("reselect-impossible", "d1", {"flow": "f1", "anchor": "a1"})])
        assert state.reanchor_counter == 0
