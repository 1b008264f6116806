"""Security/AAA and connectivity-management state machine tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.blocks.cm import (
    CMRole, CMState, ConvergentState, PendingAttach, SliceChoice, Subscription,
    _transition, cm_attach, cm_select_slice_global, cm_select_slice_local,
    select_anchor,
)
from slicesim.blocks.common import (
    AccessNodeInfo, AuthScheme, BlockContext, SlicePolicy, Tech,
)
from slicesim.blocks.sam import IdentityRecord, SAMState, sam_authenticate
from slicesim.errors import (
    IllegalTransitionError, NoDPlaneFunctionError,
    NoEligibleSliceError,
)
from slicesim.messages import BBInstanceId, ProcedureKind, Role

from conftest import NoContextError, sam_single_sign_on


def make_ctx(role=Role.CM, slice_id="slice-a", anchors=("a1", "a2"),
             latencies=None, policy=None, peers=None, tick=0):
    access = {
        "n1": AccessNodeInfo("n1", Tech.CELLULAR, "area-1", "i1"),
        "n2": AccessNodeInfo("n2", Tech.WIFI, "area-1", "i2"),
    }
    default_latency = {("i1", "a1"): 3, ("i1", "a2"): 5,
                       ("i2", "a1"): 4, ("i2", "a2"): 2}
    peers = peers or {r: str(BBInstanceId(r, slice_id))
                      for r in (Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM, Role.CGHF)}
    return BlockContext(
        slice_id=slice_id, self_id=str(BBInstanceId(role, slice_id)),
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
        assert verdict.ordinal == 1
        assert verdict.pseudonym.startswith("psn-")
        assert state.security_contexts["d1"].ordinal == 1
        assert len(state.audit_log) == 1 and state.audit_log[0].ok

    def test_wrong_credentials_fail_with_audit(self):
        state = sam_with()
        verdict = sam_authenticate(state, "d1", "imsi-001", "wrong",
                                   AuthScheme.FULL, seed=7, tick=1)
        assert not verdict.ok
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
        assert second.ok and second.ordinal == 2
        assert second.pseudonym != first.pseudonym
        assert first.pseudonym not in state.pseudonym_map
        assert state.pseudonym_map[second.pseudonym] == "imsi-001"

    def test_low_secure_scheme_flags_the_context(self):
        state = sam_with()
        verdict = sam_authenticate(state, "d1", "imsi-001", "tok-1",
                                   AuthScheme.LOW_SECURE, seed=7, tick=1)
        assert verdict.ok and verdict.low_secure
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


def pending(device="d1", node="n1", accesses=(), tech="cellular", method=2,
            direct=True):
    return PendingAttach(device=device, alias="psn-x", accesses=tuple(accesses),
                         node=node, area="area-1", tech=tech, method=method,
                         direct=direct)


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
        drafts, events = cm_attach(state, pending(), True, ctx, "d1:attach:1")
        record = state.sessions[state.device_sessions["d1"]]
        assert record.anchor == "a1"
        assert drafts[0].kind is ProcedureKind.SESSION_ESTABLISH
        assert drafts[0].payload["phase"] == "register"

    def test_anchor_choice_respects_the_device_ingress(self):
        ctx = make_ctx()
        assert select_anchor(ctx, "n2") == "a2"

    def test_auth_failure_leaves_device_detached_with_no_addresses(self):
        state = authenticating_state()
        drafts, events = cm_attach(state, pending(), False, make_ctx(), "c1")
        assert state.device_table["d1"] is ConvergentState.DETACHED
        assert "d1" not in state.addresses
        assert drafts == []
        assert any(e.kind == "attach-denied" for e in events)

    def test_two_requested_accesses_allocate_two_addresses(self):
        state = authenticating_state()
        cm_attach(state, pending(accesses=("cellular", "wifi")), True,
                  make_ctx(), "c1")
        assert len(state.addresses["d1"]) == 2

    def test_no_anchor_candidates_raises(self):
        state = authenticating_state()
        ctx = make_ctx(anchors=())
        with pytest.raises(NoDPlaneFunctionError):
            cm_attach(state, pending(), True, ctx, "c1")

    def test_illegal_edge_raises_a_domain_error(self):
        state = CMState()
        state.device_table["d1"] = ConvergentState.ATTACHED
        events = []
        with pytest.raises(IllegalTransitionError,
                           match="illegal edge attached->authenticating"):
            _transition(state, "d1", ConvergentState.AUTHENTICATING, events,
                        "slice-a")
        assert state.device_table["d1"] is ConvergentState.ATTACHED
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
