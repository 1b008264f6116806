"""Interface routing, message validation and trace serialization."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.errors import NoInterfaceError, SchemaError
from slicesim.messages import (
    CN_BB_ROLES, PAYLOAD_SCHEMAS, Endpoint, InterfacePoint, ProcedureKind,
    Role, SignalMessage, Verdict, block_id, draft,
    mint_key_material, mint_pseudonym, route_interface_for, validate_message,
)
from slicesim.trace import (
    EventRecord, MessageRecord, iter_trace, parse_trace, render_trace,
    trace_check,
)

UE = Endpoint(Role.UE, "d1")
AF = Endpoint(Role.AF, block_id(Role.AF, "s"))
CM = Endpoint(Role.CM, block_id(Role.CM, "s"))
FM = Endpoint(Role.FM, block_id(Role.FM, "s"))
DP = Endpoint(Role.D_PLANE, "s:n1")


#: Payload fields that no receiver read, or that copied a fact the receiver
#: holds, deleted from their kind's schema.
DELETED_FIELDS = [
    (ProcedureKind.ATTACH_REQUEST, "area"),
    (ProcedureKind.AUTH_CHALLENGE, "scheme"),
    *((ProcedureKind.AUTH_RESPONSE, f) for f in ("ordinal", "low_secure",
                                                 "reason")),
    *((ProcedureKind.SLICE_SELECT, f) for f in ("slice", "pseudonym",
                                                "ordinal", "token", "area",
                                                "mode")),
    *((ProcedureKind.SESSION_ESTABLISH, f) for f in ("rate", "duration",
                                                     "ok")),
    *((ProcedureKind.HANDOVER_PREPARE, f) for f in ("ok", "tech", "area")),
    *((ProcedureKind.HANDOVER_EXECUTE, f) for f in ("area", "session",
                                                    "tech")),
    *((ProcedureKind.PATH_RECORD_UPDATE, f) for f in ("tech", "event")),
    *((ProcedureKind.PAGE, f) for f in ("reason", "area")),
    (ProcedureKind.LOCATION_UPDATE, "mode"),
    (ProcedureKind.FLOW_CONFIGURE, "node"),
    (ProcedureKind.FLOW_NOTIFY, "action"),
    *((ProcedureKind.CONTEXT_PUBLISH, f) for f in ("source", "external")),
    (ProcedureKind.CONTEXT_NOTIFY, "topic"),
]


def msg(kind, src, dst, iface, payload=None, corr="d1:attach:1"):
    return SignalMessage(kind=kind, source=src, destination=dst,
                         interface=iface, correlation_id=corr,
                         payload=payload or {})


class TestRouting:
    def test_direct_device_signalling_uses_i2(self):
        assert route_interface_for(Role.UE, Role.CM) is InterfacePoint.I2

    def test_mediated_path_splits_into_i1_and_i3(self):
        assert route_interface_for(Role.UE, Role.AF) is InterfacePoint.I1
        assert route_interface_for(Role.AF, Role.CM) is InterfacePoint.I3

    def test_core_blocks_use_inter_bb(self):
        assert route_interface_for(Role.CM, Role.FM) is InterfacePoint.INTER_BB

    def test_southbound_is_fm_only(self):
        assert route_interface_for(Role.FM, Role.D_PLANE) is InterfacePoint.I4_SBI
        with pytest.raises(NoInterfaceError):
            route_interface_for(Role.CM, Role.D_PLANE)

    def test_device_to_dplane_undefined(self):
        with pytest.raises(NoInterfaceError):
            route_interface_for(Role.UE, Role.D_PLANE)

    def test_draft_between_roles_no_interface_joins_is_refused(self):
        with pytest.raises(NoInterfaceError, match="UE->DP"):
            draft(ProcedureKind.FLOW_NOTIFY, Endpoint(Role.UE, "d1"),
                  Endpoint(Role.D_PLANE, "s:probe"), "d1:x:1", {})

    def test_draft_routes_every_joined_pair(self):
        for source in Role:
            for destination in Role:
                try:
                    routed = route_interface_for(source, destination)
                except NoInterfaceError:
                    continue
                drafted = draft(ProcedureKind.PAGE, Endpoint(source, "x"),
                                Endpoint(destination, "y"), "c", {"k": 1})
                assert type(drafted) is SignalMessage
                assert drafted == msg(ProcedureKind.PAGE, Endpoint(source, "x"),
                                      Endpoint(destination, "y"), routed,
                                      {"k": 1}, corr="c")

    def test_draft_keeps_the_payload_it_is_handed(self):
        payload = {"device": "d1", "node": "n1"}
        drafted = draft(ProcedureKind.PAGE, CM, AF, "d1:page:1", payload)
        assert drafted.payload is payload
        assert draft(ProcedureKind.PAGE, CM, AF, "d1:page:1").payload == {}

    def test_other_domain_crossing_is_i7(self):
        assert route_interface_for(Role.CM, Role.OTHER_DOMAIN) is InterfacePoint.I7

    def test_routed_interface_is_the_only_valid_one(self):
        for source in Role:
            for destination in Role:
                valid = {iface for iface in InterfacePoint if validate_message(
                    msg(ProcedureKind.PAGE, Endpoint(source, "x"),
                        Endpoint(destination, "y"), iface))}
                try:
                    routed = {route_interface_for(source, destination)}
                except NoInterfaceError:
                    routed = set()
                assert valid == routed, (source, destination)


def test_record_fields_are_the_message_fields_between_trace_and_delivery():
    # `draft` and the engine build both tuples with tuple.__new__, which
    # checks no arity: the record must be the message with these fields
    # before and after it
    assert SignalMessage._fields == ("kind", "source", "destination",
                                     "interface", "correlation_id", "payload")
    assert MessageRecord._fields == (("seq", "tick") + SignalMessage._fields
                                     + ("hop_count", "mediators", "recipients"))


class TestValidateMessage:
    def test_attach_on_i2_accepted(self):
        verdict = validate_message(msg(
            ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I2,
            {"device": "d1", "alias": "imsi-1", "proof": "p"}))
        assert verdict.ok

    def test_attach_on_i1_toward_cm_rejected(self):
        verdict = validate_message(msg(
            ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I1))
        assert not verdict.ok
        assert any("I1 is UE<->AF" in v for v in verdict.violations)

    def test_flow_configure_on_sbi_accepted(self):
        verdict = validate_message(msg(
            ProcedureKind.FLOW_CONFIGURE, FM, DP, InterfacePoint.I4_SBI,
            {"flow": "f1", "action": "install"}))
        assert verdict.ok

    def test_payload_outside_schema_rejected(self):
        verdict = validate_message(msg(
            ProcedureKind.PAGE, CM, FM, InterfacePoint.INTER_BB,
            {"device": "d1", "surprise": 1}))
        assert not verdict.ok

    # `diag` rode every kind, `config` carried an access-node configuration
    # and `external` tagged a ContextPublish from another domain; no block
    # sends any of them, so no schema lists them
    @pytest.mark.parametrize("field", ["diag", "config"])
    def test_unsent_field_rejected_on_flow_configure(self, field):
        verdict = validate_message(msg(
            ProcedureKind.FLOW_CONFIGURE, FM, DP, InterfacePoint.I4_SBI,
            {"flow": "f1", "action": "install", field: "power"}))
        assert verdict.violations == (
            f"payload fields ['{field}'] outside FlowConfigure schema",)

    @pytest.mark.parametrize("field", ["diag", "external"])
    def test_deleted_field_in_no_schema(self, field):
        assert all(field not in fields for fields in PAYLOAD_SCHEMAS.values())

    @pytest.mark.parametrize("kind, field", DELETED_FIELDS,
                             ids=[f"{k.value}.{f}" for k, f in DELETED_FIELDS])
    def test_deleted_field_rejected(self, kind, field):
        verdict = validate_message(msg(
            kind, FM, CM, InterfacePoint.INTER_BB, {field: True}))
        assert verdict.violations == (
            f"payload fields ['{field}'] outside {kind.value} schema",)

    def test_i7_joins_the_core_to_another_domain(self):
        ext = Endpoint(Role.OTHER_DOMAIN, "peer")
        assert validate_message(msg(
            ProcedureKind.PAGE, CM, ext, InterfacePoint.I7)).ok
        verdict = validate_message(msg(
            ProcedureKind.PAGE, UE, ext, InterfacePoint.I7))
        assert verdict.violations == ("interface-role mismatch: I7 crosses domains",)

    def test_enum_members_print_as_their_values(self):
        for enum in (Role, InterfacePoint, ProcedureKind):
            assert [str(m) for m in enum] == [m.value for m in enum]

    def test_wbi_is_not_a_message_interface(self):
        verdict = validate_message(msg(
            ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.WBI_COMPOSITE))
        assert not verdict.ok


class TestIdentityMinting:
    def test_pseudonyms_differ_across_seeds_and_ordinals(self):
        p1 = mint_pseudonym(7, "imsi-1", 1)
        assert p1 == mint_pseudonym(7, "imsi-1", 1)
        assert p1 != mint_pseudonym(8, "imsi-1", 1)
        assert p1 != mint_pseudonym(7, "imsi-1", 2)
        assert p1 != mint_pseudonym(7, "imsi-2", 1)

    def test_key_material_separate_from_pseudonym_space(self):
        assert mint_key_material(7, "d1", 1).startswith("key-")
        assert mint_pseudonym(7, "d1", 1).startswith("psn-")


class TestTraceSerialization:
    def records(self):
        attach = msg(ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I2,
                     {"device": "d1", "alias": "imsi-1", "proof": "p"})
        notify = SignalMessage(
            kind=ProcedureKind.CONTEXT_NOTIFY,
            source=Endpoint(Role.CGHF, block_id(Role.CGHF, "s")),
            destination=Endpoint(Role.TOPIC, "dplane-latency"),
            interface=InterfacePoint.INTER_BB, correlation_id="s:context:1",
            payload={"topic": "dplane-latency", "subject": "f1",
                     "statement": "latency_above_normal"})
        return [
            MessageRecord(1, 0, *attach),
            EventRecord(seq=2, tick=0, kind="transition", subject="d1",
                        detail={"from": "detached", "to": "authenticating"}),
            MessageRecord(3, 1, *notify, hop_count=2,
                          mediators=("PS.s.1",), recipients=("CM.s.1",)),
        ]

    def test_round_trip(self):
        records = self.records()
        text = render_trace(records)
        assert parse_trace(text) == records

    def test_rendering_is_stable(self):
        text1 = render_trace(self.records())
        text2 = render_trace(self.records())
        assert text1 == text2

    def test_malformed_line_rejected(self):
        with pytest.raises(SchemaError):
            parse_trace("MSG|1|2|oops\n")

    def test_bad_field_rejected_with_its_line(self):
        with pytest.raises(SchemaError, match=r"^t\.log:2: malformed EVT"):
            parse_trace("EVT|1|0|x|s|{}\nEVT|two|0|x|s|{}\n", source="t.log")

    def test_blank_lines_are_skipped(self):
        text = render_trace(self.records())
        assert parse_trace("\n" + text.replace("\n", "\n\n")) == self.records()

    def test_unknown_record_tag_rejected_with_its_line(self):
        with pytest.raises(SchemaError,
                           match=r"^t\.log:2: unknown record tag 'LOG'$"):
            parse_trace("EVT|1|0|x|s|{}\nLOG|2|0\n", source="t.log")

    def test_every_role_round_trips_through_its_text(self):
        for role in Role:
            endpoint = Endpoint(role, "x.y:z")
            assert Endpoint.parse(str(endpoint)) == endpoint
        assert str(Endpoint(Role.TOPIC, "t")) == "topic:t"

    def test_iter_trace_streams_file_lines(self):
        text = render_trace(self.records())
        lines = iter(text.splitlines(keepends=True))
        stream = iter_trace(lines)
        assert next(stream) == self.records()[0]
        assert list(stream) == self.records()[1:]


class TestTraceCheck:
    def test_clean_trace_passes(self):
        attach = msg(ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I2,
                     {"device": "d1", "alias": "imsi-1", "proof": "p"})
        records = [
            MessageRecord(1, 0, *attach),
            EventRecord(seq=2, tick=0, kind="auth", subject="d1",
                        detail={"ok": True}),
        ]
        assert trace_check(records) == []

    def test_sequence_regression_detected(self):
        records = [
            EventRecord(seq=2, tick=0, kind="x", subject="s", detail={}),
            EventRecord(seq=1, tick=0, kind="x", subject="s", detail={}),
        ]
        assert any("not ordered after" in v for v in trace_check(records))

    def test_duplicate_sequence_detected(self):
        records = [
            EventRecord(seq=1, tick=0, kind="x", subject="s", detail={}),
            EventRecord(seq=1, tick=1, kind="x", subject="s", detail={}),
        ]
        assert any("duplicate sequence" in v for v in trace_check(records))

    def test_permanent_identity_leak_detected(self):
        attach = msg(ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I2,
                     {"device": "d1", "alias": "imsi-1", "proof": "p"})
        leak = msg(ProcedureKind.LOCATION_UPDATE, UE,
                   Endpoint(Role.MM, block_id(Role.MM, "s")), InterfacePoint.I2,
                   {"device": "d1", "phase": "idle", "node": "imsi-1"},
                   corr="d1:idle:1")
        records = [
            MessageRecord(1, 0, *attach),
            EventRecord(seq=2, tick=1, kind="auth", subject="d1",
                        detail={"ok": True}),
            MessageRecord(3, 2, *leak),
        ]
        assert any("permanent identity" in v for v in trace_check(records))

    def test_interface_mismatch_detected(self):
        bad = msg(ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I1,
                  {"device": "d1"})
        records = [MessageRecord(1, 0, *bad)]
        assert any("I1 is UE<->AF" in v for v in trace_check(records))

    def test_violations_follow_authentication_order(self):
        # d2 and d1 share one first alias; d2 authenticates first.
        records = [
            MessageRecord(1, 0, *msg(
                ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I2,
                {"device": "d1", "alias": "imsi-1"})),
            MessageRecord(2, 0, *msg(
                ProcedureKind.ATTACH_REQUEST, UE, CM, InterfacePoint.I2,
                {"device": "d2", "alias": "imsi-1"})),
            EventRecord(seq=3, tick=1, kind="auth", subject="d2",
                        detail={"ok": True}),
            EventRecord(seq=4, tick=1, kind="auth", subject="d1",
                        detail={"ok": True}),
            MessageRecord(5, 2, *msg(
                ProcedureKind.LOCATION_UPDATE, UE, CM, InterfacePoint.I2,
                {"device": "d1", "node": ["n1", {"area": "imsi-1"}]})),
        ]
        assert trace_check(records) == [
            "seq 5: permanent identity of d2 on I2 after first authentication",
            "seq 5: permanent identity of d1 on I2 after first authentication",
        ]


# -- the quadratic audit that trace_check replaced, kept as its oracle -------

def _payload_mentions(payload, value):
    if isinstance(payload, str):
        return payload == value
    if isinstance(payload, dict):
        return any(_payload_mentions(v, value) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return any(_payload_mentions(v, value) for v in payload)
    return False


def quadratic_trace_check(records):
    violations = []
    last_key = (-1, -1)
    seen_seqs = set()
    first_alias = {}
    authenticated = set()
    for rec in records:
        key = (rec.tick, rec.seq)
        if key <= last_key:
            violations.append(
                f"record (tick={rec.tick}, seq={rec.seq}) not ordered after "
                f"(tick={last_key[0]}, seq={last_key[1]})")
        last_key = key
        if rec.seq in seen_seqs:
            violations.append(f"duplicate sequence number {rec.seq}")
        seen_seqs.add(rec.seq)
        if isinstance(rec, EventRecord):
            if rec.kind == "auth" and rec.detail.get("ok"):
                authenticated.add(rec.subject)
            continue
        msg = rec
        verdict = validate_message(msg)
        if not verdict:
            violations.extend(f"seq {rec.seq}: {v}" for v in verdict.violations)
        if msg.kind is ProcedureKind.ATTACH_REQUEST and not msg.payload.get("reattach"):
            device = msg.payload.get("device")
            alias = msg.payload.get("alias")
            if isinstance(device, str) and isinstance(alias, str):
                first_alias.setdefault(device, alias)
        if msg.interface in (InterfacePoint.I1, InterfacePoint.I2, InterfacePoint.I3):
            for device in authenticated:
                alias = first_alias.get(device)
                if alias and _payload_mentions(dict(msg.payload), alias):
                    violations.append(
                        f"seq {rec.seq}: permanent identity of {device} on "
                        f"{msg.interface.value} after first authentication")
    return violations


DEVICES = st.sampled_from(["d1", "d2", "d3"])
# Two main aliases over three devices, so first aliases are often shared,
# plus empty and non-string ones.
ALIASES = st.sampled_from(["imsi-1", "imsi-2", "imsi-1", "imsi-2", "", None, 7])
VALUES = st.recursive(
    ALIASES | st.sampled_from(["n1", "d1"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=2).map(tuple)
                   | st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2)),
    max_leaves=6)
ENDPOINTS = st.sampled_from([UE, AF, CM, FM])
ANONYMOUS = [InterfacePoint.I1, InterfacePoint.I2, InterfacePoint.I3]
INTERFACES = st.sampled_from(ANONYMOUS * 3 + list(InterfacePoint))


@st.composite
def audit_records(draw):
    """Records in any (tick, seq) order: attach requests, with or without
    reattach, auth verdicts, other events and messages on every interface
    carrying aliases at any depth."""
    records = []
    for _ in range(draw(st.integers(0, 25))):
        tick, seq = draw(st.integers(0, 5)), draw(st.integers(1, 40))
        what = draw(st.sampled_from(["attach", "auth", "event", "message"]))
        if what == "auth":
            records.append(EventRecord(seq=seq, tick=tick, kind="auth",
                                       subject=draw(DEVICES),
                                       detail={"ok": draw(st.sampled_from(
                                           [True, True, False]))}))
        elif what == "event":
            records.append(EventRecord(seq=seq, tick=tick, kind="transition",
                                       subject=draw(DEVICES), detail={}))
        else:
            payload = draw(st.dictionaries(
                st.sampled_from(["node", "area", "flow"]), VALUES, max_size=3))
            kind = ProcedureKind.LOCATION_UPDATE
            if what == "attach":
                kind = ProcedureKind.ATTACH_REQUEST
                payload.update(device=draw(DEVICES), alias=draw(ALIASES))
                if draw(st.integers(0, 3)) == 0:
                    payload["reattach"] = True
            records.append(MessageRecord(seq, tick, *msg(
                kind, draw(ENDPOINTS), draw(ENDPOINTS),
                draw(INTERFACES), payload)))
    return records


@settings(max_examples=100, deadline=None)
@given(audit_records())
def test_linear_audit_matches_the_quadratic_oracle(records):
    violations = trace_check(records)
    assert Counter(violations) == Counter(quadratic_trace_check(records))
    assert trace_check(records) == violations
    assert trace_check(rec for rec in records) == violations


# -- the chain of interface checks that the role table replaced --------------

def chained_validate_message(msg):
    violations = []
    if msg.kind not in PAYLOAD_SCHEMAS:
        violations.append(f"unknown kind {msg.kind!r}")
    else:
        extra = set(msg.payload) - PAYLOAD_SCHEMAS[msg.kind]
        if extra:
            violations.append(f"payload fields {sorted(extra)} outside {msg.kind.value} schema")
    if not msg.correlation_id:
        violations.append("empty correlation_id")
    if msg.destination.role is Role.TOPIC:
        if msg.interface is not InterfacePoint.INTER_BB:
            violations.append("topic messages travel inter-BB")
        if msg.source.role not in CN_BB_ROLES:
            violations.append("topic publisher must be a core block")
        return Verdict(not violations, tuple(violations))

    pair = {msg.source.role, msg.destination.role}
    iface = msg.interface
    if iface is InterfacePoint.WBI_COMPOSITE:
        violations.append("WBI is a reporting composite, not a message interface")
    elif iface is InterfacePoint.I1:
        if pair != {Role.UE, Role.AF} and pair != {Role.ACCESS_NODE, Role.AF}:
            violations.append("interface-role mismatch: I1 is UE<->AF")
    elif iface is InterfacePoint.I2:
        if Role.UE not in pair or not pair & CN_BB_ROLES:
            violations.append("interface-role mismatch: I2 is UE<->CN C-plane")
    elif iface is InterfacePoint.I3:
        if Role.AF not in pair or not pair & CN_BB_ROLES:
            violations.append("interface-role mismatch: I3 is AF<->CN C-plane")
    elif iface is InterfacePoint.I4_SBI:
        if pair != {Role.FM, Role.D_PLANE}:
            violations.append("interface-role mismatch: I4 is FM<->D-plane")
    elif iface is InterfacePoint.I7:
        if Role.OTHER_DOMAIN not in pair or not pair & CN_BB_ROLES:
            violations.append("interface-role mismatch: I7 crosses domains")
    elif iface is InterfacePoint.INTER_BB:
        if not pair <= CN_BB_ROLES:
            violations.append("interface-role mismatch: InterBB is CN block to CN block")
    return Verdict(not violations, tuple(violations))


@pytest.mark.parametrize("kind", list(ProcedureKind), ids=str)
def test_role_table_matches_the_chained_checks(kind):
    """Every interface x source role x destination role (a topic included)
    x correlation x payload with and without a field outside the schema."""
    inside = {sorted(PAYLOAD_SCHEMAS[kind])[0]: 1}
    payloads = (inside, {**inside, "surprise": 1})
    destinations = [Endpoint(role, "y") for role in Role]
    checked = 0
    for interface in InterfacePoint:
        for source in Role:
            for destination in destinations:
                for corr in ("", "d1:attach:1"):
                    for payload in payloads:
                        message = msg(kind, Endpoint(source, "x"), destination,
                                      interface, payload, corr=corr)
                        assert validate_message(message) == \
                            chained_validate_message(message), message
                        checked += 1
    assert checked == len(InterfacePoint) * len(Role) * len(Role) * 4
