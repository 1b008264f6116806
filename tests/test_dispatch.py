"""The per-kind dispatch contract: each block, device and plane handler
calls the function its table holds for a message's kind, and a kind its
table lacks is a no-op, never a `KeyError` and never a trace line."""

import pytest

from slicesim import engine, netsim
from slicesim.blocks import af, cghf, cm, fm, mm, sam
from slicesim.engine import Environment, load_scenario
from slicesim.messages import Endpoint, ProcedureKind, Role, draft

from conftest import CORPUS, scenario_path

#: Per handler role, its per-kind table.  The AF's is its core-side one;
#: its device side is checked on its own below.
TABLES = {
    Role.AF: af.DOWNLINK, Role.CM: cm.BY_KIND, Role.MM: mm.BY_KIND,
    Role.SAM: sam.BY_KIND, Role.FM: fm.BY_KIND, Role.CGHF: cghf.BY_KIND,
    Role.UE: netsim.DEVICE_BY_KIND, Role.D_PLANE: netsim.PLANE_BY_KIND,
}

K = ProcedureKind

#: Per handler role, the kinds it serves: what each block, a device and a
#: plane take.
SERVED = {
    Role.AF: {K.PAGE, K.PATH_RECORD_UPDATE, K.SLICE_REDIRECT,
              K.HANDOVER_EXECUTE},
    Role.CM: {K.ATTACH_REQUEST, K.AUTH_RESPONSE, K.SLICE_SELECT,
              K.SESSION_ESTABLISH, K.SESSION_RELEASE, K.CONTEXT_NOTIFY},
    Role.MM: {K.HANDOVER_PREPARE, K.HANDOVER_EXECUTE, K.PAGE,
              K.LOCATION_UPDATE},
    Role.SAM: {K.AUTH_CHALLENGE},
    Role.FM: {K.SESSION_ESTABLISH, K.HANDOVER_PREPARE, K.SESSION_RELEASE,
              K.FLOW_NOTIFY},
    Role.CGHF: {K.CONTEXT_PUBLISH},
    Role.UE: {K.SLICE_REDIRECT, K.HANDOVER_EXECUTE},
    Role.D_PLANE: {K.FLOW_CONFIGURE},
}

#: The device-side kinds the AF forwards to a core block.
AF_UPLINK = {K.ATTACH_REQUEST, K.SESSION_ESTABLISH, K.SESSION_RELEASE,
             K.HANDOVER_PREPARE, K.HANDOVER_EXECUTE, K.LOCATION_UPDATE}

#: Per handler role, a role that some interface joins to it.
SENDERS = {
    Role.AF: Role.CM, Role.CM: Role.SAM, Role.MM: Role.CM, Role.SAM: Role.CM,
    Role.FM: Role.CM, Role.CGHF: Role.FM, Role.UE: Role.MM,
    Role.D_PLANE: Role.FM,
}


@pytest.fixture(scope="module")
def entries() -> dict:
    """Per handler role, a routing entry of a corpus run's set-up: its
    state and its context."""
    found: dict = {}
    for name in CORPUS:
        env = Environment(load_scenario(scenario_path(f"{name}.scn")), 7)
        for entry in env._route.values():
            found.setdefault(entry[1], entry)
    return found


def test_every_handler_role_has_a_table():
    assert set(TABLES) == set(engine._HANDLERS) == set(SENDERS)


def test_each_table_serves_its_kinds():
    assert {role: set(table) for role, table in TABLES.items()} == SERVED
    assert set(af.UPLINK) == AF_UPLINK


def _unserved(role: Role) -> list:
    kinds = [kind for kind in ProcedureKind if kind not in TABLES[role]]
    assert kinds
    return kinds


@pytest.mark.parametrize("role", list(TABLES), ids=lambda r: r.value)
def test_a_kind_without_a_handler_is_ignored(entries, role):
    _, _, state, ctx, _, _ = entries[role]
    before = engine._normalize(state)
    source = Endpoint(SENDERS[role], "sender")
    destination = Endpoint(role, ctx.self_id or "d1")
    for kind in _unserved(role):
        msg = draft(kind, source, destination, "d1:test:1", {})
        result = engine._HANDLERS[role](state, msg, ctx)
        assert result == (state, [], []) and result[0] is state, kind
    assert engine._normalize(state) == before


def test_the_af_traces_a_device_kind_without_a_core_target(entries):
    _, _, state, ctx, _, _ = entries[Role.AF]
    before = engine._normalize(state)
    source = Endpoint(Role.UE, "d1")
    for kind in ProcedureKind:
        if kind in af.UPLINK:
            continue
        msg = draft(kind, source, ctx.self_endpoint, "d1:test:1",
                    {"device": "d1"})
        _, drafts, events = af.af_handle(state, msg, ctx)
        assert drafts == [], kind
        assert [(e.subject, e.detail) for e in events] == [
            ("d1", {"error": "NoInterfaceError",
                    "detail": f"no uplink mapping for {kind.value}"})]
    assert engine._normalize(state) == before


@pytest.mark.parametrize("role", list(TABLES), ids=lambda r: r.value)
def test_each_served_kind_reaches_its_table_entry(entries, role, monkeypatch):
    """The handler calls the table entry of the message's kind with the
    state, the message, the context and two fresh lists, and returns the
    state with those lists."""
    _, _, state, ctx, _, _ = entries[role]
    source = Endpoint(SENDERS[role], "sender")
    destination = Endpoint(role, ctx.self_id or "d1")
    calls: list = []
    table = TABLES[role]
    for kind in list(table):
        def recording(*args, kind=kind):
            calls.append((kind, args))
            args[3].append(f"draft of {kind.value}")
        monkeypatch.setitem(table, kind, recording)
    for kind in list(table):
        msg = draft(kind, source, destination, "d1:test:1", {})
        returned, drafts, events = engine._HANDLERS[role](state, msg, ctx)
        assert returned is state
        assert drafts == [f"draft of {kind.value}"] and events == []
        [(called, args)] = calls
        assert called is kind and len(args) == 5
        assert all(a is b for a, b in zip(args, (state, msg, ctx, drafts,
                                                 events)))
        calls.clear()
