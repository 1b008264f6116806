"""The dispatch contract: each block, device and plane handler calls the
function its table holds for a message's kind, and a kind its table lacks
is a no-op, never a `KeyError` and never a trace line.  A device reacts to
a script action by its entry of `netsim.DEVICE_BY_ACTION`, which needs a
context and no engine."""

import pytest

from slicesim import engine, netsim
from slicesim.blocks import af, cghf, cm, fm, mm, sam
from slicesim.blocks.common import (
    AccessNodeInfo, BlockContext, BlockEvent, SlicePolicy, Tech,
)
from slicesim.engine import Environment, ScriptEvent, load_scenario
from slicesim.messages import Endpoint, ProcedureKind, Role, block_id, draft

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


def test_the_engine_runs_only_the_environment_actions():
    """Every script action but a teardown and a latency injection is a
    device's, served by `netsim.DEVICE_BY_ACTION`."""
    assert set(engine._ACTIONS) == \
        set(netsim.DEVICE_BY_ACTION) | {"teardown", "inject-latency"}
    assert set(ACTIONS) == set(netsim.DEVICE_BY_ACTION)


def _device(bound_slice=None) -> netsim.SimDevice:
    spec = netsim.DeviceSpec("d1", "imsi-1", "tok-d1", ("s1", "s2"), "s1",
                             netsim.SignalingMode.DIRECT, "n1")
    return netsim.SimDevice(spec=spec, bound_slice=bound_slice)


def _device_context() -> BlockContext:
    """A devices' context built by hand: slice s1 deploys an MM, s2 none."""
    access = {n: AccessNodeInfo(n, Tech.CELLULAR, "area-1", f"i{n[1:]}")
              for n in ("n1", "n2")}
    topology = netsim.TopologySpec("t", {}, {}, access)
    return BlockContext(
        slice_id=None, self_id="", role=Role.UE, tick=0, seed=7, peers={},
        policy=SlicePolicy(), access_nodes=access,
        global_cm=block_id(Role.CM, "global"),
        slice_directory={"s1": {r: block_id(r, "s1") for r in (Role.CM, Role.MM)},
                         "s2": {Role.CM: block_id(Role.CM, "s2")}},
        planes={s: netsim.DPlane(topology) for s in ("s1", "s2")})


def _to(role: Role, slice_id: str = "s1") -> Endpoint:
    return Endpoint(role, block_id(role, slice_id))


UE = Endpoint(Role.UE, "d1")

#: Per script action, its event's arguments and options, the slice its
#: device is attached to, and the (kind, source, destination, correlation,
#: payload) of each draft it appends; it appends no event.
ACTIONS = {
    "attach": (("d1",), {"method": 2, "accesses": ("wifi",)}, None, [
        (K.ATTACH_REQUEST, UE, _to(Role.CM), "d1:attach:1",
         {"device": "d1", "alias": "imsi-1", "accesses": ["wifi"],
          "node": "n1", "tech": "cellular", "method": 2, "proof": "tok-d1"})]),
    "detach": (("d1",), {}, "s1", [
        (K.SESSION_RELEASE, UE, _to(Role.CM), "d1:detach:1",
         {"device": "d1", "scope": "detach"})]),
    "move": (("d1", "n2"), {}, "s1", [
        (K.HANDOVER_PREPARE, UE, _to(Role.MM), "d1:handover:1",
         {"device": "d1", "node": "n2"})]),
    "traffic-start": (("d1",), {"flow": "f1", "rate": 2, "duration": 3},
                      "s1", [
        (K.SESSION_ESTABLISH, UE, _to(Role.CM), "d1:session:1",
         {"device": "d1", "flow": "f1", "qos": "default", "node": "n1"})]),
    "traffic-stop": (("d1",), {"flow": "f1"}, "s1", [
        (K.SESSION_RELEASE, UE, _to(Role.CM), "d1:session:1",
         {"device": "d1", "scope": "flow", "flow": "f1"})]),
    "idle": (("d1",), {}, "s1", [
        (K.LOCATION_UPDATE, UE, _to(Role.MM), "d1:idle:1",
         {"device": "d1", "phase": "idle"})]),
    "page": (("d1",), {}, "s1", [
        (K.PAGE, _to(Role.CM), _to(Role.MM), "d1:page:1", {"device": "d1"})]),
}

#: Per refused script action: its event's arguments, the slice its device
#: is attached to, the attach it has under way and the error traced.
REFUSED = [
    ("attach", ("d1",), "s1", None, {"error": "IllegalEventError",
                                     "detail": "attach while attached"}),
    ("attach", ("d1",), None, "d1:attach:1", {
        "error": "IllegalEventError", "detail": "attach while attaching"}),
    ("detach", ("d1",), None, None, {"error": "IllegalEventError",
                                     "detail": "detach while detached"}),
    ("move", ("d1", "n2"), None, None, {"error": "IllegalEventError",
                                        "detail": "move while detached"}),
    ("move", ("d1", "n1"), "s1", None, {
        "error": "IllegalEventError", "detail": "handover to the current node"}),
    ("move", ("d1", "n2"), "s2", None, {"error": "MobilityUnsupported",
                                        "slice": "s2", "target": "n2"}),
    ("traffic-start", ("d1",), None, None, {
        "error": "IllegalEventError", "detail": "traffic for unattached device"}),
    ("idle", ("d1",), None, None, {"error": "IllegalEventError",
                                   "detail": "idle while detached"}),
    ("idle", ("d1",), "s2", None, {"error": "MobilityUnsupported",
                                   "slice": "s2",
                                   "detail": "idle needs mobility management"}),
    ("page", ("d1",), None, None, {
        "error": "MobilityUnsupported",
        "detail": "paging needs mobility management"}),
]


def _act(action: str, device: netsim.SimDevice, args: tuple,
         options: dict, ctx: BlockContext) -> tuple:
    drafts: list = []
    events: list = []
    event = ScriptEvent(tick=1, action=action, args=args, options=options)
    netsim.DEVICE_BY_ACTION[action](device, event, ctx, drafts, events)
    return ([(d.kind, d.source, d.destination, d.correlation_id,
              dict(d.payload)) for d in drafts],
            [(e.subject, e.detail) for e in events])


@pytest.mark.parametrize("action", list(ACTIONS))
def test_a_device_action_needs_no_engine(action):
    """A device's table entry, called with a context built by hand, appends
    the drafts of its action."""
    args, options, bound, drafts = ACTIONS[action]
    device, ctx = _device(bound), _device_context()
    assert _act(action, device, args, options, ctx) == (drafts, [])
    if action == "attach":
        assert device.attaching == "d1:attach:1"
    if action == "traffic-start":
        run = ctx.planes["s1"].flows["f1"]
        assert device.flows == {("s1", "f1"): run}
        assert (run.rate, run.remaining_emissions, run.ingress, run.active) \
            == (2, 3, "i1", True)


def test_a_traffic_stop_ends_the_device_runs_of_its_flow():
    device, ctx = _device("s1"), _device_context()
    _act("traffic-start", device, ("d1",), {"flow": "f1"}, ctx)
    _act("traffic-start", device, ("d1",), {"flow": "f2"}, ctx)
    _act("traffic-stop", device, ("d1",), {"flow": "f1"}, ctx)
    assert {flow: run.active for (_, flow), run in device.flows.items()} == \
        {"f1": False, "f2": True}


@pytest.mark.parametrize("action, args, bound, attaching, detail", REFUSED)
def test_a_device_action_its_state_forbids_is_refused(action, args, bound,
                                                      attaching, detail):
    """A refused action appends its error alone and changes no state."""
    device, ctx = _device(bound), _device_context()
    device.attaching = attaching
    before = engine._normalize(device)
    assert _act(action, device, args, {}, ctx) == ([], [("d1", detail)])
    assert engine._normalize(device) == before
    assert not any(plane.flows for plane in ctx.planes.values())


def test_a_device_takes_the_events_that_name_it():
    device = _device()
    device.attaching = "d1:attach:1"
    device.absorb(BlockEvent("attach-complete", "d1"), "s2")
    assert (device.bound_slice, device.attaching) == ("s2", None)
    run = netsim.FlowRun("f1", 1, 5)
    device.flows[("s2", "f1")] = run
    device.absorb(BlockEvent("detach", "d1", {"slice": "s2"}), None)
    assert device.bound_slice is None and not run.active
