"""Cross-cutting invariants checked by replaying corpus traces."""

import dataclasses

from slicesim.blocks.cm import ALLOWED_TRANSITIONS, ConvergentState
from slicesim import engine
from slicesim.engine import ScriptEvent, load_scenario, run
from slicesim.fabric import DEFAULT_PROJECTIONS, FabricModel, FabricModelKind
from slicesim.messages import InterfacePoint, ProcedureKind, Role
from slicesim.netsim import SignalingMode
from slicesim.trace import EventRecord, MessageRecord

from conftest import scenario_path

CORPUS = ("attach-two-slices", "attach-method2-redirect", "handover-mbb",
          "handover-bbm", "paging", "cghf-reselect", "isolation-pair",
          "isolation-pair-noisy", "fixed-nomm", "teardown")


def load(name):
    return load_scenario(scenario_path(f"{name}.scn"))


def corpus_results():
    for name in CORPUS:
        yield name, run(load(name), 7)


def test_every_observed_transition_is_a_declared_edge():
    for name, result in corpus_results():
        for rec in result.trace:
            if isinstance(rec, EventRecord) and rec.kind == "transition":
                edge = (ConvergentState(rec.detail["from"]),
                        ConvergentState(rec.detail["to"]))
                assert edge in ALLOWED_TRANSITIONS, (name, rec)


def test_context_block_emits_only_notifications():
    for name, result in corpus_results():
        for rec in result.trace:
            if isinstance(rec, MessageRecord) and rec.msg.source.role is Role.CGHF:
                assert rec.msg.kind is ProcedureKind.CONTEXT_NOTIFY, (name, rec)


def test_dispatcher_never_delivers_outside_its_projection():
    for name in ("attach-method2-redirect", "handover-mbb", "cghf-reselect"):
        result = run(load(name), 7,
                     fabric_override=FabricModel(FabricModelKind.DISPATCHER))
        for rec in result.trace:
            if not isinstance(rec, MessageRecord) or not rec.mediators:
                continue
            if not rec.mediators[0].startswith("CPD."):
                continue
            allowed = DEFAULT_PROJECTIONS[rec.msg.kind]
            assert set(rec.msg.payload) <= allowed, (name, rec)


def test_diagnostic_fields_cross_the_mesh_but_not_the_dispatcher():
    assert all("diag" not in fields for fields in DEFAULT_PROJECTIONS.values())


def test_mediated_devices_signal_only_on_i1():
    # a via_af device never reaches a core block in one hop: everything to
    # or from it terminates at its access function
    checked = 0
    for name in CORPUS:
        scenario = load(name)
        mediated = {d.device_id for d in scenario.devices
                    if d.mode is SignalingMode.VIA_AF}
        for model in (None, *engine.FABRIC_MODELS):
            for rec in run(scenario, 7, fabric_override=model).trace:
                if not isinstance(rec, MessageRecord):
                    continue
                ends = (rec.msg.source, rec.msg.destination)
                if any(getattr(end, "role", None) is Role.UE
                       and end.ident in mediated for end in ends):
                    assert rec.msg.interface is InterfacePoint.I1, (name, rec)
                    checked += 1
    assert checked


def test_link_load_never_exceeds_capacity():
    for name, result in corpus_results():
        for rec in result.trace:
            if isinstance(rec, MessageRecord) \
                    and rec.msg.kind is ProcedureKind.FLOW_NOTIFY \
                    and rec.msg.payload.get("phase") == "load":
                assert float(rec.msg.payload["load"]) <= 1.0, (name, rec)


def test_self_handover_is_rejected():
    scenario = load("handover-mbb")
    script = tuple(
        ScriptEvent(tick=e.tick, action=e.action,
                    args=("d5", "n1") if e.action == "move" else e.args,
                    options=e.options)
        for e in scenario.script)
    result = run(dataclasses.replace(scenario, script=script), 7)
    rejections = [r for r in result.trace
                  if isinstance(r, EventRecord) and r.kind == "error"
                  and r.detail.get("detail") == "handover to the current node"]
    assert rejections
    handovers = [r for r in result.trace
                 if isinstance(r, MessageRecord)
                 and r.msg.kind is ProcedureKind.HANDOVER_PREPARE]
    assert handovers == []


def test_interfaces_match_the_routing_table():
    # every traced hop uses the interface the routing rules dictate
    from slicesim.messages import CN_BB_ROLES, InterfacePoint

    for name, result in corpus_results():
        for rec in result.trace:
            if not isinstance(rec, MessageRecord):
                continue
            src = rec.msg.source.role
            dst = getattr(rec.msg.destination, "role", None)
            iface = rec.msg.interface
            if dst is None:
                continue
            pair = {src, dst}
            if pair == {Role.UE, Role.AF}:
                assert iface is InterfacePoint.I1, (name, rec)
            elif Role.UE in pair and pair & CN_BB_ROLES:
                assert iface is InterfacePoint.I2, (name, rec)
            elif Role.AF in pair and pair & CN_BB_ROLES:
                assert iface is InterfacePoint.I3, (name, rec)
            elif pair == {Role.FM, Role.D_PLANE}:
                assert iface is InterfacePoint.I4_SBI, (name, rec)
            elif pair <= CN_BB_ROLES:
                assert iface is InterfacePoint.INTER_BB, (name, rec)
