"""Generated scripts over the corpus: every case must run without a
non-domain exception, give equal digests under the four fabrics, replay
byte for byte, fold the rendered trace to the in-run metrics and pass
`trace_check`.

One audit failure is still open and tolerated, only in its own shape: a
device authenticated in a slice that is torn down before its attach
completes never receives its pseudonym, so its next attach carries the
permanent identity.  `test_teardown_during_attach_leaks_identity` pins the
minimal case.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.blocks.common import PathStrategy
from slicesim.engine import (
    Environment, Scenario, ScriptEvent, compare_fabrics, run,
)
from slicesim.errors import SliceSimError
from slicesim.messages import ProcedureKind
from slicesim.metrics import compute_metrics
from slicesim.netsim import DeviceSpec, SignalingMode, load_topology_file
from slicesim.slices import load_blueprint_file
from slicesim.trace import (
    EventRecord, MessageRecord, parse_trace, render_trace, trace_check,
)

from conftest import scenario_path

TOPOLOGY = load_topology_file(scenario_path("topo-core.txt"))
NODES = sorted(TOPOLOGY.access)

#: The corpus blueprints; the two mobility files share the slice id `mob-a`,
#: so a case draws at most one of them.
BLUEPRINTS = {name: load_blueprint_file(scenario_path(f"bp-{name}.bp"))
              for name in ("cghf", "default", "embb", "fixed", "miot",
                           "mob-mbb", "mob-bbm")}
_MOBILITY = {"mob-mbb", "mob-bbm"}

FLOWS = ("f1", "f2", "f3")

_LEAK = re.compile(r"seq \d+: permanent identity of (\S+) on \S+ after first "
                   r"authentication")


@st.composite
def blueprints(draw):
    names = draw(st.lists(st.sampled_from(sorted(BLUEPRINTS)), min_size=1,
                          max_size=3, unique=True)
                 .filter(lambda n: len(_MOBILITY.intersection(n)) < 2))
    chosen = []
    for name in names:
        bp = BLUEPRINTS[name]
        if draw(st.booleans()):
            bp = dataclasses.replace(
                bp, path_strategy=PathStrategy.LOAD_DISTRIBUTION)
        # the context-model knobs: a factor below 1 fires on the first
        # evaluation after the baseline locks, so every fabric delivers a
        # topic publish; `min_samples` above `window` never fires at rate 1
        models = []
        for model in bp.context_models:
            window = draw(st.integers(1, 8))
            models.append(dataclasses.replace(
                model, window=window, min_samples=draw(st.integers(1, window)),
                factor=draw(st.sampled_from((0.5, 1.0, 1.5)))))
        bp = dataclasses.replace(bp, context_models=tuple(models))
        chosen.append(bp)
    return tuple(chosen)


@st.composite
def scenarios(draw, warm=None):
    """A generated case.  A warm one (drawn when `warm` is None) also
    attaches every device at tick 0 and starts a flow of it at tick 12, so
    that traffic, telemetry and context publishes run."""
    bps = draw(blueprints())
    slice_ids = [bp.slice_id for bp in bps]
    devices = []
    for n in range(1, draw(st.integers(1, 3)) + 1):
        devices.append(DeviceSpec(
            device_id=f"d{n}", permanent_id=f"imsi-{n}", proof=f"tok-d{n}",
            allowed=tuple(draw(st.lists(st.sampled_from(slice_ids),
                                        min_size=1, unique=True))),
            default_slice=draw(st.none() | st.sampled_from(slice_ids)),
            mode=draw(st.sampled_from(list(SignalingMode))),
            home_node=draw(st.sampled_from(NODES))))
    device = st.sampled_from([d.device_id for d in devices])
    flow = st.sampled_from(FLOWS)
    action = st.one_of(
        st.tuples(st.just("attach"), st.tuples(device), st.fixed_dictionaries(
            {"method": st.sampled_from((1, 2))},
            optional={"accesses": st.sampled_from(
                (("cellular",), ("wifi",), ("cellular", "wifi"),
                 ("fixed",)))})),
        st.tuples(st.sampled_from(("detach", "idle", "page")),
                  st.tuples(device), st.just({})),
        st.tuples(st.just("move"), st.tuples(device, st.sampled_from(NODES)),
                  st.just({})),
        st.tuples(st.just("traffic-start"), st.tuples(device),
                  st.fixed_dictionaries({
                      "flow": flow, "rate": st.integers(0, 3),
                      "duration": st.integers(0, 12),
                      "qos": st.sampled_from(("default", "critical", "gold"))})),
        st.tuples(st.just("traffic-stop"), st.tuples(device),
                  st.fixed_dictionaries({"flow": flow})),
        st.tuples(st.just("inject-latency"),
                  st.tuples(flow, st.sampled_from((1.0, 6.0, 40.0))),
                  st.just({})),
        st.tuples(st.just("teardown"), st.tuples(st.sampled_from(slice_ids)),
                  st.just({})))
    events = draw(st.lists(st.tuples(st.integers(0, 30), action), max_size=10))
    if draw(st.booleans()) if warm is None else warm:
        events = [event for spec in devices for event in (
            (0, ("attach", (spec.device_id,), {"method": 2})),
            (12, ("traffic-start", (spec.device_id,),
                  {"flow": draw(flow), "rate": 1, "duration": 30})))] + events
    script = tuple(ScriptEvent(tick, name, args, options)
                   for tick, (name, args, options)
                   in sorted(events, key=lambda e: e[0]))
    return Scenario(scenario_id="fuzz", topology=TOPOLOGY, blueprints=bps,
                    devices=tuple(devices), script=script)


def torn_down_mid_attach(trace) -> set:
    """Devices with an ok `auth` in a slice whose `slice-torn-down` came
    before any `attach-complete` of the device."""
    authenticated: dict = {}     # device -> slices of its ok auths
    completed: set = set()
    hit: set = set()
    for rec in trace:
        if not isinstance(rec, EventRecord):
            continue
        if rec.kind == "auth" and rec.detail.get("ok"):
            authenticated.setdefault(rec.subject, set()).add(
                rec.detail.get("slice"))
        elif rec.kind == "attach-complete":
            completed.add(rec.subject)
        elif rec.kind == "slice-torn-down":
            hit |= {device for device, slices in authenticated.items()
                    if rec.subject in slices and device not in completed}
    return hit


def audit(scenario: Scenario, seed: int) -> tuple:
    """Hold a case to the first four checks; returns its run's trace and
    `trace_check` violations."""
    try:
        result = run(scenario, seed)
    except SliceSimError:     # a set-up refusal is a domain error
        return [], []
    compare_fabrics(scenario, seed)     # raises unless the digests agree
    text = render_trace(result.trace)
    assert render_trace(run(scenario, seed).trace) == text
    assert compute_metrics(parse_trace(text)) == result.metrics
    return result.trace, trace_check(result.trace)


def test_generated_scripts_hold_the_five_checks(record_property):
    cases, tolerated, notified = [], [], []

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(scenarios(), st.integers(1, 9))
    def check(scenario, seed):
        cases.append(scenario)
        trace, violations = audit(scenario, seed)
        if any(isinstance(rec, MessageRecord)
               and rec.kind is ProcedureKind.CONTEXT_NOTIFY
               for rec in trace):
            notified.append(scenario)
        if not violations:
            return
        leaked = torn_down_mid_attach(trace)
        for violation in violations:
            match = _LEAK.fullmatch(violation)
            assert match and match.group(1) in leaked, violation
        tolerated.append(scenario)

    check()
    record_property("tolerated", f"{len(tolerated)} of {len(cases)} cases")
    record_property("context notified", f"{len(notified)} of {len(cases)} cases")
    assert notified, "no generated case published a context"


@st.composite
def flows_at_teardown(draw):
    """A warm generated case with a teardown of one of its slices after its
    flows start."""
    scenario = draw(scenarios(warm=True))
    slice_id = draw(st.sampled_from([bp.slice_id for bp in scenario.blueprints]))
    teardown = ScriptEvent(draw(st.integers(13, 30)), "teardown", (slice_id,), {})
    script = sorted(scenario.script + (teardown,), key=lambda e: e.tick)
    return dataclasses.replace(scenario, script=tuple(script))


def test_teardown_ends_every_flow_through_its_device_detach(monkeypatch,
                                                         record_property):
    """`slices.teardown` leaves flows to the detach of each attached device,
    which `SimDevice.absorb` applies.  That ends every flow of the
    slice only if an active flow's device is attached to the flow's slice:
    hold both sides around each generated teardown."""
    run_script_event = Environment._run_script_event
    ended = []

    def checked(env, event):
        if event.action != "teardown":
            return run_script_event(env, event)
        instance = env.slices[event.args[0]]
        flows = instance.dplane.flows
        # the owners of the plane's active runs; a run another start
        # replaced under its id is no longer the plane's
        active = {ident for ident, device in env.devices.items()
                  for run in device.flows.values()
                  if run.active and flows.get(run.flow_id) is run}
        assert active <= {ident for ident, device in env.devices.items()
                          if device.bound_slice == instance.slice_id}
        run_script_event(env, event)
        assert not any(run.active for run in flows.values())
        ended.append(len(active))

    monkeypatch.setattr(Environment, "_run_script_event", checked)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(flows_at_teardown(), st.integers(1, 9))
    def check(scenario, seed):
        try:
            run(scenario, seed)
        except SliceSimError:     # a set-up refusal is a domain error
            pass

    check()
    hits = sum(1 for n in ended if n)
    record_property("teardowns with active flows", f"{hits} of {len(ended)}")
    assert hits, "no generated teardown ended an active flow"


def leak_case() -> Scenario:
    bp = BLUEPRINTS["cghf"]
    device = DeviceSpec(device_id="d1", permanent_id="imsi-1", proof="tok-d1",
                        allowed=(bp.slice_id,), default_slice=bp.slice_id,
                        mode=SignalingMode.VIA_AF, home_node="n1")
    script = (ScriptEvent(5, "attach", ("d1",), {"method": 2}),
              ScriptEvent(9, "teardown", (bp.slice_id,), {}),
              ScriptEvent(17, "attach", ("d1",), {"method": 1}))
    return Scenario(scenario_id="leak", topology=TOPOLOGY, blueprints=(bp,),
                    devices=(device,), script=script)


def test_the_tolerated_shape_is_the_leak():
    trace = run(leak_case(), 7).trace
    assert torn_down_mid_attach(trace) == {"d1"}
    assert [_LEAK.fullmatch(v).group(1) for v in trace_check(trace)] == ["d1"]


@pytest.mark.xfail(strict=True, reason="open: a teardown during an attach "
                   "leaves the device without its pseudonym")
@pytest.mark.parametrize("seed", [3, 7])
def test_teardown_during_attach_leaks_identity(seed):
    assert audit(leak_case(), seed)[1] == []
