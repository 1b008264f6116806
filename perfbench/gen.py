"""Deterministic scenario and catalog generator for the benchmark workloads.

Every document is a pure function of (workload parameters, seed): the same
pair always gives the same bytes.  The knobs are independent, so one can be
scaled while the others stay put: devices, slices, handover fraction, flow
rate, flow duration and link capacity for scenarios, and the number of
generated sub-functions for catalogs.

Run ``PYTHONPATH=src python3 perfbench/gen.py --workload attach-storm --seed 1 --out DIR``
to write a workload's input files into DIR.
"""

from __future__ import annotations

import argparse
import importlib.resources
import random
from dataclasses import dataclass
from pathlib import Path

FABRICS = ("full_mesh", "relay", "dispatcher", "pubsub")

#: Access nodes of the generated topology: (id, tech, ingress).  Handovers
#: pick a target among the cellular nodes other than the device's own.
ACCESS_NODES = (
    ("n1", "cellular", "i1"), ("n2", "cellular", "i2"),
    ("n3", "cellular", "i1"), ("n4", "cellular", "i3"),
    ("w1", "wifi", "i3"),
)
CELLULAR = tuple(n for n, tech, _ in ACCESS_NODES if tech == "cellular")


@dataclass(frozen=True)
class ScenarioParams:
    devices: int
    slices: int                 # alternate embb (with MM) and miot (without)
    handover_fraction: float    # share of devices that move once mid-flow
    flow_rate: int              # units per tick
    flow_duration: int          # emissions per flow
    link_capacity: int          # units per link
    attach_window: int          # attaches are spread over ticks 1..window
    fabrics: tuple = ("full_mesh",)   # cycled over the slices


#: The domain of the generated sub-functions: one the reference leaves unused.
GENERATED_DOMAIN = "charging"


@dataclass(frozen=True)
class CatalogParams:
    extra_sfs: int              # identical unconstrained SFs in one domain


#: The benchmark's workloads.  Why each exists is recorded in README.md.
WORKLOADS = {
    "attach-storm": ScenarioParams(
        devices=400, slices=2, handover_fraction=0.5, flow_rate=1,
        flow_duration=5, link_capacity=1000, attach_window=40),
    "slice-fanout": ScenarioParams(
        devices=240, slices=48, handover_fraction=0.5, flow_rate=1,
        flow_duration=5, link_capacity=1000, attach_window=40,
        fabrics=FABRICS),
    "flow-steady": ScenarioParams(
        devices=20, slices=2, handover_fraction=0.5, flow_rate=4,
        flow_duration=200, link_capacity=1000, attach_window=20),
    "compose-catalog": CatalogParams(extra_sfs=10),
}


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"{kind}/{seed}")


def topology_text(p: ScenarioParams) -> str:
    cap = p.link_capacity
    lines = ["topology bench-net"]
    lines += [f"  node {n} kind=ingress" for n in ("i1", "i2", "i3")]
    lines += [f"  node {n} kind=transport" for n in ("t1", "t2")]
    lines += [f"  node {n} kind=anchor" for n in ("a1", "a2")]
    for a, b, latency in (("i1", "t1", 1), ("i2", "t1", 1), ("i3", "t2", 1),
                          ("t1", "a1", 2), ("t1", "t2", 1), ("t2", "a2", 2),
                          ("t1", "a2", 4), ("t2", "a1", 4)):
        lines.append(f"  link {a} {b} capacity={cap} latency={latency}")
    for node, tech, ingress in ACCESS_NODES:
        lines.append(f"  access {node} tech={tech} area=area-1 ingress={ingress}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def slice_ids(p: ScenarioParams) -> list:
    return [f"{'embb' if i % 2 == 0 else 'miot'}-{i:02d}" for i in range(p.slices)]


def blueprint_text(slice_id: str, fabric: str) -> str:
    if slice_id.startswith("embb"):
        body = ["  type: embb", f"  fabric: {fabric}", "  auth: full",
                "  path-strategy: shortest", "  anchors: a1 a2",
                "  bb AF", "  bb CM", "  bb MM", "  bb SAM", "  bb FM",
                "  bb CGHF", "  mobility: style=mbb anchoring=centralised",
                "  subscribe CM dplane-latency",
                "  context-model dplane-latency metric=flow-latency "
                "factor=1.5 window=8 statement=latency_above_normal"]
    else:
        body = ["  type: miot", f"  fabric: {fabric}", "  auth: low_secure",
                "  path-strategy: shortest", "  anchors: a2 a1",
                "  bb AF", "  bb CM", "  bb SAM", "  bb FM"]
    return "\n".join([f"blueprint {slice_id}", *body, "end"]) + "\n"


def _balanced(rng: random.Random, values, n: int) -> list:
    """`n` draws that use each value equally often, in a seeded order, so
    the seed moves work around without changing how much there is."""
    draws = [values[i % len(values)] for i in range(n)]
    rng.shuffle(draws)
    return draws


def scenario_text(name: str, p: ScenarioParams, seed: int) -> str:
    """One scenario: every device attaches, starts one flow and, for the
    handover share of devices, moves once while the flow runs."""
    rng = _rng(name, seed)
    slices = slice_ids(p)
    n = p.devices
    homes = _balanced(rng, CELLULAR, n)
    modes = _balanced(rng, ("direct", "via_af"), n)
    methods = _balanced(rng, (1, 2), n)
    attaches = _balanced(rng, range(1, p.attach_window + 1), n)
    # Movers are drawn per slice type: a move on a slice without MM ends in
    # a traced MobilityUnsupported, so the split fixes the error count.
    moves = {}
    for kind in ("embb", "miot"):
        members = [i for i in range(n) if slices[i % len(slices)].startswith(kind)]
        k = round(len(members) * p.handover_fraction)
        moves.update(zip(members, _balanced(
            rng, [True] * k + [False] * (len(members) - k), len(members))))
    devices, events = [], []
    for i in range(n):
        dev = f"d{i:04d}"
        sid = slices[i % len(slices)]
        devices += [f"  device {dev}", f"    psi: imsi-{100000 + i}",
                    f"    proof: tok-{dev}", f"    allowed: {sid}",
                    f"    default: {sid}", f"    mode: {modes[i]}",
                    f"    node: {homes[i]}", "  end"]
        start = attaches[i] + rng.randint(20, 30)
        events.append((attaches[i], i, f"attach {dev} method={methods[i]}"))
        events.append((start, i, f"traffic-start {dev} flow={dev}-f "
                                 f"rate={p.flow_rate} duration={p.flow_duration}"))
        if moves[i]:
            target = rng.choice([c for c in CELLULAR if c != homes[i]])
            events.append((start + rng.randint(4, 4 + p.flow_duration // 2), i,
                           f"move {dev} {target}"))
    events.sort()
    last = events[-1][0]
    lines = [f"scenario {name}-s{seed}", "  topology: topology.txt"]
    lines += [f"  blueprint {sid}.bp" for sid in slices]
    lines += [f"  max-ticks: {last + p.flow_duration + 200}",
              f"  infra-capacity: {6 * p.slices}"]
    lines += devices
    lines += [f"  at {tick} {text}" for tick, _, text in events]
    lines.append("end")
    return "\n".join(lines) + "\n"


def reference_catalog_text() -> str:
    return (importlib.resources.files("slicesim.data")
            .joinpath("reference.cat").read_text(encoding="utf-8"))


def catalog_text(p: CatalogParams, seed: int) -> str:
    """The reference catalog plus `extra_sfs` sub-functions that share all
    four separation attributes, so no constraint splits them, and one
    procedure that chains them.  The seed only shuffles names and order."""
    rng = _rng("compose-catalog", seed)
    placement = rng.choice(("edge", "core", "either"))
    evolution = rng.choice(("fast", "slow"))
    names = [f"gen-{rng.randrange(16 ** 6):06x}-{i}" for i in range(p.extra_sfs)]
    rng.shuffle(names)
    lines = [reference_catalog_text(), ""]
    for sf in names:
        lines += [f"sf {sf}", f"  name: Generated {sf}",
                  "  desc: Generated sub-function.", f"  domain: {GENERATED_DOMAIN}",
                  "  originator: 5g", f"  placement: {placement}",
                  "  reusability: service_specific",
                  "  optionality: use_case_specific", f"  evolution: {evolution}",
                  "end", ""]
    lines.append(f"procedure gen-chain-{seed}")
    lines.append("  name: Generated chain")
    lines += [f"  step {a} -> {b}" for a, b in zip(names, names[1:])]
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_workload(name: str, seed: int, out: Path, params=None) -> Path:
    """Write a workload's inputs under `out`; returns the file a user's
    command takes (the scenario or the catalog).  `params` replaces the
    workload's own parameters, to scale one knob."""
    out.mkdir(parents=True, exist_ok=True)
    p = params or WORKLOADS[name]
    if isinstance(p, CatalogParams):
        path = out / "catalog.cat"
        path.write_text(catalog_text(p, seed), encoding="utf-8")
        return path
    (out / "topology.txt").write_text(topology_text(p), encoding="utf-8")
    for i, sid in enumerate(slice_ids(p)):
        (out / f"{sid}.bp").write_text(
            blueprint_text(sid, p.fabrics[i % len(p.fabrics)]), encoding="utf-8")
    path = out / "scenario.scn"
    path.write_text(scenario_text(name, p, seed), encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(write_workload(args.workload, args.seed, Path(args.out)))


if __name__ == "__main__":
    main()
