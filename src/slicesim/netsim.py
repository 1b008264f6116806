"""Everything outside the core C-plane: access nodes, device population and
a forwarded-plane executor that installs rules and carries flows.

Traffic is discrete units per tick, integer-exact.  A unit snapshots its
path when it leaves the ingress and follows that snapshot; at every node it
needs a matching rule to continue, so tearing rules down mid-flight loses
the unit.  A flow only starts emitting once its ingress rule first appears;
after that, ticks without an ingress rule emit and lose units, which is what
makes break-before-make handovers lossy and make-before-break lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .blocks.common import AccessNodeInfo, Tech
from .blocks.fm import LinkState, TopologyView, link_key
from .errors import SchemaError
from .textfmt import parse_blocks, split_kv


class NodeKind(str, Enum):
    INGRESS = "ingress"
    TRANSPORT = "transport"
    ANCHOR = "anchor"


class SignalingMode(str, Enum):
    DIRECT = "direct"
    VIA_AF = "via_af"


@dataclass(frozen=True)
class TopologySpec:
    topology_id: str
    nodes: dict                 # node id -> NodeKind
    links: dict                 # link_key -> (capacity, latency)
    access: dict                # access node id -> AccessNodeInfo


def load_topology(text: str, source: str = "<topology>") -> TopologySpec:
    """Parse a topology document; a value that does not parse is a
    SchemaError."""
    try:
        return _load_topology(text, source)
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from None


def _load_topology(text: str, source: str) -> TopologySpec:
    blocks = parse_blocks(text, {"topology"}, source)
    if len(blocks) != 1 or blocks[0].kind != "topology":
        raise SchemaError(f"{source}: expected exactly one topology block")
    block = blocks[0]
    nodes: dict = {}
    links: dict = {}
    access: dict = {}
    for rest in block.items_of("node"):
        positional, options = split_kv(rest)
        if len(positional) != 1:
            raise SchemaError(f"{source}: node line needs one id")
        nodes[positional[0]] = NodeKind(options.get("kind", "transport"))
    for rest in block.items_of("link"):
        positional, options = split_kv(rest)
        if len(positional) != 2:
            raise SchemaError(f"{source}: link line needs two node ids")
        a, b = positional
        for n in (a, b):
            if n not in nodes:
                raise SchemaError(f"{source}: link references unknown node '{n}'")
        capacity = int(options.get("capacity", 10))
        latency = int(options.get("latency", 1))
        if capacity < 1 or latency < 1:
            raise SchemaError(f"{source}: capacity and latency must be >= 1")
        links[link_key(a, b)] = (capacity, latency)
    for rest in block.items_of("access"):
        positional, options = split_kv(rest)
        if len(positional) != 1:
            raise SchemaError(f"{source}: access line needs one id")
        node_id = positional[0]
        ingress = options.get("ingress", "")
        if nodes.get(ingress) is not NodeKind.INGRESS:
            raise SchemaError(
                f"{source}: access '{node_id}' needs an ingress-kind node")
        access[node_id] = AccessNodeInfo(
            node_id=node_id, tech=Tech(options.get("tech", "cellular")),
            area=options.get("area", "area-default"), ingress=ingress)
    return TopologySpec(topology_id=block.ident, nodes=nodes, links=links,
                        access=access)


def load_topology_file(path) -> TopologySpec:
    with open(path, encoding="utf-8") as fh:
        return load_topology(fh.read(), source=str(path))


def build_view(spec: TopologySpec) -> TopologyView:
    """Fresh flow-management topology view over a topology spec."""
    view = TopologyView()
    view.nodes = {n: k.value for n, k in spec.nodes.items()}
    view.links = {key: LinkState(capacity=c, latency=l)
                  for key, (c, l) in spec.links.items()}
    return view


# -- forwarded plane executor ---------------------------------------------------

@dataclass
class UnitState:
    flow: str
    path: tuple
    complete: bool      # snapshot reached a deliver rule when taken
    hop: int            # index of the node the unit last departed
    remaining: int      # ticks left on the current link
    sent_tick: int


@dataclass
class FlowRun:
    flow_id: str
    device: str
    rate: int
    remaining_emissions: int
    qos: str = "default"
    ingress: str = ""
    started: bool = False
    active: bool = True
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    latencies: list = field(default_factory=list)   # (arrival tick, latency)
    in_flight: list = field(default_factory=list)


@dataclass
class DPlane:
    """Per-slice forwarded plane: rules, flows and unit motion.  A step
    walks only the live flows; a finished one keeps its counters in
    `flows` and never steps again."""

    spec: TopologySpec
    rules: dict = field(default_factory=dict)   # node -> {flow -> next | deliver}
    flows: dict = field(default_factory=dict)   # flow id -> FlowRun
    _live: dict = field(default_factory=dict)   # flow id -> FlowRun, live ones
    _last_loaded: set = field(default_factory=set)

    def add_flow(self, run: FlowRun) -> None:
        """Start carrying `run`; it replaces any flow under the same id."""
        self.flows[run.flow_id] = self._live[run.flow_id] = run

    def latency(self, a: str, b: str) -> int:
        return self.spec.links[link_key(a, b)][1]

    def adjacent(self, a: str, b: str) -> bool:
        return link_key(a, b) in self.spec.links

    def configure(self, payload: dict) -> tuple:
        """Apply one install/remove command; returns (ok, reason)."""
        node = payload.get("node", "")
        flow = payload.get("flow", "")
        nxt = payload.get("next", "")
        action = payload.get("action", "")
        if node not in self.spec.nodes:
            return False, f"unknown node '{node}'"
        if action == "install":
            if nxt != "deliver" and not self.adjacent(node, nxt):
                return False, f"no link {node}~{nxt}"
            self.rules.setdefault(node, {})[flow] = nxt
            return True, ""
        if action == "remove":
            current = self.rules.get(node, {}).get(flow)
            if current is None or current != nxt:
                return False, "no matching rule"
            del self.rules[node][flow]
            return True, ""
        return False, f"unknown action '{action}'"

    def _snapshot(self, ingress: str, flow: str) -> tuple:
        path = [ingress]
        node = ingress
        for _ in range(len(self.spec.nodes) + 1):
            nxt = self.rules.get(node, {}).get(flow)
            if nxt is None:
                return tuple(path), False
            if nxt == "deliver":
                return tuple(path), True
            path.append(nxt)
            node = nxt
        return tuple(path), False   # rule loop: treat as broken

    def step(self, tick: int) -> tuple:
        """Advance one tick: move in-flight units, then emit new ones.
        Returns (load samples, latency samples, per-flow delivered/lost)."""
        delivered_now: dict = {}
        lost_now: dict = {}
        latency_samples: list = []

        live = sorted(self._live.items())
        for flow_id, run in live:
            survivors = []
            for unit in run.in_flight:
                unit.remaining -= 1
                if unit.remaining > 0:
                    survivors.append(unit)
                    continue
                unit.hop += 1
                node = unit.path[unit.hop]
                last = unit.hop == len(unit.path) - 1
                rule = self.rules.get(node, {}).get(flow_id)
                if last:
                    if unit.complete and rule == "deliver":
                        run.delivered += 1
                        delivered_now[flow_id] = delivered_now.get(flow_id, 0) + 1
                        latency = tick - unit.sent_tick
                        run.latencies.append((tick, latency))
                        latency_samples.append((flow_id, latency))
                    else:
                        run.lost += 1
                        lost_now[flow_id] = lost_now.get(flow_id, 0) + 1
                    continue
                expected = unit.path[unit.hop + 1]
                if rule != expected:
                    run.lost += 1
                    lost_now[flow_id] = lost_now.get(flow_id, 0) + 1
                    continue
                unit.remaining = self.latency(node, expected)
                survivors.append(unit)
            run.in_flight = survivors

        for flow_id, run in live:
            if not run.active or run.remaining_emissions <= 0:
                continue
            has_rule = self.rules.get(run.ingress, {}).get(flow_id) is not None
            if not run.started:
                if not has_rule:
                    continue    # flow waits for its first path
                run.started = True
            run.remaining_emissions -= 1
            run.sent += run.rate
            if not has_rule:
                run.lost += run.rate
                lost_now[flow_id] = lost_now.get(flow_id, 0) + run.rate
                continue
            path, complete = self._snapshot(run.ingress, flow_id)
            for _ in range(run.rate):
                if len(path) == 1:
                    if complete:
                        run.delivered += 1
                        delivered_now[flow_id] = delivered_now.get(flow_id, 0) + 1
                        run.latencies.append((tick, 0))
                        latency_samples.append((flow_id, 0))
                    else:
                        run.lost += 1
                        lost_now[flow_id] = lost_now.get(flow_id, 0) + 1
                    continue
                run.in_flight.append(UnitState(
                    flow=flow_id, path=path, complete=complete, hop=0,
                    remaining=self.latency(path[0], path[1]), sent_tick=tick))

        self._live = {flow_id: run for flow_id, run in live if run.in_flight
                      or run.active and run.remaining_emissions > 0}
        load_samples = self._load_samples()
        return load_samples, latency_samples, delivered_now, lost_now

    def _load_samples(self) -> list:
        counts: dict = {}
        for run in self._live.values():
            for unit in run.in_flight:
                key = link_key(unit.path[unit.hop], unit.path[unit.hop + 1])
                counts[key] = counts.get(key, 0) + 1
        samples = []
        loaded = set(counts)
        for key in sorted(loaded | self._last_loaded):
            capacity = self.spec.links[key][0]
            samples.append((f"{key[0]}~{key[1]}", counts.get(key, 0) / capacity))
        self._last_loaded = loaded
        return samples

    def due(self) -> bool:
        """Whether a step can change anything: only while a flow is live.
        The step that ends the last one reports its links at zero load, and
        a flow replaced in flight leaves its live successor to step."""
        return bool(self._live)

    def has_work(self) -> bool:
        """Whether a flow is under way: units in flight, or emissions left
        after its first rule appeared."""
        return any(run.in_flight or
                   (run.active and run.started and run.remaining_emissions > 0)
                   for run in self._live.values())


# -- device population -----------------------------------------------------------

@dataclass(frozen=True)
class DeviceSpec:
    device_id: str
    permanent_id: str
    proof: str
    allowed: tuple
    default_slice: str | None
    mode: SignalingMode
    home_node: str


@dataclass
class SimDevice:
    spec: DeviceSpec
    current_node: str = ""
    alias: str | None = None          # pseudonym once authenticated
    context_token: str | None = None
    bound_slice: str | None = None
    attached: bool = False
    attaching: str | None = None      # correlation of the last attach sent
    idle: bool = False
    flow_counter: int = 0
    corr_counters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.current_node:
            self.current_node = self.spec.home_node

    @property
    def device_id(self) -> str:
        return self.spec.device_id

    def presented_alias(self) -> str:
        """What the device identifies as: the permanent identity only until
        the first pseudonym is issued."""
        return self.alias or self.spec.permanent_id

    def next_correlation(self, family: str) -> str:
        n = self.corr_counters.get(family, 0) + 1
        self.corr_counters[family] = n
        return f"{self.device_id}:{family}:{n}"
