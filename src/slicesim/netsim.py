"""Everything outside the core C-plane: access nodes, device population and
a forwarded-plane executor that installs rules and carries flows.  Devices
and planes take messages as blocks do, through handlers of the same shape.

Traffic is discrete units per tick, integer-exact.  A unit snapshots its
path when it leaves the ingress and follows that snapshot; at every node it
needs a matching rule to continue, so tearing rules down mid-flight loses
the unit.  The units a flow emits in one tick share their snapshot and every
rule check on the way, so they travel as one batch.  The plane caches a
flow's snapshot per ingress until one of that flow's rules changes (a
snapshot reads no other flow's rules), keeps each path's hop latencies and
link keys once (the topology never changes), and counts link loads as
batches move.  A flow only starts emitting once its ingress rule
first appears; after that, ticks without an ingress rule emit and lose
units, which is what makes break-before-make handovers lossy and
make-before-break lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .blocks.common import (
    AccessNodeInfo, BlockEvent, Tech, by_kind, error_event,
)
from .blocks.fm import LinkState, TopologyView, link_key
from .errors import SchemaError
from .messages import Endpoint, ProcedureKind, Role, block_id, draft
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


#: Per item word of a topology, the options it reads.
_OPTIONS = {"node": frozenset({"kind"}),
            "link": frozenset({"capacity", "latency"}),
            "access": frozenset({"tech", "area", "ingress"})}


def load_topology(text: str, source: str = "<topology>") -> TopologySpec:
    """Parse a topology document; a value that does not parse is a
    SchemaError."""
    try:
        return _load_topology(text, source)
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from None


def _load_topology(text: str, source: str) -> TopologySpec:
    blocks = parse_blocks(text, {"topology"}, source)
    if len(blocks) != 1:
        raise SchemaError(f"{source}: expected exactly one topology block")
    block = blocks[0]
    block.refuse_unknown(source, items=_OPTIONS.keys())
    nodes: dict = {}
    links: dict = {}
    access: dict = {}
    for rest in block.items_of("node"):
        positional, options = split_kv(rest, _OPTIONS["node"],
                                       (source, "node", rest))
        if len(positional) != 1:
            raise SchemaError(f"{source}: node line needs one id")
        block.refuse_in_ident(source, item=("node", rest, positional[0]))
        nodes[positional[0]] = NodeKind(options.get("kind", "transport"))
    for rest in block.items_of("link"):
        positional, options = split_kv(rest, _OPTIONS["link"],
                                       (source, "link", rest))
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
        positional, options = split_kv(rest, _OPTIONS["access"],
                                       (source, "access", rest))
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
    """The `count` units one flow emitted in one tick, moving together."""

    path: tuple
    complete: bool      # snapshot reached a deliver rule when taken
    hop: int            # index of the node the units last departed
    remaining: int      # ticks left on the current link
    sent_tick: int
    count: int = 1


@dataclass
class FlowRun:
    flow_id: str
    rate: int
    remaining_emissions: int
    ingress: str = ""
    started: bool = False
    active: bool = True
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    in_flight: list = field(default_factory=list)   # UnitState batches

    @property
    def units_in_flight(self) -> int:
        """Units sent and neither delivered nor lost yet."""
        return sum(unit.count for unit in self.in_flight)


#: What a read finds where nothing is kept: the rules at a node that holds
#: none, the snapshots of a flow with none cached.
_EMPTY: dict = {}


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
    # flow -> ingress -> (path, complete, hop latencies, hop link keys) of
    # the snapshot a unit of the flow emitted there takes; a flow's entry is
    # dropped when one of its rules changes
    _routes: dict = field(default_factory=dict)
    # path -> (the path, its hop latencies, its hop link keys), so equal
    # paths share one tuple, and link key -> (name, capacity): facts of
    # the topology, which never changes
    _paths: dict = field(default_factory=dict)
    _links: dict = field(default_factory=dict)

    def add_flow(self, run: FlowRun) -> None:
        """Start carrying `run`; it replaces any flow under the same id."""
        self.flows[run.flow_id] = self._live[run.flow_id] = run

    def adjacent(self, a: str, b: str) -> bool:
        return link_key(a, b) in self.spec.links

    def configure(self, node: str, payload: dict) -> tuple:
        """Apply one install/remove command at `node`, the plane node its
        address names; returns (ok, reason)."""
        flow = payload.get("flow", "")
        nxt = payload.get("next", "")
        action = payload.get("action", "")
        if node not in self.spec.nodes:
            return False, f"unknown node '{node}'"
        if action == "install":
            if nxt != "deliver" and not self.adjacent(node, nxt):
                return False, f"no link {node}~{nxt}"
            self.rules.setdefault(node, {})[flow] = nxt
            self._routes.pop(flow, None)
            return True, ""
        if action == "remove":
            current = self.rules.get(node, {}).get(flow)
            if current is None or current != nxt:
                return False, "no matching rule"
            del self.rules[node][flow]
            self._routes.pop(flow, None)
            return True, ""
        return False, f"unknown action '{action}'"

    def clear_rules(self) -> None:
        """Remove every rule, as a slice's teardown does."""
        self.rules.clear()
        self._routes.clear()

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

    def _route(self, ingress: str, flow: str) -> tuple:
        """The snapshot a unit emitted at `ingress` takes, with its hops."""
        path, complete = self._snapshot(ingress, flow)
        path, latencies, keys = self._paths.get(path) or self._hops(path)
        route = (path, complete, latencies, keys)
        self._routes.setdefault(flow, {})[ingress] = route
        return route

    def _hops(self, path: tuple) -> tuple:
        """The kept (path, hop latencies, hop link keys) of a path new to
        the plane, with a name for each link it crosses."""
        latencies, keys = [], []
        for a, b in zip(path, path[1:]):
            key = link_key(a, b)
            capacity, latency = self.spec.links[key]
            latencies.append(latency)
            keys.append(key)
            if key not in self._links:
                self._links[key] = (f"{key[0]}~{key[1]}", capacity)
        hops = self._paths[path] = (path, tuple(latencies), tuple(keys))
        return hops

    def step(self, tick: int) -> tuple:
        """Advance one tick: move in-flight units, then emit new ones.
        Returns (load samples, latency samples, per-flow delivered/lost);
        the latency samples are per flow, one per unit, in arrival order."""
        delivered_now: dict = {}
        lost_now: dict = {}
        latency_samples: dict = {}
        loads: dict = {}        # link key -> units on it when the step ends
        rules = self.rules
        paths = self._paths

        live = sorted(self._live.items())
        for flow_id, run in live:
            survivors = []
            delivered = lost = 0
            path = None
            for unit in run.in_flight:
                count = unit.count
                if unit.path is not path:
                    path = unit.path
                    _, latencies, keys = paths.get(path) or self._hops(path)
                    last = len(path) - 1
                unit.remaining -= 1
                if unit.remaining > 0:
                    key = keys[unit.hop]
                    loads[key] = loads.get(key, 0) + count
                    survivors.append(unit)
                    continue
                hop = unit.hop = unit.hop + 1
                rule = rules.get(path[hop], _EMPTY).get(flow_id)
                if hop == last:
                    if unit.complete and rule == "deliver":
                        delivered += count
                        latency_samples.setdefault(flow_id, []).extend(
                            [tick - unit.sent_tick] * count)
                    else:
                        lost += count
                    continue
                if rule != path[hop + 1]:
                    lost += count
                    continue
                unit.remaining = latencies[hop]
                key = keys[hop]
                loads[key] = loads.get(key, 0) + count
                survivors.append(unit)
            run.in_flight = survivors
            if delivered:
                run.delivered += delivered
                delivered_now[flow_id] = delivered
            if lost:
                run.lost += lost
                lost_now[flow_id] = lost

        routes = self._routes
        for flow_id, run in live:
            if not run.active or run.remaining_emissions <= 0:
                continue
            path, complete, latencies, keys = (
                routes.get(flow_id, _EMPTY).get(run.ingress)
                or self._route(run.ingress, flow_id))
            # the ingress holds a rule iff the snapshot leaves it or ends there
            has_rule = complete or len(path) > 1
            if not run.started:
                if not has_rule:
                    continue    # flow waits for its first path
                run.started = True
            rate = run.rate
            run.remaining_emissions -= 1
            run.sent += rate
            if not has_rule:
                run.lost += rate
                lost_now[flow_id] = lost_now.get(flow_id, 0) + rate
                continue
            if not rate:
                continue
            if keys:
                run.in_flight.append(UnitState(
                    path=path, complete=complete, hop=0,
                    remaining=latencies[0], sent_tick=tick, count=rate))
                loads[keys[0]] = loads.get(keys[0], 0) + rate
            else:   # the ingress rule is `deliver`
                run.delivered += rate
                delivered_now[flow_id] = delivered_now.get(flow_id, 0) + rate
                latency_samples.setdefault(flow_id, []).extend([0] * rate)

        self._live = {flow_id: run for flow_id, run in live if run.in_flight
                      or run.active and run.remaining_emissions > 0}
        links = self._links
        load_samples = []
        for key in sorted(loads.keys() | self._last_loaded):
            name, capacity = links[key]
            load_samples.append((name, loads.get(key, 0) / capacity))
        self._last_loaded = set(loads)
        return load_samples, latency_samples, delivered_now, lost_now

    def has_work(self) -> bool:
        """Whether a flow is under way: units in flight, or emissions left
        after its first rule appeared."""
        return any(run.in_flight or
                   (run.active and run.started and run.remaining_emissions > 0)
                   for run in self._live.values())


def _configure(plane: DPlane, msg, ctx, drafts: list, events: list) -> None:
    """A plane takes `FlowConfigure` from the FM at the address
    `DP:<slice>:<node>` of the node it configures, and acks it; a stale
    removal is rejected silently, to keep removals idempotent."""
    node = msg.destination.ident[len(ctx.slice_id) + 1:]
    payload = msg.payload
    ok, reason = plane.configure(node, payload)
    if not ok and payload.get("action") == "remove":
        events.append(BlockEvent("config-reject", node, {"reason": reason}))
        return
    drafts.append(draft(ProcedureKind.FLOW_NOTIFY, msg.destination, msg.source,
                        msg.correlation_id,
                        {"phase": "config-ack", "node": node,
                         "flow": payload.get("flow", ""), "ok": ok}))


#: Per kind, the handler of a message a slice's plane takes.
PLANE_BY_KIND = {ProcedureKind.FLOW_CONFIGURE: _configure}

plane_handle = by_kind(PLANE_BY_KIND)


def plane_tick(plane: DPlane, ctx) -> tuple:
    """A plane's tick hook: one step, its units delivered and lost as
    events, and its link loads and flow latencies reported from its probe
    to the FM."""
    loads, latencies, delivered, lost = plane.step(ctx.tick)
    events = [BlockEvent(kind, flow, {"units": units[flow]})
              for kind, units in (("flow-delivered", delivered),
                                  ("flow-lost", lost))
              for flow in sorted(units)]
    payloads = [{"phase": "load", "link": link, "load": load}
                for link, load in loads]
    payloads += [{"phase": "latency", "flow": flow, "values": latencies[flow]}
                 for flow in sorted(latencies)]
    probe, fm = ctx.self_endpoint, ctx.peer_endpoint(Role.FM)
    corr = f"{ctx.slice_id}:telemetry:{ctx.tick}"
    notify = ProcedureKind.FLOW_NOTIFY      # read once, not per payload
    return plane, [draft(notify, probe, fm, corr, payload)
                   for payload in payloads], events


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
    bound_slice: str | None = None    # its slice while attached
    attaching: str | None = None      # correlation of the last attach sent
    flow_counter: int = 0
    corr_counters: dict = field(default_factory=dict)
    # (slice id, flow id) -> the FlowRun it started there; a run another
    # start replaced under its id lingers here unreachable
    flows: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.current_node:
            self.current_node = self.spec.home_node

    @property
    def device_id(self) -> str:
        return self.spec.device_id

    @property
    def attached(self) -> bool:
        return self.bound_slice is not None

    def presented_alias(self) -> str:
        """What the device identifies as: the permanent identity only until
        the first pseudonym is issued."""
        return self.alias or self.spec.permanent_id

    def next_correlation(self, family: str) -> str:
        n = self.corr_counters.get(family, 0) + 1
        self.corr_counters[family] = n
        return f"{self.device_id}:{family}:{n}"

    def uplink(self, kind: ProcedureKind, role: Role, slice_id: str | None,
               corr: str, payload: dict) -> list:
        """The message to the `role` block of `slice_id`: direct, or to the
        slice's AF for a device that signals via it; none without a slice."""
        if slice_id is None:
            return []
        if self.spec.mode is SignalingMode.VIA_AF:
            role = Role.AF
        return [draft(kind, Endpoint(Role.UE, self.device_id),
                      Endpoint(role, block_id(role, slice_id)), corr, payload)]

    def attach(self, ctx, method: int, drafts: list, events: list,
               target: str = "", corr: str = "", accesses: tuple = (),
               reattach: bool = False) -> None:
        """Append the drafts and events of an attach: a direct device's
        first method-1 attach goes to the global CM; any other to the
        `target` slice, or without one to the device's serving slice."""
        corr = corr or self.next_correlation("attach")
        payload = {
            "device": self.device_id, "alias": self.presented_alias(),
            "accesses": list(accesses), "node": self.current_node,
            "tech": ctx.access_nodes[self.current_node].tech.value,
            "method": method,
        }
        if reattach:
            payload["reattach"] = True
            payload["token"] = self.context_token or ""
        else:
            payload["proof"] = self.spec.proof
        if method == 1 and not reattach and \
                self.spec.mode is SignalingMode.DIRECT:
            drafts.append(draft(ProcedureKind.ATTACH_REQUEST,
                                Endpoint(Role.UE, self.device_id),
                                Endpoint(Role.CM, ctx.global_cm), corr, payload))
        else:
            slice_id = target or self.bound_slice or self.spec.default_slice \
                or min(self.spec.allowed, default=None)
            if slice_id not in ctx.slice_directory:
                events.append(error_event(self.device_id, "NoEligibleSliceError",
                                          detail="no slice to attach to"))
                return
            drafts.extend(self.uplink(ProcedureKind.ATTACH_REQUEST, Role.CM,
                                      slice_id, corr, payload))
        self.attaching = corr


def _redirect(device: SimDevice, msg, ctx, drafts: list, events: list) -> None:
    """A `SliceRedirect` is answered with a re-attach to its target."""
    device.attach(ctx, 2, drafts, events, msg.payload.get("target", ""),
                  msg.correlation_id, reattach=True)


def _execute(device: SimDevice, msg, ctx, drafts: list, events: list) -> None:
    """A handover's `execute` is answered with its `confirm`, after the
    device moves itself and its flows' ingress to the new node."""
    payload = msg.payload
    node = payload.get("node", "")
    device.current_node = node
    ingress = ctx.access_nodes[node].ingress
    for run in device.flows.values():
        run.ingress = ingress
    confirm = dict(payload)
    confirm["phase"] = "confirm"
    drafts.append(draft(ProcedureKind.HANDOVER_EXECUTE, msg.destination,
                        msg.source, msg.correlation_id, confirm))


#: Per kind, the handler of a message a device takes.
DEVICE_BY_KIND = {ProcedureKind.SLICE_REDIRECT: _redirect,
                  ProcedureKind.HANDOVER_EXECUTE: _execute}

device_handle = by_kind(DEVICE_BY_KIND)
