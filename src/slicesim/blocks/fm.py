"""Flow management: per-slice path strategies over its topology view,
capacity reservation, southbound rule application with rollback, and
forwarding-plane telemetry ingestion.

Two path strategies are supported.  ``shortest`` picks the minimum total
latency simple path, ties broken by the lexicographically smallest node-id
sequence.  ``load_distribution`` considers every simple path within
``(1 + stretch)`` times the shortest latency and picks the one minimising
the maximum post-installation link utilisation, same tie rule, where a
link's post-installation utilisation is::

    max(observed_load, (reserved + demand) / capacity)

Each ``(src, dst)`` shortest path is searched once per view (see
``TopologyView``); ``load_distribution`` ranks its candidates on every call.

Installed rules are removed lazily: a released path keeps its rules for the
path's total latency plus one tick, so units already in flight drain instead
of being dropped on the floor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

from ..errors import CapacityError, NoPathError
from ..messages import Endpoint, ProcedureKind, Role, SignalMessage, draft
from .common import (
    DEFAULT_STRETCH, BlockContext, BlockEvent, PathStrategy, by_kind,
    error_event, refusal,
)


@dataclass
class LinkState:
    capacity: int
    latency: int
    reserved: int = 0
    observed: float = 0.0


def link_key(a: str, b: str) -> tuple:
    return (a, b) if a <= b else (b, a)


@dataclass
class TopologyView:
    """A slice's topology as flow management sees it.  Nothing changes its
    nodes, link keys or latencies after the first search; only a link's
    `reserved` and `observed` move, and the shortest path reads neither.
    So the sorted adjacency and each (src, dst) shortest path are kept
    beside the fields, where equality and the digest never see them."""

    nodes: dict = field(default_factory=dict)   # node id -> kind
    links: dict = field(default_factory=dict)   # link_key -> LinkState

    @cached_property
    def adjacency(self) -> dict:
        """node -> its (neighbour, link latency) pairs in neighbour order."""
        out: dict = {}
        for (a, b), link in self.links.items():
            out.setdefault(a, []).append((b, link.latency))
            out.setdefault(b, []).append((a, link.latency))
        return {node: tuple(sorted(nbrs)) for node, nbrs in out.items()}

    @cached_property
    def shortest(self) -> dict:
        """(src, dst) -> the (latency, node tuple) `shortest_path` found."""
        return {}

    def link(self, a: str, b: str) -> LinkState:
        return self.links[link_key(a, b)]

    def path_latency(self, nodes: tuple) -> int:
        return sum(self.link(a, b).latency for a, b in zip(nodes, nodes[1:]))


@dataclass(frozen=True)
class ForwardingPath:
    flow: str
    nodes: tuple
    qos: str
    demand: int

    def pairs(self) -> tuple:
        """(node, next-hop) rules realising this path; the last node delivers."""
        hops = list(zip(self.nodes, list(self.nodes[1:]) + ["deliver"]))
        return tuple(hops)


#: Capacity units a path reserves per QoS class; an unknown class reserves 1.
QOS_DEMAND = {"default": 1, "critical": 2}


@dataclass
class SessionBinding:
    anchor: str
    flows: list = field(default_factory=list)


@dataclass
class PendingApply:
    flow: str
    path: ForwardingPath
    outstanding: set
    purpose: str               # "flow" | "handover" | "reanchor"
    reply_to: Endpoint | None
    reply_corr: str
    session: str
    anchor: str | None = None  # a reanchor's new anchor


@dataclass
class HandoverJob:
    remaining: int
    reply_to: Endpoint


@dataclass
class RetireEntry:
    due_tick: int
    flow: str
    pairs: tuple


@dataclass
class FMState:
    view: TopologyView
    strategy: PathStrategy = PathStrategy.SHORTEST_PATH
    stretch: float = DEFAULT_STRETCH
    path_table: dict = field(default_factory=dict)      # flow -> ForwardingPath
    sessions: dict = field(default_factory=dict)        # session -> SessionBinding
    flow_sessions: dict = field(default_factory=dict)   # flow -> session
    pending: dict = field(default_factory=dict)         # (corr, flow) -> PendingApply
    handover_jobs: dict = field(default_factory=dict)   # corr -> HandoverJob
    swapped_out: dict = field(default_factory=dict)     # flow -> old ForwardingPath
    retiring: list = field(default_factory=list)        # RetireEntry, due order


# -- path search ---------------------------------------------------------------

def shortest_path(view: TopologyView, src: str, dst: str) -> tuple:
    """Minimum-latency simple path as (latency, node tuple); ties by node
    sequence.  Searched once per (src, dst) of a view; a pair without a
    path raises `NoPathError` on every call."""
    found = view.shortest.get((src, dst))
    if found is None:
        found = view.shortest[src, dst] = _search(view, src, dst)
    return found


def _search(view: TopologyView, src: str, dst: str) -> tuple:
    """Dijkstra over the view.  Link latencies are >= 1, so equal-cost
    walks are simple."""
    if src not in view.nodes or dst not in view.nodes:
        raise NoPathError(f"unknown endpoint {src!r} or {dst!r}")
    adjacency = view.adjacency
    best: dict = {}
    heap = [(0, (src,))]
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if best.get(node, (1 << 60, ())) < (dist, path):
            continue
        if node == dst:
            return dist, path
        for nbr, latency in adjacency.get(node, ()):
            cand = (dist + latency, path + (nbr,))
            if cand < best.get(nbr, (1 << 60, ())):
                best[nbr] = cand
                heapq.heappush(heap, cand)
    raise NoPathError(f"no path {src} -> {dst}")


def simple_paths_within(view: TopologyView, src: str, dst: str,
                        budget: float) -> list:
    """All simple paths with total latency within the budget."""
    results: list = []
    adjacency = view.adjacency

    def walk(node: str, path: tuple, dist: int) -> None:
        if node == dst:
            results.append((dist, path))
            return
        for nbr, latency in adjacency.get(node, ()):
            if nbr in path:
                continue
            step = dist + latency
            if step <= budget:
                walk(nbr, path + (nbr,), step)

    walk(src, (src,), 0)
    return results


def post_install_utilisation(view: TopologyView, nodes: tuple, demand: int) -> float:
    worst = 0.0
    for a, b in zip(nodes, nodes[1:]):
        link = view.link(a, b)
        worst = max(worst, link.observed,
                    (link.reserved + demand) / link.capacity)
    return worst


def choose_path(view: TopologyView, src: str, dst: str, demand: int,
                strategy: PathStrategy, stretch: float) -> tuple:
    if strategy is PathStrategy.SHORTEST_PATH:
        return shortest_path(view, src, dst)[1], None
    base, _ = shortest_path(view, src, dst)
    budget = (1 + stretch) * base
    candidates = simple_paths_within(view, src, dst, budget)
    ranked = sorted(
        (post_install_utilisation(view, path, demand), path)
        for _, path in candidates)
    utilisation, path = ranked[0]
    return path, utilisation


# -- operations ------------------------------------------------------------------

def fm_define_path(state: FMState, flow: str, ingress: str, egress: str,
                   qos: str) -> ForwardingPath:
    """Pick a path under the active strategy and reserve its capacity."""
    demand = QOS_DEMAND.get(qos, 1)
    nodes, _ = choose_path(state.view, ingress, egress, demand,
                           state.strategy, state.stretch)
    for a, b in zip(nodes, nodes[1:]):
        link = state.view.link(a, b)
        if link.reserved + demand > link.capacity:
            raise CapacityError(
                f"link {a}~{b} cannot reserve {demand} more units")
    path = ForwardingPath(flow=flow, nodes=nodes, qos=qos, demand=demand)
    _reserve(state, path, +1)
    state.path_table[flow] = path
    return path


def _reserve(state: FMState, path: ForwardingPath, sign: int) -> None:
    for a, b in zip(path.nodes, path.nodes[1:]):
        state.view.link(a, b).reserved += sign * path.demand


def fm_apply(state: FMState, path: ForwardingPath, ctx: BlockContext,
             corr: str, purpose: str, reply_to: Endpoint | None,
             session: str, anchor: str | None = None) -> list:
    """Emit one install command per on-path node through the southbound
    adaptor and track the acknowledgement set."""
    state.pending[(corr, path.flow)] = PendingApply(
        flow=path.flow, path=path, outstanding=set(path.nodes),
        purpose=purpose, reply_to=reply_to, reply_corr=corr, session=session,
        anchor=anchor)
    return [
        draft(ProcedureKind.FLOW_CONFIGURE, ctx.self_endpoint,
              _dplane(ctx, node), corr,
              {"flow": path.flow, "action": "install", "next": nxt})
        for node, nxt in path.pairs()
    ]


def _dplane(ctx: BlockContext, node: str) -> Endpoint:
    return Endpoint(Role.D_PLANE, f"{ctx.slice_id}:{node}")


def _retire_pairs(state: FMState, flow: str, pairs: tuple, tick: int,
                  drain_latency: int) -> None:
    state.retiring.append(RetireEntry(
        due_tick=tick + drain_latency + 1, flow=flow, pairs=tuple(pairs)))


def fm_release_path(state: FMState, flow: str, tick: int,
                    keep: ForwardingPath | None = None) -> None:
    """Release a flow's path: free the reservation now and schedule rule
    removal after the drain window.  Rules shared with `keep` survive."""
    path = state.swapped_out.pop(flow, None) if keep else state.path_table.pop(flow, None)
    if path is None:
        return
    _reserve(state, path, -1)
    keep_pairs = set(keep.pairs()) if keep else set()
    doomed = tuple(p for p in path.pairs() if p not in keep_pairs)
    if doomed:
        _retire_pairs(state, flow, doomed, tick, state.view.path_latency(path.nodes))


# -- message handling --------------------------------------------------------------

def _establish(state: FMState, msg, ctx: BlockContext, drafts: list,
               events: list) -> None:
    payload = msg.payload
    phase = payload.get("phase", "flow")
    if phase == "register":
        session = payload["session"]
        state.sessions[session] = SessionBinding(anchor=payload["anchor"])
        drafts.append(draft(
            ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint, msg.source,
            msg.correlation_id, {"session": session, "phase": "register-ok"}))
    elif phase == "flow":
        _start_flow(state, msg, ctx, drafts, events)
    elif phase == "reanchor":
        _start_reanchor(state, msg, ctx, drafts, events)


def _start_flow(state: FMState, msg, ctx: BlockContext, drafts: list,
                events: list) -> None:
    payload = msg.payload
    session = payload["session"]
    binding = state.sessions.get(session)
    flow = payload["flow"]
    if binding is None:
        events.append(error_event(session, "NoSessionError",
                                  detail="flow for unknown session"))
        return
    try:
        path = fm_define_path(state, flow, payload["ingress"], binding.anchor,
                              payload.get("qos", "default"))
    except (NoPathError, CapacityError) as exc:
        events.append(refusal(flow, exc))
        drafts.append(draft(
            ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint, msg.source,
            msg.correlation_id,
            {"session": session, "phase": "flow-err", "flow": flow}))
        return
    state.flow_sessions[flow] = session
    events.append(BlockEvent("path-defined", flow,
                             {"nodes": list(path.nodes), "qos": path.qos}))
    drafts.extend(fm_apply(state, path, ctx, msg.correlation_id, "flow",
                           msg.source, session))


def _start_reanchor(state: FMState, msg, ctx: BlockContext, drafts: list,
                    events: list) -> None:
    payload = msg.payload
    session = payload["session"]
    flow = payload["flow"]
    old = state.path_table.get(flow)
    if old is None:
        return
    new_anchor = payload["anchor"]
    try:
        path = fm_define_path(state, flow, old.nodes[0], new_anchor, old.qos)
    except (NoPathError, CapacityError) as exc:
        events.append(refusal(flow, exc))
        return
    state.swapped_out[flow] = old
    events.append(BlockEvent("path-defined", flow,
                             {"nodes": list(path.nodes), "qos": path.qos,
                              "reanchor": new_anchor}))
    drafts.extend(fm_apply(state, path, ctx, msg.correlation_id, "reanchor",
                           msg.source, session, anchor=new_anchor))


def _start_handover_paths(state: FMState, msg, ctx: BlockContext,
                          drafts: list, events: list) -> None:
    payload = msg.payload
    if payload.get("phase") != "new-path":
        return
    session = payload["session"]
    binding = state.sessions.get(session)
    if binding is None:
        events.append(error_event(session, "NoSessionError",
                                  detail="handover for unknown session"))
        return
    new_ingress = payload["ingress"]
    applied = 0
    for flow in [f for f in binding.flows if f in state.path_table]:
        old = state.path_table[flow]
        try:
            path = fm_define_path(state, flow, new_ingress, binding.anchor, old.qos)
        except (NoPathError, CapacityError) as exc:
            events.append(refusal(flow, exc))
            continue
        state.swapped_out[flow] = old
        drafts.extend(fm_apply(state, path, ctx, msg.correlation_id,
                               "handover", None, session))
        applied += 1
    if not applied:
        # nothing to await: a refused flow keeps its old path
        drafts.append(draft(
            ProcedureKind.HANDOVER_PREPARE, ctx.self_endpoint, msg.source,
            msg.correlation_id,
            {"phase": "new-path-ok"}))
        return
    state.handover_jobs[msg.correlation_id] = HandoverJob(
        remaining=applied, reply_to=msg.source)


def _handle_release(state: FMState, msg, ctx: BlockContext, drafts: list,
                    events: list) -> None:
    payload = msg.payload
    session = payload.get("session", "")
    scope = payload.get("scope", "flow")
    if scope == "flow":
        flow = payload.get("flow", "")
        fm_release_path(state, flow, ctx.tick)
        state.flow_sessions.pop(flow, None)
        binding = state.sessions.get(session)
        if binding and flow in binding.flows:
            binding.flows.remove(flow)
        events.append(BlockEvent("flow-released", flow, {"session": session}))
    elif scope == "handover-old":
        for flow in sorted(state.swapped_out):
            if state.flow_sessions.get(flow) != session:
                continue
            current = state.path_table.get(flow)
            fm_release_path(state, flow, ctx.tick, keep=current)
            events.append(BlockEvent("old-path-released", flow,
                                     {"session": session}))
    elif scope == "session":
        binding = state.sessions.pop(session, None)
        if binding:
            for flow in list(binding.flows):
                fm_release_path(state, flow, ctx.tick)
                state.flow_sessions.pop(flow, None)
                events.append(BlockEvent("flow-released", flow,
                                         {"session": session}))


#: What a latency report reads per value, read once: member reads are slow.
_CGHF, _CONTEXT_PUBLISH = Role.CGHF, ProcedureKind.CONTEXT_PUBLISH


def _handle_notify(state: FMState, msg, ctx: BlockContext, drafts: list,
                   events: list) -> None:
    payload = msg.payload
    phase = payload.get("phase", "")

    if phase == "config-ack":
        key = (msg.correlation_id, payload.get("flow", ""))
        job = state.pending.get(key)
        if job is None:
            return
        if not payload.get("ok", False):
            drafts.extend(_rollback(state, key, job, ctx))
            events.append(error_event(
                job.flow, "AdaptorError",
                detail=f"node {payload.get('node')} rejected"))
            return
        job.outstanding.discard(payload.get("node", ""))
        if not job.outstanding:
            del state.pending[key]
            drafts.extend(_commit(state, job, ctx))
    elif phase == "load":
        name = payload.get("link", "")
        if "~" in name:
            a, b = name.split("~", 1)
            link = state.view.links.get(link_key(a, b))
            if link is not None:
                link.observed = float(payload.get("load", 0.0))
    elif phase == "latency":
        if ctx.has(_CGHF):
            flow = payload.get("flow", "")
            source, cghf = ctx.self_endpoint, ctx.peer_endpoint(_CGHF)
            corr = msg.correlation_id
            drafts.extend([draft(_CONTEXT_PUBLISH, source, cghf, corr,
                                 {"metric": "flow-latency", "subject": flow,
                                  "value": value})
                           for value in payload.get("values", [])])


def _commit(state: FMState, job: PendingApply, ctx: BlockContext) -> list:
    drafts: list[SignalMessage] = []
    if job.purpose == "flow":
        binding = state.sessions.get(job.session)
        if binding is not None and job.flow not in binding.flows:
            binding.flows.append(job.flow)
        drafts.append(draft(
            ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint, job.reply_to,
            job.reply_corr,
            {"session": job.session, "phase": "flow-ok", "flow": job.flow}))
    elif job.purpose == "reanchor":
        binding = state.sessions.get(job.session)
        if binding is not None:
            binding.anchor = job.anchor
        # retire what the old path used exclusively
        fm_release_path(state, job.flow, ctx.tick, keep=job.path)
        drafts.append(draft(
            ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint, job.reply_to,
            job.reply_corr,
            {"session": job.session, "phase": "reanchor-ok",
             "anchor": job.anchor}))
    elif job.purpose == "handover":
        ho = state.handover_jobs.get(job.reply_corr)
        if ho is not None:
            ho.remaining -= 1
            if ho.remaining == 0:
                del state.handover_jobs[job.reply_corr]
                drafts.append(draft(
                    ProcedureKind.HANDOVER_PREPARE, ctx.self_endpoint,
                    ho.reply_to, job.reply_corr,
                    {"phase": "new-path-ok"}))
    return drafts


def _rollback(state: FMState, key: tuple, job: PendingApply,
              ctx: BlockContext) -> list:
    """Undo a partially applied path: free its reservation, restore the
    swapped-out path if any, and remove rules already installed."""
    del state.pending[key]
    _reserve(state, job.path, -1)
    restored = state.swapped_out.pop(job.flow, None)
    if restored is not None:
        state.path_table[job.flow] = restored
    else:
        state.path_table.pop(job.flow, None)
    acked = [p for p in job.path.pairs() if p[0] not in job.outstanding]
    keep = set(restored.pairs()) if restored else set()
    drafts = [
        draft(ProcedureKind.FLOW_CONFIGURE, ctx.self_endpoint,
              _dplane(ctx, node), job.reply_corr,
              {"flow": job.flow, "action": "remove", "next": nxt})
        for node, nxt in acked if (node, nxt) not in keep
    ]
    if job.reply_to is not None and job.purpose == "flow":
        drafts.append(draft(
            ProcedureKind.SESSION_ESTABLISH, ctx.self_endpoint, job.reply_to,
            job.reply_corr,
            {"session": job.session, "phase": "flow-err", "flow": job.flow}))
    return drafts


def tick_hook(state: FMState, ctx: BlockContext):
    """Send removal commands for retired rules whose drain window elapsed."""
    drafts: list[SignalMessage] = []
    due = [r for r in state.retiring if r.due_tick <= ctx.tick]
    state.retiring = [r for r in state.retiring if r.due_tick > ctx.tick]
    for entry in due:
        for node, nxt in entry.pairs:
            drafts.append(draft(
                ProcedureKind.FLOW_CONFIGURE, ctx.self_endpoint,
                _dplane(ctx, node), f"{entry.flow}:retire",
                {"flow": entry.flow, "action": "remove", "next": nxt}))
    return state, drafts, ()


#: Per kind, the handler of a message the FM takes.
BY_KIND = {
    ProcedureKind.SESSION_ESTABLISH: _establish,
    ProcedureKind.HANDOVER_PREPARE: _start_handover_paths,
    ProcedureKind.SESSION_RELEASE: _handle_release,
    ProcedureKind.FLOW_NOTIFY: _handle_notify,
}

handle = by_kind(BY_KIND)
