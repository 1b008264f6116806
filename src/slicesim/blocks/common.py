"""Shared policy types and the read-only context handed to block handlers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping

from ..messages import Endpoint, Role


class Tech(str, Enum):
    CELLULAR = "cellular"
    WIFI = "wifi"
    FIXED = "fixed"


class AuthScheme(str, Enum):
    FULL = "full"
    LOW_SECURE = "low_secure"


class HandoverStyle(str, Enum):
    MAKE_BEFORE_BREAK = "mbb"
    BREAK_BEFORE_MAKE = "bbm"


class Anchoring(str, Enum):
    CENTRALISED = "centralised"
    DISTRIBUTED = "distributed"


class PathStrategy(str, Enum):
    SHORTEST_PATH = "shortest"
    LOAD_DISTRIBUTION = "load_distribution"


ALL_TECHS = frozenset(Tech)

#: How long a page may stay unanswered before reverting to idle.
DEFAULT_PAGE_TIMEOUT = 8

#: Load-distribution paths may be up to (1 + stretch) times the shortest.
DEFAULT_STRETCH = 0.5


@dataclass(frozen=True)
class MobilityPolicy:
    style: HandoverStyle
    anchoring: Anchoring = Anchoring.CENTRALISED
    allowed_techs: frozenset = ALL_TECHS
    page_timeout: int = DEFAULT_PAGE_TIMEOUT


@dataclass(frozen=True)
class SlicePolicy:
    auth_scheme: AuthScheme = AuthScheme.FULL
    mobility: MobilityPolicy | None = None


@dataclass(frozen=True)
class AccessNodeInfo:
    node_id: str
    tech: Tech
    area: str
    ingress: str     # forwarded-plane node the access node feeds


@dataclass(frozen=True)
class BlockEvent:
    kind: str
    subject: str
    detail: dict = field(default_factory=dict)


def error_event(subject: str, error: str, **detail) -> BlockEvent:
    """A traced error: `error` names the condition, `detail` adds fields."""
    return BlockEvent("error", subject, {"error": error, **detail})


def refusal(subject: str, exc: Exception) -> BlockEvent:
    """The traced error of a request a handler refused on a domain error."""
    return error_event(subject, type(exc).__name__, detail=str(exc))


def _ignore(state, msg, ctx, drafts: list, events: list) -> None:
    """The handler of a kind a table lacks."""


def by_kind(table: Mapping) -> Callable:
    """A `handle(state, msg, ctx)` that calls `table[msg.kind](state, msg,
    ctx, drafts, events)` with fresh lists and returns `(state, drafts,
    events)`; a kind the table lacks is ignored."""
    get = table.get

    def handle(state, msg, ctx):
        drafts: list = []
        events: list = []
        get(msg.kind, _ignore)(state, msg, ctx, drafts, events)
        return state, drafts, events

    return handle


@dataclass(frozen=True)
class BlockContext:
    """What a handler may read besides its own state: wiring, policy and the
    static access/topology directories of its slice, and which devices
    signal via their access function.  Built once per block and per plane,
    and once for all devices, into the engine's routing index; handlers
    cannot write to it, and the engine moves `tick` before a call.  Its own
    endpoint and each peer's are built on first use and shared.  A message
    carries no fact its receiver can read here."""

    slice_id: str
    self_id: str
    role: Role
    tick: int
    seed: int
    peers: Mapping            # Role -> instance id within this slice
    policy: SlicePolicy
    access_nodes: Mapping     # node id -> AccessNodeInfo
    anchors: tuple = ()       # anchor candidate node ids
    ingress_latency: Mapping = field(default_factory=dict)  # (ingress, anchor) -> ticks
    global_cm: str | None = None
    slice_directory: Mapping = field(default_factory=dict)  # slice id -> local CM id
    mediated: frozenset = frozenset()   # devices whose signalling mode is via_af

    @cached_property
    def self_endpoint(self) -> Endpoint:
        return Endpoint(self.role, self.self_id)

    @cached_property
    def _peer_endpoints(self) -> dict:
        return {role: Endpoint(role, ident) for role, ident in self.peers.items()}

    def has(self, role: Role) -> bool:
        return role in self.peers

    def peer_endpoint(self, role: Role) -> Endpoint:
        return self._peer_endpoints[role]

    def downlink(self, device: str) -> Endpoint:
        """Where a message to `device` goes: its access function when the
        device is mediated, the device itself otherwise."""
        if device in self.mediated:
            return self.peer_endpoint(Role.AF)
        return Endpoint(Role.UE, device)

    def nodes_in_area(self, area: str) -> tuple:
        return tuple(sorted(
            n for n, info in self.access_nodes.items() if info.area == area))
