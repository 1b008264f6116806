"""Identities, interface taxonomy and the typed C-plane signalling schema.

Everything that crosses a reference point in the simulator is a
`SignalMessage`, built once by `draft`; the engine queues, delivers and
traces that object (a dispatcher fabric delivers its projection).  The
engine numbers a message in its queue entry when it is emitted and traces
it with that number and its delivery tick; neither is a message field.

Reference points:

* I1: access-specific signalling between a device and the access function.
* I2: direct device signalling with core C-plane blocks.
* I3: access function to core C-plane blocks.
* I4: southbound interface from flow management to the forwarded plane.
* I7: towards other administrative domains (placeholder, no behaviour).
* InterBB: interconnection between core C-plane blocks, carried by a fabric.
* WBI: reporting composite of {I1, I2, I3}, never set on a message.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

from .errors import NoInterfaceError


class Role(str, Enum):
    UE = "UE"
    ACCESS_NODE = "AN"
    AF = "AF"
    CM = "CM"
    MM = "MM"
    SAM = "SAM"
    FM = "FM"
    CGHF = "CGHF"
    D_PLANE = "DP"
    OTHER_DOMAIN = "EXT"
    CPD = "CPD"    # dispatcher mediator, never a member endpoint
    PS = "PS"      # publish-subscribe broker, never a member endpoint

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Core C-plane block roles reachable over I2/I3/InterBB.
CN_BB_ROLES = frozenset({Role.CM, Role.MM, Role.SAM, Role.FM, Role.CGHF})

#: Roles a slice may instantiate.
BB_ROLES = frozenset({Role.AF}) | CN_BB_ROLES

MANDATORY_BB_ROLES = frozenset({Role.AF, Role.CM, Role.SAM, Role.FM})
OPTIONAL_BB_ROLES = frozenset({Role.MM, Role.CGHF})


class InterfacePoint(str, Enum):
    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4_SBI = "I4"
    I7 = "I7"
    INTER_BB = "IBB"
    WBI_COMPOSITE = "WBI"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Interfaces folded into the west-bound composite for reporting.
WBI_MEMBERS = frozenset({InterfacePoint.I1, InterfacePoint.I2, InterfacePoint.I3})


class ProcedureKind(str, Enum):
    ATTACH_REQUEST = "AttachRequest"
    AUTH_CHALLENGE = "AuthChallenge"
    AUTH_RESPONSE = "AuthResponse"
    SLICE_SELECT = "SliceSelect"
    SLICE_REDIRECT = "SliceRedirect"
    SESSION_ESTABLISH = "SessionEstablish"
    SESSION_RELEASE = "SessionRelease"
    HANDOVER_PREPARE = "HandoverPrepare"
    HANDOVER_EXECUTE = "HandoverExecute"
    PATH_RECORD_UPDATE = "PathRecordUpdate"
    PAGE = "Page"
    LOCATION_UPDATE = "LocationUpdate"
    FLOW_CONFIGURE = "FlowConfigure"
    FLOW_NOTIFY = "FlowNotify"
    CONTEXT_PUBLISH = "ContextPublish"
    CONTEXT_NOTIFY = "ContextNotify"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Payload field registry per kind.  The dispatcher's proxy interfaces
#: project payloads onto these sets (minus diagnostic fields); a field not
#: listed here never crosses a fabric.
PAYLOAD_SCHEMAS: dict[ProcedureKind, frozenset[str]] = {
    ProcedureKind.ATTACH_REQUEST: frozenset(
        {"device", "alias", "proof", "token", "accesses", "node", "area",
         "tech", "method", "reattach", "diag"}),
    ProcedureKind.AUTH_CHALLENGE: frozenset(
        {"device", "alias", "proof", "scheme", "diag"}),
    ProcedureKind.AUTH_RESPONSE: frozenset(
        {"device", "ok", "pseudonym", "ordinal", "low_secure", "token",
         "reason", "diag"}),
    ProcedureKind.SLICE_SELECT: frozenset(
        {"device", "slice", "pseudonym", "ordinal", "token", "accesses",
         "node", "area", "tech", "mode", "diag"}),
    ProcedureKind.SLICE_REDIRECT: frozenset({"device", "target", "diag"}),
    ProcedureKind.SESSION_ESTABLISH: frozenset(
        {"device", "session", "phase", "flow", "rate", "duration", "qos",
         "node", "ingress", "anchor", "addresses", "ok", "diag"}),
    ProcedureKind.SESSION_RELEASE: frozenset(
        {"device", "session", "scope", "flow", "diag"}),
    ProcedureKind.HANDOVER_PREPARE: frozenset(
        {"device", "session", "phase", "node", "tech", "area", "ingress",
         "ok", "diag"}),
    ProcedureKind.HANDOVER_EXECUTE: frozenset(
        {"device", "session", "phase", "node", "tech", "area", "diag"}),
    ProcedureKind.PATH_RECORD_UPDATE: frozenset(
        {"device", "node", "tech", "event", "diag"}),
    ProcedureKind.PAGE: frozenset({"device", "node", "reason", "area", "diag"}),
    ProcedureKind.LOCATION_UPDATE: frozenset(
        {"device", "phase", "node", "area", "session", "mode", "diag"}),
    ProcedureKind.FLOW_CONFIGURE: frozenset(
        {"flow", "node", "action", "next", "config", "diag"}),
    ProcedureKind.FLOW_NOTIFY: frozenset(
        {"phase", "node", "flow", "ok", "action", "link", "load", "values",
         "diag"}),
    ProcedureKind.CONTEXT_PUBLISH: frozenset(
        {"metric", "subject", "value", "source", "external", "diag"}),
    ProcedureKind.CONTEXT_NOTIFY: frozenset(
        {"topic", "subject", "statement", "evidence", "diag"}),
}


@dataclass(frozen=True)
class Endpoint:
    """An addressable signalling endpoint: a device, an access node, a block
    instance or a forwarded-plane node."""

    role: Role
    ident: str

    def __str__(self) -> str:
        return f"{self.role.value}:{self.ident}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        role, _, ident = text.partition(":")
        return cls(Role(role), ident)


@dataclass(frozen=True)
class Topic:
    """Topic-addressed destination, resolved by a publish-subscribe fabric."""

    topic_id: str

    def __str__(self) -> str:
        return f"topic:{self.topic_id}"


Destination = Union[Endpoint, Topic]


@dataclass(frozen=True)
class BBInstanceId:
    role: Role
    scope: str        # slice id, or "global" for the common control part
    ordinal: int = 1

    def __str__(self) -> str:
        return f"{self.role.value}.{self.scope}.{self.ordinal}"

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.role, str(self))


@dataclass(frozen=True)
class SignalMessage:
    kind: ProcedureKind
    source: Endpoint
    destination: Destination
    interface: InterfacePoint
    correlation_id: str
    payload: Mapping[str, object] = field(default_factory=dict)


def draft(kind: ProcedureKind, source: Endpoint, destination: Destination,
          correlation_id: str, payload: Mapping[str, object] | None = None,
          interface: InterfacePoint | None = None) -> SignalMessage:
    """Build a message over its own copy of `payload`, routing the interface
    from the endpoint roles unless given explicitly (topic destinations are
    always inter-BB).  Handlers read a delivered payload and never write it."""
    if interface is None:
        if isinstance(destination, Topic):
            interface = InterfacePoint.INTER_BB
        else:
            interface = route_interface_for(source.role, destination.role)
    unknown = set(payload or ()) - PAYLOAD_SCHEMAS[kind]
    if unknown:
        raise ValueError(f"fields {sorted(unknown)} not in {kind.value} schema")
    return SignalMessage(kind, source, destination, interface, correlation_id,
                         dict(payload or {}))


class Mediation(str, Enum):
    DIRECT = "direct"
    VIA_AF = "via_af"


def route_interface_for(source: Role, destination: Role,
                        mediation: Mediation = Mediation.DIRECT) -> InterfacePoint:
    """Reference-point routing for a single hop between two endpoint roles.

    A mediated device never reaches a core block in one hop: its uplink
    terminates at the access function on I1 and continues on I3.
    """
    pair = {source, destination}
    if pair == {Role.UE, Role.AF} or pair == {Role.ACCESS_NODE, Role.AF}:
        return InterfacePoint.I1
    if Role.UE in pair and pair & CN_BB_ROLES:
        if mediation is Mediation.VIA_AF:
            raise NoInterfaceError(
                "mediated device signalling terminates at the AF on I1")
        return InterfacePoint.I2
    if Role.AF in pair and pair & CN_BB_ROLES:
        return InterfacePoint.I3
    if pair <= CN_BB_ROLES:
        return InterfacePoint.INTER_BB
    if pair == {Role.FM, Role.D_PLANE}:
        return InterfacePoint.I4_SBI
    if Role.OTHER_DOMAIN in pair and pair & CN_BB_ROLES:
        return InterfacePoint.I7
    raise NoInterfaceError(f"no interface defined for {source.value}->{destination.value}")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _role_violations(iface: InterfacePoint, source: Role,
                     destination: Role | type[Topic]) -> tuple[str, ...]:
    """The interface-role part of a verdict; `destination` is the
    destination's role, or `Topic` for a topic-addressed message."""
    violations: list[str] = []
    if destination is Topic:
        if iface is not InterfacePoint.INTER_BB:
            violations.append("topic messages travel inter-BB")
        if source not in CN_BB_ROLES:
            violations.append("topic publisher must be a core block")
        return tuple(violations)

    pair = {source, destination}
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
        if Role.OTHER_DOMAIN not in pair:
            violations.append("interface-role mismatch: I7 crosses domains")
    elif iface is InterfacePoint.INTER_BB:
        if not pair <= CN_BB_ROLES:
            violations.append("interface-role mismatch: InterBB is CN block to CN block")
    return tuple(violations)


#: `_role_violations` of every (interface, source role, destination role or
#: Topic).
_ROLE_VIOLATIONS = {
    (iface, source, destination): _role_violations(iface, source, destination)
    for iface in InterfacePoint for source in Role for destination in (*Role, Topic)}

_VALID = Verdict(True)


def validate_message(msg: SignalMessage) -> Verdict:
    """Check a message against its kind's payload schema and the
    interface-role rules.

    Violations are reported in the verdict, never raised.
    """
    violations: list[str] = []
    schema = PAYLOAD_SCHEMAS.get(msg.kind)
    if schema is None:
        violations.append(f"unknown kind {msg.kind!r}")
    elif not schema.issuperset(msg.payload):
        extra = set(msg.payload) - schema
        violations.append(f"payload fields {sorted(extra)} outside {msg.kind.value} schema")
    if not msg.correlation_id:
        violations.append("empty correlation_id")
    destination = msg.destination
    violations.extend(_ROLE_VIOLATIONS[
        msg.interface, msg.source.role,
        Topic if isinstance(destination, Topic) else destination.role])
    if not violations:
        return _VALID
    return Verdict(False, tuple(violations))


# -- identity minting --------------------------------------------------------

def _digest(*parts: object) -> str:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()
    return h[:16]


def mint_pseudonym(seed: int, permanent_id: str, ordinal: int) -> str:
    """Randomised alias for a permanent subscriber identity.

    Keyed on (seed, identity, context ordinal) so values are reproducible for
    a seed, differ across seeds, and are insensitive to unrelated traffic.
    """
    return f"psn-{_digest(seed, permanent_id, ordinal, 'pseudonym')}"


def mint_key_material(seed: int, device_id: str, ordinal: int) -> str:
    """Opaque stand-in for agreed key material (no real cryptography)."""
    return f"key-{_digest(seed, device_id, ordinal, 'key')}"


def mint_context_token(seed: int, device_id: str, ordinal: int) -> str:
    """Portable proof that a security context exists, carried on re-attachment."""
    return f"ctx-{_digest(seed, device_id, ordinal, 'token')}"
