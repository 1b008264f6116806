"""Identities, interface taxonomy and the typed C-plane signalling schema.

Everything that crosses a reference point in the simulator is a
`SignalMessage`, built once by `draft`.  A message is a plain named tuple
that lives only from its draft to its delivery: the engine validates and
queues it, and at delivery traces one `trace.MessageRecord` that carries the
message's fields with its emission number, its delivery tick and the
fabric's hop accounting.  That record is what the addressed handler
receives; every fabric delivers a message as sent.  A message keeps the
payload dict it was drafted with, and nothing writes to a payload once it
is drafted, so a forward or a publish's unicasts share it.

Reference points:

* I1: access-specific signalling between a device and the access function.
* I2: direct device signalling with core C-plane blocks.
* I3: access function to core C-plane blocks.
* I4: southbound interface from flow management to the forwarded plane.
* I7: the core C-plane towards other administrative domains (placeholder,
  no behaviour).
* InterBB: interconnection between core C-plane blocks, and from one to a
  topic (the endpoint `topic:<id>`), carried by a fabric.
* WBI: reporting composite of {I1, I2, I3}, never set on a message.

`REFERENCE_POINTS` lists the role pairs each one joins; `draft` routes a
message and `validate_message` checks it by that one table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

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
    TOPIC = "topic"  # a topic, resolved by the fabric to its subscribers

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


#: Payload field registry per kind; `validate_message` refuses a message
#: that carries a field not listed here.
PAYLOAD_SCHEMAS: dict[ProcedureKind, frozenset[str]] = {
    ProcedureKind.ATTACH_REQUEST: frozenset(
        {"device", "alias", "proof", "token", "accesses", "node", "tech",
         "method", "reattach"}),
    ProcedureKind.AUTH_CHALLENGE: frozenset({"device", "alias", "proof"}),
    ProcedureKind.AUTH_RESPONSE: frozenset(
        {"device", "ok", "pseudonym", "token"}),
    ProcedureKind.SLICE_SELECT: frozenset(
        {"device", "accesses", "node", "tech"}),
    ProcedureKind.SLICE_REDIRECT: frozenset({"device", "target"}),
    ProcedureKind.SESSION_ESTABLISH: frozenset(
        {"device", "session", "phase", "flow", "qos", "node", "ingress",
         "anchor", "addresses"}),
    ProcedureKind.SESSION_RELEASE: frozenset(
        {"device", "session", "scope", "flow"}),
    ProcedureKind.HANDOVER_PREPARE: frozenset(
        {"device", "session", "phase", "node", "ingress"}),
    ProcedureKind.HANDOVER_EXECUTE: frozenset({"device", "phase", "node"}),
    ProcedureKind.PATH_RECORD_UPDATE: frozenset({"device", "node"}),
    ProcedureKind.PAGE: frozenset({"device", "node"}),
    ProcedureKind.LOCATION_UPDATE: frozenset(
        {"device", "phase", "node", "area", "session"}),
    ProcedureKind.FLOW_CONFIGURE: frozenset({"flow", "action", "next"}),
    ProcedureKind.FLOW_NOTIFY: frozenset(
        {"phase", "node", "flow", "ok", "link", "load", "values"}),
    ProcedureKind.CONTEXT_PUBLISH: frozenset({"metric", "subject", "value"}),
    ProcedureKind.CONTEXT_NOTIFY: frozenset(
        {"subject", "statement", "evidence"}),
}


@dataclass(frozen=True, slots=True)
class Endpoint:
    """An addressable signalling endpoint: a device, an access node, a block
    instance, a forwarded-plane node or a topic."""

    role: Role
    ident: str

    def __str__(self) -> str:
        return f"{self.role._value_}:{self.ident}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        role, _, ident = text.partition(":")
        return cls(Role(role), ident)


def block_id(role: Role, scope: str) -> str:
    """A block's id in `scope`: its slice, or "global" for the common part."""
    return f"{role._value_}.{scope}.1"


class SignalMessage(NamedTuple):
    """A drafted message.  Its fields, in this order, are the message fields
    of `trace.MessageRecord`."""

    kind: ProcedureKind
    source: Endpoint
    destination: Endpoint
    interface: InterfacePoint
    correlation_id: str
    payload: Mapping[str, object]


_tuple_new = tuple.__new__


def draft(kind: ProcedureKind, source: Endpoint, destination: Endpoint,
          correlation_id: str,
          payload: Mapping[str, object] | None = None) -> SignalMessage:
    """Build a message over `payload` itself, which the caller hands over
    and never writes again, routing the interface from the endpoint roles;
    roles that no interface joins raise NoInterfaceError.  The payload
    schema is checked once, by `validate_message` when the engine emits the
    message.  Handlers read a delivered payload and never write it."""
    interface = (_INTERFACE_OF.get((source.role, destination.role))
                 or route_interface_for(source.role, destination.role))
    # tuple.__new__ skips the named tuple's own __new__ and its arity check
    return _tuple_new(SignalMessage, (kind, source, destination, interface,
                                      correlation_id,
                                      {} if payload is None else payload))


def _joins(sides, others) -> frozenset:
    """The (source, destination) role pairs, either way round, that join a
    role of `sides` to a role of `others`."""
    return frozenset(pair for a in sides for b in others
                     for pair in ((a, b), (b, a)))


#: The reference points: each interface, the role pairs it joins and the
#: violation of a message on it between any other pair.  No pair is joined
#: by two interfaces; WBI joins none.  A topic only receives.
REFERENCE_POINTS = (
    (InterfacePoint.I1, _joins({Role.UE, Role.ACCESS_NODE}, {Role.AF}),
     "interface-role mismatch: I1 is UE<->AF"),
    (InterfacePoint.I2, _joins({Role.UE}, CN_BB_ROLES),
     "interface-role mismatch: I2 is UE<->CN C-plane"),
    (InterfacePoint.I3, _joins({Role.AF}, CN_BB_ROLES),
     "interface-role mismatch: I3 is AF<->CN C-plane"),
    (InterfacePoint.INTER_BB, _joins(CN_BB_ROLES, CN_BB_ROLES)
     | {(role, Role.TOPIC) for role in CN_BB_ROLES},
     "interface-role mismatch: InterBB is CN block to CN block"),
    (InterfacePoint.I4_SBI, _joins({Role.FM}, {Role.D_PLANE}),
     "interface-role mismatch: I4 is FM<->D-plane"),
    (InterfacePoint.I7, _joins({Role.OTHER_DOMAIN}, CN_BB_ROLES),
     "interface-role mismatch: I7 crosses domains"),
    (InterfacePoint.WBI_COMPOSITE, frozenset(),
     "WBI is a reporting composite, not a message interface"),
)

#: (source role, destination role) -> the interface that joins them.
_INTERFACE_OF = {pair: iface for iface, pairs, _ in REFERENCE_POINTS
                 for pair in pairs}


def route_interface_for(source: Role, destination: Role) -> InterfacePoint:
    """The reference point of a single hop between two endpoint roles.  A
    mediated device reaches the core in two hops: I1 to its access function,
    then I3."""
    try:
        return _INTERFACE_OF[source, destination]
    except KeyError:
        raise NoInterfaceError(f"no interface defined for "
                               f"{source.value}->{destination.value}") from None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


#: Per interface, the violation of a message on it between roles it does
#: not join.
_ROLE_VIOLATIONS = {iface: text for iface, _, text in REFERENCE_POINTS}

_VALID = Verdict(True)


def validate_message(msg) -> Verdict:
    """Check a message, or a traced record of one, against its kind's
    payload schema and the interface-role rules.

    Violations are reported in the verdict, never raised; a well-formed
    message gets the shared `_VALID`.
    """
    schema = PAYLOAD_SCHEMAS[msg.kind]
    ends_ok = _INTERFACE_OF.get((msg.source.role, msg.destination.role)) \
        is msg.interface
    if ends_ok and msg.correlation_id and schema.issuperset(msg.payload):
        return _VALID
    violations: list[str] = []
    if not schema.issuperset(msg.payload):
        extra = set(msg.payload) - schema
        violations.append(f"payload fields {sorted(extra)} outside {msg.kind.value} schema")
    if not msg.correlation_id:
        violations.append("empty correlation_id")
    if msg.destination.role is Role.TOPIC:
        if msg.interface is not InterfacePoint.INTER_BB:
            violations.append("topic messages travel inter-BB")
        if msg.source.role not in CN_BB_ROLES:
            violations.append("topic publisher must be a core block")
    elif not ends_ok:
        violations.append(_ROLE_VIOLATIONS[msg.interface])
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
