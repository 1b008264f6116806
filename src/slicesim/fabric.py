"""Inter-block interconnection models behind a single delivery contract.

Four models wire the same block set: a full mesh (direct links), a relay
(one member block terminates the west-bound side and relays everything), a
dispatcher (an external proxy with per-destination projected interfaces) and
a publish-subscribe broker.  `Fabric.send` is model-agnostic: it returns the
one message every recipient gets plus a delivery record carrying the hop and
mediator accounting that makes the models comparable.

A mediator is modelled as a function distinct from the block it may be
co-located with, so a relayed message costs two hops even when the relay
itself is the source or destination; this keeps per-send cost uniform and
the full mesh strictly cheaper whenever any unicast crosses the fabric.

Unicast over publish-subscribe uses one auto-registered topic per member
(`bb:<instance>`), preserving request/response semantics while exercising
the broker machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

from .errors import BadRelayError, ModelMismatchError, UnknownDestinationError
from .messages import BBInstanceId, PAYLOAD_SCHEMAS, Role, SignalMessage, Topic


class FabricModelKind(str, Enum):
    FULL_MESH = "full_mesh"
    RELAY = "relay"
    DISPATCHER = "dispatcher"
    PUB_SUB = "pubsub"


@dataclass(frozen=True)
class FabricModel:
    kind: FabricModelKind
    relay_bb: str | None = None   # role name or instance id; defaults to CM

    @classmethod
    def parse(cls, text: str) -> "FabricModel":
        if text.startswith("relay"):
            _, _, target = text.partition(":")
            return cls(FabricModelKind.RELAY, target or None)
        return cls(FabricModelKind(text))


#: Proxy interfaces of the dispatcher: payload fields forwarded per kind.
#: Diagnostic fields never cross the dispatcher.
DEFAULT_PROJECTIONS: dict = {
    kind: schema - {"diag"} for kind, schema in PAYLOAD_SCHEMAS.items()
}


@dataclass(frozen=True)
class DeliveryRecord:
    hop_count: int
    mediators: tuple[str, ...]
    recipients: tuple[str, ...]


@dataclass(frozen=True)
class DeliveryOutcome:
    record: DeliveryRecord
    msg: SignalMessage         # what each of `record.recipients` gets
    flag: str | None = None    # e.g. "NoSubscriberError": traced, not fatal


@dataclass
class Fabric:
    model: FabricModel
    members: dict                       # instance id -> Role
    mediator: str | None = None         # CPD/PS instance id when external
    relay: str | None = None            # relay member instance id
    subscriptions: dict = field(default_factory=dict)   # topic -> set of ids

    def subscribe(self, bb: str, topic: str) -> None:
        """Add `bb` to the topic's subscriber set; idempotent."""
        if self.model.kind is not FabricModelKind.PUB_SUB:
            raise ModelMismatchError(
                f"subscribe on a {self.model.kind.value} fabric")
        if bb not in self.members:
            raise UnknownDestinationError(f"{bb} is not a fabric member")
        self.subscriptions.setdefault(topic, set()).add(bb)

    def send(self, msg: SignalMessage) -> DeliveryOutcome:
        if msg.source.ident not in self.members:
            raise UnknownDestinationError(f"source {msg.source} not a member")
        if isinstance(msg.destination, Topic):
            if self.model.kind is not FabricModelKind.PUB_SUB:
                raise ModelMismatchError(
                    "topic-addressed messages need a publish-subscribe fabric")
            return self._send_topic(msg, msg.destination.topic_id)
        dst = msg.destination.ident
        if dst not in self.members:
            raise UnknownDestinationError(f"destination {msg.destination} not a member")
        kind = self.model.kind
        if kind is FabricModelKind.FULL_MESH:
            return DeliveryOutcome(DeliveryRecord(1, (), (dst,)), msg)
        if kind is FabricModelKind.RELAY:
            return DeliveryOutcome(DeliveryRecord(2, (self.relay,), (dst,)), msg)
        if kind is FabricModelKind.DISPATCHER:
            allowed = DEFAULT_PROJECTIONS[msg.kind]
            projected = replace(msg, payload={
                k: v for k, v in msg.payload.items() if k in allowed})
            return DeliveryOutcome(
                DeliveryRecord(2, (self.mediator,), (dst,)), projected)
        return self._send_topic(msg, f"bb:{dst}")

    def _send_topic(self, msg: SignalMessage, topic: str) -> DeliveryOutcome:
        recipients = tuple(sorted(self.subscriptions.get(topic, ())))
        return DeliveryOutcome(
            DeliveryRecord(2, (self.mediator,), recipients), msg,
            None if recipients else "NoSubscriberError")


def connect(members: Iterable[BBInstanceId], model: FabricModel,
            scope: str = "fabric") -> Fabric:
    """Wire a block set under one interconnection model.

    For the relay model the designated relay must itself be a member;
    dispatcher and broker mediators are created here and are not members.
    """
    member_map = {str(m): m.role for m in members}
    if not member_map:
        raise UnknownDestinationError("a fabric needs at least one member")
    fabric = Fabric(model=model, members=member_map)
    if model.kind is FabricModelKind.RELAY:
        target = model.relay_bb or Role.CM.value
        matches = [i for i, role in member_map.items()
                   if i == target or role.value == target]
        if not matches:
            raise BadRelayError(f"relay block '{target}' is not a member")
        fabric.relay = sorted(matches)[0]
    elif model.kind is FabricModelKind.DISPATCHER:
        fabric.mediator = str(BBInstanceId(Role.CPD, scope))
    elif model.kind is FabricModelKind.PUB_SUB:
        fabric.mediator = str(BBInstanceId(Role.PS, scope))
        for ident in member_map:
            fabric.subscriptions[f"bb:{ident}"] = {ident}
    return fabric
