"""Inter-block interconnection models behind a single delivery contract.

Four models wire the same block set: a full mesh (direct links), a relay
(one member block terminates the west-bound side and relays everything), a
dispatcher (an external proxy) and a publish-subscribe broker.  Every model
delivers the message it was sent; `Fabric.send` is model-agnostic and
returns only its delivery record, the hop and mediator accounting that
makes the models comparable.  A topic is an endpoint of role `topic`; the
fabric owns its slice's topic table, which the broker reads at send time
and the engine reads to expand a publish into unicasts on the other models.

A mediator is modelled as a function distinct from the block it may be
co-located with, so a relayed message costs two hops even when the relay
itself is the source or destination; this keeps per-send cost uniform and
the full mesh strictly cheaper whenever any unicast crosses the fabric.

A unicast over publish-subscribe goes through the broker to its one
destination, so it costs what a relayed or dispatched unicast costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import BadRelayError, ModelMismatchError
from .messages import Role, SignalMessage, block_id

_TOPIC = Role.TOPIC     # read once: member reads are slow


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


@dataclass(frozen=True)
class DeliveryRecord:
    hop_count: int
    mediators: tuple[str, ...]
    recipients: tuple[str, ...]


@dataclass(frozen=True)
class DeliveryOutcome:
    """What `Fabric.send` returns; the benchmark's tracer reads
    `outcome.record.hop_count`."""

    record: DeliveryRecord


@dataclass
class Fabric:
    model: FabricModel
    members: dict                       # Role -> instance id
    mediator: str | None = None         # CPD/PS instance id when external
    relay: str | None = None            # relay member instance id
    subscriptions: dict = field(default_factory=dict)   # topic -> sorted ids
    # destination id -> the outcome every unicast to it returns, built at
    # the first send; outcome and record are frozen, so sends can share them
    unicasts: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def send(self, msg: SignalMessage) -> DeliveryOutcome:
        """Carry a message from a member to a member or a topic.  Only the
        engine sends, and it hands a fabric its own slice's blocks only."""
        destination = msg.destination
        if destination.role is _TOPIC:
            if self.model.kind is not FabricModelKind.PUB_SUB:
                raise ModelMismatchError(
                    "topic-addressed messages need a publish-subscribe fabric")
            return DeliveryOutcome(DeliveryRecord(
                2, (self.mediator,),
                self.subscriptions.get(destination.ident, ())))
        dst = destination.ident
        outcome = self.unicasts.get(dst)
        if outcome is None:
            outcome = self.unicasts[dst] = DeliveryOutcome(self._unicast(dst))
        return outcome

    def _unicast(self, dst: str) -> DeliveryRecord:
        """The delivery record of a unicast to `dst` under this model."""
        kind = self.model.kind
        if kind is FabricModelKind.FULL_MESH:
            return DeliveryRecord(1, (), (dst,))
        if kind is FabricModelKind.RELAY:
            return DeliveryRecord(2, (self.relay,), (dst,))
        # the dispatcher or the broker carries the unicast
        return DeliveryRecord(2, (self.mediator,), (dst,))


def connect(members: Mapping[Role, str], model: FabricModel,
            scope: str = "fabric", subscriptions: dict | None = None) -> Fabric:
    """Wire a block set (role -> instance id) under one interconnection
    model, with its topic table (topic -> sorted subscriber ids, or none).

    For the relay model the designated relay must itself be a member;
    dispatcher and broker mediators are created here and are not members.
    """
    fabric = Fabric(model=model, members=dict(members),
                    subscriptions=subscriptions or {})
    if model.kind is FabricModelKind.RELAY:
        target = model.relay_bb or Role.CM.value
        matches = [i for role, i in members.items()
                   if i == target or role.value == target]
        if not matches:
            raise BadRelayError(f"relay block '{target}' is not a member")
        fabric.relay = sorted(matches)[0]
    elif model.kind is FabricModelKind.DISPATCHER:
        fabric.mediator = block_id(Role.CPD, scope)
    elif model.kind is FabricModelKind.PUB_SUB:
        fabric.mediator = block_id(Role.PS, scope)
    return fabric
