"""Inter-block interconnection models behind a single delivery contract.

Four models wire the same block set: a full mesh (direct links) and three
that carry every unicast through one mediator, a relay (the slice's CM), a
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

from .errors import ModelMismatchError
from .messages import Role, SignalMessage, block_id

_TOPIC = Role.TOPIC     # read once: member reads are slow


class FabricModelKind(str, Enum):
    FULL_MESH = "full_mesh"
    RELAY = "relay"
    DISPATCHER = "dispatcher"
    PUB_SUB = "pubsub"


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
    model: FabricModelKind
    members: dict                       # Role -> instance id
    mediator: str | None = None         # relay CM, CPD or PS instance id
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
            if self.model is not FabricModelKind.PUB_SUB:
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
        if self.mediator is None:
            return DeliveryRecord(1, (), (dst,))
        return DeliveryRecord(2, (self.mediator,), (dst,))


def connect(members: Mapping[Role, str], model: FabricModelKind,
            scope: str = "fabric", subscriptions: dict | None = None) -> Fabric:
    """Wire a block set (role -> instance id) under one interconnection
    model, with its topic table (topic -> sorted subscriber ids, or none).

    The relay is the CM member; dispatcher and broker mediators are created
    here and are not members.
    """
    fabric = Fabric(model=model, members=dict(members),
                    subscriptions=subscriptions or {})
    if model is FabricModelKind.RELAY:
        fabric.mediator = members[Role.CM]
    elif model is FabricModelKind.DISPATCHER:
        fabric.mediator = block_id(Role.CPD, scope)
    elif model is FabricModelKind.PUB_SUB:
        fabric.mediator = block_id(Role.PS, scope)
    return fabric
