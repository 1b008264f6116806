"""Delivery contract tests for the four interconnection models."""

import pytest

from slicesim.errors import ModelMismatchError
from slicesim.fabric import (
    DeliveryRecord, FabricModelKind, connect,
)
from slicesim.messages import (
    Endpoint, InterfacePoint, ProcedureKind, Role, SignalMessage, block_id,
)

from conftest import implied_link_count

SLICE = "slice-a"


def bb(role):
    return block_id(role, SLICE)


def endpoint(role):
    return Endpoint(role, bb(role))


def six_members():
    return {r: bb(r) for r in (Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM,
                               Role.CGHF)}


def inter_bb_msg(src, dst, kind=ProcedureKind.FLOW_CONFIGURE, payload=None):
    return SignalMessage(
        kind=kind,
        source=endpoint(src), destination=endpoint(dst),
        interface=InterfacePoint.INTER_BB, correlation_id="c1",
        payload=payload or {"flow": "f1", "node": "n1", "action": "install"})


class TestConnect:
    def test_full_mesh_implied_links(self):
        fabric = connect(six_members(), FabricModelKind.FULL_MESH)
        assert implied_link_count(fabric) == 15

    def test_dispatcher_star_has_one_spoke_per_member(self):
        fabric = connect(six_members(), FabricModelKind.DISPATCHER)
        assert implied_link_count(fabric) == 6
        assert fabric.mediator.startswith("CPD.")

    def test_relay_star_spokes(self):
        fabric = connect(six_members(), FabricModelKind("relay"))
        assert implied_link_count(fabric) == 5
        assert fabric.mediator == bb(Role.CM)


class TestSend:
    def test_full_mesh_direct(self):
        fabric = connect(six_members(), FabricModelKind.FULL_MESH)
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.hop_count == 1
        assert outcome.record.mediators == ()
        assert outcome.record.recipients == (bb(Role.FM),)

    def test_dispatcher_mediates(self):
        fabric = connect(six_members(), FabricModelKind.DISPATCHER)
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.hop_count == 2
        assert outcome.record.mediators == (fabric.mediator,)

    def test_relay_mediates_even_when_relay_is_an_endpoint(self):
        fabric = connect(six_members(), FabricModelKind("relay"))
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.hop_count == 2
        assert outcome.record.mediators == (bb(Role.CM),)


class TestPubSub:
    def topic_msg(self, topic):
        return SignalMessage(
            kind=ProcedureKind.CONTEXT_NOTIFY,
            source=endpoint(Role.CGHF),
            destination=Endpoint(Role.TOPIC, topic),
            interface=InterfacePoint.INTER_BB, correlation_id="c1",
            payload={"topic": topic, "subject": "f1",
                     "statement": "latency_above_normal"})

    def test_topic_delivery_to_the_subscribers(self):
        fabric = connect(six_members(), FabricModelKind.PUB_SUB,
                         subscriptions={"dplane-latency": (
                             bb(Role.CM), bb(Role.FM))})
        outcome = fabric.send(self.topic_msg("dplane-latency"))
        assert outcome.record == DeliveryRecord(
            2, (fabric.mediator,), (bb(Role.CM), bb(Role.FM)))

    def test_topic_send_on_full_mesh_rejected(self):
        fabric = connect(six_members(), FabricModelKind.FULL_MESH,
                         subscriptions={"t": (bb(Role.CM),)})
        with pytest.raises(ModelMismatchError):
            fabric.send(self.topic_msg("t"))

    def test_zero_subscribers_deliver_to_no_one(self):
        fabric = connect(six_members(), FabricModelKind.PUB_SUB,
                         subscriptions={"t": (bb(Role.CM),)})
        outcome = fabric.send(self.topic_msg("lonely-topic"))
        assert outcome.record.recipients == ()

    def test_unicast_over_pubsub_reaches_the_destination(self):
        fabric = connect(six_members(), FabricModelKind.PUB_SUB)
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record == DeliveryRecord(
            2, (fabric.mediator,), (bb(Role.FM),))


class TestSharedOutcome:
    """Every unicast to one destination returns one outcome, built at the
    first send; a topic send reads the topic table each time."""

    FM_ID = bb(Role.FM)
    RECORDS = {
        "full_mesh": DeliveryRecord(1, (), (FM_ID,)),
        "relay": DeliveryRecord(2, (bb(Role.CM),), (FM_ID,)),
        "dispatcher": DeliveryRecord(
            2, (block_id(Role.CPD, "fabric"),), (FM_ID,)),
        "pubsub": DeliveryRecord(
            2, (block_id(Role.PS, "fabric"),), (FM_ID,)),
    }

    @pytest.mark.parametrize("model", sorted(RECORDS))
    def test_unicasts_to_one_destination_share_an_outcome(self, model):
        fabric = connect(six_members(), FabricModelKind(model))
        first = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        second = fabric.send(inter_bb_msg(Role.AF, Role.FM))
        assert second is first
        assert first.record == self.RECORDS[model]
        other = fabric.send(inter_bb_msg(Role.FM, Role.CM))
        assert other.record.recipients == (bb(Role.CM),)

    def test_topic_send_reads_the_current_subscribers(self):
        cm, fm = bb(Role.CM), bb(Role.FM)
        fabric = connect(six_members(), FabricModelKind.PUB_SUB,
                         subscriptions={"t": (cm,)})
        publish = TestPubSub().topic_msg("t")
        assert fabric.send(publish).record.recipients == (cm,)
        fabric.subscriptions["t"] = (cm, fm)
        assert fabric.send(publish).record.recipients == (cm, fm)
