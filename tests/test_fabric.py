"""Delivery contract tests for the four interconnection models."""

import pytest

from slicesim.errors import (
    BadRelayError, ModelMismatchError, UnknownDestinationError,
)
from slicesim.fabric import (
    DEFAULT_PROJECTIONS, FabricModel, FabricModelKind, connect,
)
from slicesim.messages import (
    BBInstanceId, InterfacePoint, ProcedureKind, Role, SignalMessage, Topic,
)

from conftest import implied_link_count

SLICE = "slice-a"


def bb(role):
    return BBInstanceId(role, SLICE)


def six_members():
    return [bb(r) for r in (Role.AF, Role.CM, Role.MM, Role.SAM, Role.FM, Role.CGHF)]


def inter_bb_msg(src, dst, kind=ProcedureKind.FLOW_CONFIGURE, payload=None):
    return SignalMessage(
        kind=kind,
        source=bb(src).endpoint, destination=bb(dst).endpoint,
        interface=InterfacePoint.INTER_BB, correlation_id="c1",
        payload=payload or {"flow": "f1", "node": "n1", "action": "install"})


class TestConnect:
    def test_full_mesh_implied_links(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.FULL_MESH))
        assert implied_link_count(fabric) == 15

    def test_dispatcher_star_has_one_spoke_per_member(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.DISPATCHER))
        assert implied_link_count(fabric) == 6
        assert fabric.mediator.startswith("CPD.")

    def test_relay_star_spokes(self):
        fabric = connect(six_members(), FabricModel.parse("relay"))
        assert implied_link_count(fabric) == 5
        assert fabric.relay == str(bb(Role.CM))

    def test_relay_target_not_a_member(self):
        members = [bb(Role.AF), bb(Role.FM)]
        with pytest.raises(BadRelayError):
            connect(members, FabricModel.parse("relay:CM"))


class TestSend:
    def test_full_mesh_direct(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.FULL_MESH))
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.hop_count == 1
        assert outcome.record.mediators == ()
        assert outcome.record.recipients == (str(bb(Role.FM)),)

    def test_dispatcher_mediates(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.DISPATCHER))
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.hop_count == 2
        assert outcome.record.mediators == (fabric.mediator,)

    def test_relay_mediates_even_when_relay_is_an_endpoint(self):
        fabric = connect(six_members(), FabricModel.parse("relay"))
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.hop_count == 2
        assert outcome.record.mediators == (str(bb(Role.CM)),)

    def test_unknown_destination(self):
        fabric = connect([bb(Role.AF), bb(Role.CM)],
                         FabricModel(FabricModelKind.FULL_MESH))
        with pytest.raises(UnknownDestinationError):
            fabric.send(inter_bb_msg(Role.CM, Role.FM))

    def test_dispatcher_projects_payloads(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.DISPATCHER))
        msg = inter_bb_msg(Role.CM, Role.FM,
                           payload={"flow": "f1", "node": "n1",
                                    "action": "install", "diag": "debug-note"})
        outcome = fabric.send(msg)
        delivered = outcome.msg
        assert outcome.record.recipients == (str(bb(Role.FM)),)
        assert "diag" not in delivered.payload
        assert delivered.payload["flow"] == "f1"
        allowed = DEFAULT_PROJECTIONS[msg.kind]
        assert set(delivered.payload) <= allowed

    def test_full_mesh_keeps_diagnostics(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.FULL_MESH))
        msg = inter_bb_msg(Role.CM, Role.FM,
                           payload={"flow": "f1", "diag": "debug-note"})
        delivered = fabric.send(msg).msg
        assert delivered.payload["diag"] == "debug-note"


class TestPubSub:
    def topic_msg(self, topic):
        return SignalMessage(
            kind=ProcedureKind.CONTEXT_NOTIFY,
            source=bb(Role.CGHF).endpoint, destination=Topic(topic),
            interface=InterfacePoint.INTER_BB, correlation_id="c1",
            payload={"topic": topic, "subject": "f1",
                     "statement": "latency_above_normal"})

    def test_topic_delivery_to_current_subscribers(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.PUB_SUB))
        fabric.subscribe(str(bb(Role.CM)), "dplane-latency")
        fabric.subscribe(str(bb(Role.FM)), "dplane-latency")
        outcome = fabric.send(self.topic_msg("dplane-latency"))
        assert set(outcome.record.recipients) == {str(bb(Role.CM)), str(bb(Role.FM))}
        assert outcome.flag is None

    def test_subscribe_is_idempotent(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.PUB_SUB))
        fabric.subscribe(str(bb(Role.CM)), "t")
        before = set(fabric.subscriptions["t"])
        fabric.subscribe(str(bb(Role.CM)), "t")
        assert fabric.subscriptions["t"] == before

    def test_subscribe_on_full_mesh_rejected(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.FULL_MESH))
        with pytest.raises(ModelMismatchError):
            fabric.subscribe(str(bb(Role.CM)), "t")

    def test_zero_subscribers_flagged_not_fatal(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.PUB_SUB))
        outcome = fabric.send(self.topic_msg("lonely-topic"))
        assert outcome.record.recipients == ()
        assert outcome.flag == "NoSubscriberError"

    def test_unicast_over_pubsub_reaches_the_destination(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.PUB_SUB))
        outcome = fabric.send(inter_bb_msg(Role.CM, Role.FM))
        assert outcome.record.recipients == (str(bb(Role.FM)),)
        assert outcome.record.hop_count == 2
        assert outcome.record.mediators == (fabric.mediator,)

    def test_subscription_set_snapshot_at_send_time(self):
        fabric = connect(six_members(), FabricModel(FabricModelKind.PUB_SUB))
        fabric.subscribe(str(bb(Role.CM)), "t")
        first = fabric.send(self.topic_msg("t"))
        fabric.subscribe(str(bb(Role.FM)), "t")
        second = fabric.send(self.topic_msg("t"))
        assert first.record.recipients == (str(bb(Role.CM)),)
        assert set(second.record.recipients) == {str(bb(Role.CM)), str(bb(Role.FM))}
