"""The payload read census: on every leg a corpus run takes, every field the
message carries is read by its receiver, except the declared ones.

A leg is a message kind, in its phase if it has one, with its sender and
receiver roles, written `Kind:phase`.  Each corpus scenario runs at seed 7
with `Environment._invoke_block` handing receivers a record whose payload
records every key looked up in it (`[]`, `get` and `in`).  The receivers
are the block handlers and the engine's device and forwarded-plane
endpoints.  Two receivers pass a payload on as they got it:
an access function forwards a device's uplink and a core block's downlink,
and a device echoes a handover's execute phase back as its confirm.  A
field on such a leg counts as read when the receiver of the copy reads it.
"""

from collections import defaultdict

import pytest

from slicesim.engine import Environment, load_scenario, run
from slicesim.messages import Role

from conftest import CORPUS, SCENARIO_DIR

#: Fields carried as modelled output that no receiver reads: the CM's
#: address allocation on the FM register, and the samples behind a context
#: assertion.
MODELLED_OUTPUTS = frozenset({
    ("SessionEstablish:register", "CM", "FM", "addresses"),
    ("ContextNotify", "CGHF", "CM", "evidence"),
})

#: Fields a receiver holds no reader for, each because an access function
#: passes on what the device sent, and a direct device sends the same
#: message to the core block itself.  The AF routes an attach by its method;
#: it records the device's node from a handover confirm, which the MM
#: matches to its plan by correlation; and it forwards a redirect to the
#: device it names, which reads only the target.
DECLARED_UNREAD = {
    ("AttachRequest", "UE", "CM", "method"): "the AF routes by it",
    ("AttachRequest", "AF", "CM", "method"): "the AF routes by it",
    ("HandoverExecute:confirm", "UE", "MM", "node"): "the AF records it",
    ("HandoverExecute:confirm", "AF", "MM", "node"): "the AF records it",
    ("SliceRedirect", "AF", "UE", "device"): "the AF forwards by it",
}

#: The roles that pass a delivered payload on unchanged.
COPIERS = frozenset({Role.AF, Role.UE})


class ReadRecorder(dict):
    """A delivered payload that adds each key looked up in it to every set
    of `reads`: its own leg's and those of the messages it copies."""

    __slots__ = ("reads",)

    def __getitem__(self, key):
        self._read(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._read(key)
        return dict.get(self, key, default)

    def __contains__(self, key):
        self._read(key)
        return dict.__contains__(self, key)

    def _read(self, key):
        for reads in self.reads:
            reads.add(key)


def receiver_of(env, rec) -> str:
    """A record's receiver role; a topic's is its recipients' roles."""
    if rec.destination.role is not Role.TOPIC:
        return rec.destination.role.value
    return ",".join(sorted({env._route[i][1].value for i in rec.recipients}))


@pytest.fixture(scope="module")
def census():
    """Per leg, the fields the corpus carried on it and the ones read, as
    `(kind, sender, receiver, field)` tuples."""
    carried, read = set(), defaultdict(set)
    invoke_block = Environment._invoke_block
    # (kind, correlation, receiver ident) -> the read sets of the last
    # message a copier received, which its copy reads into as well
    copied: dict = {}

    def recording(self, entry, rec):
        phase = rec.payload.get("phase")
        kind = f"{rec.kind.value}:{phase}" if phase else rec.kind.value
        leg = (kind, rec.source.role.value, receiver_of(self, rec))
        payload = ReadRecorder(rec.payload)
        payload.reads = [read[leg]]
        if rec.source.role in COPIERS:
            payload.reads += copied.get(
                (rec.kind, rec.correlation_id, rec.source.ident), [])
        if rec.destination.role in COPIERS:
            copied[rec.kind, rec.correlation_id,
                   rec.destination.ident] = payload.reads
        carried.update((*leg, field) for field in payload)
        invoke_block(self, entry, rec._replace(payload=payload))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "_invoke_block", recording)
        for name in CORPUS:
            run(load_scenario(SCENARIO_DIR / f"{name}.scn"), 7)
    return carried, {(*leg, field) for leg, fields in read.items()
                     for field in fields}


def test_every_carried_field_has_a_reader_on_its_leg(census):
    carried, read = census
    assert carried - read - MODELLED_OUTPUTS - DECLARED_UNREAD.keys() == set()


@pytest.mark.parametrize("declared", [MODELLED_OUTPUTS, DECLARED_UNREAD.keys()],
                         ids=["modelled-outputs", "declared-unread"])
def test_declared_fields_are_carried_and_unread(census, declared):
    carried, read = census
    assert declared <= carried
    assert not declared & read


def test_the_recorder_sees_the_receivers_and_the_copies(census):
    # a block handler, the device's identity sync, the forwarded plane, a
    # field the AF forwards to the MM, and one a direct device echoes
    _, read = census
    assert {("AuthChallenge", "CM", "SAM", "proof"),
            ("AuthResponse", "SAM", "CM", "pseudonym"),
            ("FlowConfigure", "FM", "DP", "next"),
            ("HandoverPrepare", "UE", "AF", "node"),
            ("HandoverExecute:execute", "MM", "UE", "phase")} <= read
