"""The payload read census: every field a corpus run carries is read by some
receiver of its kind, except the declared modelled outputs.

Each corpus scenario runs at seed 7 with `Environment._trace_msg` handing
receivers a payload that records every key looked up in it (`[]`, `get`
and `in`).  The receivers are the block handlers and the engine's device
and forwarded-plane endpoints; an access function that forwards a payload
copies it without a lookup, so a field only forwarded is not read.
"""

from collections import defaultdict

import pytest

from slicesim.engine import Environment, load_scenario, run

from conftest import SCENARIO_DIR

#: Fields carried as modelled output that no receiver reads: the CM's
#: address allocation on the FM register, and the samples behind a context
#: assertion.
MODELLED_OUTPUTS = frozenset({("SessionEstablish", "addresses"),
                              ("ContextNotify", "evidence")})


class ReadRecorder(dict):
    """A delivered payload that adds each key looked up in it to `reads`."""

    __slots__ = ("reads",)

    def __getitem__(self, key):
        self.reads.add(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.reads.add(key)
        return dict.get(self, key, default)

    def __contains__(self, key):
        self.reads.add(key)
        return dict.__contains__(self, key)


@pytest.fixture(scope="module")
def census():
    """Per message kind, the (kind, field) pairs the corpus carried and the
    ones some receiver read."""
    carried, read = set(), defaultdict(set)
    trace_msg = Environment._trace_msg

    def recording(self, seq, msg, *delivery):
        rec = trace_msg(self, seq, msg, *delivery)
        payload = ReadRecorder(rec.payload)
        payload.reads = read[rec.kind.value]
        carried.update((rec.kind.value, field) for field in payload)
        rec = rec._replace(payload=payload)
        self.trace[-1] = rec
        return rec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "_trace_msg", recording)
        for path in sorted(SCENARIO_DIR.glob("*.scn")):
            run(load_scenario(path), 7)
    return carried, {(kind, field) for kind, fields in read.items()
                     for field in fields}


def test_every_carried_field_has_a_reader(census):
    carried, read = census
    assert carried - read - MODELLED_OUTPUTS == set()


def test_modelled_outputs_are_carried_and_unread(census):
    carried, read = census
    assert MODELLED_OUTPUTS <= carried
    assert not MODELLED_OUTPUTS & read


def test_the_recorder_sees_the_receivers(census):
    # a block handler, the device's identity sync and the forwarded plane
    _, read = census
    assert {("AuthChallenge", "proof"), ("AuthResponse", "pseudonym"),
            ("FlowConfigure", "next")} <= read
