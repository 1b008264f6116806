"""Trace records: the canonical JSON encoder, immutable records, the line
format pinned by a per-record oracle, and an order-independent metrics fold."""

import enum
import json
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.engine import FABRIC_MODELS, load_scenario, run
from slicesim.errors import SchemaError
from slicesim.messages import (
    Endpoint, InterfacePoint, ProcedureKind, Role, SignalMessage,
)
from slicesim.metrics import compute_metrics
from slicesim.trace import (
    EventRecord, MessageRecord, canonical_json, parse_trace, render_trace,
)

from conftest import CORPUS, SCENARIO_DIR


def corpus_trace(name, model=None):
    return run(load_scenario(SCENARIO_DIR / f"{name}.scn"), 7,
               fabric_override=model).trace


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def oracle_line(rec) -> str:
    """The line of a record as `"|".join` of its `str()` fields."""
    if isinstance(rec, EventRecord):
        return "|".join(["EVT", str(rec.seq), str(rec.tick), rec.kind,
                         rec.subject, dumps(rec.detail)])
    m = rec
    return "|".join([
        "MSG", str(rec.seq), str(rec.tick), m.kind.value,
        f"{m.source.role.value}:{m.source.ident}", str(m.destination),
        m.interface.value, m.correlation_id, str(rec.hop_count),
        ",".join(rec.mediators), ",".join(rec.recipients),
        dumps(dict(m.payload))])


class Tag(str, enum.Enum):
    """A str-mixin enum: equal to its value, refused by `marshal`."""
    A = "a"


def attach_message() -> SignalMessage:
    return SignalMessage(ProcedureKind.ATTACH_REQUEST, Endpoint(Role.UE, "d1"),
                         Endpoint(Role.CM, "CM.s.1"), InterfacePoint.I2,
                         "d1:attach:1", {"device": "d1"})


class TestCanonicalJson:
    @pytest.mark.parametrize("name", CORPUS)
    def test_equals_json_dumps_on_every_corpus_record(self, name):
        for rec in corpus_trace(name):
            value = rec.detail if isinstance(rec, EventRecord) \
                else dict(rec.payload)
            assert canonical_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        {"b": 1.5, "a": [0.1, -0.0, 1e300, 2.5e-10, 10**30]},
        [math.nan, math.inf, -math.inf],
        math.nan, -math.inf, 0.1, "plain", 7, None, True,
        {"é": "naïve ☃ 😀", "ctl": "tab\tnew\nnul\x00quote\"back\\"},
        {"nested": [[1, [2, [3, {}]]], [], {"z": {}, "y": [[]]}]},
        {}, [], {"t": (1, "two", (3.0,))},
    ])
    def test_equals_json_dumps_on_hand_built_values(self, value):
        assert canonical_json(value) == dumps(value)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20))
    def test_equals_json_dumps_on_generated_values(self, value):
        assert canonical_json(value) == dumps(value)

    def test_circular_payload_raises_and_the_encoder_recovers(self):
        inner: list = []
        outer = {"inner": inner}
        inner.append(outer)
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_json(outer)
        inner.clear()
        assert canonical_json(outer) == '{"inner":[]}'

    def test_unencodable_value_raises_and_the_encoder_recovers(self):
        inner: list = [object()]
        outer = {"inner": inner}
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(outer)
        inner[0] = 1
        assert canonical_json(outer) == '{"inner":[1]}'


class TestImmutableRecords:
    @pytest.mark.parametrize("record, field", [
        (MessageRecord(1, 0, *attach_message()), "seq"),
        (MessageRecord(1, 0, *attach_message()), "payload"),
        (MessageRecord(1, 0, *attach_message()), "recipients"),
        (EventRecord(2, 0, "auth", "d1", {"ok": True}), "tick"),
        (EventRecord(2, 0, "auth", "d1", {"ok": True}), "detail"),
    ])
    def test_assigning_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


class TestLineFormat:
    @pytest.mark.parametrize("model", [None, *FABRIC_MODELS],
                             ids=lambda m: m.value if m else "own")
    @pytest.mark.parametrize("name", CORPUS)
    def test_render_equals_the_per_record_oracle(self, name, model):
        trace = corpus_trace(name, model)
        assert render_trace(trace) == "".join(
            oracle_line(rec) + "\n" for rec in trace)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_payloads_equal_under_eq_keep_their_own_text(self, order):
        shared = {"device": "d1"}
        details = [
            {"v": 1}, {"v": True}, {"v": 1.0}, {"v": [1]}, {"v": [True]},
            {"v": 0.0}, {"v": -0.0}, {"v": math.nan}, {"v": float("nan")},
            {"v": [1, 2]}, {"v": (1, 2)}, {"v": Tag.A}, {"v": "a"},
            {"a": 1, "b": 2.0}, {"b": 2.0, "a": 1}, {"a": 1, "b": 2},
        ]
        trace = [EventRecord(seq, 0, "probe", "d1", detail)
                 for seq, detail in enumerate(details, start=1)]
        message = attach_message()
        for payload in (MappingProxyType({"device": 1}), {"device": True},
                        shared, shared):
            trace.append(MessageRecord(len(trace) + 1, 0,
                                       *message._replace(payload=payload)))
        if order == "reversed":
            trace.reverse()
        assert render_trace(trace) == "".join(
            oracle_line(rec) + "\n" for rec in trace)

    def test_circular_payload_still_raises(self):
        inner: list = []
        outer = {"inner": inner}
        inner.append(outer)
        first = MessageRecord(1, 0, *attach_message())
        looped = MessageRecord(2, 0, *attach_message()._replace(payload=outer))
        with pytest.raises(ValueError, match="Circular reference"):
            render_trace([first, looped])
        with pytest.raises(ValueError, match="Circular reference"):
            render_trace([EventRecord(1, 0, "probe", "d1", outer)])
        assert render_trace([first]) == oracle_line(first) + "\n"

    def test_parse_shares_endpoints_and_keeps_its_errors(self):
        text = render_trace([MessageRecord(1, 0, *attach_message()),
                             MessageRecord(2, 0, *attach_message())])
        first, second = parse_trace(text)
        assert first.source is second.source
        assert first.destination is second.destination
        assert first.payload is second.payload
        bad = text + text.splitlines()[0].replace("|UE:d1|", "|XX:d1|") + "\n"
        with pytest.raises(SchemaError, match=r"^t\.log:3: malformed MSG "
                           r"record: 'XX' is not a valid Role$"):
            parse_trace(bad, source="t.log")
        bad = text + text.splitlines()[0].replace("|I2|", "|I9|") + "\n"
        with pytest.raises(SchemaError, match=r"^t\.log:3: malformed MSG "
                           r"record: 'I9' is not a valid InterfacePoint$"):
            parse_trace(bad, source="t.log")


class TestMetricsFold:
    @pytest.mark.parametrize("name", CORPUS)
    def test_shuffled_records_fold_to_the_sorted_report(self, name):
        trace = corpus_trace(name)
        expected = compute_metrics(trace)
        assert compute_metrics(reversed(trace)) == expected
        rng = random.Random(name)
        for _ in range(3):
            shuffled = list(trace)
            rng.shuffle(shuffled)
            assert compute_metrics(shuffled) == expected
