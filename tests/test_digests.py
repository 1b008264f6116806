"""The terminal-digest normaliser against the predicate chain it replaced."""

import collections
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, IntEnum
from types import MappingProxyType
from typing import ClassVar

from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.blocks.cghf import Sample
from slicesim.engine import _normalize
from slicesim.messages import Role
from slicesim.netsim import FlowRun, UnitState
from slicesim.trace import canonical_json


# -- the chain of predicates that the per-type normaliser replaced ----------

def chained_normalize(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: chained_normalize(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): chained_normalize(v) for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [chained_normalize(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Shade(str, Enum):          # str mixin without its own __str__
    LIGHT = "light"
    DARK = "dark"


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Count(int):
    pass


class Opaque:
    def __init__(self, text):
        self.text = text

    def __str__(self):
        return f"opaque<{self.text}>"


Pair = collections.namedtuple("Pair", "left right")


@dataclass
class Box:
    first: object
    second: object = None
    kind: ClassVar[str] = "box"


@dataclass(frozen=True)
class Tag:
    name: object
    extra: list = field(default_factory=list)


@dataclass(slots=True)          # as netsim.UnitState and cghf.Sample
class Slot:
    first: object
    count: int = 1


@dataclass(slots=True)          # as netsim.FlowRun
class SlotRun:
    name: object
    items: list = field(default_factory=list)

    @property
    def total(self):
        return len(self.items)


ENUMS = st.sampled_from([*Shade, *Level, Role.UE, Role.CGHF])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
           | st.sampled_from(["", "1", "a", "light", "UE"])
           | st.sampled_from(["1", "x"]).map(Label)
           | st.integers(0, 2).map(Count))
# `1`, `"1"`, `True` and `Level.LOW` share a `str` or a hash; so do
# `Shade.LIGHT` and "light".
KEYS = (st.sampled_from([1, "1", True, "a", None, 2.5, "light", "Shade.LIGHT"])
        | ENUMS | st.tuples(st.integers(0, 1), st.sampled_from(["a", "1"])))
OTHERS = st.sampled_from([Opaque("a"), Opaque("b"), Box, Role, len])


def _containers(inner):
    return (st.lists(inner, max_size=3)
            | st.lists(inner, max_size=3).map(tuple)
            | st.tuples(inner, inner).map(lambda t: Pair(*t))
            | st.dictionaries(KEYS, inner, max_size=4)
            | st.dictionaries(KEYS, inner, max_size=3).map(
                lambda d: collections.OrderedDict(reversed(d.items())))
            | st.sets(KEYS, max_size=4)
            | st.frozensets(KEYS | SCALARS.filter(lambda v: v == v), max_size=4)
            | st.builds(Box, inner, inner)
            | st.builds(Tag, inner, st.lists(inner, max_size=2))
            | st.builds(Slot, inner, st.integers(0, 3))
            | st.builds(SlotRun, inner, st.lists(inner, max_size=2)))


VALUES = st.recursive(SCALARS | ENUMS | OTHERS, _containers, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_normalize_matches_the_chained_oracle(value):
    assert canonical_json(_normalize(value)) == canonical_json(chained_normalize(value))


def test_colliding_keys_keep_the_last_inserted():
    value = {1: "int", "1": "str", Level.HIGH: "enum", "2": "late"}
    assert _normalize(value) == chained_normalize(value) == {"1": "str", "2": "late"}
    assert canonical_json(_normalize(value)) == '{"1":"str","2":"late"}'


def test_dataclass_fields_exclude_class_variables():
    assert _normalize(Box(Shade.DARK, {Role.MM: {2, "1"}})) == {
        "first": "dark", "second": {"MM": ["1", "2"]}}


def test_the_slots_state_types_normalize_as_their_fields():
    unit = UnitState(path=("i1", "t1"), complete=True, hop=0, remaining=2,
                     sent_tick=4, count=3)
    run = FlowRun(flow_id="f1", rate=3, remaining_emissions=5, ingress="i1",
                  in_flight=[unit])
    for value in (Sample(4, 2.5), unit, run):
        assert not hasattr(value, "__dict__")
        assert _normalize(value) == chained_normalize(value)
    assert _normalize(Sample(4, 2.5)) == {"tick": 4, "value": 2.5}
    assert _normalize(run)["in_flight"] == [
        {"path": ["i1", "t1"], "complete": True, "hop": 0, "remaining": 2,
         "sent_tick": 4, "count": 3}]


def test_read_only_mapping_normalizes_like_its_dict():
    value = {Role.MM: {2, "1"}, "a": [Shade.DARK]}
    assert _normalize(MappingProxyType(value)) == _normalize(value)
