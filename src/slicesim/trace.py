"""Trace records, their line serialization, and structural audits.

A run produces one ordered stream of records sharing a single monotone
sequence counter; a message record is the delivered message itself: the
message's fields with the number it drew when it was emitted, the tick it
was delivered at and the fabric's hop accounting.  Lines are pipe-separated
with the mutable-width payload/detail column last:

    MSG|seq|tick|kind|source|destination|interface|correlation|hops|mediators|recipients|payload
    EVT|seq|tick|kind|subject|detail

Endpoints read `role:ident`, a topic `topic:<id>`.  Records are immutable
named tuples; `render_trace` is their one formatter.  Serialization is
canonical (sorted-key JSON for payloads) so equal runs are byte-identical.
"""

from __future__ import annotations

import json
import marshal
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import SchemaError
from .messages import (
    WBI_MEMBERS, Endpoint, InterfacePoint, ProcedureKind, validate_message,
)


#: The ids of the containers the encoder is inside; a circular value raises.
_MARKERS: dict = {}

#: The C encoder that `json.dumps(value, sort_keys=True, separators=(",",
#: ":"))` builds on every call, built once: sorted keys, compact separators,
#: ASCII escapes, NaN and infinities allowed.
_encode = c_make_encoder(_MARKERS, json.JSONEncoder().default,
                         encode_basestring_ascii, None, ":", ",", True, False,
                         True)


def canonical_json(value) -> str:
    """`json.dumps(value, sort_keys=True, separators=(",", ":"))`, from one
    reused encoder: calls must not overlap, as in a single-threaded run."""
    try:
        return "".join(_encode(value, 0))
    except BaseException:
        _MARKERS.clear()    # a failed call leaves its open containers marked
        raise


class MessageRecord(NamedTuple):
    """A delivered message: the fields of its `SignalMessage` between the
    trace fields."""

    seq: int
    tick: int
    kind: ProcedureKind
    source: Endpoint
    destination: Endpoint
    interface: InterfacePoint
    correlation_id: str
    payload: Mapping[str, object]
    hop_count: int = 1
    mediators: tuple[str, ...] = ()
    recipients: tuple[str, ...] = ()   # non-empty only if a fabric carried it


class EventRecord(NamedTuple):
    seq: int
    tick: int
    kind: str         # "transition", "error", "flow-delivered", "slice-digest", ...
    subject: str
    detail: dict


TraceRecord = Union[MessageRecord, EventRecord]


def render_trace(records: Iterable[TraceRecord]) -> str:
    """The trace text: one line per record, each ended by a newline.

    Each distinct payload or detail is encoded once per call, with its
    newline, and every line that repeats it joins that one string after
    its own head.  The memo is keyed by `marshal.dumps(value)`, which is
    exact: equal bytes load back to one value with the same types
    throughout, so `1`, `True` and `1.0` (or `0.0` and `-0.0`) never share
    a text.  A value marshal refuses (a str-mixin enum member, a mapping
    other than a dict) is encoded on its own; an encoder error is raised
    as from `canonical_json`."""
    memo: dict = {}
    parts: list = []    # per record: its head, then its payload or detail
    append = parts.append
    for rec in records:
        if isinstance(rec, EventRecord):
            seq, tick, kind, subject, value = rec
            append(f"EVT|{seq}|{tick}|{kind}|{subject}|")
        else:
            (seq, tick, kind, source, destination, interface, correlation_id,
             value, hop_count, mediators, recipients) = rec
            if type(value) is not dict:
                value = dict(value)
            append(f"MSG|{seq}|{tick}|{kind._value_}|{source.role._value_}:"
                   f"{source.ident}|{destination.role._value_}:"
                   f"{destination.ident}|{interface._value_}|"
                   f"{correlation_id}|{hop_count}|{','.join(mediators)}|"
                   f"{','.join(recipients)}|")
        try:
            key = marshal.dumps(value)
        except ValueError:
            append(canonical_json(value) + "\n")
            continue
        text = memo.get(key)
        if text is None:
            text = memo[key] = canonical_json(value) + "\n"
        append(text)
    memo.clear()    # frees the keys before the join; the texts are in parts
    return "".join(parts)


def _resolver(parse):
    """`parse` with a memo: each distinct text is parsed once."""
    memo: dict = {}

    def resolve(text):
        value = memo.get(text)
        if value is None:
            value = memo[text] = parse(text)
        return value
    return resolve


def iter_trace(lines: Iterable[str], source: str = "<trace>") -> Iterator[TraceRecord]:
    """Parse trace lines one at a time; errors name `source:lineno`.  Each
    distinct endpoint (a topic included), kind, interface and payload or
    detail text is resolved once per parse, so equal texts share one
    object: parsed payloads are read-only."""
    endpoint = _resolver(Endpoint.parse)
    procedure = _resolver(ProcedureKind)
    interface = _resolver(InterfacePoint)
    decode = _resolver(json.loads)
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.rstrip("\n")
        if not raw.strip():
            continue
        tag = raw.split("|", 1)[0]
        try:
            if tag == "MSG":
                (_, seq, tick, kind, src, dst, iface, corr, hops, mediators,
                 recipients, payload) = raw.split("|", 11)
                record: TraceRecord = MessageRecord(
                    int(seq), int(tick), procedure(kind), endpoint(src),
                    endpoint(dst), interface(iface), corr,
                    decode(payload), int(hops),
                    tuple(mediators.split(",")) if mediators else (),
                    tuple(recipients.split(",")) if recipients else ())
            elif tag == "EVT":
                _, seq, tick, kind, subject, detail = raw.split("|", 5)
                record = EventRecord(int(seq), int(tick), kind, subject,
                                     decode(detail))
            else:
                raise SchemaError(f"{source}:{lineno}: unknown record tag {tag!r}")
        except ValueError as exc:
            raise SchemaError(
                f"{source}:{lineno}: malformed {tag} record: {exc}") from None
        yield record


def parse_trace(text: str, source: str = "<trace>") -> list[TraceRecord]:
    return list(iter_trace(text.splitlines(), source))


def _string_leaves(payload: Mapping[str, object]) -> set[str]:
    """Every string reachable through the values of a payload."""
    leaves: set[str] = set()
    stack = list(payload.values())
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            leaves.add(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return leaves


def trace_check(records: Iterable[TraceRecord]) -> list[str]:
    """Structural audit of a trace, in one pass over any iterable of records.

    Checks: strict (tick, seq) total order with unique sequence numbers,
    interface-role consistency of every message, and permanent-identity
    hygiene: the alias a device presents on its first attachment must never
    reappear on I1/I2/I3 after that device's first successful authentication.
    A message emitted late in one tick is traced at its delivery tick, so
    sequence numbers are monotone only within the (tick, seq) pair order.
    Violations come out by record, then by authentication order.  Record
    fields are read by position, once each.
    """
    violations: list[str] = []
    attach = ProcedureKind.ATTACH_REQUEST   # read once: member reads are slow
    last_key = (-1, -1)
    seen_seqs: set[int] = set()
    first_alias: dict[str, str] = {}
    authenticated: dict[str, int] = {}       # device -> authentication order
    burned: dict[str, list[str]] = {}        # first alias -> authenticated devices

    def burn(device: str) -> None:
        alias = first_alias.get(device)
        if alias:
            burned.setdefault(alias, []).append(device)

    for rec in records:
        event = isinstance(rec, EventRecord)
        if event:
            seq, tick, kind, subject, detail = rec
        else:
            seq, tick, kind, _, _, interface, _, payload, _, _, _ = rec
        key = (tick, seq)
        if key <= last_key:
            violations.append(
                f"record (tick={tick}, seq={seq}) not ordered after "
                f"(tick={last_key[0]}, seq={last_key[1]})")
        last_key = key
        if seq in seen_seqs:
            violations.append(f"duplicate sequence number {seq}")
        seen_seqs.add(seq)
        if event:
            if kind == "auth" and detail.get("ok") \
                    and subject not in authenticated:
                authenticated[subject] = len(authenticated)
                burn(subject)
            continue
        verdict = validate_message(rec)
        if not verdict.ok:
            violations.extend(f"seq {seq}: {v}" for v in verdict.violations)
        if kind is attach and not payload.get("reattach"):
            device = payload.get("device")
            alias = payload.get("alias")
            if isinstance(device, str) and isinstance(alias, str) \
                    and device not in first_alias:
                first_alias[device] = alias
                if device in authenticated:
                    burn(device)
        if burned and interface in WBI_MEMBERS:
            leaked = {device for leaf in _string_leaves(payload)
                      for device in burned.get(leaf, ())}
            for device in sorted(leaked, key=authenticated.__getitem__):
                violations.append(
                    f"seq {seq}: permanent identity of {device} on "
                    f"{interface.value} after first authentication")
    return violations
