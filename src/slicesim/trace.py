"""Trace records, their line serialization, and structural audits.

A run produces one ordered stream of records sharing a single monotone
sequence counter; a message record carries the number its message drew when
it was emitted and the tick it was delivered at.  Lines are pipe-separated
with the mutable-width payload/detail column last:

    MSG|seq|tick|kind|source|destination|interface|correlation|hops|mediators|recipients|payload
    EVT|seq|tick|kind|subject|detail

Serialization is canonical (sorted-key JSON for payloads) so equal runs are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .errors import SchemaError
from .messages import (
    WBI_MEMBERS, Destination, Endpoint, InterfacePoint, ProcedureKind,
    SignalMessage, Topic, validate_message,
)


#: Sorted-key JSON without spaces, from one encoder: `json.dumps` with these
#: options would build a new encoder on every call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class MessageRecord:
    seq: int
    tick: int
    msg: SignalMessage
    hop_count: int = 1
    mediators: tuple[str, ...] = ()
    recipients: tuple[str, ...] = ()   # non-empty only if a fabric carried it

    def line(self) -> str:
        m = self.msg
        return "|".join([
            "MSG", str(self.seq), str(self.tick), m.kind.value, str(m.source),
            str(m.destination), m.interface.value, m.correlation_id,
            str(self.hop_count), ",".join(self.mediators),
            ",".join(self.recipients), canonical_json(dict(m.payload)),
        ])


@dataclass(frozen=True)
class EventRecord:
    seq: int
    tick: int
    kind: str         # "transition", "error", "flow-delivered", "slice-digest", ...
    subject: str
    detail: dict

    def line(self) -> str:
        return "|".join([
            "EVT", str(self.seq), str(self.tick), self.kind, self.subject,
            canonical_json(self.detail),
        ])


TraceRecord = Union[MessageRecord, EventRecord]


def render_trace(records: Iterable[TraceRecord]) -> str:
    return "".join(r.line() + "\n" for r in records)


def _parse_destination(text: str) -> Destination:
    if text.startswith("topic:"):
        return Topic(text.split(":", 1)[1])
    return Endpoint.parse(text)


def iter_trace(lines: Iterable[str], source: str = "<trace>") -> Iterator[TraceRecord]:
    """Parse trace lines one at a time; errors name `source:lineno`."""
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.rstrip("\n")
        if not raw.strip():
            continue
        tag = raw.split("|", 1)[0]
        where = f"{source}:{lineno}"
        try:
            if tag == "MSG":
                (_, seq, tick, kind, src, dst, iface, corr, hops, mediators,
                 recipients, payload) = raw.split("|", 11)
                msg = SignalMessage(
                    kind=ProcedureKind(kind),
                    source=Endpoint.parse(src), destination=_parse_destination(dst),
                    interface=InterfacePoint(iface), correlation_id=corr,
                    payload=json.loads(payload))
                record: TraceRecord = MessageRecord(
                    seq=int(seq), tick=int(tick), msg=msg, hop_count=int(hops),
                    mediators=tuple(mediators.split(",")) if mediators else (),
                    recipients=tuple(recipients.split(",")) if recipients else ())
            elif tag == "EVT":
                _, seq, tick, kind, subject, detail = raw.split("|", 5)
                record = EventRecord(seq=int(seq), tick=int(tick), kind=kind,
                                     subject=subject, detail=json.loads(detail))
            else:
                raise SchemaError(f"{where}: unknown record tag {tag!r}")
        except ValueError as exc:
            raise SchemaError(f"{where}: malformed {tag} record: {exc}") from None
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
    Violations come out by record, then by authentication order.
    """
    violations: list[str] = []
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
        key = (rec.tick, rec.seq)
        if key <= last_key:
            violations.append(
                f"record (tick={rec.tick}, seq={rec.seq}) not ordered after "
                f"(tick={last_key[0]}, seq={last_key[1]})")
        last_key = key
        if rec.seq in seen_seqs:
            violations.append(f"duplicate sequence number {rec.seq}")
        seen_seqs.add(rec.seq)
        if isinstance(rec, EventRecord):
            if rec.kind == "auth" and rec.detail.get("ok") \
                    and rec.subject not in authenticated:
                authenticated[rec.subject] = len(authenticated)
                burn(rec.subject)
            continue
        msg = rec.msg
        verdict = validate_message(msg)
        if not verdict:
            violations.extend(f"seq {rec.seq}: {v}" for v in verdict.violations)
        if msg.kind is ProcedureKind.ATTACH_REQUEST and not msg.payload.get("reattach"):
            device = msg.payload.get("device")
            alias = msg.payload.get("alias")
            if isinstance(device, str) and isinstance(alias, str) \
                    and device not in first_alias:
                first_alias[device] = alias
                if device in authenticated:
                    burn(device)
        if burned and msg.interface in WBI_MEMBERS:
            leaked = {device for leaf in _string_leaves(msg.payload)
                      for device in burned.get(leaf, ())}
            for device in sorted(leaked, key=authenticated.__getitem__):
                violations.append(
                    f"seq {rec.seq}: permanent identity of {device} on "
                    f"{msg.interface.value} after first authentication")
    return violations
