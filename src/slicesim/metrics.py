"""Metrics as a pure fold over a trace.

Every figure in a metrics report is recomputable from the serialized trace
alone, so regenerating the report from a trace file reproduces it exactly.
Correlation ids follow ``<origin>:<family>:<n>``, which is where procedure
families come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import WBI_MEMBERS
from .trace import EventRecord, MessageRecord


def _family(correlation_id: str) -> str:
    parts = correlation_id.split(":")
    return parts[1] if len(parts) >= 2 else correlation_id


@dataclass
class MetricsReport:
    message_counts: dict = field(default_factory=dict)   # (family, iface) -> n
    fabric_hops_total: int = 0
    fabric_hops_per_slice: dict = field(default_factory=dict)
    procedure_runs: dict = field(default_factory=dict)   # family -> runs
    procedure_ticks: dict = field(default_factory=dict)  # family -> total latency
    flows: dict = field(default_factory=dict)            # flow -> summary dict
    digests: dict = field(default_factory=dict)          # slice -> digest


def compute_metrics(records) -> MetricsReport:
    """Fold a trace in any record order.  The loop names each correlation's
    family once, when it first shows, and counts messages per (family,
    interface) and fabric hops per first recipient; the west-bound fold and
    each recipient's slice scope are resolved once per key after it."""
    report = MetricsReport()
    spans: dict = {}        # correlation id -> [family, first tick, last tick]
    per_iface: dict = {}    # (family, interface) -> messages
    hops: dict = {}         # first recipient -> fabric hops
    for rec in records:
        if isinstance(rec, MessageRecord):
            _, tick, _, _, _, interface, corr, _, hop_count, _, recipients = rec
            span = spans.get(corr)
            if span is None:
                span = spans[corr] = [_family(corr), tick, tick]
            elif tick < span[1]:
                span[1] = tick
            elif tick > span[2]:
                span[2] = tick
            key = (span[0], interface)
            per_iface[key] = per_iface.get(key, 0) + 1
            if recipients:
                head = recipients[0]
                hops[head] = hops.get(head, 0) + hop_count
        elif isinstance(rec, EventRecord):
            _, _, kind, subject, detail = rec
            if kind == "flow-summary":
                report.flows[subject] = {
                    "sent": detail.get("sent", 0),
                    "delivered": detail.get("delivered", 0),
                    "lost": detail.get("lost", 0),
                    "in_flight": detail.get("in_flight", 0)}
            elif kind == "slice-digest":
                report.digests[subject] = detail.get("digest", "")
    # Keys enter each dict below in the order the records first show them,
    # as they would in a fold per record.
    counts = report.message_counts
    for (family, interface), n in per_iface.items():
        counts[family, interface._value_] = n
        if interface in WBI_MEMBERS:
            # west-bound composite: I1/I2/I3 folded for reporting
            wbi = (family, "WBI")
            counts[wbi] = counts.get(wbi, 0) + n
    per_slice = report.fabric_hops_per_slice
    for head, n in hops.items():
        scope = head.split(".")[1] if "." in head else "?"
        per_slice[scope] = per_slice.get(scope, 0) + n
    report.fabric_hops_total = sum(hops.values())
    for family, first, last in spans.values():
        report.procedure_runs[family] = report.procedure_runs.get(family, 0) + 1
        report.procedure_ticks[family] = \
            report.procedure_ticks.get(family, 0) + (last - first)
    return report


def render_metrics(report: MetricsReport) -> str:
    """Stable key=value rendering; keys sorted, one figure per line."""
    lines = []
    for (family, iface), count in report.message_counts.items():
        lines.append(f"msg.{family}.{iface} = {count}")
    lines.append(f"hops.total = {report.fabric_hops_total}")
    for scope, hops in report.fabric_hops_per_slice.items():
        lines.append(f"hops.slice.{scope} = {hops}")
    for family, runs in report.procedure_runs.items():
        lines.append(f"procedure.{family}.runs = {runs}")
        lines.append(f"procedure.{family}.ticks = {report.procedure_ticks[family]}")
    for flow, summary in report.flows.items():
        for figure in ("sent", "delivered", "lost", "in_flight"):
            lines.append(f"flow.{flow}.{figure} = {summary[figure]}")
    for scope, digest in report.digests.items():
        lines.append(f"digest.{scope} = {digest}")
    return "\n".join(sorted(lines)) + "\n"
