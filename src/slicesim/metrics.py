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
    report = MetricsReport()
    counts = report.message_counts
    families: dict = {}     # correlation id -> family
    firsts: dict = {}       # correlation id -> first tick
    lasts: dict = {}        # correlation id -> last tick
    for rec in records:
        if isinstance(rec, MessageRecord):
            tick, corr = rec.tick, rec.correlation_id
            first = firsts.get(corr)
            if first is None:
                family = families[corr] = _family(corr)
                firsts[corr] = lasts[corr] = tick
            else:
                family = families[corr]
                if tick < first:
                    firsts[corr] = tick
                elif tick > lasts[corr]:
                    lasts[corr] = tick
            key = (family, rec.interface._value_)
            counts[key] = counts.get(key, 0) + 1
            if rec.interface in WBI_MEMBERS:
                # west-bound composite: I1/I2/I3 folded for reporting
                wbi = (family, "WBI")
                counts[wbi] = counts.get(wbi, 0) + 1
            if rec.recipients:
                report.fabric_hops_total += rec.hop_count
                scope = rec.recipients[0].split(".")[1] if "." in rec.recipients[0] else "?"
                report.fabric_hops_per_slice[scope] = \
                    report.fabric_hops_per_slice.get(scope, 0) + rec.hop_count
        elif isinstance(rec, EventRecord):
            if rec.kind == "flow-summary":
                report.flows[rec.subject] = {
                    "sent": rec.detail.get("sent", 0),
                    "delivered": rec.detail.get("delivered", 0),
                    "lost": rec.detail.get("lost", 0),
                    "in_flight": rec.detail.get("in_flight", 0)}
            elif rec.kind == "slice-digest":
                report.digests[rec.subject] = rec.detail.get("digest", "")
    for corr, first in firsts.items():
        family = families[corr]
        report.procedure_runs[family] = report.procedure_runs.get(family, 0) + 1
        report.procedure_ticks[family] = \
            report.procedure_ticks.get(family, 0) + (lasts[corr] - first)
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
