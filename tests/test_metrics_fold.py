"""The metrics fold against the fold per record that it replaced.

`oracle_compute_metrics` resolves each record's family, west-bound fold and
slice scope as it reads the record.  `compute_metrics` must give a report
with equal figures, every dict's keys in the same order, and the same
`render_metrics` text: on every corpus trace under every fabric, on the
benchmark workloads' traces, in memory and through `parse_trace`, and in
any record order."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.engine import FABRIC_MODELS, load_scenario, run
from slicesim.messages import WBI_MEMBERS
from slicesim.metrics import MetricsReport, compute_metrics, render_metrics
from slicesim.trace import EventRecord, MessageRecord, parse_trace, render_trace

from conftest import CORPUS, SCENARIO_DIR, perfbench_module

#: The benchmark workloads that run scenarios (compose-catalog runs none).
WORKLOADS = ("attach-storm", "slice-fanout", "flow-steady")


# -- the oracle: one family, fold and scope resolution per record ----------------

def _oracle_family(correlation_id: str) -> str:
    parts = correlation_id.split(":")
    return parts[1] if len(parts) >= 2 else correlation_id


def oracle_compute_metrics(records) -> MetricsReport:
    report = MetricsReport()
    counts = report.message_counts
    families: dict = {}
    firsts: dict = {}
    lasts: dict = {}
    for rec in records:
        if isinstance(rec, MessageRecord):
            tick, corr = rec.tick, rec.correlation_id
            first = firsts.get(corr)
            if first is None:
                family = families[corr] = _oracle_family(corr)
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


def ordered(report) -> dict:
    """A report's figures with each dict as its list of items, in order."""
    return {name: list(value.items()) if isinstance(value, dict) else value
            for name, value in vars(report).items()}


def assert_folds_alike(records) -> None:
    got = compute_metrics(records)
    expected = oracle_compute_metrics(records)
    assert ordered(got) == ordered(expected)
    assert render_metrics(got) == render_metrics(expected)


# -- traces ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def corpus_trace(name: str, model_index: int | None = None) -> tuple:
    model = None if model_index is None else FABRIC_MODELS[model_index]
    return tuple(run(load_scenario(SCENARIO_DIR / f"{name}.scn"), 7,
                     fabric_override=model).trace)


@pytest.fixture(scope="module")
def workload_traces(tmp_path_factory) -> dict:
    gen = perfbench_module("gen")
    root = tmp_path_factory.mktemp("workloads")
    return {name: run(load_scenario(gen.write_workload(name, 1, root / name)),
                      1).trace
            for name in WORKLOADS}


# -- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("model_index", [None, *range(len(FABRIC_MODELS))])
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_traces_fold_as_the_oracle_does(name, model_index):
    trace = corpus_trace(name, model_index)
    assert_folds_alike(trace)
    assert_folds_alike(parse_trace(render_trace(trace)))


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_traces_fold_as_the_oracle_does(name, workload_traces):
    trace = workload_traces[name]
    assert_folds_alike(trace)
    assert_folds_alike(parse_trace(render_trace(trace)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(CORPUS), st.sampled_from([None, 0, 3]), st.randoms())
def test_any_record_order_folds_as_the_oracle_does(name, model_index, rng):
    """Shuffled records reach a correlation's later ticks before its first."""
    records = list(corpus_trace(name, model_index))
    rng.shuffle(records)
    assert_folds_alike(records)
