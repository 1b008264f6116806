"""Context generation and handling: windowed sample ingestion, analysis
models, and topic publication.

A model watches one metric.  The first `window` samples of a subject lock
its baseline; afterwards the model fires when the mean over the window
exceeds ``factor * baseline``.  Firing is edge-triggered per subject, so a
sustained condition yields exactly one assertion until it clears.  Context
consumption and any consequent action happen in subscriber blocks, never
here: this block only ever emits notifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from ..messages import Endpoint, ProcedureKind, Role, SignalMessage, draft
from .common import BlockContext, BlockEvent, by_kind

DEFAULT_WINDOW = 16
DEFAULT_FACTOR = 1.5


@dataclass(slots=True)
class Sample:
    tick: int
    value: float


@dataclass(frozen=True)
class ContextModelRule:
    topic: str
    metric: str
    statement: str
    factor: float = DEFAULT_FACTOR
    window: int = DEFAULT_WINDOW
    min_samples: int = 1


@dataclass
class CGHFState:
    models: tuple = ()
    buffer: dict = field(default_factory=dict)          # (metric, subject) -> [Sample]
    baselines: dict = field(default_factory=dict)       # (topic, subject) -> float
    warmup: dict = field(default_factory=dict)          # (topic, subject) -> [values]
    armed: dict = field(default_factory=dict)           # (topic, subject) -> bool
    assertion_counter: int = 0

    def __post_init__(self) -> None:
        # Not fields, not digested: the keys sampled since the last
        # generation, and per metric its buffer window (the widest of its
        # models') and its models.
        self._fresh: set = set()
        self._by_metric: dict = {}
        for model in self.models:
            window, models = self._by_metric.get(model.metric,
                                                 (model.window, ()))
            self._by_metric[model.metric] = (max(window, model.window),
                                             models + (model,))


def cghf_ingest(state: CGHFState, metric: str, subject: str, value: float,
                tick: int) -> None:
    """Append a sample to the windowed buffer and drop the samples that
    left the window.  Samples arrive in tick order, so only the front of a
    key's list can expire."""
    key = (metric, subject)
    window, models = state._by_metric.get(metric, (DEFAULT_WINDOW, ()))
    state._fresh.add(key)
    samples = state.buffer.setdefault(key, [])
    samples.append(Sample(tick, value))
    expired = 0
    for sample in samples:
        if sample.tick > tick - window:
            break
        expired += 1
    del samples[:expired]
    for model in models:
        bkey = (model.topic, subject)
        if bkey in state.baselines:
            continue
        pending = state.warmup.setdefault(bkey, [])
        pending.append(value)
        if len(pending) >= model.window:
            state.baselines[bkey] = sum(pending[:model.window]) / model.window
            del state.warmup[bkey]


def cghf_generate(state: CGHFState, tick: int, ctx: BlockContext):
    """Evaluate every model over the buffered samples of the keys that
    ingested one since the last evaluation; publish one assertion per
    subject whose condition just became true.  Another key's evaluation
    would see what it saw then and change nothing."""
    drafts: list[SignalMessage] = []
    events: list[BlockEvent] = []
    fresh, state._fresh = state._fresh, set()
    for model in sorted(state.models, key=lambda m: m.topic):
        subjects = sorted(subject for (metric, subject) in fresh
                          if metric == model.metric)
        for subject in subjects:
            samples = state.buffer[(model.metric, subject)]
            bkey = (model.topic, subject)
            baseline = state.baselines.get(bkey)
            condition = False
            if baseline is not None and len(samples) >= model.min_samples:
                mean = sum(map(attrgetter("value"), samples)) / len(samples)
                condition = mean > model.factor * baseline
            if condition and state.armed.get(bkey, True):
                state.armed[bkey] = False
                state.assertion_counter += 1
                events.append(BlockEvent("context", subject,
                                         {"topic": model.topic,
                                          "statement": model.statement}))
                drafts.append(draft(
                    ProcedureKind.CONTEXT_NOTIFY, ctx.self_endpoint,
                    Endpoint(Role.TOPIC, model.topic),
                    f"{ctx.slice_id}:context:{state.assertion_counter}",
                    {"subject": subject, "statement": model.statement,
                     # the most recent contributing samples
                     "evidence": [[s.tick, s.value] for s in samples[-3:]]}))
            elif not condition:
                state.armed[bkey] = True
    return state, drafts, events


def _publish(state: CGHFState, msg, ctx: BlockContext, drafts: list,
             events: list) -> None:
    """Ingest a published sample; the block emits only from its tick hook."""
    payload = msg.payload
    cghf_ingest(state, payload.get("metric", ""), payload.get("subject", ""),
                float(payload.get("value", 0.0)), ctx.tick)


#: Per kind, the handler of a message the CGHF takes.
BY_KIND = {ProcedureKind.CONTEXT_PUBLISH: _publish}

handle = by_kind(BY_KIND)


def tick_hook(state: CGHFState, ctx: BlockContext):
    return cghf_generate(state, ctx.tick, ctx)
