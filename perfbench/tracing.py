"""In-memory span tracing of slicesim's layers, installed from outside.

`Tracer.installed()` wraps each layer's public functions where the program
looks them up (module attributes, the engine's dispatch tables and the
names the engine imported) and restores every original on exit; nothing
under ``src/`` changes.  A span records its name, start, end and parent;
all spans of one tracer share its pipeline id.  Counters sit at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from slicesim import catalog, engine, fabric, metrics, netsim, slices, trace
from slicesim.errors import SliceSimError

ROLES = ("AF", "CM", "MM", "SAM", "FM", "CGHF")
HOOK_ROLES = ("MM", "FM", "CGHF")


class Tracer:
    def __init__(self, pipeline_id: str):
        self.pipeline_id = pipeline_id
        self.spans: list = []            # (span id, parent id, name, start, end)
        self.counts: dict = defaultdict(int)
        self._stack: list = [0]          # 0 is the root: no parent span
        self._next_id = 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span named `name`; a SliceSimError it raises is
        counted as `<name>.errors` and re-raised."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except SliceSimError:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn, after=None):
        """`fn` traced as `name`; `after(result, args)` updates counters."""
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the part its child spans cover)."""
        child_time: dict = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict = {}
        for span_id, _, name, start, end in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         own + end - start - child_time[span_id])
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(f"{self.pipeline_id}\t{span_id}\t{parent}\t{name}\t"
                         f"{start:.9f}\t{end:.9f}\n")

    # -- counters at layer boundaries -----------------------------------------

    def _after_hook(self, role: str):
        def after(result, args):
            _, drafts, events = result
            if drafts or events:
                self.counts[f"blocks.{role}.tick_useful"] += 1
        return after

    def _after_send(self, outcome, args):
        self.counts["fabric.hops"] += outcome.record.hop_count

    def _after_step(self, result):
        _, _, delivered, lost = result
        self.counts["netsim.units_delivered"] += sum(delivered.values())
        self.counts["netsim.units_lost"] += sum(lost.values())

    def _after_derive(self, constraints, args):
        self.counts["catalog.sfs"] += len(args[0].sfs)
        self.counts["catalog.constraints"] += len(constraints)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        patches = []

        def patch(owner, key, value):
            if isinstance(owner, dict):
                patches.append((owner, key, owner[key]))
                owner[key] = value
            else:
                patches.append((owner, key, owner.__dict__[key]))
                setattr(owner, key, value)

        for role, fn in list(engine._HANDLERS.items()):
            patch(engine._HANDLERS, role,
                  self.wrap(f"blocks.{role.value}.handle", fn))
        for role, fn in list(engine._TICK_HOOKS.items()):
            patch(engine._TICK_HOOKS, role,
                  self.wrap(f"blocks.{role.value}.tick", fn,
                            self._after_hook(role.value)))

        context_cls = engine.BlockContext

        def block_context(*args, **kwargs):
            self.counts["blocks.contexts_built"] += 1
            return context_cls(*args, **kwargs)

        # Context building is engine work: counted here, timed in engine.self_s.
        patch(engine, "BlockContext", block_context)
        patch(engine, "validate_message",
              self.wrap("messages.validate", engine.validate_message))
        patch(engine, "compute_metrics",
              self.wrap("metrics.fold", engine.compute_metrics))
        patch(engine, "load_scenario",
              self.wrap("engine.load", engine.load_scenario))
        patch(engine.Environment, "run",
              self.wrap("engine.sim", engine.Environment.run))
        patch(slices, "instantiate",
              self.wrap("slices.instantiate", slices.instantiate))
        patch(fabric.Fabric, "send",
              self.wrap("fabric.send", fabric.Fabric.send, self._after_send))

        dplane_step = netsim.DPlane.step

        def step(plane, tick):
            self.counts["netsim.useful_steps"] += plane.has_work()
            result = self.call("netsim.step", dplane_step, plane, tick)
            self._after_step(result)
            return result

        step.__wrapped__ = dplane_step
        patch(netsim.DPlane, "step", step)
        patch(netsim.DPlane, "configure",
              self.wrap("netsim.configure", netsim.DPlane.configure))
        patch(catalog, "derive_separation_constraints",
              self.wrap("catalog.derive", catalog.derive_separation_constraints,
                        self._after_derive))
        for module, name, label in (
                (catalog, "load_catalog_file", "catalog.load"),
                (catalog, "group_into_bbs", "catalog.group"),
                (catalog, "evaluate_grouping", "catalog.evaluate"),
                (trace, "render_trace", "trace.render"),
                (trace, "trace_check", "trace.check"),
                (trace, "parse_trace", "trace.parse"),
                (metrics, "render_metrics", "metrics.render")):
            patch(module, name, self.wrap(label, getattr(module, name)))
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)


def layer_metrics(tracer: Tracer, records: int, ticks: int, trace_bytes: int) -> dict:
    """The per-layer figures of one traced pipeline, by metric name."""
    spans = tracer.summary()
    counts = tracer.counts

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    sim_s = spans.get("engine.sim", {}).get("total_s", 0.0)
    out = {
        "catalog.load_s": self_s("catalog.load"),
        "catalog.derive_s": self_s("catalog.derive"),
        "catalog.group_s": self_s("catalog.group"),
        "catalog.evaluate_s": self_s("catalog.evaluate"),
        "catalog.sfs": counts["catalog.sfs"],
        "catalog.constraints": counts["catalog.constraints"],
        "engine.load_s": self_s("engine.load"),
        "engine.sim_s": sim_s,
        "engine.self_s": self_s("engine.sim"),
        "engine.records": records,
        "engine.ticks": ticks,
        "engine.us_per_record": sim_s / records * 1e6 if records else 0.0,
        "slices.instantiate_s": self_s("slices.instantiate"),
        "slices.instances": calls("slices.instantiate"),
    }
    handler_calls = hook_calls = useful = 0
    for role in ROLES:
        name = f"blocks.{role}.handle"
        out[f"{name}_s"] = self_s(name)
        out[f"blocks.{role}.calls"] = calls(name)
        out[f"blocks.{role}.errors"] = counts[name + ".errors"]
        handler_calls += calls(name)
    for role in HOOK_ROLES:
        name = f"blocks.{role}.tick"
        out[f"{name}_s"] = self_s(name)
        out[f"{name}_calls"] = calls(name)
        hook_calls += calls(name)
        useful += counts[f"blocks.{role}.tick_useful"]
    built = counts["blocks.contexts_built"]
    out["blocks.tick_useful_ratio"] = useful / hook_calls if hook_calls else 0.0
    out["blocks.contexts_built"] = built
    out["blocks.contexts_per_call"] = (built / (handler_calls + hook_calls)
                                       if handler_calls + hook_calls else 0.0)
    steps = calls("netsim.step")
    out.update({
        "fabric.send_s": self_s("fabric.send"),
        "fabric.sends": calls("fabric.send"),
        "fabric.hops": counts["fabric.hops"],
        "messages.validate_s": self_s("messages.validate"),
        "messages.validated": calls("messages.validate"),
        "netsim.step_s": self_s("netsim.step"),
        "netsim.steps": steps,
        "netsim.useful_step_ratio": counts["netsim.useful_steps"] / steps if steps else 0.0,
        "netsim.configure_s": self_s("netsim.configure"),
        "netsim.configures": calls("netsim.configure"),
        "netsim.units_delivered": counts["netsim.units_delivered"],
        "netsim.units_lost": counts["netsim.units_lost"],
        "trace.render_s": self_s("trace.render"),
        "trace.bytes": trace_bytes,
        "trace.check_s": self_s("trace.check"),
        "trace.parse_s": self_s("trace.parse"),
        "metrics.fold_s": self_s("metrics.fold"),
        "metrics.render_s": self_s("metrics.render"),
    })
    return out
