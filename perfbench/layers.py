"""Outside-in layer tracing: spans around the public entry point of each layer.

The program is not modified.  :class:`Tracer` replaces each layer's public
function with a wrapper that records a span -- layer name, start, end and
parent span -- and restores the original afterwards.  Functions that other
modules bind by name at import time are wrapped where the name is looked
up (e.g. ``repro.bench.simulator.dc_operating_point``, not
``repro.spice.dc.dc_operating_point``), or the wrapper would never run.

Spans are kept in memory; :meth:`Tracer.layer_metrics` turns them into self
times (a span's duration minus the time its child spans cover) and the
counters the observers gathered from the wrapped calls' results.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np


def _engine_before(args, kwargs):
    engine = args[0]
    return engine.n_evaluated, engine.n_failures


def _engine_after(tracer, args, kwargs, result, before):
    engine = args[0]
    tracer.counts["engine.designs"] += len(result)
    tracer.counts["engine.simulated"] += engine.n_evaluated - before[0]
    tracer.counts["engine.failures"] += engine.n_failures - before[1]


def _dc_after(tracer, args, kwargs, result, before):
    tracer.samples["spice.newton_iters"].append(result.iterations)
    tracer.counts["spice.dc_failures"] += not result.converged


def _dc_batch_after(tracer, args, kwargs, result, before):
    tracer.samples["spice.newton_iters_batch"].extend(
        op.iterations for op in result)


def _tran_batch_after(tracer, args, kwargs, result, before):
    tracer.counts["spice.tran_steps"] += sum(
        getattr(outcome, "n_accepted", 0) for outcome in result)


def _mc_after(tracer, args, kwargs, result, before):
    tracer.counts["mc.samples"] += result.n_samples
    tracer.samples["mc.yield"].append(result.yield_value)


def _writer_after(tracer, args, kwargs, result, before):
    # The writer is whatever open_writer returns; its methods are wrapped on
    # the instance, so no private writer class is named here.
    for method in ("write_batch", "write_finish"):
        setattr(result, method,
                tracer.wrap(getattr(result, method), "service.store_write"))


#: (module[:class], attribute, layer, observer before the call, after it).
TARGETS = (
    ("repro.study.sources", "make_source_model", "study.transfer_source",
     None, None),
    ("repro.study.study", "prime_cache", "study.prime_cache", None, None),
    ("repro.engine.engine:EvaluationEngine", "evaluate_batch",
     "engine.evaluate_batch", _engine_before, _engine_after),
    ("repro.bench.simulator:Simulator", "run", "bench.run", None, None),
    ("repro.bench.batch:BatchSimulator", "run", "bench.batch_run", None, None),
    ("repro.bench.simulator", "dc_operating_point", "spice.dc", None, _dc_after),
    ("repro.bench.simulator", "ac_analysis", "spice.ac", None, None),
    ("repro.bench.batch", "dc_operating_point_batch", "spice.dc_batch",
     None, _dc_batch_after),
    ("repro.bench.batch", "ac_analysis_batch", "spice.ac_batch", None, None),
    ("repro.bench.batch", "transient_analysis_batch", "spice.tran_batch",
     None, _tran_batch_after),
    ("repro.mc.runner:MonteCarloRunner", "run", "mc.run", None, _mc_after),
    ("repro.gp.gpr:GPRegression", "fit", "gp.fit", None, None),
    ("repro.gp.multioutput:MultiOutputGP", "fit", "gp.multi_fit", None, None),
    ("repro.core.kat_gp:KATGP", "fit", "core.kat_fit", None, None),
    ("repro.core.kat_gp:SourceModel", "__init__", "core.source_fit", None, None),
    ("repro.moo.nsga2:NSGA2", "minimize", "moo.nsga2", None, None),
    ("repro.service.store:StoreCheckpoint", "read", "service.store_read",
     None, None),
    ("repro.service.store:StoreCheckpoint", "open_writer",
     "service.store_write", None, _writer_after),
)

#: Layers whose self time is reported, by metric name.
SELF_TIMES = {
    "study.transfer_source_s": ("study.transfer_source",),
    "study.prime_cache_s": ("study.prime_cache",),
    "engine.evaluate_batch_self_s": ("engine.evaluate_batch",),
    "bench.run_self_s": ("bench.run",),
    "bench.batch_run_self_s": ("bench.batch_run",),
    "spice.dc_s": ("spice.dc",),
    "spice.ac_s": ("spice.ac",),
    "spice.dc_batch_s": ("spice.dc_batch",),
    "spice.ac_batch_s": ("spice.ac_batch",),
    "spice.tran_batch_s": ("spice.tran_batch",),
    "mc.run_s": ("mc.run",),
    "gp.fit_s": ("gp.fit", "gp.multi_fit"),
    "core.kat_fit_s": ("core.kat_fit",),
    "core.source_fit_s": ("core.source_fit",),
    "moo.nsga2_s": ("moo.nsga2",),
    "service.store_read_s": ("service.store_read",),
    "service.store_write_s": ("service.store_write",),
}

#: Per workload: layers that must record time, and layers that must record
#: no span at all.  A change that moves work between layers shows up here
#: first; a workload that stops bypassing a layer fails the traced run.
COVERAGE = {
    "kato_tl": {
        "used": ("study.transfer_source", "engine.evaluate_batch", "bench.run",
                 "spice.dc", "spice.ac", "gp.fit", "core.kat_fit",
                 "core.source_fit", "moo.nsga2"),
        "bypassed": ("spice.dc_batch", "spice.ac_batch", "spice.tran_batch",
                     "bench.batch_run", "mc.run", "study.prime_cache",
                     "service.store_read", "service.store_write"),
    },
    "mc_batched": {
        "used": ("bench.batch_run", "spice.dc_batch", "spice.ac_batch",
                 "spice.tran_batch", "mc.run"),
        "bypassed": ("spice.dc", "spice.ac", "bench.run", "gp.fit",
                     "gp.multi_fit", "core.kat_fit", "core.source_fit",
                     "moo.nsga2", "study.transfer_source", "study.prime_cache",
                     "engine.evaluate_batch", "service.store_read",
                     "service.store_write"),
    },
    "mace_replay": {
        "used": ("study.prime_cache", "engine.evaluate_batch", "gp.fit",
                 "moo.nsga2", "service.store_read", "service.store_write"),
        "bypassed": ("spice.dc", "spice.ac", "spice.dc_batch", "spice.ac_batch",
                     "spice.tran_batch", "bench.run", "bench.batch_run",
                     "mc.run", "core.kat_fit", "core.source_fit",
                     "study.transfer_source"),
    },
}


def coverage_failures(workload: str, self_s: dict, calls: dict) -> list[str]:
    """Layers that recorded no time where used, or any span where bypassed."""
    expected = COVERAGE[workload]
    failures = [f"used layer {layer} recorded no time"
                for layer in expected["used"] if not self_s.get(layer, 0.0) > 0]
    failures += [f"bypassed layer {layer} recorded {calls[layer]} spans"
                 for layer in expected["bypassed"] if calls.get(layer)]
    return failures


class Tracer:
    """In-memory span recorder that patches the layer entry points.

    Use as a context manager: the wrappers are installed on entry and the
    original functions restored on exit.  Single-threaded by design -- the
    benchmark's workloads run with no pools, so spans nest strictly.
    """

    def __init__(self):
        #: One [layer, start, end, parent index] list per span.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, layer, before=None, after=None):
        """``fn`` wrapped in a span named ``layer``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append([layer, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result, token)
            return result
        return traced

    def __enter__(self) -> "Tracer":
        for location, attribute, layer, before, after in TARGETS:
            module_name, _, class_name = location.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            # Look in the owner's own namespace so a restored class keeps
            # inheriting (rather than owning) what it did not define.
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                self.missing.append(f"{location}.{attribute}")
                continue
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, layer, before, after))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict, dict, dict, float]:
        """Self time, total time and call count per layer, and top-level time."""
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for layer, start, end, parent in self.spans:
            if parent is None:
                top_level += end - start
            else:
                child_time[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (layer, start, end, _), covered in zip(self.spans, child_time):
            self_s[layer] += end - start - covered
            total_s[layer] += end - start
            calls[layer] += 1
        return dict(self_s), dict(total_s), dict(calls), top_level

    def layer_metrics(self, study_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced work that took ``study_s``."""
        self_s, total_s, calls, top_level = self.self_times()
        metrics = {name: sum(self_s.get(layer, 0.0) for layer in layers)
                   for name, layers in SELF_TIMES.items()}
        counts = self.counts
        designs = counts["engine.designs"]
        simulated = counts["engine.simulated"]
        iters = self.samples["spice.newton_iters"]
        batch_iters = self.samples["spice.newton_iters_batch"]
        mc_s = total_s.get("mc.run", 0.0)
        metrics.update({
            "engine.designs": designs,
            "engine.cache_hit_pct": 100.0 * (designs - simulated) / designs
            if designs else 0.0,
            "engine.eval_failure_pct": 100.0 * counts["engine.failures"] / simulated
            if simulated else 0.0,
            "spice.dc_solves": calls.get("spice.dc", 0),
            "spice.newton_iters_mean": float(np.mean(iters)) if iters else 0.0,
            "spice.newton_iters_p90": float(np.percentile(iters, 90))
            if iters else 0.0,
            "spice.dc_fail_pct": 100.0 * counts["spice.dc_failures"] / len(iters)
            if iters else 0.0,
            "spice.tran_steps": counts["spice.tran_steps"],
            "spice.newton_iters_batch_mean": float(np.mean(batch_iters))
            if batch_iters else 0.0,
            "mc.samples_per_s": counts["mc.samples"] / mc_s if mc_s else 0.0,
            "mc.yield": float(np.mean(self.samples["mc.yield"]))
            if self.samples["mc.yield"] else 0.0,
            "gp.fits": calls.get("gp.fit", 0),
            "moo.nsga2_calls": calls.get("moo.nsga2", 0),
            "trace.unattributed_s": study_s - top_level,
        })
        return metrics
