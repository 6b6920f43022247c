"""The batched evaluation engine.

:class:`EvaluationEngine` owns everything between "the optimizer proposed a
batch of design vectors" and "here are their :class:`EvaluatedDesign`
records":

* **batching** -- the whole batch is dispatched through one
  :class:`~repro.engine.backends.ExecutionBackend` call, so independent
  simulations overlap on the process backend (or share one stacked solve
  on the batched backend);
* **caching** -- a content-hash :class:`~repro.engine.cache.DesignCache`
  short-circuits bit-identical designs (including duplicates *within* one
  batch), with hit/miss statistics for reports;
* **failure isolation** -- a design whose simulation raises (e.g. a Newton
  solve diverging into a singular Jacobian) is converted to the problem's
  pessimised failed evaluation instead of killing the batch.

The engine is deliberately a thin coordinator: it hands the pending rows to
one ``backend.simulate`` call (see :func:`evaluate_rows`); simulation stays a
pure function of the problem and the design, which is what makes process
dispatch safe.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import telemetry
from repro.bo.problem import EvaluatedDesign, OptimizationProblem
from repro.engine.backends import (ExecutionBackend, SimulationFailure,
                                   resolve_backend)
from repro.engine.cache import DesignCache
from repro.utils.validation import check_matrix


#: Exception types (matched by class name, so worker results stay trivially
#: picklable) that indicate a broken problem implementation -- wrong metric
#: names, malformed shapes, bad node names, misconfigured spaces -- rather
#: than a design whose numerics blew up.  These are re-raised by the
#: coordinator: silently pessimising every design because of a typo would let
#: a whole optimization run complete "successfully" on garbage.  Numerical
#: failures (ConvergenceError, LinAlgError, overflow, ...) stay isolated.
_CONTRACT_ERRORS = ("KeyError", "TypeError", "AttributeError",
                    "NotImplementedError", "ShapeError", "NetlistError",
                    "DesignSpaceError", "NotFittedError", "OptimizationError")


def evaluate_rows(problem: OptimizationProblem, rows, backend: ExecutionBackend
                  ) -> list[EvaluatedDesign | SimulationFailure]:
    """Simulate design rows through one ``backend.simulate`` call.

    Each row is clipped into the design space and named, exactly as
    :meth:`~repro.bo.problem.OptimizationProblem.evaluate` does; the metric
    dictionaries are folded into records here, in the coordinator, and the
    records keep the raw rows.  Returns, per row, an :class:`EvaluatedDesign`
    or a :class:`~repro.engine.backends.SimulationFailure` -- also when the
    fold raises (a metric dictionary missing a declared metric is a
    ``KeyError``), so the caller classifies every failure in one place.
    """
    space = problem.design_space
    jobs = [(problem, space.as_dict(space.clip(row.reshape(1, -1))[0]))
            for row in rows]
    outcomes = []
    for row, result in zip(rows, backend.simulate(jobs)):
        if not isinstance(result, SimulationFailure):
            try:
                result = problem.evaluation_from_metrics(row, result)
            except Exception as exc:  # noqa: BLE001 - classified by caller
                result = SimulationFailure.from_exception(exc)
        outcomes.append(result)
    return outcomes


class EvaluationEngine:
    """Batched, cached, failure-isolated evaluation of one problem.

    Parameters
    ----------
    problem:
        The sizing problem whose :meth:`~repro.bo.problem.OptimizationProblem.evaluate`
        defines the ground truth for one design.
    backend:
        Backend name (``"serial"``/``"batched"``/``"process"``), instance,
        or ``None`` for serial.
    cache:
        ``True`` (default) for a fresh :class:`DesignCache`, an existing
        cache to share one across engines, or ``False``/``None`` to disable.
    max_workers:
        Worker count for a process backend created from a name.
    """

    def __init__(self, problem: OptimizationProblem,
                 backend: str | ExecutionBackend | None = None,
                 cache: DesignCache | bool | None = True,
                 max_workers: int | None = None):
        self.problem = problem
        self.backend = resolve_backend(backend, max_workers=max_workers)
        if cache is True:
            cache = DesignCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.n_evaluated = 0
        self.n_failures = 0

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def evaluate_batch(self, x) -> list[EvaluatedDesign]:
        """Evaluate the rows of ``x``, in order, through cache and backend.

        With the cache disabled every row is simulated independently (no
        within-batch deduplication either), which is what stochastic
        simulators and raw-throughput benchmarks want.
        """
        x = check_matrix(x, "x", n_cols=self.problem.design_space.dim)
        n = x.shape[0]
        with telemetry.span("engine.evaluate_batch", problem=self.problem.name,
                            batch=n):
            return self._evaluate_batch(x, n)

    def _evaluate_batch(self, x: np.ndarray, n: int) -> list[EvaluatedDesign]:
        results: list[EvaluatedDesign | None] = [None] * n

        if self.cache is None:
            keys = None
            pending = list(range(n))
        else:
            # Cache keys are computed on the *clipped* design, which is what
            # the simulator actually sees; returned records keep the raw x.
            # The problem's cache_token (not just its name) scopes the keys,
            # so a shared cache never mixes differently-configured problems.
            token = getattr(self.problem, "cache_token", self.problem.name)
            clipped = self.problem.design_space.clip(x)
            keys = [DesignCache.key_for(token, row) for row in clipped]
            pending = []
            queued: set[str] = set()
            for index, key in enumerate(keys):
                if key in queued:
                    # Duplicate within the batch: simulated once, the repeat
                    # counts as a hit (a simulation the cache layer saved).
                    self.cache.record_saved_duplicate()
                    continue
                hit = self.cache.get(key)
                if hit is not None:
                    results[index] = self._clone(hit, x[index])
                    queued.add(key)
                    continue
                queued.add(key)
                pending.append(index)

        if pending:
            outcomes = self._dispatch(x, pending)
            telemetry.inc("repro_designs_evaluated_total", len(pending))
            for index, outcome in zip(pending, outcomes):
                self.n_evaluated += 1
                if isinstance(outcome, SimulationFailure):
                    if outcome.kind in _CONTRACT_ERRORS:
                        raise RuntimeError(
                            f"evaluation of {self.problem.name} raised a "
                            f"contract error ({outcome.message}); this is a "
                            "problem-implementation bug, not a failed design, "
                            "so it is not isolated")
                    self.n_failures += 1
                    telemetry.inc("repro_design_failures_total")
                    # Loud but non-fatal: numerical blow-ups are real results
                    # ("this region is bad") but should not pass unnoticed.
                    warnings.warn(
                        f"simulation of one {self.problem.name} design failed "
                        f"({outcome.message}); recording pessimised metrics",
                        RuntimeWarning, stacklevel=2)
                    outcome = self.problem.failed_evaluation(
                        x[index], tag=f"error:{outcome.message}")
                elif keys is not None:
                    # Only clean evaluations are cached (failures may be
                    # transient, e.g. a killed worker) -- and cached as a
                    # private clone so callers mutating their returned
                    # records cannot pollute the cache.
                    self.cache.put(keys[index], self._clone(outcome, x[index]))
                results[index] = outcome

        if keys is not None:
            # Resolve within-batch duplicates to clones of their source row.
            source = {keys[i]: record for i, record in enumerate(results)
                      if record is not None}
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = self._clone(source[key], x[index])
        return results  # type: ignore[return-value]

    def _dispatch(self, x: np.ndarray, pending: list[int]) -> list:
        """Simulate the pending rows: :func:`evaluate_rows` on the backend.

        A backend advertising ``job_dispatch`` (the study service's
        :class:`~repro.service.queue.QueueBackend`) gets the whole pending
        block as one ``map_jobs`` call instead: it ships the rows to
        external workers as queue jobs and returns the same per-row
        ``EvaluatedDesign``-or-``SimulationFailure`` contract, so failure
        isolation and caching behave identically to in-process evaluation.
        """
        rows = [x[index] for index in pending]
        if getattr(self.backend, "job_dispatch", False):
            return self.backend.map_jobs(self.problem, rows)
        return evaluate_rows(self.problem, rows, self.backend)

    @staticmethod
    def _clone(evaluation: EvaluatedDesign, x: np.ndarray) -> EvaluatedDesign:
        """Fresh record for a cache/dedup hit, carrying the requested x."""
        return EvaluatedDesign(x=np.asarray(x, dtype=float).ravel().copy(),
                               metrics=dict(evaluation.metrics),
                               objective=evaluation.objective,
                               feasible=evaluation.feasible,
                               violation=evaluation.violation,
                               tag=evaluation.tag,
                               extra=dict(evaluation.extra))

    # ------------------------------------------------------------------ #
    # bookkeeping                                                         #
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """Counters for reports: simulations run, failures, cache traffic."""
        stats: dict[str, object] = {
            "backend": self.backend.name,
            "n_evaluated": self.n_evaluated,
            "n_failures": self.n_failures,
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats.as_dict()
        return stats

    def close(self) -> None:
        """Shut down the backend's worker pool (idempotent)."""
        self.backend.shutdown()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EvaluationEngine(problem={self.problem.name!r}, "
                f"backend={self.backend.name!r}, "
                f"cache={'on' if self.cache is not None else 'off'})")
