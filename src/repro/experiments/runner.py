"""Shared experiment plumbing: repeated runs over factory callables.

Optimizers are built through the decorator-based registry in
:mod:`repro.study.registry`, and :func:`make_source_model` is re-exported
from :mod:`repro.study.sources`.  New code should go through
:class:`repro.study.StudySpec` / :func:`repro.study.run_study` (or
:func:`repro.study.build_optimizer` when a bare optimizer instance is
needed).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bo import OptimizationHistory
from repro.bo.problem import OptimizationProblem
from repro.engine import ExecutionBackend, resolve_backend
from repro.study.sources import make_source_model
from repro.utils.random import spawn_rngs
from repro.utils.stats import summarize_runs

__all__ = ["make_source_model", "run_repeated"]


def _run_one_seed(task: tuple) -> tuple[np.ndarray, OptimizationHistory]:
    """One independent repetition of an experiment (a backend work item).

    Top-level so it is picklable for the process backend; the factories it
    receives must then be module-level functions or other picklable
    callables (lambdas and closures only work in-process).
    """
    problem_factory, optimizer_factory, run_rng, n_simulations, n_init, constrained = task
    problem = problem_factory()
    optimizer = optimizer_factory(problem, run_rng)
    history = optimizer.optimize(n_simulations=n_simulations, n_init=n_init)
    return history.best_curve(constrained=constrained), history


def run_repeated(problem_factory: Callable[[], OptimizationProblem],
                 optimizer_factory: Callable[[OptimizationProblem, object], object],
                 n_simulations: int, n_init: int, n_seeds: int = 3,
                 seed: int = 0, constrained: bool = True,
                 backend: str | ExecutionBackend | None = "serial",
                 ) -> dict[str, object]:
    """Run one method over several seeds and aggregate the best-so-far curves.

    This is the factory-based counterpart of :func:`repro.study.run_study`
    for problems/optimizers that are not registry-expressible (ad-hoc
    callables, mutated optimizer instances).  Declarative runs should prefer
    ``run_study``, which adds callbacks and checkpoint/resume.

    The repetitions are fully independent solves, so they fan out across the
    execution ``backend`` (``"serial"`` by default, which reproduces the
    sequential behaviour exactly; ``"process"`` or an
    :class:`~repro.engine.ExecutionBackend` instance run seeds concurrently).
    Seed-to-rng assignment is identical for every backend, so results only
    ever differ in wall-clock time.

    Returns a dictionary with the per-seed curves, their summary statistics
    and the final histories (for table extraction).
    """
    tasks = [(problem_factory, optimizer_factory, run_rng,
              n_simulations, n_init, constrained)
             for run_rng in spawn_rngs(seed, n_seeds)]
    # Shut down pools we created here; caller-supplied instances stay alive
    # so their pools can be shared across several run_repeated calls.
    owns_backend = not isinstance(backend, ExecutionBackend)
    resolved = resolve_backend(backend)
    try:
        outcomes = resolved.map(_run_one_seed, tasks)
    finally:
        if owns_backend:
            resolved.shutdown()
    curves = [curve for curve, _ in outcomes]
    histories = [history for _, history in outcomes]
    length = min(len(c) for c in curves)
    curves = [c[:length] for c in curves]
    return {
        "curves": np.asarray(curves),
        "summary": summarize_runs(curves),
        "histories": histories,
    }
