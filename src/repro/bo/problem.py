"""Black-box problem interface implemented by the circuit testbenches.

A sizing task (paper Eq. 1) is: maximise or minimise one performance metric
subject to threshold constraints on the others.  ``OptimizationProblem``
captures exactly that, plus batch evaluation, feasibility checks and the
constraint-violation measure used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bo.design_space import DesignSpace


@dataclass(frozen=True)
class Constraint:
    """A threshold constraint on one named metric.

    ``sense='ge'`` means the metric must be at least ``threshold``
    (e.g. Gain > 60 dB); ``sense='le'`` means at most (e.g. I_total < 6 uA).
    """

    name: str
    threshold: float
    sense: str = "ge"

    def __post_init__(self) -> None:
        if self.sense not in ("ge", "le"):
            raise ValueError(f"sense must be 'ge' or 'le', got {self.sense!r}")

    def satisfied(self, value: float, tolerance: float = 0.0) -> bool:
        if self.sense == "ge":
            return bool(value >= self.threshold - tolerance)
        return bool(value <= self.threshold + tolerance)

    def violation(self, value: float) -> float:
        """Non-negative violation magnitude (0 when satisfied)."""
        if self.sense == "ge":
            return float(max(0.0, self.threshold - value))
        return float(max(0.0, value - self.threshold))


@dataclass
class EvaluatedDesign:
    """One simulated design: inputs, all metrics and feasibility."""

    x: np.ndarray
    metrics: dict[str, float]
    objective: float
    feasible: bool
    violation: float = 0.0
    tag: str = ""
    extra: dict[str, float] = field(default_factory=dict)


class OptimizationProblem:
    """Base class for constrained sizing problems.

    Subclasses provide :meth:`simulate` returning a metric dictionary; this
    base class provides the bookkeeping shared by every testbench.

    Parameters
    ----------
    name:
        Problem identifier used in reports (e.g. ``"two_stage_opamp_180nm"``).
    design_space:
        The physical design space.
    objective:
        Name of the metric to optimise.
    minimize:
        Whether the objective is minimised (True for current or TC).
    constraints:
        Threshold constraints on other metrics.
    """

    #: Whether the batched backend's ``simulate``
    #: (:meth:`repro.engine.BatchedBackend.simulate`) may stack this
    #: problem's jobs into one testbench session; other jobs go through
    #: ``problem.simulate`` one at a time.  Testbench problems opt in --
    #: every analysis kind they declare runs through the stacked solvers;
    #: wrappers that fan out *internally* (corner sweeps, Monte Carlo yield)
    #: stay False -- their own ``backend.simulate`` fan-outs batch instead.
    supports_batch_simulation = False

    def __init__(self, name: str, design_space: DesignSpace, objective: str,
                 minimize: bool, constraints: list[Constraint]):
        self.name = name
        self.design_space = design_space
        self.objective = objective
        self.minimize = bool(minimize)
        self.constraints = list(constraints)
        self._engine = None

    def __getstate__(self) -> dict:
        # The attached engine may own a process pool, which cannot be
        # pickled; a worker receiving a problem rebuilds a default (serial)
        # engine lazily, so fanned-out optimizers never spawn pools of pools.
        state = self.__dict__.copy()
        state["_engine"] = None
        return state

    # ------------------------------------------------------------------ #
    # metric layout                                                       #
    # ------------------------------------------------------------------ #
    @property
    def constraint_names(self) -> list[str]:
        return [c.name for c in self.constraints]

    @property
    def metric_names(self) -> list[str]:
        """Objective first, then constraint metrics, in a stable order."""
        return [self.objective, *self.constraint_names]

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def constraint_thresholds(self) -> np.ndarray:
        return np.array([c.threshold for c in self.constraints], dtype=float)

    @property
    def constraint_senses(self) -> list[str]:
        return [c.sense for c in self.constraints]

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def simulate(self, design: dict[str, float]) -> dict[str, float]:
        """Run the testbench for one named design point.  Subclasses override."""
        raise NotImplementedError

    def evaluate(self, x) -> EvaluatedDesign:
        """Evaluate one design vector (physical units)."""
        x = np.asarray(x, dtype=float).ravel()
        design = self.design_space.as_dict(self.design_space.clip(x.reshape(1, -1))[0])
        metrics = self.simulate(design)
        return self.evaluation_from_metrics(x, metrics)

    def evaluation_from_metrics(self, x,
                                metrics: dict[str, float]) -> EvaluatedDesign:
        """Fold a metric dictionary into a full :class:`EvaluatedDesign`.

        The constraint bookkeeping of :meth:`evaluate`, split out so batched
        simulation paths (which obtain many metric dictionaries from one
        vectorised solve) produce records identical to the serial path.
        Raises :class:`KeyError` when ``metrics`` is missing a declared
        metric, exactly like :meth:`evaluate` would.
        """
        x = np.asarray(x, dtype=float).ravel()
        missing = [m for m in self.metric_names if m not in metrics]
        if missing:
            raise KeyError(f"simulate() did not return metrics {missing} for {self.name}")
        objective = float(metrics[self.objective])
        violation = float(sum(c.violation(metrics[c.name]) for c in self.constraints))
        feasible = all(c.satisfied(metrics[c.name]) for c in self.constraints)
        return EvaluatedDesign(x=x.copy(), metrics=dict(metrics), objective=objective,
                               feasible=feasible, violation=violation)

    def failed_metrics(self) -> dict[str, float]:
        """Metric values reported for designs whose evaluation failed.

        Subclasses override to provide problem-specific "very bad" values;
        the default pessimises every metric relative to its constraint.
        """
        metrics: dict[str, float] = {}
        large = 1e6
        metrics[self.objective] = large if self.minimize else -large
        for constraint in self.constraints:
            if constraint.sense == "ge":
                metrics[constraint.name] = constraint.threshold - large
            else:
                metrics[constraint.name] = constraint.threshold + large
        return metrics

    def failed_evaluation(self, x, tag: str = "failed") -> EvaluatedDesign:
        """A fully-populated record for a design whose simulation crashed.

        Used by the evaluation engine's failure isolation: the optimizers
        still learn "this region is bad" instead of the whole batch dying.
        """
        x = np.asarray(x, dtype=float).ravel()
        metrics = self.failed_metrics()
        # Keep the metric_names completeness invariant even when a subclass
        # reports extra metrics but did not override failed_metrics(): NaN is
        # honest ("never measured") and keeps metrics_matrix() indexable.
        for name in self.metric_names:
            metrics.setdefault(name, float("nan"))
        violation = float(sum(c.violation(metrics[c.name]) for c in self.constraints))
        feasible = all(c.satisfied(metrics[c.name]) for c in self.constraints)
        return EvaluatedDesign(x=x.copy(), metrics=metrics,
                               objective=float(metrics[self.objective]),
                               feasible=feasible, violation=violation, tag=tag)

    # ------------------------------------------------------------------ #
    # engine integration                                                  #
    # ------------------------------------------------------------------ #
    @property
    def cache_token(self) -> str:
        """Identity string mixed into design-cache keys.

        Must distinguish any two problem instances whose :meth:`simulate`
        could return different values for the same design.  The name is
        enough for deterministically-configured problems; subclasses with
        instance-specific state (e.g. randomly estimated normalisation
        ranges) must extend it so a shared cache never serves one instance's
        results to another.
        """
        return self.name

    @property
    def engine(self):
        """The :class:`repro.engine.EvaluationEngine` evaluating batches.

        Created lazily (serial backend, caching on) so plain problems work
        with zero configuration; replace it with :meth:`attach_engine` to opt
        into batched/process execution or a shared cache.
        """
        if getattr(self, "_engine", None) is None:
            from repro.engine import EvaluationEngine
            self._engine = EvaluationEngine(self)
        return self._engine

    def attach_engine(self, engine) -> None:
        """Install a configured engine (``None`` restores the lazy default)."""
        self._engine = engine

    def evaluate_batch(self, x) -> list[EvaluatedDesign]:
        """Evaluate a batch of design vectors (rows of ``x``).

        Routed through the attached :class:`~repro.engine.EvaluationEngine`,
        which validates the matrix and adds design-level caching, backend
        dispatch and failure isolation on top of row-by-row :meth:`evaluate`.
        """
        return self.engine.evaluate_batch(x)

    def close(self) -> None:
        """Release any auxiliary resources the problem owns (idempotent).

        The base problem owns none -- the attached engine is closed by its
        own ``close`` -- but wrappers that hold worker pools of their own
        (e.g. a PVT corner sweep's or a Monte Carlo runner's fan-out
        backend) override this.  Drivers like :class:`repro.study.Study`
        call it after a run, and every problem is a context manager
        (``with make_problem(...) as problem:``) so ad-hoc scripts have a
        release path that survives exceptions.
        """

    def __enter__(self) -> "OptimizationProblem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def metrics_matrix(self, evaluations: list[EvaluatedDesign]) -> np.ndarray:
        """Stack evaluations into an ``(n, n_metrics)`` matrix (metric order)."""
        return np.array([[e.metrics[name] for name in self.metric_names]
                         for e in evaluations], dtype=float)

    def is_better(self, candidate: float, incumbent: float) -> bool:
        """Compare objective values according to the optimisation direction."""
        if self.minimize:
            return candidate < incumbent
        return candidate > incumbent

    @property
    def worst_objective(self) -> float:
        """A sentinel objective value worse than any achievable one."""
        return np.inf if self.minimize else -np.inf
