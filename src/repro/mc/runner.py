"""The Monte Carlo mismatch runner: sample fan-out with adaptive stopping.

:class:`MonteCarloRunner` is the statistical counterpart of
:class:`~repro.bench.CornerSweep`: where the corner sweep fans one design
across a handful of deterministic PVT conditions, the runner fans it across
*sampled* local-mismatch outcomes -- each one a derived
:class:`~repro.pdk.Technology` card carrying a
:class:`~repro.pdk.VariationSample` -- through the same pluggable
serial/batched/process execution backends as the evaluation engine.

Per batch, every sample's simulation is classified pass/fail against the
wrapped problem's constraints and folded into a running Wilson-interval
yield estimate (:mod:`repro.mc.estimator`); the loop stops as soon as the
interval is tighter than the configured target (never before ``n_min``
samples) or when ``n_max`` is exhausted.  Cheap designs -- deeply feasible
or hopelessly dead, where a few dozen samples already pin the yield near 1
or 0 -- cost ~``n_min`` simulations, while marginal designs earn the full
budget.

Determinism: samples are materialised by index in the coordinating process
(:mod:`repro.mc.samplers`), backends return results in input order, and all
aggregation is sequential over that order -- so a yield estimate is
bit-identical across serial, batched and process execution and across a
checkpoint/resume of the surrounding study.  Every sample's derived card has
its own :attr:`~repro.pdk.Technology.fingerprint` (the z-scores are hashed
in), so per-sample simulations can never collide in a shared design cache.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from repro.engine.backends import (BackendOwner, ExecutionBackend,
                                   SimulationFailure)
from repro.mc.estimator import YieldEstimate, YieldEstimator
from repro.mc.samplers import available_samplers, make_sampler
from repro.pdk import VariationSample


@dataclass(frozen=True)
class MonteCarloConfig:
    """Declarative Monte Carlo setup (JSON-plain, cache-token friendly).

    Attributes
    ----------
    n_max:
        Sample budget per design (also the sampler stream length).
    n_min:
        Samples always run before adaptive stopping may trigger; guards
        against stopping on the spuriously tight intervals of tiny counts.
    batch_size:
        Samples dispatched per backend ``simulate`` call -- the
        adaptive-stopping granularity, and the unit parallelised across
        workers.
    sampler:
        Sampler registry name (``"normal"``, ``"lhs"``, ``"sobol"``).
    seed:
        Sampler stream seed.  Every design evaluated by one runner sees the
        *same* sample stream (common random numbers), so design-to-design
        yield differences reflect the designs, not sampling noise.
    confidence:
        Confidence level of the Wilson interval.
    ci_half_width:
        Adaptive-stopping target: stop once the interval half-width is at or
        below this.  ``None`` disables stopping -- every design runs the
        full ``n_max`` (what throughput benchmarks and variance studies want).
    """

    n_max: int = 256
    n_min: int = 32
    batch_size: int = 32
    sampler: str = "normal"
    seed: int = 0
    confidence: float = 0.95
    ci_half_width: float | None = 0.05

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got n_min={self.n_min} "
                             f"with n_max={self.n_max}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if str(self.sampler).lower() not in available_samplers():
            raise ValueError(f"unknown sampler {self.sampler!r}; "
                             f"available: {available_samplers()}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), "
                             f"got {self.confidence}")
        if self.ci_half_width is not None and not 0.0 < self.ci_half_width < 0.5:
            raise ValueError(f"ci_half_width must be in (0, 0.5) or null, "
                             f"got {self.ci_half_width}")

    @classmethod
    def from_dict(cls, data: dict) -> "MonteCarloConfig":
        """Build from plain data (what ``problem_options`` carries)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown Monte Carlo config fields {unknown}; "
                             f"known: {sorted(known)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        """Stable one-line identity, folded into problem cache tokens.

        Every field that can change a reported metric appears -- including
        ``confidence`` even with stopping disabled, since it still shapes
        the ``yield_ci_low``/``yield_ci_high`` values.
        """
        target = ("none" if self.ci_half_width is None
                  else f"{self.ci_half_width:g}")
        return (f"mc({self.sampler}, seed={self.seed}, n={self.n_min}.."
                f"{self.n_max}/{self.batch_size}, "
                f"ci={target}@{self.confidence:g})")


@dataclass
class MonteCarloResult:
    """One design's Monte Carlo verdict.

    Attributes
    ----------
    estimate:
        Final Wilson-interval yield estimate.
    stopped_by:
        ``"ci_target"`` when adaptive stopping fired (its interval is then
        guaranteed no wider than the configured target) or ``"n_max"`` when
        the budget ran out first.
    n_failures:
        Samples whose simulation *raised* (they count as yield failures and
        contribute the problem's pessimised metrics to the statistics).
    per_sample:
        Metric dictionary per executed sample, in sample order.
    samples:
        The executed :class:`~repro.pdk.VariationSample` draws, aligned with
        ``per_sample``.
    fingerprints:
        Per-sample derived-technology fingerprints (the cache identities the
        varied simulations ran under), aligned with ``per_sample``.
    """

    estimate: YieldEstimate
    stopped_by: str
    n_failures: int = 0
    per_sample: list[dict[str, float]] = field(default_factory=list)
    samples: list[VariationSample] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.estimate.n_samples

    @property
    def yield_value(self) -> float:
        return self.estimate.value


def classify_pass(metrics: dict[str, float], constraints) -> bool:
    """Spec compliance of one sample: every constraint met, finitely.

    A non-finite constrained metric is a failure, not an accident: NaN
    compares false against thresholds in a sense-dependent way, and a dead
    sample must never count toward yield.
    """
    for constraint in constraints:
        value = metrics[constraint.name]
        if not math.isfinite(value) or not constraint.satisfied(value):
            return False
    return True


class MonteCarloRunner(BackendOwner):
    """Fan mismatch samples of one design through an execution backend.

    Backend lifecycle (laziness, ``with`` support, leak warnings, pickling)
    comes from :class:`~repro.engine.backends.BackendOwner`; see
    :class:`~repro.bench.CornerSweep` for the corner-side twin.

    Parameters
    ----------
    config:
        :class:`MonteCarloConfig` (or a plain dict of its fields).
    backend:
        Backend name, instance or ``None`` for serial.
    max_workers:
        Worker count for a process backend created from a name.
    """

    def __init__(self, config: MonteCarloConfig | dict | None = None,
                 backend: str | ExecutionBackend | None = None,
                 max_workers: int | None = None):
        super().__init__(backend, max_workers=max_workers)
        if config is None:
            config = MonteCarloConfig()
        elif isinstance(config, dict):
            config = MonteCarloConfig.from_dict(config)
        self.config = config
        # Sampler streams are pure functions of (config, device set), so the
        # materialised z-score block is built once per device set instead of
        # per design evaluation.  Concurrent simulate() calls may race to
        # build it; both build the identical block, so last-write-wins is
        # harmless.  Dropped on pickling to keep worker payloads small.
        self._samplers: dict[tuple[str, ...], object] = {}

    def __enter__(self) -> "MonteCarloRunner":
        return self

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_samplers"] = {}
        return state

    def run(self, problem, design: dict[str, float],
            device_names=None) -> MonteCarloResult:
        """Estimate the mismatch yield of ``design`` on ``problem``.

        ``problem`` must be a :class:`~repro.circuits.CircuitSizingProblem`
        (it provides ``with_variation`` and, when ``device_names`` is not
        given, ``mismatch_device_names``).
        """
        if isinstance(getattr(problem, "_runner", None), MonteCarloRunner):
            # A yield wrapper delegates simulation to its *base* problem, so
            # varying the wrapper would silently ignore every sample (and
            # nest a full MC run inside each one).
            raise ValueError(
                f"{problem.name} is itself a Monte Carlo yield problem; run "
                "the runner on its .base_problem instead")
        config = self.config
        if device_names is None:
            device_names = problem.mismatch_device_names()
        key = tuple(sorted(device_names))
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = make_sampler(config.sampler, device_names,
                                   seed=config.seed, n_max=config.n_max)
            self._samplers[key] = sampler
        estimator = YieldEstimator(config.confidence)
        failed_metrics = problem.failed_metrics()
        base_tech = problem.technology
        per_sample: list[dict[str, float]] = []
        samples: list[VariationSample] = []
        fingerprints: list[str] = []
        n_failures = 0
        stopped_by = "n_max"

        while estimator.n_samples < config.n_max:
            count = min(config.batch_size,
                        config.n_max - estimator.n_samples)
            batch = sampler.take(estimator.n_samples, count)
            # One fan-out call per batch.  The per-sample clones are derived
            # here for every backend, and each still builds its own perturbed
            # netlist, so stacked and serial sessions agree bit for bit.
            clones = [problem.with_variation(sample) for sample in batch]
            outcomes = self.backend.simulate(
                [(clone, design) for clone in clones])
            for sample, clone, outcome in zip(batch, clones, outcomes):
                if isinstance(outcome, SimulationFailure):
                    n_failures += 1
                    passed, metrics = False, dict(failed_metrics)
                else:
                    metrics = outcome
                    passed = classify_pass(metrics, problem.constraints)
                estimator.update(passed)
                per_sample.append(metrics)
                samples.append(sample)
                # A circuit clone already carries the derived card; other
                # problem classes get it derived here.
                card = getattr(clone, "technology", None)
                if card is None or card.variation is not sample:
                    card = base_tech.with_variation(sample)
                fingerprints.append(card.fingerprint)
            if (estimator.n_samples >= config.n_min
                    and estimator.reached(config.ci_half_width)):
                stopped_by = "ci_target"
                break

        return MonteCarloResult(estimate=estimator.estimate(),
                                stopped_by=stopped_by,
                                n_failures=n_failures,
                                per_sample=per_sample,
                                samples=samples,
                                fingerprints=fingerprints)
