"""Yield-aware sizing under local mismatch: the ``*_yield`` problem family.

A :class:`YieldSizingProblem` wraps one of the registered testbench problems
and judges every design twice:

* **nominally** -- the wrapped problem's own simulation supplies the
  objective and the original spec constraints, bit-identical to the plain
  problem (so yield studies are directly comparable to nominal ones);
* **statistically** -- a :class:`~repro.mc.MonteCarloRunner` fans seeded
  Pelgrom mismatch samples through the engine's execution backends,
  classifies each against the specs and reports the Wilson-interval yield,
  which enters the problem as one extra constraint ``yield >= target``.

The optimization task is therefore *optimise the nominal objective subject
to the specs holding at nominal and with probability >= target under
mismatch* -- robust sizing as a drop-in
:class:`~repro.bo.problem.OptimizationProblem`, the statistical twin of
:class:`~repro.circuits.corners.CornerSizingProblem`.

Alongside the yield the metrics carry the sense-aware sigma statistics of
every base metric (``<metric>_mean`` / ``_std`` / ``_p99``, see
:func:`repro.bench.aggregate.sigma_metrics`), so reports can show *how* a
design fails, not just how often.  Adaptive stopping keeps the price honest:
designs whose yield is pinned near 0 or 1 after ``n_min`` samples stop
early, marginal designs earn the full ``n_max``, and a design that is
already dead at nominal skips Monte Carlo entirely.
"""

from __future__ import annotations

import hashlib

from repro.bench.aggregate import sigma_metrics
from repro.bo.problem import Constraint
from repro.circuits.bandgap import BandgapReference
from repro.circuits.base import CircuitSizingProblem
from repro.circuits.comparator import DynamicComparator
from repro.circuits.ldo import LowDropoutRegulator
from repro.circuits.three_stage_opamp import ThreeStageOpAmp
from repro.circuits.two_stage_opamp import TwoStageOpAmp
from repro.mc import MonteCarloConfig, MonteCarloRunner


class YieldSizingProblem(CircuitSizingProblem):
    """Mismatch-yield-constrained variant of a testbench sizing problem.

    Parameters
    ----------
    base_name:
        Registry-style short name of the wrapped problem (used to derive
        this problem's name, ``<base_name>_yield_<node>``).
    base_cls:
        The wrapped :class:`CircuitSizingProblem` subclass; must be
        constructible as ``base_cls(technology=..., **base_kwargs)``.
    technology:
        Nominal node name or card; per-sample cards are derived from it.
    yield_target:
        The constraint threshold on the estimated yield (fraction in
        ``(0, 1]``).
    mc:
        :class:`~repro.mc.MonteCarloConfig`, or a plain dict of its fields
        (what a JSON study spec's ``problem_options`` carries), or ``None``
        for the defaults.
    backend:
        Execution backend for the sample fan-out (name, instance or ``None``
        for serial).
    max_workers:
        Worker count for a process backend created from a name.
    base_kwargs:
        Forwarded to the wrapped ``base_cls``.
    """

    #: The wrapper has no bench of its own -- its *sample fan-out* is the
    #: batched unit (MonteCarloRunner stacks the per-sample benches instead).
    supports_batch_simulation = False

    def __init__(self, base_name: str, base_cls: type,
                 technology="180nm", yield_target: float = 0.9,
                 mc=None, backend=None, max_workers: int | None = None,
                 **base_kwargs):
        if not 0.0 < yield_target <= 1.0:
            raise ValueError(f"yield_target must be in (0, 1], "
                             f"got {yield_target}")
        base = base_cls(technology=technology, **base_kwargs)
        super().__init__(name=f"{base_name}_yield",
                         technology=base.technology,
                         design_space=base.design_space,
                         objective=base.objective,
                         minimize=base.minimize,
                         constraints=[*base.constraints,
                                      Constraint("yield", float(yield_target),
                                                 "ge")])
        self.yield_target = float(yield_target)
        self._base = base
        self._runner = MonteCarloRunner(mc, backend=backend,
                                        max_workers=max_workers)
        self._device_names: tuple[str, ...] | None = None

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    @property
    def base_problem(self) -> CircuitSizingProblem:
        """The wrapped nominal problem."""
        return self._base

    @property
    def mc_config(self) -> MonteCarloConfig:
        return self._runner.config

    def testbench(self):
        """Yield problems delegate to their base problem's bench."""
        raise NotImplementedError(
            f"{self.name} runs Monte Carlo over its base problem; use "
            ".base_problem.bench for the underlying testbench")

    def with_variation(self, sample):
        """Varying the wrapper is always a mistake -- fail loudly.

        A sample applied here would be ignored (simulation delegates to the
        un-varied base problem) while still paying for a nested Monte Carlo
        run; vary :attr:`base_problem` instead.
        """
        raise NotImplementedError(
            f"{self.name} wraps Monte Carlo itself; apply variation to "
            ".base_problem, not to the yield wrapper")

    def mismatch_device_names(self) -> tuple[str, ...]:
        if self._device_names is None:
            self._device_names = self._base.mismatch_device_names()
        return self._device_names

    def simulate(self, design: dict[str, float]) -> dict[str, float]:
        nominal, ok = self._base.simulate_checked(design)
        if not ok:
            # Dead at nominal: the mismatch yield of a non-functional design
            # is zero by definition -- skip the whole sample fan-out.
            return self.failed_metrics()
        result = self._runner.run(self._base, design,
                                  device_names=self.mismatch_device_names())
        metrics = dict(nominal)
        metrics.update(result.estimate.as_metrics("yield"))
        metrics["mc_samples"] = float(result.n_samples)
        metrics.update(sigma_metrics(result.per_sample, self._base.objective,
                                     self._base.minimize,
                                     self._base.constraints))
        return metrics

    def failed_metrics(self) -> dict[str, float]:
        metrics = self._base.failed_metrics()
        # Sigma statistics of a design that was never sampled: the
        # pessimised value with zero spread keeps every key present and
        # every consumer (tables, surrogates) on finite floats.
        for name, value in list(metrics.items()):
            metrics[f"{name}_mean"] = value
            metrics[f"{name}_std"] = 0.0
            metrics[f"{name}_p99"] = value
        metrics.update({"yield": 0.0, "yield_ci_low": 0.0,
                        "yield_ci_high": 0.0, "mc_samples": 0.0})
        return metrics

    # ------------------------------------------------------------------ #
    # identity / bookkeeping                                              #
    # ------------------------------------------------------------------ #
    @property
    def cache_token(self) -> str:
        """Fold the base identity, the yield target and the MC setup in.

        Two yield problems sharing a name but differing in sample count,
        sampler, seed, CI target or any base configuration must never share
        design-cache entries -- their metric dictionaries differ.
        """
        parts = (self._base.cache_token, self.yield_target,
                 self.mc_config.describe())
        digest = hashlib.sha1(repr(parts).encode()).hexdigest()[:16]
        return f"{self.name}:{digest}"

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["yield_target"] = self.yield_target
        info["monte_carlo"] = self.mc_config.describe()
        info["mismatch_devices"] = list(self.mismatch_device_names())
        return info

    def close(self) -> None:
        """Shut down the sample fan-out backend's pool (idempotent)."""
        self._runner.close()
        self._base.close()


class TwoStageOpAmpYield(YieldSizingProblem):
    """Two-stage op-amp sized for spec yield under device mismatch."""

    def __init__(self, technology="180nm", yield_target=0.9, mc=None,
                 backend=None, max_workers=None, **kwargs):
        super().__init__("two_stage_opamp", TwoStageOpAmp,
                         technology=technology, yield_target=yield_target,
                         mc=mc, backend=backend, max_workers=max_workers,
                         **kwargs)


class ThreeStageOpAmpYield(YieldSizingProblem):
    """Three-stage op-amp sized for spec yield under device mismatch."""

    def __init__(self, technology="180nm", yield_target=0.9, mc=None,
                 backend=None, max_workers=None, **kwargs):
        super().__init__("three_stage_opamp", ThreeStageOpAmp,
                         technology=technology, yield_target=yield_target,
                         mc=mc, backend=backend, max_workers=max_workers,
                         **kwargs)


class BandgapReferenceYield(YieldSizingProblem):
    """Bandgap reference sized for spec yield under device mismatch."""

    def __init__(self, technology="180nm", yield_target=0.9, mc=None,
                 backend=None, max_workers=None, **kwargs):
        super().__init__("bandgap", BandgapReference,
                         technology=technology, yield_target=yield_target,
                         mc=mc, backend=backend, max_workers=max_workers,
                         **kwargs)


class LowDropoutRegulatorYield(YieldSizingProblem):
    """LDO sized for spec yield under device mismatch."""

    def __init__(self, technology="180nm", yield_target=0.9, mc=None,
                 backend=None, max_workers=None, **kwargs):
        super().__init__("ldo", LowDropoutRegulator,
                         technology=technology, yield_target=yield_target,
                         mc=mc, backend=backend, max_workers=max_workers,
                         **kwargs)


class DynamicComparatorYield(YieldSizingProblem):
    """Comparator offset sign-off: the spec-classification yield *is* the
    probability that sampled mismatch keeps the input-referred offset below
    the bench's input overdrive (the ``decision`` constraint)."""

    def __init__(self, technology="180nm", yield_target=0.9, mc=None,
                 backend=None, max_workers=None, **kwargs):
        super().__init__("comparator", DynamicComparator,
                         technology=technology, yield_target=yield_target,
                         mc=mc, backend=backend, max_workers=max_workers,
                         **kwargs)
