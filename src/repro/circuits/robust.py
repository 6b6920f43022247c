"""Joint corners-and-mismatch robustness: the ``*_robust`` problem family.

The ``*_corners`` problems certify a design against global process/voltage/
temperature shifts, the ``*_yield`` problems against local Pelgrom mismatch
-- but silicon experiences both at once, and the worst mismatch yield is
rarely found at the nominal corner (a slow-corner amplifier has less gain
margin to absorb offsets).  A :class:`RobustSizingProblem` composes the two
existing layers instead of inventing a third: one
:class:`~repro.circuits.montecarlo.YieldSizingProblem` child per PVT
corner, fanned out by the same :class:`~repro.bench.CornerSweep` the
corners family uses, folded by the same
:func:`~repro.bench.worst_case_metrics` aggregation.

The fold aggregates every constrained metric against its sense, so the
``yield`` constraint (``ge``) reduces to the **minimum across corners** --
the reported yield is the *worst-case-corner* mismatch yield, and a
feasible design holds its specs with the target probability at every
corner.  The nominal corner comes first, so the nominal column of a robust
study is directly comparable to the plain ``*_yield`` study.

The full fan-out is corners x samples simulations per design; robust
problems default to the three-corner subset (nominal plus the two
worst-case process corners at temperature extremes) and inherit the yield
family's adaptive early stopping, which prices clearly-good and
clearly-dead designs at ``n_min`` samples per corner.
"""

from __future__ import annotations

import hashlib

from repro.bench.corners import (
    CornerSpec,
    CornerSweep,
    apply_corner,
    standard_corners,
    worst_case_metrics,
)
from repro.circuits.bandgap import BandgapReference
from repro.circuits.base import CircuitSizingProblem
from repro.circuits.ldo import LowDropoutRegulator
from repro.circuits.montecarlo import YieldSizingProblem
from repro.circuits.two_stage_opamp import TwoStageOpAmp
from repro.engine.backends import SimulationFailure


def default_robust_corners() -> tuple[CornerSpec, ...]:
    """Nominal plus the slow-hot and fast-cold extremes.

    The five-corner :func:`~repro.bench.standard_corners` set times the
    Monte Carlo sample count is the honest full sign-off; this three-corner
    subset keeps the default evaluation price at 3x a yield problem while
    still visiting both process extremes at their stressing temperatures.
    """
    by_name = {corner.name: corner for corner in standard_corners()}
    return (standard_corners()[0], by_name["ss_hot_low"],
            by_name["ff_cold_high"])


class RobustSizingProblem(CircuitSizingProblem):
    """Worst-case-corner mismatch yield: corners x Monte Carlo composed.

    Parameters
    ----------
    base_name:
        Registry-style short name of the wrapped problem (this problem is
        named ``<base_name>_robust_<node>``).
    base_cls:
        The wrapped :class:`CircuitSizingProblem` subclass; must be
        constructible as ``base_cls(technology=..., **base_kwargs)``.
    technology:
        Nominal node name or card; per-corner cards are derived from it.
    corners:
        :class:`~repro.bench.CornerSpec` instances or equivalent dicts;
        defaults to :func:`default_robust_corners`.  The first corner is
        the aggregation reference and should be the nominal one.
    yield_target:
        Per-corner mismatch yield constraint threshold (fraction).
    mc:
        :class:`~repro.mc.MonteCarloConfig` (or dict / ``None``) shared by
        every per-corner yield child.
    backend / max_workers:
        Execution backend for the corner fan-out; the sample fan-out inside
        each corner uses the serial default.
    base_kwargs:
        Forwarded to every per-corner base problem instance.
    """

    #: Corner fan-out of Monte Carlo fan-outs: the children orchestrate
    #: their own batched sample simulations; the wrapper has no bench.
    supports_batch_simulation = False

    def __init__(self, base_name: str, base_cls: type,
                 technology="180nm", corners=None,
                 yield_target: float = 0.9, mc=None,
                 backend=None, max_workers: int | None = None,
                 **base_kwargs):
        if corners is None:
            corners = default_robust_corners()
        corners = tuple(corner if isinstance(corner, CornerSpec)
                        else CornerSpec.from_dict(dict(corner))
                        for corner in corners)
        nominal = base_cls(technology=technology, **base_kwargs)
        children = []
        for corner in corners:
            child = YieldSizingProblem(
                base_name, base_cls,
                technology=apply_corner(nominal.technology, corner),
                yield_target=yield_target, mc=mc, **base_kwargs)
            child.sim_temperature = float(corner.temperature)
            child.base_problem.sim_temperature = float(corner.temperature)
            children.append(child)
        # The child constraints already include the yield spec; reuse the
        # first child's set so the wrapper classifies identically.
        super().__init__(name=f"{base_name}_robust",
                         technology=nominal.technology,
                         design_space=nominal.design_space,
                         objective=nominal.objective,
                         minimize=nominal.minimize,
                         constraints=list(children[0].constraints))
        self.yield_target = float(yield_target)
        self.corners = corners
        self._children = children
        self._sweep = CornerSweep(corners, backend=backend,
                                  max_workers=max_workers)

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def testbench(self):
        raise NotImplementedError(
            f"{self.name} fans Monte Carlo yield problems across "
            f"{len(self.corners)} corners; use "
            ".children[i].base_problem.bench for one corner's testbench")

    @property
    def children(self) -> list[YieldSizingProblem]:
        """Per-corner yield problems, in corner order (nominal first)."""
        return list(self._children)

    def mismatch_device_names(self) -> tuple[str, ...]:
        return self._children[0].mismatch_device_names()

    def simulate(self, design: dict[str, float]) -> dict[str, float]:
        outcomes = self._sweep.run(self._children, design)
        per_corner = []
        for outcome in outcomes:
            if isinstance(outcome, SimulationFailure):
                return self.failed_metrics()
            per_corner.append(outcome)
        return worst_case_metrics(per_corner, self.objective, self.minimize,
                                  self.constraints)

    def failed_metrics(self) -> dict[str, float]:
        metrics = self._children[0].failed_metrics()
        metrics[f"{self.objective}_nominal"] = metrics[self.objective]
        return metrics

    # ------------------------------------------------------------------ #
    # identity / bookkeeping                                              #
    # ------------------------------------------------------------------ #
    @property
    def cache_token(self) -> str:
        """Fold every corner condition and per-corner child identity in."""
        parts = (tuple(child.cache_token for child in self._children),
                 tuple(corner.describe() for corner in self.corners))
        digest = hashlib.sha1(repr(parts).encode()).hexdigest()[:16]
        return f"{self.name}:{digest}"

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["corners"] = [corner.describe() for corner in self.corners]
        info["yield_target"] = self.yield_target
        info["monte_carlo"] = self._children[0].mc_config.describe()
        return info

    def close(self) -> None:
        """Shut down the fan-out backends (idempotent)."""
        self._sweep.close()
        for child in self._children:
            child.close()


class TwoStageOpAmpRobust(RobustSizingProblem):
    """Two-stage op-amp: worst-case-corner mismatch yield."""

    def __init__(self, technology="180nm", corners=None, yield_target=0.9,
                 mc=None, backend=None, max_workers=None, **kwargs):
        super().__init__("two_stage_opamp", TwoStageOpAmp,
                         technology=technology, corners=corners,
                         yield_target=yield_target, mc=mc, backend=backend,
                         max_workers=max_workers, **kwargs)


class BandgapReferenceRobust(RobustSizingProblem):
    """Bandgap reference: worst-case-corner mismatch yield."""

    def __init__(self, technology="180nm", corners=None, yield_target=0.9,
                 mc=None, backend=None, max_workers=None, **kwargs):
        super().__init__("bandgap", BandgapReference,
                         technology=technology, corners=corners,
                         yield_target=yield_target, mc=mc, backend=backend,
                         max_workers=max_workers, **kwargs)


class LowDropoutRegulatorRobust(RobustSizingProblem):
    """LDO: worst-case-corner mismatch yield."""

    def __init__(self, technology="180nm", corners=None, yield_target=0.9,
                 mc=None, backend=None, max_workers=None, **kwargs):
        super().__init__("ldo", LowDropoutRegulator,
                         technology=technology, corners=corners,
                         yield_target=yield_target, mc=mc, backend=backend,
                         max_workers=max_workers, **kwargs)
