"""Robust sizing across PVT corners: the ``*_corners`` problem family.

A :class:`CornerSizingProblem` wraps one of the registered testbench
problems and evaluates every design at a set of
:class:`~repro.bench.CornerSpec` conditions -- per-corner technology cards
derived with :func:`~repro.bench.apply_corner` and per-corner analysis
temperatures -- fanning the simulations through the same pluggable execution
backends as the batched evaluation engine.  The reported metrics are the
*worst case* across corners (each constraint against its sense, the
objective against its direction), so a feasible design is feasible at every
corner: robust sizing as a drop-in
:class:`~repro.bo.problem.OptimizationProblem` that every optimizer and the
whole Study API consume unchanged.

The nominal corner is always evaluated first and is bit-identical to the
wrapped problem's own simulation, so a corner study's nominal column is
directly comparable to the non-robust study of the same circuit.
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
from repro.circuits.three_stage_opamp import ThreeStageOpAmp
from repro.circuits.two_stage_opamp import TwoStageOpAmp
from repro.engine.backends import SimulationFailure


class CornerSizingProblem(CircuitSizingProblem):
    """Worst-case-across-corners variant of a testbench sizing problem.

    Parameters
    ----------
    base_name:
        Registry-style short name of the wrapped problem (used to derive
        this problem's name, ``<base_name>_corners_<node>``).
    base_cls:
        The wrapped :class:`CircuitSizingProblem` subclass; must be
        constructible as ``base_cls(technology=..., **base_kwargs)``.
    technology:
        Nominal node name or card; per-corner cards are derived from it.
    corners:
        :class:`~repro.bench.CornerSpec` instances (or plain dicts with the
        same fields, e.g. from a JSON study spec); defaults to the five-
        corner :func:`~repro.bench.standard_corners` set.  The first corner
        is the aggregation reference and should be the nominal one.
    backend:
        Execution backend for the corner fan-out (name, instance or ``None``
        for serial).
    max_workers:
        Worker count for a process backend created from a name.
    base_kwargs:
        Forwarded to every per-corner instance of ``base_cls``.
    """

    #: The wrapper has no bench of its own -- its *corner fan-out* is the
    #: batched unit (CornerSweep stacks the per-corner benches instead).
    supports_batch_simulation = False

    def __init__(self, base_name: str, base_cls: type,
                 technology="180nm", corners=None,
                 backend=None, max_workers: int | None = None,
                 **base_kwargs):
        if corners is None:
            corners = standard_corners()
        corners = tuple(corner if isinstance(corner, CornerSpec)
                        else CornerSpec.from_dict(dict(corner))
                        for corner in corners)
        nominal = base_cls(technology=technology, **base_kwargs)
        children = []
        for corner in corners:
            child = base_cls(technology=apply_corner(nominal.technology, corner),
                             **base_kwargs)
            child.sim_temperature = float(corner.temperature)
            children.append(child)
        super().__init__(name=f"{base_name}_corners",
                         technology=nominal.technology,
                         design_space=nominal.design_space,
                         objective=nominal.objective,
                         minimize=nominal.minimize,
                         constraints=list(nominal.constraints))
        self.corners = corners
        self._children = children
        self._sweep = CornerSweep(corners, backend=backend,
                                  max_workers=max_workers)

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def testbench(self):
        """Corner problems delegate to their children's benches."""
        raise NotImplementedError(
            f"{self.name} is a corner sweep over {len(self.corners)} benches; "
            "use .children[i].bench for one corner's testbench")

    @property
    def children(self) -> list[CircuitSizingProblem]:
        """Per-corner problem instances, in corner order (nominal first)."""
        return list(self._children)

    def simulate(self, design: dict[str, float]) -> dict[str, float]:
        outcomes = self._sweep.run(self._children, design)
        per_corner = []
        for outcome in outcomes:
            if isinstance(outcome, SimulationFailure):
                # A corner whose simulation *raised* (rather than returning
                # pessimised metrics itself) pessimises the whole design.
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
        """Fold every corner (conditions and per-corner child identity) in.

        Two corner problems sharing a name but differing in corner set,
        temperature, supply scale or any child configuration must never
        share design-cache entries.
        """
        parts = (tuple(child.cache_token for child in self._children),
                 tuple(corner.describe() for corner in self.corners))
        digest = hashlib.sha1(repr(parts).encode()).hexdigest()[:16]
        return f"{self.name}:{digest}"

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["corners"] = [corner.describe() for corner in self.corners]
        return info

    def close(self) -> None:
        """Shut down the corner fan-out backend's pool (idempotent)."""
        self._sweep.close()


class TwoStageOpAmpCorners(CornerSizingProblem):
    """Two-stage op-amp sized for its worst PVT corner."""

    def __init__(self, technology="180nm", corners=None, backend=None,
                 max_workers=None, **kwargs):
        super().__init__("two_stage_opamp", TwoStageOpAmp,
                         technology=technology, corners=corners,
                         backend=backend, max_workers=max_workers, **kwargs)


class ThreeStageOpAmpCorners(CornerSizingProblem):
    """Three-stage op-amp sized for its worst PVT corner."""

    def __init__(self, technology="180nm", corners=None, backend=None,
                 max_workers=None, **kwargs):
        super().__init__("three_stage_opamp", ThreeStageOpAmp,
                         technology=technology, corners=corners,
                         backend=backend, max_workers=max_workers, **kwargs)


class BandgapReferenceCorners(CornerSizingProblem):
    """Bandgap reference sized for its worst PVT corner."""

    def __init__(self, technology="180nm", corners=None, backend=None,
                 max_workers=None, **kwargs):
        super().__init__("bandgap", BandgapReference,
                         technology=technology, corners=corners,
                         backend=backend, max_workers=max_workers, **kwargs)


class LowDropoutRegulatorCorners(CornerSizingProblem):
    """LDO sized for its worst PVT corner."""

    def __init__(self, technology="180nm", corners=None, backend=None,
                 max_workers=None, **kwargs):
        super().__init__("ldo", LowDropoutRegulator,
                         technology=technology, corners=corners,
                         backend=backend, max_workers=max_workers, **kwargs)
