"""PVT corners: declarative process/voltage/temperature variants of a bench.

A :class:`CornerSpec` names one (process, temperature, supply) condition; the
process letters scale the :class:`~repro.pdk.Technology` device models (see
:func:`apply_corner`), the supply scales ``vdd`` and the temperature retargets
every analysis of the testbench.  :class:`CornerSweep` fans per-corner
simulations through the same pluggable execution backends the batched
:class:`~repro.engine.EvaluationEngine` uses, so a five-corner evaluation of
one design overlaps on the process backend (or shares one stacked solve on
the batched backend) exactly like a five-design batch would.

:func:`~repro.bench.aggregate.worst_case_metrics` (re-exported here) folds
per-corner metric dictionaries into the one robust-sizing view: each
constrained metric takes its worst value across corners w.r.t. the
constraint sense, and the objective takes its worst value w.r.t. the
optimisation direction -- a design is only as good as its worst corner.
The sense-aware reduce itself lives in :mod:`repro.bench.aggregate`, shared
with the Monte Carlo sigma aggregation so the two robustness layers cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.aggregate import worst_case_metrics  # noqa: F401  (re-export)
from repro.engine.backends import (BackendOwner, ExecutionBackend,
                                   SimulationFailure)
from repro.pdk import Technology

#: Per-letter process factors: (kp scale, vth shift in volts).  "s" (slow)
#: silicon has lower mobility and a higher threshold magnitude; "f" (fast)
#: the opposite.  The spread is in the range foundries quote for 3-sigma
#: global corners on mature nodes.
_PROCESS_FACTORS = {
    "t": (1.00, 0.00),
    "s": (0.85, +0.03),
    "f": (1.15, -0.03),
}


@dataclass(frozen=True)
class CornerSpec:
    """One PVT condition.

    Attributes
    ----------
    name:
        Corner label used in reports and cache tokens.
    process:
        Two process letters, NMOS then PMOS: ``"tt"``, ``"ss"``, ``"ff"``,
        ``"sf"`` or ``"fs"``.
    temperature:
        Analysis temperature in Celsius.
    vdd_scale:
        Multiplier on the technology's nominal supply.
    """

    name: str
    process: str = "tt"
    temperature: float = 27.0
    vdd_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.process) != 2 or any(c not in _PROCESS_FACTORS
                                         for c in self.process):
            raise ValueError(
                f"process must be two of {sorted(_PROCESS_FACTORS)} "
                f"(e.g. 'tt', 'ss', 'sf'), got {self.process!r}")
        if self.vdd_scale <= 0.0:
            raise ValueError(f"vdd_scale must be positive, got {self.vdd_scale}")

    def describe(self) -> str:
        return (f"{self.name}({self.process}, {self.temperature:g}C, "
                f"{self.vdd_scale:g}*vdd)")

    @classmethod
    def from_dict(cls, data: dict) -> "CornerSpec":
        """Build from plain data (what StudySpec ``problem_options`` carries)."""
        return cls(**data)


def nominal_corner() -> CornerSpec:
    return CornerSpec("nominal")


def standard_corners() -> tuple[CornerSpec, ...]:
    """The five-corner PVT set used by the ``*_corners`` sizing problems.

    Nominal plus the four worst-case combinations of silicon speed,
    automotive temperature extremes and a +-10% supply: slow silicon is
    paired with a low supply (weakest drive) and fast silicon with a high
    one (worst leakage/stability), at both temperature extremes.
    """
    return (
        nominal_corner(),
        CornerSpec("ss_cold_low", "ss", -40.0, 0.9),
        CornerSpec("ss_hot_low", "ss", 125.0, 0.9),
        CornerSpec("ff_cold_high", "ff", -40.0, 1.1),
        CornerSpec("ff_hot_high", "ff", 125.0, 1.1),
    )


def apply_corner(technology: Technology, corner: CornerSpec) -> Technology:
    """Derive the corner's technology card from the nominal one."""
    nmos_kp, nmos_vth = _PROCESS_FACTORS[corner.process[0]]
    pmos_kp, pmos_vth = _PROCESS_FACTORS[corner.process[1]]
    return technology.with_corner(
        nmos_kp_scale=nmos_kp, nmos_vth_shift=nmos_vth,
        pmos_kp_scale=pmos_kp, pmos_vth_shift=pmos_vth,
        vdd_scale=corner.vdd_scale, corner=corner.process)


# --------------------------------------------------------------------- #
# backend fan-out                                                        #
# --------------------------------------------------------------------- #
class CornerSweep(BackendOwner):
    """Fan one design across per-corner problem variants through a backend.

    Backend lifecycle (lazy race-safe resolution, ``with`` support, loud
    :class:`ResourceWarning` on a leaked owned pool, pickling that drops the
    live pool) comes from :class:`~repro.engine.backends.BackendOwner`.

    Parameters
    ----------
    corners:
        The :class:`CornerSpec` conditions, nominal first by convention.
    backend:
        Backend name (``"serial"``/``"batched"``/``"process"``), instance or
        ``None`` for serial -- the same resolution rules as
        :class:`~repro.engine.EvaluationEngine`.
    max_workers:
        Worker count for a process backend created from a name.
    """

    def __init__(self, corners: tuple[CornerSpec, ...] | list[CornerSpec],
                 backend: str | ExecutionBackend | None = None,
                 max_workers: int | None = None):
        super().__init__(backend, max_workers=max_workers)
        self.corners = tuple(corners)
        if not self.corners:
            raise ValueError("CornerSweep needs at least one corner")
        names = [corner.name for corner in self.corners]
        if len(set(names)) != len(names):
            raise ValueError(f"corner names must be unique, got {names}")

    def run(self, problems, design: dict[str, float]
            ) -> list[dict[str, float] | SimulationFailure]:
        """Simulate ``design`` on each per-corner problem, in corner order.

        One ``backend.simulate`` call: the batched backend solves the
        per-corner benches (same topology, different technology cards,
        temperatures and supplies) in one stacked session, bit-identical
        to the serial fan-out.
        """
        if len(problems) != len(self.corners):
            raise ValueError(f"expected {len(self.corners)} per-corner "
                             f"problems, got {len(problems)}")
        return self.backend.simulate([(problem, design)
                                      for problem in problems])

    def __enter__(self) -> "CornerSweep":
        return self
