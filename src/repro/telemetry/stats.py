"""The structured per-solve statistics record attached to solver results.

A :class:`SolveStats` travels on :class:`~repro.spice.dc.OperatingPoint`
and :class:`~repro.spice.transient.TransientResult` as pure metadata: it is
excluded from dataclass equality (``compare=False`` at the attachment
site), never hashed into cache keys (those hash only design bytes), and
never compared by the bit-identity suites.  The cheap always-on fields
(iteration counts, residuals, ladder depth) are built from values the
solvers already compute; the optional ``residual_trajectory`` is only
collected when telemetry is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math


@dataclass
class SolveStats:
    """Counters and residual data from one DC or transient solve."""

    analysis: str = "dc"
    converged: bool = True
    #: Total Newton iterations across every ladder step walked.
    iterations: int = 0
    #: Newton iterations spent at each gmin step, in ladder order.
    iterations_per_gmin: tuple = ()
    #: Number of gmin ladder steps walked (primary + rescue).
    gmin_steps: int = 0
    #: Whether the failed-solve rescue ladder was entered.
    rescue_entered: bool = False
    #: Newton updates clipped by the damping limiter.
    damping_clamps: int = 0
    #: max|delta| at the iteration the solve stopped (NaN if never computed).
    final_residual: float = math.nan
    #: gmin in effect when the solve stopped (0 for an undamped direct solve).
    final_gmin: float = 0.0
    #: Per-iteration max|delta| values; only collected when telemetry is on.
    residual_trajectory: tuple = ()
    # -- transient-only ------------------------------------------------- #
    n_accepted: int = 0
    n_rejected: int = 0
    dt_min: float = math.nan
    dt_max: float = math.nan
    # -- batch-only ----------------------------------------------------- #
    batch_size: int = 1
    #: Mean fraction of the batch still active per Newton iteration.
    batch_occupancy: float = math.nan

    def failure_detail(self) -> str:
        """The per-design fragment embedded in ConvergenceError messages.

        Serial and batched solvers compute residual and gmin through
        bit-identical arithmetic, so this string is identical on both
        paths -- the failure-message bit-identity tests rely on that.
        """
        return (f"after {self.iterations} Newton iterations "
                f"(residual={self.final_residual:.3e}, "
                f"gmin={self.final_gmin:.0e})")

    def as_dict(self) -> dict:
        """A compact JSON-ready view (NaNs and empty sequences dropped)."""
        out: dict = {"analysis": self.analysis, "converged": self.converged,
                     "iterations": self.iterations}
        if self.iterations_per_gmin:
            out["iterations_per_gmin"] = list(self.iterations_per_gmin)
        if self.gmin_steps:
            out["gmin_steps"] = self.gmin_steps
        if self.rescue_entered:
            out["rescue_entered"] = True
        if self.damping_clamps:
            out["damping_clamps"] = self.damping_clamps
        if not math.isnan(self.final_residual):
            out["final_residual"] = self.final_residual
        if self.final_gmin:
            out["final_gmin"] = self.final_gmin
        if self.residual_trajectory:
            out["residual_trajectory"] = list(self.residual_trajectory)
        if self.analysis == "transient":
            out["n_accepted"] = self.n_accepted
            out["n_rejected"] = self.n_rejected
            if not math.isnan(self.dt_min):
                out["dt_min"] = self.dt_min
            if not math.isnan(self.dt_max):
                out["dt_max"] = self.dt_max
        if self.batch_size > 1:
            out["batch_size"] = self.batch_size
            if not math.isnan(self.batch_occupancy):
                out["batch_occupancy"] = self.batch_occupancy
        return out
