"""Declarative testbenches: the simulation-side counterpart of ``repro.study``.

``repro.study`` gave the optimization side one declarative front door; this
package does the same for the simulation side:

* :class:`Testbench` -- a circuit builder (or several netlist variants of
  one design) plus named, declarative analyses
  (:class:`OPSpec`/:class:`ACSpec`/:class:`NoiseSpec`/:class:`TranSpec`/
  :class:`DCSweepSpec`/:class:`TempSweepSpec`), validity :class:`Check`
  predicates and :class:`Measure` definitions bound to those analyses;
* :class:`Simulator` -- the one execution session: builds each circuit
  once, solves each ``(circuit, temperature)`` operating point once and
  shares it across every dependent analysis, and returns one typed
  :class:`SimResult` per design;
* :class:`BatchSimulator` -- the same session over many structurally
  identical jobs, with the stacked DC, AC and transient solvers in place of
  the serial ones; a job that raises becomes a
  :class:`~repro.engine.SimulationFailure`;
* PVT corners -- :class:`CornerSpec` process/temperature/supply conditions,
  :func:`apply_corner` deriving per-corner technology cards, and
  :class:`CornerSweep` fanning a bench across corners through one
  ``backend.simulate`` call, like the evaluation engine, with
  :func:`worst_case_metrics` folding the per-corner results into the
  robust-sizing worst case.

The circuit problems in :mod:`repro.circuits` declare their testbenches with
this vocabulary (see ``CircuitSizingProblem.testbench``); their metrics at
the nominal corner are bit-identical to the pre-testbench imperative paths,
which ``tests/test_bench.py`` keeps as frozen references.
"""

from repro.bench.aggregate import sense_reduce, sigma_metrics, worst_is_low
from repro.bench.analyses import (
    ACSpec,
    AnalysisSpec,
    DCSweepSpec,
    NoiseSpec,
    OPSpec,
    SweepResult,
    TempSweepSpec,
    TranSpec,
)
from repro.bench.corners import (
    CornerSpec,
    CornerSweep,
    apply_corner,
    nominal_corner,
    standard_corners,
    worst_case_metrics,
)
from repro.bench.measures import (
    Measure,
    MeasureContext,
    MeasurementError,
    bandwidth_3db_mhz,
    cmrr_db,
    gain_at_db,
    gain_db,
    gain_margin_db,
    gbw_mhz,
    input_noise_nv_rthz,
    integrated_noise_uvrms,
    loop_gain_db,
    node_dc,
    output_noise_nv_rthz,
    overshoot_pct,
    phase_margin_deg,
    psrr_db,
    settling_time_us,
    slew_v_per_us,
    supply_current_ua,
    tc_ppm,
)
from repro.bench.batch import BatchSimulator
from repro.bench.simulator import Simulator
from repro.bench.testbench import Check, SimResult, Testbench

__all__ = [
    "AnalysisSpec",
    "OPSpec",
    "ACSpec",
    "TranSpec",
    "NoiseSpec",
    "DCSweepSpec",
    "TempSweepSpec",
    "SweepResult",
    "Measure",
    "MeasureContext",
    "MeasurementError",
    "Check",
    "SimResult",
    "Testbench",
    "Simulator",
    "BatchSimulator",
    "CornerSpec",
    "CornerSweep",
    "nominal_corner",
    "standard_corners",
    "apply_corner",
    "worst_case_metrics",
    "sigma_metrics",
    "sense_reduce",
    "worst_is_low",
    "gain_db",
    "gbw_mhz",
    "phase_margin_deg",
    "gain_at_db",
    "psrr_db",
    "cmrr_db",
    "loop_gain_db",
    "gain_margin_db",
    "input_noise_nv_rthz",
    "output_noise_nv_rthz",
    "integrated_noise_uvrms",
    "bandwidth_3db_mhz",
    "supply_current_ua",
    "node_dc",
    "slew_v_per_us",
    "overshoot_pct",
    "settling_time_us",
    "tc_ppm",
]
