"""Circuit sizing problems: the paper's three evaluation testbenches.

Each testbench builds a parametric netlist for :mod:`repro.spice`, runs DC
operating-point, AC and (for the bandgap) temperature analyses, and exposes
the result as a constrained :class:`repro.bo.OptimizationProblem`:

* :class:`TwoStageOpAmp` -- Eq. 15: minimise ``I_total`` s.t. PM, GBW, Gain.
* :class:`TwoStageOpAmpSettling` -- time-domain variant: minimise the 1%
  settling time of a unity-gain follower step response s.t. slew rate and
  overshoot limits (transient analysis).
* :class:`ThreeStageOpAmp` -- Eq. 16: same metrics, higher gain target.
* :class:`BandgapReference` -- Eq. 17: minimise TC s.t. ``I_total``, PSRR.

Beyond the paper's three circuits, the registry carries scenario-expansion
families exercising the wider analysis surface:

* :class:`LowDropoutRegulator` -- PSRR, output noise (adjoint noise
  analysis) and load-transient droop of a PMOS-pass LDO.
* :class:`DynamicComparator` -- StrongARM latch decision time; its yield
  variant turns Monte Carlo mismatch into an input-referred offset test.
* :class:`RingOscillatorVCO` -- ring frequency, standing power and an
  integrated-noise phase-noise proxy at the metastable bias.

Each testbench is *declarative*: the problem's ``testbench()`` method builds
a :class:`repro.bench.Testbench` (circuits, analyses, checks, measures) and
``simulate()`` executes it with operating-point reuse.  The ``*_corners``
variants (:mod:`repro.circuits.corners`) evaluate the same benches across a
PVT corner set and report worst-case metrics, the ``*_yield`` variants
(:mod:`repro.circuits.montecarlo`) estimate each design's spec yield under
seeded Pelgrom device mismatch, and the ``*_robust`` variants
(:mod:`repro.circuits.robust`) compose the two -- worst-case-corner
mismatch yield -- robust sizing for every optimizer with zero optimizer
changes.

:class:`FOMProblem` wraps any of them into the unconstrained
figure-of-merit objective of Eq. 2 for the Fig. 4 experiments.
"""

from repro.circuits.base import CircuitSizingProblem
from repro.circuits.two_stage_opamp import TwoStageOpAmp, TwoStageOpAmpSettling
from repro.circuits.three_stage_opamp import ThreeStageOpAmp
from repro.circuits.bandgap import BandgapReference
from repro.circuits.ldo import LowDropoutRegulator
from repro.circuits.comparator import DynamicComparator
from repro.circuits.ring_vco import RingOscillatorVCO
from repro.circuits.corners import (
    BandgapReferenceCorners,
    CornerSizingProblem,
    LowDropoutRegulatorCorners,
    ThreeStageOpAmpCorners,
    TwoStageOpAmpCorners,
)
from repro.circuits.montecarlo import (
    BandgapReferenceYield,
    DynamicComparatorYield,
    LowDropoutRegulatorYield,
    ThreeStageOpAmpYield,
    TwoStageOpAmpYield,
    YieldSizingProblem,
)
from repro.circuits.robust import (
    BandgapReferenceRobust,
    LowDropoutRegulatorRobust,
    RobustSizingProblem,
    TwoStageOpAmpRobust,
    default_robust_corners,
)
from repro.circuits.fom import FOMProblem
from repro.circuits.registry import (
    available_problems,
    make_problem,
    register_problem,
)

__all__ = [
    "CircuitSizingProblem",
    "TwoStageOpAmp",
    "TwoStageOpAmpSettling",
    "ThreeStageOpAmp",
    "BandgapReference",
    "CornerSizingProblem",
    "TwoStageOpAmpCorners",
    "ThreeStageOpAmpCorners",
    "BandgapReferenceCorners",
    "YieldSizingProblem",
    "TwoStageOpAmpYield",
    "ThreeStageOpAmpYield",
    "BandgapReferenceYield",
    "LowDropoutRegulator",
    "DynamicComparator",
    "RingOscillatorVCO",
    "LowDropoutRegulatorCorners",
    "LowDropoutRegulatorYield",
    "DynamicComparatorYield",
    "RobustSizingProblem",
    "TwoStageOpAmpRobust",
    "BandgapReferenceRobust",
    "LowDropoutRegulatorRobust",
    "default_robust_corners",
    "FOMProblem",
    "make_problem",
    "available_problems",
    "register_problem",
]
