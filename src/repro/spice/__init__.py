"""A small SPICE-like analog circuit simulator.

The paper evaluates designs with ngspice on proprietary PDKs; offline, this
package provides the simulation substrate instead: modified nodal analysis
(MNA) with

* linear devices (resistors, capacitors, inductors, independent and
  controlled sources, time-varying stimulus waveforms),
* nonlinear devices (level-1 / square-law MOSFETs, diodes and diode-connected
  BJTs),
* Newton-Raphson DC operating-point analysis with gmin stepping and damping,
* complex-valued AC small-signal analysis,
* adaptive-timestep transient analysis (backward-Euler startup, trapezoidal
  integration, companion models), and
* DC / temperature sweeps.

The circuit testbenches in :mod:`repro.circuits` build small-signal
equivalent networks with these devices and extract gain, bandwidth, phase
margin and PSRR from the AC results, plus slew rate, settling time and
overshoot from transient step responses.
"""

from repro.spice.netlist import Circuit, GROUND
from repro.spice.devices import (
    Capacitor,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    MosfetModel,
    PulseWaveform,
    PWLWaveform,
    Resistor,
    SineWaveform,
    StepWaveform,
    VCCS,
    VCVS,
    VoltageSource,
    Waveform,
)
from repro.spice.dc import (
    OperatingPoint,
    dc_operating_point,
    dc_operating_point_batch,
)
from repro.spice.ac import ACResult, ac_analysis, ac_analysis_batch
from repro.spice.noise import NoiseResult, noise_analysis
from repro.spice.mna import BatchStamper, Stamper
from repro.spice.transient import (
    TransientResult,
    transient_analysis,
    transient_analysis_batch,
    transient_operating_point,
    transient_operating_point_batch,
)
from repro.spice.sweep import dc_sweep, temperature_sweep

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "Mosfet",
    "MosfetModel",
    "Waveform",
    "StepWaveform",
    "PulseWaveform",
    "PWLWaveform",
    "SineWaveform",
    "OperatingPoint",
    "dc_operating_point",
    "dc_operating_point_batch",
    "ACResult",
    "ac_analysis",
    "ac_analysis_batch",
    "NoiseResult",
    "noise_analysis",
    "Stamper",
    "BatchStamper",
    "TransientResult",
    "transient_analysis",
    "transient_analysis_batch",
    "transient_operating_point",
    "transient_operating_point_batch",
    "dc_sweep",
    "temperature_sweep",
]
