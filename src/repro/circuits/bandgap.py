"""Bandgap voltage-reference testbench (paper Eq. 17).

The paper's bandgap (Fig. 3c) is a large opamp-assisted reference; here the
classic opamp-based topology with the same metrics is built:

* two branches driven by matched PMOS current sources from the supply --
  branch A is a single unit-area junction, branch B is a resistor ``R1`` in
  series with an ``N``-times larger junction;
* a transconductance-modelled error amplifier forces the branch voltages
  equal, making the branch current proportional to absolute temperature
  (PTAT), ``I = Vt ln(N) / R1``;
* a third mirrored branch pushes that current through ``R2`` in series with
  another junction, producing the reference voltage whose temperature
  coefficient the optimizer minimises.

Design variables: ``R1``, ``R2``, mirror device geometry, the error
amplifier's input device geometry (which sets its gm and output resistance)
and its bias current -- eight in total.  Metrics: temperature coefficient
``tc`` (ppm/degC), total supply current ``i_total`` (uA) and power-supply
rejection ratio ``psrr`` (dB at 100 Hz).
"""

from __future__ import annotations

import numpy as np

from repro import bench
from repro.bo.design_space import DesignSpace, DesignVariable
from repro.bo.problem import Constraint
from repro.circuits.base import CircuitSizingProblem
from repro.pdk import Technology
from repro.spice import (
    VCCS,
    Circuit,
    Diode,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.devices.mosfet import square_law


def _bandgap_design_space(technology: Technology) -> DesignSpace:
    min_w, max_w = technology.min_width, technology.max_width
    min_l, max_l = technology.min_length, technology.max_length
    return DesignSpace([
        DesignVariable("r_ptat", 10e3, 500e3, log_scale=True, unit="ohm"),
        DesignVariable("r_out", 50e3, 2e6, log_scale=True, unit="ohm"),
        DesignVariable("w_mirror", min_w * 4, max_w, log_scale=True, unit="m"),
        DesignVariable("l_mirror", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("w_amp_in", min_w * 2, max_w / 2, log_scale=True, unit="m"),
        DesignVariable("l_amp_in", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("i_amp", 0.2e-6, 3e-6, log_scale=True, unit="A"),
        DesignVariable("area_ratio", 4.0, 24.0, log_scale=False, unit=""),
    ])


class BandgapReference(CircuitSizingProblem):
    """Constrained bandgap sizing: minimise TC with current and PSRR limits."""

    def __init__(self, technology: str | Technology = "180nm"):
        tech = technology
        if isinstance(tech, str):
            from repro.pdk import get_technology
            tech = get_technology(tech)
        space = _bandgap_design_space(tech)
        constraints = [
            Constraint("i_total", 6.0, "le"),
            Constraint("psrr", 50.0, "ge"),
        ]
        super().__init__(name="bandgap", technology=tech, design_space=space,
                         objective="tc", minimize=True, constraints=constraints)

    # ------------------------------------------------------------------ #
    # error-amplifier small-signal model                                  #
    # ------------------------------------------------------------------ #
    def _amplifier_parameters(self, design: dict[str, float]) -> tuple[float, float]:
        """gm and output resistance of the behavioural error amplifier.

        Derived from the square-law model of its input device at the given
        bias current, so the amplifier's gain (and hence loop accuracy and
        PSRR) responds to the geometric design variables the same way a real
        five-transistor amplifier would.
        """
        tech = self.technology
        width = tech.clamp_width(design["w_amp_in"])
        length = tech.clamp_length(design["l_amp_in"])
        bias = float(design["i_amp"])
        half_bias = 0.5 * bias
        beta = tech.nmos.kp * width / length
        vov = np.sqrt(max(2.0 * half_bias / beta, 1e-9))
        op = square_law(tech.nmos, width, length, tech.nmos.vth0 + vov, vov + 0.2)
        gm = op.gm if op.gm > 0 else np.sqrt(2.0 * beta * half_bias)
        lam_n = tech.nmos.effective_lambda(length)
        lam_p = tech.pmos.effective_lambda(length)
        r_out = 1.0 / (half_bias * (lam_n + lam_p) + 1e-12)
        return float(gm), float(r_out)

    # ------------------------------------------------------------------ #
    # netlist                                                             #
    # ------------------------------------------------------------------ #
    def build_circuit(self, design: dict[str, float], supply_ac: float = 0.0) -> Circuit:
        """Construct the bandgap core netlist for one design point."""
        tech = self.technology
        vdd = tech.vdd
        w_mirror = tech.clamp_width(design["w_mirror"])
        l_mirror = tech.clamp_length(design["l_mirror"])
        area_ratio = float(np.clip(design["area_ratio"], 1.5, 64.0))
        gm_amp, r_amp = self._amplifier_parameters(design)

        circuit = Circuit(f"bandgap_{tech.name}")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=vdd, ac=supply_ac))
        # Matched PMOS current sources, gates driven by the error amplifier.
        circuit.add(Mosfet("MPA", "va", "vctrl", "vdd", "vdd", tech.pmos, w_mirror, l_mirror))
        circuit.add(Mosfet("MPB", "vb", "vctrl", "vdd", "vdd", tech.pmos, w_mirror, l_mirror))
        circuit.add(Mosfet("MPC", "vref", "vctrl", "vdd", "vdd", tech.pmos, w_mirror, l_mirror))
        # Branch A: unit junction.  Branch B: R1 + N-times junction.
        circuit.add(Diode("DA", "va", "0", area=1.0))
        circuit.add(Resistor("R1", "vb", "vb1", max(design["r_ptat"], 1.0)))
        circuit.add(Diode("DB", "vb1", "0", area=area_ratio))
        # Output branch: R2 + unit junction gives the reference voltage.
        circuit.add(Resistor("R2", "vref", "vr1", max(design["r_out"], 1.0)))
        circuit.add(Diode("DC", "vr1", "0", area=1.0))
        # Error amplifier: transconductance into its output resistance.  The
        # control node vctrl rides on VDD through r_amp so the PMOS gates track
        # the supply (as they do with a real PMOS-input amplifier), which is
        # what gives the reference its finite PSRR.
        circuit.add(VCCS("GAMP", "vctrl", "vdd", "va", "vb", gm_amp))
        circuit.add(Resistor("RAMP", "vctrl", "vdd", r_amp))
        return circuit

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    #: Temperature grid of the TC sweep (the "room" point is the middle one).
    SWEEP_TEMPERATURES = (-20.0, 100.0, 7)

    def _sweep_grid(self) -> np.ndarray:
        lo, hi, count = self.SWEEP_TEMPERATURES
        return np.linspace(lo, hi, count)

    def _build_psrr_circuit(self, design: dict[str, float]) -> Circuit:
        # One netlist serves every analysis: the unit supply AC drive only
        # affects the small-signal system, so the temperature sweep and the
        # bias are bit-identical to a quiet-supply build.
        return self.build_circuit(design, supply_ac=1.0)

    def _room_point(self, ctx: "bench.MeasureContext"):
        points = ctx.result("tsweep").points
        return points[len(points) // 2]

    def _reference_alive(self, ctx: "bench.MeasureContext") -> bool:
        # A collapsed loop parks the reference at ground -- treat as failure.
        return abs(self._room_point(ctx).voltage("vref")) >= 0.05

    def _measure_i_total(self, ctx: "bench.MeasureContext") -> float:
        # Supply current at room temperature: the three mirror branches plus
        # the error-amplifier bias.
        room = self._room_point(ctx)
        i_branches = sum(abs(room.device_info[name].get("ids", 0.0))
                         for name in ("MPA", "MPB", "MPC"))
        return float((i_branches + ctx.design["i_amp"]) * 1e6)

    def _measure_vref(self, ctx: "bench.MeasureContext") -> float:
        return float(self._room_point(ctx).voltage("vref"))

    def testbench(self) -> "bench.Testbench":
        """TC sweep, bias and supply-gain AC on one shared netlist."""
        return bench.Testbench(
            name=self.name,
            builders={"main": self._build_psrr_circuit},
            analyses=[
                bench.TempSweepSpec("tsweep", temperatures=self._sweep_grid(),
                                    observe="vref"),
                bench.OPSpec("op"),
                bench.ACSpec("ac", frequencies=np.array([10.0, 100.0, 1000.0]),
                             observe=("vref",), op="op"),
            ],
            checks=[bench.Check("reference did not collapse to ground",
                                self._reference_alive)],
            measures=[
                bench.tc_ppm("tsweep", name="tc"),
                bench.Measure("i_total", self._measure_i_total),
                bench.psrr_db(100.0, analysis="ac", node="vref", name="psrr"),
                bench.Measure("vref", self._measure_vref),
            ],
            temperature=self.sim_temperature)
