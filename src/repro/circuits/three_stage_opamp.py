"""Three-stage nested-Miller operational amplifier testbench (paper Eq. 16).

Topology (paper Fig. 3b, standard three-stage NMC amplifier):

* first stage -- NMOS differential pair with ideal tail current ``Ib1`` and
  PMOS mirror load;
* second stage -- NMOS common-source device biased by an ideal current
  source from the supply (``Ib2``);
* third stage -- PMOS common-source output device biased by an ideal current
  sink (``Ib3``);
* nested Miller capacitors ``Cm1`` (output -> first-stage output) and
  ``Cm2`` (output -> second-stage output);
* capacitive load ``CL``.

The design space has twelve variables -- intentionally a different
dimensionality from the two-stage amplifier, because KAT-GP's encoder has to
bridge design spaces of different sizes (paper section 3.2).
"""

from __future__ import annotations

from repro import bench
from repro.bo.design_space import DesignSpace, DesignVariable
from repro.bo.problem import Constraint
from repro.circuits.base import CircuitSizingProblem
from repro.pdk import Technology
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Mosfet,
    VoltageSource,
)


def _three_stage_design_space(technology: Technology) -> DesignSpace:
    min_w, max_w = technology.min_width, technology.max_width
    min_l, max_l = technology.min_length, technology.max_length
    return DesignSpace([
        DesignVariable("w_diff", min_w * 4, max_w, log_scale=True, unit="m"),
        DesignVariable("l_diff", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("w_load", min_w * 4, max_w, log_scale=True, unit="m"),
        DesignVariable("l_load", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("w_mid", min_w * 4, max_w, log_scale=True, unit="m"),
        DesignVariable("l_mid", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("w_out", min_w * 8, max_w, log_scale=True, unit="m"),
        DesignVariable("l_out", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("c_m1", 0.1e-12, 10e-12, log_scale=True, unit="F"),
        DesignVariable("c_m2", 0.05e-12, 5e-12, log_scale=True, unit="F"),
        DesignVariable("i_bias1", 1e-6, 80e-6, log_scale=True, unit="A"),
        DesignVariable("i_bias23", 2e-6, 250e-6, log_scale=True, unit="A"),
    ])


class ThreeStageOpAmp(CircuitSizingProblem):
    """Constrained sizing of the three-stage OpAmp.

    180 nm constraints follow paper Eq. 16 (PM > 60 deg, GBW > 2 MHz,
    Gain > 80 dB); the 40 nm variant relaxes the gain target to 70 dB as in
    the paper's Table 2.
    """

    def __init__(self, technology: str | Technology = "180nm",
                 load_capacitance: float = 15e-12):
        tech = technology
        if isinstance(tech, str):
            from repro.pdk import get_technology
            tech = get_technology(tech)
        space = _three_stage_design_space(tech)
        gain_spec = 80.0 if tech.name == "180nm" else 70.0
        constraints = [
            Constraint("gain", gain_spec, "ge"),
            Constraint("pm", 60.0, "ge"),
            Constraint("gbw", 2.0, "ge"),
        ]
        super().__init__(name="three_stage_opamp", technology=tech, design_space=space,
                         objective="i_total", minimize=True, constraints=constraints)
        self.load_capacitance = float(load_capacitance)

    # ------------------------------------------------------------------ #
    # netlist                                                             #
    # ------------------------------------------------------------------ #
    def build_circuit(self, design: dict[str, float], feedback: bool = False,
                      supply_ac: float = 0.0) -> Circuit:
        """Construct the testbench netlist for one design point.

        A cascade of three high-gain stages does not self-bias in open loop,
        so the DC operating point is solved in unity-gain feedback
        (``feedback=True`` ties the output to the inverting input) and the
        open-loop AC analysis (``feedback=False``) reuses that operating
        point -- the standard op-amp characterisation recipe.
        """
        tech = self.technology
        vdd, vcm = tech.vdd, tech.common_mode
        w_diff = tech.clamp_width(design["w_diff"])
        l_diff = tech.clamp_length(design["l_diff"])
        w_load = tech.clamp_width(design["w_load"])
        l_load = tech.clamp_length(design["l_load"])
        w_mid = tech.clamp_width(design["w_mid"])
        l_mid = tech.clamp_length(design["l_mid"])
        w_out = tech.clamp_width(design["w_out"])
        l_out = tech.clamp_length(design["l_out"])

        circuit = Circuit(f"three_stage_opamp_{tech.name}")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=vdd, ac=supply_ac))
        # The signal path inn -> out1 -> out2 -> out has polarities (-, +, -),
        # so the output must be fed back to the *non-inverting-named* input
        # (MN1's gate) for the unity-gain DC bias; open-loop AC drives both
        # inputs differentially.
        if feedback:
            inp_node = "out"
        else:
            inp_node = "inp"
            circuit.add(VoltageSource("VIP", "inp", "0", dc=vcm, ac=+0.5))
        circuit.add(VoltageSource("VIN", "inn", "0", dc=vcm, ac=-0.5))
        # Stage 1: NMOS diff pair + PMOS mirror load (output on MN2's drain).
        circuit.add(CurrentSource("IB1", "tail", "0", dc=design["i_bias1"]))
        circuit.add(Mosfet("MN1", "x1", inp_node, "tail", "0", tech.nmos, w_diff, l_diff))
        circuit.add(Mosfet("MN2", "out1", "inn", "tail", "0", tech.nmos, w_diff, l_diff))
        circuit.add(Mosfet("MP1", "x1", "x1", "vdd", "vdd", tech.pmos, w_load, l_load))
        circuit.add(Mosfet("MP2", "out1", "x1", "vdd", "vdd", tech.pmos, w_load, l_load))
        # Stage 2 (non-inverting): PMOS common source into an NMOS current
        # mirror whose output pulls from the ideal source IB2.
        circuit.add(Mosfet("MP4", "y2", "out1", "vdd", "vdd", tech.pmos, w_mid, l_mid))
        circuit.add(Mosfet("MN5", "y2", "y2", "0", "0", tech.nmos, w_mid, l_mid))
        circuit.add(Mosfet("MN6", "out2", "y2", "0", "0", tech.nmos, w_mid, l_mid))
        circuit.add(CurrentSource("IB2", "vdd", "out2", dc=design["i_bias23"]))
        # Stage 3 (inverting): NMOS common source with an ideal current-source load.
        circuit.add(Mosfet("MN7", "out", "out2", "0", "0", tech.nmos, w_out, l_out))
        circuit.add(CurrentSource("IB3", "vdd", "out", dc=design["i_bias23"]))
        # Nested Miller compensation (stages 2+3 are net inverting) and load.
        circuit.add(Capacitor("CM1", "out", "out1", max(design["c_m1"], 1e-15)))
        circuit.add(Capacitor("CM2", "out", "out2", max(design["c_m2"], 1e-15)))
        circuit.add(Capacitor("CL", "out", "0", self.load_capacitance))
        return circuit

    def _build_feedback_circuit(self, design: dict[str, float]) -> Circuit:
        return self.build_circuit(design, feedback=True)

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def testbench(self) -> bench.Testbench:
        """Two netlist variants, one bias: the DC operating point is solved
        on the unity-feedback circuit and reused by the open-loop AC analysis
        (device names match across the variants, so the small-signal stamps
        linearise around the feedback bias -- the standard op-amp recipe)."""
        return bench.Testbench(
            name=self.name,
            builders={"dc": self._build_feedback_circuit,
                      "main": self.build_circuit},
            analyses=[
                bench.OPSpec("op", circuit="dc"),
                bench.ACSpec("ac", circuit="main",
                             frequencies=self.ac_frequencies,
                             observe=("out",), op="op"),
            ],
            measures=[
                bench.supply_current_ua(analysis="op", source="VDD",
                                        circuit="dc", name="i_total"),
                bench.gain_db("ac", "out", name="gain"),
                bench.phase_margin_deg("ac", "out", name="pm"),
                bench.gbw_mhz("ac", "out", name="gbw"),
            ],
            temperature=self.sim_temperature)
