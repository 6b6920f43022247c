"""Two-stage Miller-compensated operational amplifier testbench (paper Eq. 15).

Topology (paper Fig. 3a, standard Miller op-amp):

* first stage -- NMOS differential pair (MN1/MN2) with an ideal tail current
  source ``Ib1`` and a PMOS current-mirror load (MP1/MP2);
* second stage -- PMOS common-source device (MP3) biased by an ideal current
  sink ``Ib2``;
* Miller compensation ``Cc`` with series zero-nulling resistor ``Rz``;
* capacitive load ``CL``.

Design variables: widths and lengths of the first-stage devices and the
second-stage device, ``Cc``, ``Rz`` and both bias currents -- ten in total.
Metrics: total current ``i_total`` (uA), open-loop ``gain`` (dB), phase
margin ``pm`` (degrees) and gain-bandwidth product ``gbw`` (MHz).

:class:`TwoStageOpAmpSettling` reuses the same amplifier in a unity-gain
follower testbench and judges it by *time-domain* figures of merit extracted
from a transient step response: settling time, slew rate and overshoot.
"""

from __future__ import annotations

import numpy as np

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
    Resistor,
    StepWaveform,
    VoltageSource,
    Waveform,
)


def _two_stage_design_space(technology: Technology) -> DesignSpace:
    min_w, max_w = technology.min_width, technology.max_width
    min_l, max_l = technology.min_length, technology.max_length
    return DesignSpace([
        DesignVariable("w_diff", min_w * 4, max_w, log_scale=True, unit="m"),
        DesignVariable("l_diff", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("w_load", min_w * 4, max_w, log_scale=True, unit="m"),
        DesignVariable("l_load", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("w_out", min_w * 8, max_w, log_scale=True, unit="m"),
        DesignVariable("l_out", min_l, max_l, log_scale=True, unit="m"),
        DesignVariable("c_comp", 0.1e-12, 10e-12, log_scale=True, unit="F"),
        DesignVariable("r_zero", 100.0, 50e3, log_scale=True, unit="ohm"),
        DesignVariable("i_bias1", 1e-6, 100e-6, log_scale=True, unit="A"),
        DesignVariable("i_bias2", 2e-6, 300e-6, log_scale=True, unit="A"),
    ])


class TwoStageOpAmp(CircuitSizingProblem):
    """Constrained sizing of the two-stage OpAmp.

    180 nm constraints follow paper Eq. 15 (PM > 60 deg, GBW > 4 MHz,
    Gain > 60 dB); the 40 nm variant relaxes the gain target to 50 dB as in
    the paper's Table 2.
    """

    def __init__(self, technology: str | Technology = "180nm",
                 load_capacitance: float = 2e-12):
        tech = technology
        space = None
        if isinstance(tech, str):
            from repro.pdk import get_technology
            tech = get_technology(tech)
        space = _two_stage_design_space(tech)
        gain_spec = 60.0 if tech.name == "180nm" else 50.0
        constraints = [
            Constraint("gain", gain_spec, "ge"),
            Constraint("pm", 60.0, "ge"),
            Constraint("gbw", 4.0, "ge"),
        ]
        super().__init__(name="two_stage_opamp", technology=tech, design_space=space,
                         objective="i_total", minimize=True, constraints=constraints)
        self.load_capacitance = float(load_capacitance)

    # ------------------------------------------------------------------ #
    # netlist                                                             #
    # ------------------------------------------------------------------ #
    def _add_amplifier_core(self, circuit: Circuit, design: dict[str, float],
                            mn1_gate: str, mn2_gate: str) -> None:
        """Add the amplifier itself (everything but the input sources).

        The two testbenches differ only in how the differential-pair gates
        are driven, so the gate node names are the only parameters: the AC
        testbench wires them to its differential sources, the follower wires
        MN1 to the output (feedback) and MN2 to the stimulus.
        """
        tech = self.technology
        w_diff = tech.clamp_width(design["w_diff"])
        l_diff = tech.clamp_length(design["l_diff"])
        w_load = tech.clamp_width(design["w_load"])
        l_load = tech.clamp_length(design["l_load"])
        w_out = tech.clamp_width(design["w_out"])
        l_out = tech.clamp_length(design["l_out"])
        # First stage: NMOS differential pair, ideal tail sink, PMOS mirror load.
        circuit.add(CurrentSource("IB1", "tail", "0", dc=design["i_bias1"]))
        circuit.add(Mosfet("MN1", "x1", mn1_gate, "tail", "0", tech.nmos, w_diff, l_diff))
        circuit.add(Mosfet("MN2", "out1", mn2_gate, "tail", "0", tech.nmos, w_diff, l_diff))
        circuit.add(Mosfet("MP1", "x1", "x1", "vdd", "vdd", tech.pmos, w_load, l_load))
        circuit.add(Mosfet("MP2", "out1", "x1", "vdd", "vdd", tech.pmos, w_load, l_load))
        # Second stage: PMOS common source with ideal current-sink bias.
        circuit.add(Mosfet("MP3", "out", "out1", "vdd", "vdd", tech.pmos, w_out, l_out))
        circuit.add(CurrentSource("IB2", "out", "0", dc=design["i_bias2"]))
        # Miller compensation and load.
        circuit.add(Resistor("RZ", "out1", "zc", max(design["r_zero"], 1.0)))
        circuit.add(Capacitor("CC", "zc", "out", max(design["c_comp"], 1e-15)))
        circuit.add(Capacitor("CL", "out", "0", self.load_capacitance))

    def build_circuit(self, design: dict[str, float],
                      ac_differential: bool = True,
                      supply_ac: float = 0.0) -> Circuit:
        """Construct the open-loop AC testbench netlist for one design point."""
        tech = self.technology
        circuit = Circuit(f"two_stage_opamp_{tech.name}")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd, ac=supply_ac))
        diff_amp = 0.5 if ac_differential else 0.0
        circuit.add(VoltageSource("VIP", "inp", "0", dc=tech.common_mode, ac=+diff_amp))
        circuit.add(VoltageSource("VIN", "inn", "0", dc=tech.common_mode, ac=-diff_amp))
        self._add_amplifier_core(circuit, design, mn1_gate="inp", mn2_gate="inn")
        return circuit

    def build_follower_circuit(self, design: dict[str, float],
                               waveform: Waveform) -> Circuit:
        """Unity-gain follower testbench: the amplifier tracks ``waveform``.

        Same amplifier core as :meth:`build_circuit`, but the inverting input
        is tied directly to the output (100% feedback) and the non-inverting
        input is driven by a transient stimulus -- the standard bench for
        slew-rate and settling-time measurements.  The mirror-side gate (MN1)
        is the *inverting* input of this topology -- raising it raises out1
        through the MP1/MP2 mirror, which cuts MP3 and pulls the output down
        -- so the output feeds back to MN1 and the stimulus drives MN2 for
        negative feedback.
        """
        tech = self.technology
        circuit = Circuit(f"two_stage_follower_{tech.name}")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        circuit.add(VoltageSource("VIP", "inp", "0", dc=tech.common_mode,
                                  waveform=waveform))
        self._add_amplifier_core(circuit, design, mn1_gate="out", mn2_gate="inp")
        return circuit

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def testbench(self) -> bench.Testbench:
        """Open-loop AC bench: one bias solve shared by every measurement.

        If either gain device is far from saturation the amplifier is
        effectively dead, but it is still measured -- the AC analysis simply
        reports a tiny gain (and a non-finite gain marks the design failed
        through the measure's finite gate).
        """
        return bench.Testbench(
            name=self.name,
            builders={"main": self.build_circuit},
            analyses=[
                bench.OPSpec("op"),
                bench.ACSpec("ac", frequencies=self.ac_frequencies,
                             observe=("out",), op="op"),
            ],
            measures=[
                bench.supply_current_ua(analysis="op", source="VDD",
                                        circuit="main", name="i_total"),
                bench.gain_db("ac", "out", name="gain"),
                bench.phase_margin_deg("ac", "out", name="pm"),
                bench.gbw_mhz("ac", "out", name="gbw"),
            ],
            temperature=self.sim_temperature)

    def _build_dc_follower(self, design: dict[str, float]) -> Circuit:
        """Unity-feedback netlist with a quiet DC input (mismatch bias)."""
        return self.build_follower_circuit(design, waveform=None)

    def mc_testbench(self) -> bench.Testbench:
        """Mismatch bench: feedback-servoed bias, open-loop AC around it.

        The open-loop bench of :meth:`testbench` only holds its operating
        point because perfectly matched devices leave zero systematic input
        offset; a sampled Pelgrom offset of a few millivolts times the full
        open-loop gain rails the second stage, which measures the *bias
        collapse*, not the amplifier.  Mismatch sign-off therefore solves
        the DC bias in unity feedback -- the offset appears at the output,
        attenuated by the loop, and every device stays in its region -- and
        linearises the open-loop AC analysis around that bias, exactly the
        recipe the three-stage amplifier uses for its nominal bench.  Metric
        names match :meth:`testbench`, so the spec constraints classify
        samples unchanged.
        """
        return bench.Testbench(
            name=f"{self.name}_mc",
            builders={"dc": self._build_dc_follower,
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


class TwoStageOpAmpSettling(TwoStageOpAmp):
    """Size the two-stage OpAmp for fast settling in a follower testbench.

    The amplifier is placed in unity feedback and hit with a
    ``step_amplitude`` step around the common-mode level; transient analysis
    then yields the time-domain metrics:

    * ``t_settle`` (us, the objective) -- time to stay within
      ``settle_tolerance`` of the final output value, capped at the analysis
      window when the output never settles;
    * ``slew`` (V/us) -- 10%-90% output slew rate, constrained from below;
    * ``overshoot`` (%) -- peak excursion past the final value, constrained
      from above;
    * ``i_total`` (uA) -- reported for reference (not constrained here).

    Every transient configuration scalar (window, tolerances, step size)
    lives as a plain attribute, so
    :attr:`~repro.circuits.base.CircuitSizingProblem.cache_token` folds it
    into the design-cache identity automatically -- two differently
    configured settling problems never share cached results.
    """

    def __init__(self, technology: str | Technology = "180nm",
                 load_capacitance: float = 2e-12,
                 step_amplitude: float = 0.2, t_stop: float = 4e-6,
                 settle_tolerance: float = 0.01,
                 min_slew: float = 1.0, max_overshoot: float = 25.0,
                 transient_reltol: float = 1e-4,
                 transient_abstol: float = 1e-6):
        super().__init__(technology=technology, load_capacitance=load_capacitance)
        self.name = f"two_stage_opamp_settling_{self.technology.name}"
        self.objective = "t_settle"
        self.minimize = True
        # Thresholds are also kept as plain float attributes: cache_token
        # hashes scalar attributes only, and two instances with different
        # constraint levels must never share cached feasibility verdicts.
        self.min_slew = float(min_slew)
        self.max_overshoot = float(max_overshoot)
        self.constraints = [
            Constraint("slew", self.min_slew, "ge"),
            Constraint("overshoot", self.max_overshoot, "le"),
        ]
        self.step_amplitude = float(step_amplitude)
        self.t_stop = float(t_stop)
        self.settle_tolerance = float(settle_tolerance)
        self.transient_reltol = float(transient_reltol)
        self.transient_abstol = float(transient_abstol)
        # Step timing: a short settling window before the edge gives a clean
        # pre-step baseline, and a finite rise keeps the stimulus physical.
        self.step_delay = self.t_stop * 0.05
        self.step_rise_time = self.t_stop * 1e-3

    def step_waveform(self) -> StepWaveform:
        """The follower stimulus: a step around the common-mode level."""
        vcm = self.technology.common_mode
        half = 0.5 * self.step_amplitude
        return StepWaveform(initial=vcm - half, final=vcm + half,
                            delay=self.step_delay,
                            rise_time=self.step_rise_time)

    def _build_follower(self, design: dict[str, float]) -> Circuit:
        return self.build_follower_circuit(design, self.step_waveform())

    def _follower_tracks(self, ctx: "bench.MeasureContext") -> bool:
        # A follower whose output does not track at least half the input step
        # is dead; "settling" instantly onto a stuck output must not score.
        result = ctx.result("tran")
        initial = result.value_at("out", self.step_delay)
        final = result.final_value("out")
        return abs(final - initial) >= 0.5 * self.step_amplitude

    def _measure_settle(self, ctx: "bench.MeasureContext") -> float:
        settle = ctx.result("tran").settling_time(
            "out", tolerance=self.settle_tolerance, t_start=self.step_delay)
        if not np.isfinite(settle):
            # Never entered the band: report the whole window as the (worst
            # finite) settling time so surrogates stay trainable.
            settle = self.t_stop - self.step_delay
        return float(settle * 1e6)

    def testbench(self) -> "bench.Testbench":
        """Unity-follower step bench: transient bias shared with the supply
        current measure, step response judged by time-domain measures."""
        t_edge = self.step_delay
        return bench.Testbench(
            name=self.name,
            builders={"main": self._build_follower},
            analyses=[
                bench.OPSpec("op", transient=True),
                bench.TranSpec("tran", t_stop=self.t_stop, observe=("out",),
                               reltol=self.transient_reltol,
                               abstol=self.transient_abstol, op="op"),
            ],
            checks=[bench.Check("follower output tracks the input step",
                                self._follower_tracks)],
            measures=[
                bench.Measure("t_settle", self._measure_settle),
                bench.slew_v_per_us("tran", "out", t_start=t_edge, name="slew"),
                bench.overshoot_pct("tran", "out", t_start=t_edge,
                                    name="overshoot"),
                bench.supply_current_ua(analysis="op", source="VDD",
                                        circuit="main", name="i_total"),
            ],
            temperature=self.sim_temperature)

    def mc_testbench(self) -> "bench.Testbench":
        """The follower step bench is closed-loop already: offsets shift the
        output by millivolts instead of railing it, so mismatch samples run
        the regular bench (overriding the AC servo bench inherited from
        :class:`TwoStageOpAmp`, whose metrics the settling constraints do
        not reference)."""
        return self.testbench()

    def failed_metrics(self) -> dict[str, float]:
        return {**super().failed_metrics(), "i_total": 1e6}
