"""Golden-solution tests: every analysis checked against a closed form.

Each analysis engine is validated against an independent reference:

* transient -- RC and RL step responses against the analytic exponential,
  and series-RLC ringing against the underdamped closed form;
* AC -- the vectorized stacked-frequency path cross-checked against the
  per-frequency reference loop for every circuit in the registry;
* DC -- a swept diode divider against the Shockley equation;
* noise -- a resistive divider against 4kT(R1 || R2), RC integrated noise
  against kT/C, and the adjoint source transfers against direct forward
  injections on a registry op-amp.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import make_problem
from repro.spice import (
    Capacitor,
    Circuit,
    Diode,
    Inductor,
    Resistor,
    StepWaveform,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
    dc_sweep,
    noise_analysis,
    transient_analysis,
)
from repro.spice.ac import _ac_analysis_per_frequency, _ac_analysis_vectorized


class TestTransientGolden:
    """Transient solver vs. analytic linear-network step responses."""

    def test_rc_step_matches_exponential(self):
        """Acceptance bar: <0.1% max error at the default tolerances."""
        tau = 1e-6
        circuit = Circuit("rc_golden")
        circuit.add(VoltageSource("VIN", "in", "0", dc=0.0,
                                  waveform=StepWaveform(0.0, 1.0)))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        result = transient_analysis(circuit, 5 * tau, observe=["out"])
        analytic = 1.0 - np.exp(-result.times / tau)
        assert np.max(np.abs(result.voltage("out") - analytic)) < 1e-3
        # The grid covers the whole window with exact endpoints.
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(5 * tau, rel=1e-12)

    def test_rl_step_matches_exponential(self):
        """Series V-R-L: the midpoint node decays as exp(-t*R/L)."""
        resistance, inductance = 1e3, 1e-3
        tau = inductance / resistance
        circuit = Circuit("rl_golden")
        circuit.add(VoltageSource("VIN", "in", "0", dc=0.0,
                                  waveform=StepWaveform(0.0, 1.0)))
        circuit.add(Resistor("R1", "in", "mid", resistance))
        circuit.add(Inductor("L1", "mid", "0", inductance))
        result = transient_analysis(circuit, 5 * tau, observe=["mid"])
        # Skip t=0: the source is discontinuous there and the first sample is
        # the pre-step DC initial condition by construction.
        analytic = np.exp(-result.times[1:] / tau)
        assert np.max(np.abs(result.voltage("mid")[1:] - analytic)) < 1e-3

    def test_rlc_ringing_matches_closed_form(self):
        """Underdamped series RLC step response, five ringing periods."""
        resistance, inductance, capacitance = 100.0, 1e-3, 1e-9
        alpha = resistance / (2 * inductance)
        omega0 = 1.0 / np.sqrt(inductance * capacitance)
        omega_d = np.sqrt(omega0**2 - alpha**2)
        circuit = Circuit("rlc_golden")
        circuit.add(VoltageSource("VIN", "in", "0", dc=0.0,
                                  waveform=StepWaveform(0.0, 1.0)))
        circuit.add(Resistor("R1", "in", "n1", resistance))
        circuit.add(Inductor("L1", "n1", "n2", inductance))
        circuit.add(Capacitor("C1", "n2", "0", capacitance))
        t_stop = 5 * 2 * np.pi / omega_d
        result = transient_analysis(circuit, t_stop, observe=["n2"],
                                    reltol=1e-5)
        t = result.times
        analytic = 1.0 - np.exp(-alpha * t) * (np.cos(omega_d * t)
                                               + alpha / omega_d * np.sin(omega_d * t))
        assert np.max(np.abs(result.voltage("n2") - analytic)) < 1e-2
        # The ringing must actually be resolved, not smoothed away: the
        # first overshoot peaks at 1 + exp(-alpha*pi/omega_d).
        expected_peak = 1.0 + np.exp(-alpha * np.pi / omega_d)
        assert float(result.voltage("n2").max()) == pytest.approx(
            expected_peak, rel=1e-2)


#: The built-in problems that own a netlist.  The corner, yield and robust
#: wrappers simulate these same netlists, and the registry is open to
#: problems that other test modules register, so the list is fixed here.
BUILTIN_CIRCUITS = ("bandgap", "comparator", "ldo", "ring_vco",
                    "three_stage_opamp", "two_stage_opamp",
                    "two_stage_opamp_settling")


class TestACGolden:
    """Vectorized AC path vs. the per-frequency reference, every circuit."""

    FREQUENCIES = np.logspace(1, 9, 33)

    @pytest.mark.parametrize("name", BUILTIN_CIRCUITS)
    def test_vectorized_matches_per_frequency(self, name):
        problem = make_problem(name, "180nm")
        # The bandgap AC testbench measures PSRR, so excite its supply.
        kwargs = {"supply_ac": 1.0} if name == "bandgap" else {}
        # Use the first design of a fixed-seed batch whose DC converges (not
        # every random design biases up).
        for row in problem.design_space.sample(10, rng=np.random.default_rng(11)):
            design = problem.design_space.as_dict(row)
            circuit = problem.build_circuit(design, **kwargs)
            op = dc_operating_point(circuit)
            if op.converged:
                break
        else:
            pytest.fail(f"no converged design found for {name}")
        vectorized = _ac_analysis_vectorized(circuit, op, self.FREQUENCIES,
                                             circuit.nodes)
        reference = _ac_analysis_per_frequency(circuit, op, self.FREQUENCIES,
                                               circuit.nodes)
        for node in circuit.nodes:
            np.testing.assert_allclose(
                vectorized.response(node), reference.response(node),
                rtol=1e-8, atol=1e-15,
                err_msg=f"{name}: node {node} diverges between AC paths")


class TestDCGolden:
    """DC sweep of a diode divider vs. the Shockley equation."""

    def test_diode_divider_satisfies_shockley(self):
        saturation_current, emission = 1e-14, 1.0
        resistance = 10e3
        circuit = Circuit("diode_golden")
        source = circuit.add(VoltageSource("VIN", "in", "0", dc=0.0))
        circuit.add(Resistor("R1", "in", "d", resistance))
        circuit.add(Diode("D1", "d", "0",
                          saturation_current=saturation_current,
                          emission_coefficient=emission))

        values = np.linspace(0.3, 2.0, 18)
        _, v_diode = dc_sweep(circuit, "VIN", "dc", values, observe="d")
        # KCL at the diode node: the resistor current must equal the
        # Shockley current at the solved junction voltage.
        thermal = 1.380649e-23 * 300.15 / 1.602176634e-19
        i_resistor = (values - v_diode) / resistance
        i_shockley = saturation_current * (np.exp(v_diode / (emission * thermal)) - 1.0)
        np.testing.assert_allclose(i_resistor, i_shockley, rtol=1e-6,
                                   atol=1e-12)
        # And the junction voltage grows logarithmically: ~60 mV/decade.
        assert np.all(np.diff(v_diode) > 0)
        assert v_diode[-1] < 1.0


class TestNoiseGolden:
    """Adjoint noise analysis vs. thermodynamic closed forms."""

    K_BOLTZMANN = 1.380649e-23

    def test_resistor_divider_matches_4ktr_parallel(self):
        """Output noise of a resistive divider is 4kT(R1 || R2), flat.

        The driving voltage source is an AC short, so the two resistors
        appear in parallel from the output node -- the canonical Johnson
        noise sanity check.  Acceptance bar: <0.1% everywhere.
        """
        r1, r2 = 1e3, 3e3
        circuit = Circuit("divider_golden")
        circuit.add(VoltageSource("VIN", "in", "0", dc=0.0, ac=1.0))
        circuit.add(Resistor("R1", "in", "out", r1))
        circuit.add(Resistor("R2", "out", "0", r2))
        op = dc_operating_point(circuit)
        frequencies = np.logspace(0, 9, 46)
        result = noise_analysis(circuit, op, frequencies, output="out")
        t_kelvin = op.temperature + 273.15
        parallel = r1 * r2 / (r1 + r2)
        expected = 4.0 * self.K_BOLTZMANN * t_kelvin * parallel
        np.testing.assert_allclose(result.output_psd,
                                   np.full_like(frequencies, expected),
                                   rtol=1e-3)

    def test_rc_integrated_noise_matches_kt_over_c(self):
        """Total integrated output noise of an RC is kT/C, independent of R.

        The trapezoid rule on a dense log grid spanning far past the pole
        must recover the closed form to <0.1% -- this pins both the PSD
        shape (Lorentzian) and the integration machinery.
        """
        resistance, capacitance = 1e3, 1e-9
        circuit = Circuit("ktc_golden")
        circuit.add(VoltageSource("VIN", "in", "0", dc=0.0, ac=1.0))
        circuit.add(Resistor("R1", "in", "out", resistance))
        circuit.add(Capacitor("C1", "out", "0", capacitance))
        op = dc_operating_point(circuit)
        # Pole at 159 kHz: integrate 1 Hz .. 10 GHz, 200 points/decade.
        frequencies = np.logspace(0, 10, 2001)
        result = noise_analysis(circuit, op, frequencies, output="out")
        total = result.integrated_output_noise()
        t_kelvin = op.temperature + 273.15
        expected = np.sqrt(self.K_BOLTZMANN * t_kelvin / capacitance)
        assert total == pytest.approx(expected, rel=1e-3)

    def test_adjoint_transfers_match_direct_solves_on_opamp(self):
        """Adjoint source->output transfers vs. direct forward injections.

        On a registry op-amp bias, every noise source's transimpedance from
        the single adjoint solve must equal the brute-force answer: inject
        a unit AC current between the source's nodes and forward-solve for
        the output voltage.
        """
        from repro.spice.ac import _AC_GMIN
        from repro.spice.noise import _gather_sources

        problem = make_problem("two_stage_opamp", "180nm")
        for row in problem.design_space.sample(10, rng=np.random.default_rng(7)):
            design = problem.design_space.as_dict(row)
            circuit = problem.build_circuit(design)
            op = dc_operating_point(circuit)
            if op.converged:
                break
        else:
            pytest.fail("no converged op-amp design found")
        frequencies = np.logspace(1, 8, 15)
        result = noise_analysis(circuit, op, frequencies, output="out")
        sources = _gather_sources(circuit, op)
        assert sources, "op-amp bias exposes no noise sources"
        out_index = circuit.node_index("out")
        diagonal = np.arange(circuit.n_nodes)
        for f_index, frequency in enumerate(frequencies):
            stamper = circuit.stamp_ac(2.0 * np.pi * frequency, op)
            matrix = stamper.matrix
            matrix[diagonal, diagonal] += _AC_GMIN
            for source in sources:
                injection = np.zeros(matrix.shape[0], dtype=complex)
                if source.node_a >= 0:
                    injection[source.node_a] += 1.0
                if source.node_b >= 0:
                    injection[source.node_b] -= 1.0
                forward = np.linalg.solve(matrix, injection)
                key = f"{source.device}:{source.label}"
                adjoint_transfer = result.source_transfers[key][f_index]
                np.testing.assert_allclose(
                    adjoint_transfer, forward[out_index], rtol=1e-8,
                    err_msg=f"{key} diverges at {frequency:.3g} Hz")
