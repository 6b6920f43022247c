"""Tests for the SPICE-like simulator: devices, DC, AC and sweeps."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice import (
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    Mosfet,
    MosfetModel,
    Resistor,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
    dc_sweep,
    temperature_sweep,
)
from repro.spice.ac import logspace_frequencies
from repro.spice.devices.mosfet import square_law
from repro.spice.sweep import temperature_coefficient_ppm

NMOS = MosfetModel("nmos", vth0=0.45, kp=300e-6, lambda_per_um=0.08,
                   cox=8.5e-3, cgdo=3e-10)
PMOS = MosfetModel("pmos", vth0=0.45, kp=100e-6, lambda_per_um=0.10,
                   cox=8.5e-3, cgdo=3e-10)


class TestNetlist:
    def test_node_bookkeeping(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 1e3))
        circuit.add(Resistor("R2", "b", "gnd", 1e3))
        assert circuit.n_nodes == 2
        assert circuit.node_index("gnd") == -1
        assert circuit.node_index("a") != circuit.node_index("b")

    def test_ground_aliases(self):
        for alias in ("0", "gnd", "vss", "GND"):
            assert Circuit.canonical_node(alias) == "0"

    def test_duplicate_device_rejected(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "0", 1e3))
        with pytest.raises(NetlistError):
            circuit.add(Resistor("R1", "b", "0", 1e3))

    def test_unknown_node_raises(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "0", 1e3))
        with pytest.raises(NetlistError):
            circuit.node_index("zz")

    def test_device_lookup(self):
        circuit = Circuit()
        resistor = circuit.add(Resistor("R1", "a", "0", 1e3))
        assert circuit.device("R1") is resistor
        with pytest.raises(NetlistError):
            circuit.device("R2")

    def test_summary_counts(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "0", 1e3))
        circuit.add(VoltageSource("V1", "a", "0", dc=1.0))
        summary = circuit.summary()
        assert summary["n_devices"] == 2
        assert summary["n_branches"] == 1

    def test_invalid_component_values(self):
        with pytest.raises(ValueError):
            Resistor("R", "a", "0", -5.0)
        with pytest.raises(ValueError):
            Capacitor("C", "a", "0", 0.0)
        with pytest.raises(ValueError):
            Mosfet("M", "d", "g", "s", "b", NMOS, width=-1e-6, length=1e-6)
        with pytest.raises(ValueError):
            Diode("D", "a", "0", saturation_current=-1.0)
        with pytest.raises(ValueError):
            MosfetModel("xmos", 0.4, 1e-4, 0.1, 8e-3, 1e-10)


class TestDCAnalysis:
    def test_voltage_divider(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", dc=10.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Resistor("R2", "mid", "0", 3e3))
        op = dc_operating_point(circuit)
        assert op.converged
        assert op.voltage("mid") == pytest.approx(7.5, rel=1e-6)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        circuit.add(CurrentSource("I1", "0", "n", dc=1e-3))
        circuit.add(Resistor("R1", "n", "0", 2e3))
        op = dc_operating_point(circuit)
        assert op.voltage("n") == pytest.approx(2.0, rel=1e-5)

    def test_vcvs_gain(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", dc=0.5))
        circuit.add(VCVS("E1", "out", "0", "in", "0", mu=10.0))
        circuit.add(Resistor("RL", "out", "0", 1e3))
        op = dc_operating_point(circuit)
        assert op.voltage("out") == pytest.approx(5.0, rel=1e-6)

    def test_vccs_output_current(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", dc=1.0))
        circuit.add(VCCS("G1", "out", "0", "in", "0", gm=1e-3))
        circuit.add(Resistor("RL", "out", "0", 1e3))
        op = dc_operating_point(circuit)
        assert abs(op.voltage("out")) == pytest.approx(1.0, rel=1e-6)

    def test_diode_forward_drop(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "vdd", "0", dc=3.0))
        circuit.add(Resistor("R1", "vdd", "d", 1e3))
        circuit.add(Diode("D1", "d", "0"))
        op = dc_operating_point(circuit)
        assert op.converged
        assert 0.5 < op.voltage("d") < 0.85

    def test_voltage_source_branch_current(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", dc=10.0))
        circuit.add(Resistor("R1", "in", "0", 1e3))
        op = dc_operating_point(circuit)
        current = circuit.device("V1").branch_current(op.voltages)
        assert abs(current) == pytest.approx(10e-3, rel=1e-5)

    def test_nmos_saturation_current(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
        circuit.add(VoltageSource("VG", "g", "0", dc=0.8))
        circuit.add(Resistor("RD", "vdd", "d", 1e3))
        circuit.add(Mosfet("M1", "d", "g", "0", "0", NMOS, width=10e-6, length=1e-6))
        op = dc_operating_point(circuit)
        info = op.device_info["M1"]
        expected = 0.5 * 300e-6 * 10 * (0.8 - 0.45) ** 2
        assert info["ids"] == pytest.approx(expected, rel=0.15)
        assert info["region"] == "saturation"

    def test_warm_start_initial_guess(self):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", dc=1.0))
        circuit.add(Resistor("R1", "in", "0", 1e3))
        first = dc_operating_point(circuit)
        second = dc_operating_point(circuit, initial_guess=first.voltages)
        assert second.converged

    def test_bad_initial_guess_length(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "0", 1e3))
        with pytest.raises(ValueError):
            dc_operating_point(circuit, initial_guess=np.zeros(5))


class TestMosfetModel:
    def test_square_law_regions(self):
        cutoff = square_law(NMOS, 1e-5, 1e-6, vgs=0.2, vds=1.0)
        assert cutoff.region == "cutoff" and cutoff.ids < 1e-9
        triode = square_law(NMOS, 1e-5, 1e-6, vgs=1.5, vds=0.1)
        assert triode.region == "triode"
        saturation = square_law(NMOS, 1e-5, 1e-6, vgs=0.8, vds=1.5)
        assert saturation.region == "saturation"

    def test_gm_increases_with_overdrive(self):
        low = square_law(NMOS, 1e-5, 1e-6, vgs=0.6, vds=1.0)
        high = square_law(NMOS, 1e-5, 1e-6, vgs=1.0, vds=1.0)
        assert high.gm > low.gm

    def test_channel_length_modulation(self):
        short = NMOS.effective_lambda(0.18e-6)
        long = NMOS.effective_lambda(1.8e-6)
        assert short > long

    def test_threshold_temperature_dependence(self):
        assert NMOS.vth_at(100.0) < NMOS.vth_at(27.0)

    def test_kp_decreases_with_temperature(self):
        assert NMOS.kp_at(100.0) < NMOS.kp_at(27.0)

    def test_polarity_sign(self):
        assert NMOS.sign == 1.0 and PMOS.sign == -1.0

    def test_pmos_conducts_with_negative_vgs(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
        circuit.add(VoltageSource("VG", "g", "0", dc=0.9))
        circuit.add(Resistor("RD", "d", "0", 1e3))
        circuit.add(Mosfet("MP", "d", "g", "vdd", "vdd", PMOS, width=20e-6, length=1e-6))
        op = dc_operating_point(circuit)
        assert op.voltage("d") > 0.1  # PMOS pulls the output up through RD


class TestACAnalysis:
    def _rc_circuit(self):
        circuit = Circuit()
        circuit.add(VoltageSource("Vin", "in", "0", dc=0.0, ac=1.0))
        circuit.add(Resistor("R", "in", "out", 1e3))
        circuit.add(Capacitor("C", "out", "0", 1e-6))
        return circuit

    def test_rc_corner_frequency(self):
        circuit = self._rc_circuit()
        op = dc_operating_point(circuit)
        result = ac_analysis(circuit, op, logspace_frequencies(1, 1e6, 30), observe=["out"])
        corner = result.bandwidth_3db("out")
        assert corner == pytest.approx(1.0 / (2 * np.pi * 1e3 * 1e-6), rel=0.05)

    def test_rc_low_frequency_gain_is_unity(self):
        circuit = self._rc_circuit()
        op = dc_operating_point(circuit)
        result = ac_analysis(circuit, op, observe=["out"])
        assert result.dc_gain_db("out") == pytest.approx(0.0, abs=0.1)

    def test_common_source_gain_matches_analytic(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
        circuit.add(VoltageSource("VG", "g", "0", dc=0.7, ac=1.0))
        circuit.add(Resistor("RL", "vdd", "d", 20e3))
        circuit.add(Mosfet("M1", "d", "g", "0", "0", NMOS, width=10e-6, length=1e-6))
        op = dc_operating_point(circuit)
        result = ac_analysis(circuit, op, logspace_frequencies(10, 1e6, 10), observe=["d"])
        info = op.device_info["M1"]
        expected = 20 * np.log10(info["gm"] / (1 / 20e3 + info["gds"]))
        assert result.dc_gain_db("d") == pytest.approx(expected, abs=0.2)

    def test_unity_gain_frequency_of_integrator_like_circuit(self):
        circuit = Circuit()
        circuit.add(VoltageSource("Vin", "in", "0", ac=1.0))
        circuit.add(VCCS("G1", "0", "out", "in", "0", gm=1e-3))
        circuit.add(Resistor("Ro", "out", "0", 1e6))
        circuit.add(Capacitor("Co", "out", "0", 1e-9))
        op = dc_operating_point(circuit)
        result = ac_analysis(circuit, op, logspace_frequencies(1, 1e9, 20), observe=["out"])
        assert result.unity_gain_frequency("out") == pytest.approx(
            1e-3 / (2 * np.pi * 1e-9), rel=0.1)
        margin = result.phase_margin_degrees("out")
        assert 80.0 < margin < 100.0

    def test_no_unity_crossing_reports_zero(self):
        circuit = self._rc_circuit()
        circuit.device("Vin").ac = 0.1  # attenuated: response never reaches 0 dB
        op = dc_operating_point(circuit)
        result = ac_analysis(circuit, op, observe=["out"])
        assert result.unity_gain_frequency("out") == 0.0
        assert result.phase_margin_degrees("out") == 0.0

    def test_above_unity_through_sweep_clamps_to_last_frequency(self):
        # The other no-crossing branch: a sweep ending while the gain is
        # still above 0 dB clamps to the final analysed frequency (a
        # conservative lower bound on the true GBW), unlike the dead-output
        # case above which reports 0.
        circuit = Circuit()
        circuit.add(VoltageSource("Vin", "in", "0", ac=1.0))
        circuit.add(VCCS("G1", "0", "out", "in", "0", gm=1e-3))
        circuit.add(Resistor("Ro", "out", "0", 1e6))
        circuit.add(Capacitor("Co", "out", "0", 1e-9))
        op = dc_operating_point(circuit)
        frequencies = logspace_frequencies(1, 1e3, 10)  # crossing ~159 kHz
        result = ac_analysis(circuit, op, frequencies, observe=["out"])
        assert np.all(result.magnitude_db("out") > 0.0)
        assert result.unity_gain_frequency("out") == float(frequencies[-1])
        assert result.phase_margin_degrees("out") > 0.0

    def test_gain_at_interpolation(self):
        circuit = self._rc_circuit()
        op = dc_operating_point(circuit)
        result = ac_analysis(circuit, op, logspace_frequencies(1, 1e6, 20), observe=["out"])
        assert result.gain_at("out", 159.0) == pytest.approx(-3.0, abs=0.5)


class TestSweeps:
    def test_dc_sweep_linear_circuit(self):
        circuit = Circuit()
        source = circuit.add(VoltageSource("V1", "in", "0", dc=0.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Resistor("R2", "mid", "0", 1e3))

        values, observed = dc_sweep(circuit, "V1", "dc",
                                    np.linspace(0, 2, 5), observe="mid")
        assert np.allclose(observed, values / 2.0, atol=1e-9)
        # The sweep restores the swept attribute when it finishes.
        assert source.dc == 0.0

    def test_temperature_sweep_diode_is_ctat(self):
        circuit = Circuit()
        circuit.add(CurrentSource("Ib", "0", "d", dc=10e-6))
        circuit.add(Diode("D1", "d", "0"))
        temperatures, voltages, points = temperature_sweep(
            circuit, np.array([-20.0, 27.0, 85.0]), observe="d")
        assert all(p.converged for p in points)
        assert voltages[0] > voltages[1] > voltages[2]  # VBE falls with temperature

    def test_temperature_coefficient_formula(self):
        temperatures = np.array([0.0, 50.0, 100.0])
        flat = temperature_coefficient_ppm(temperatures, np.array([1.0, 1.0, 1.0]))
        assert flat == pytest.approx(0.0)
        sloped = temperature_coefficient_ppm(temperatures, np.array([1.0, 1.005, 1.01]))
        assert sloped == pytest.approx(0.01 / 1.005 / 100.0 * 1e6, rel=1e-3)

    def test_temperature_coefficient_degenerate(self):
        assert np.isinf(temperature_coefficient_ppm(np.array([27.0]), np.array([0.0])))


class TestFiveTransistorOTA:
    def test_differential_gain_and_operating_regions(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
        circuit.add(VoltageSource("Vip", "inp", "0", dc=0.9, ac=0.5))
        circuit.add(VoltageSource("Vin", "inn", "0", dc=0.9, ac=-0.5))
        circuit.add(CurrentSource("Itail", "tail", "0", dc=20e-6))
        circuit.add(Mosfet("M1", "o1", "inp", "tail", "0", NMOS, 20e-6, 1e-6))
        circuit.add(Mosfet("M2", "out", "inn", "tail", "0", NMOS, 20e-6, 1e-6))
        circuit.add(Mosfet("M3", "o1", "o1", "vdd", "vdd", PMOS, 20e-6, 1e-6))
        circuit.add(Mosfet("M4", "out", "o1", "vdd", "vdd", PMOS, 20e-6, 1e-6))
        circuit.add(Capacitor("CL", "out", "0", 1e-12))
        op = dc_operating_point(circuit)
        assert op.converged
        for name in ("M1", "M2", "M3", "M4"):
            assert op.device_info[name]["region"] == "saturation"
            assert op.device_info[name]["ids"] == pytest.approx(10e-6, rel=0.15)
        result = ac_analysis(circuit, op, logspace_frequencies(100, 1e9, 10),
                             observe=["out"])
        assert result.dc_gain_db("out") > 30.0
