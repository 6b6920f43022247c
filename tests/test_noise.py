"""Tests for the device noise contract and the adjoint noise analysis."""

import numpy as np
import pytest

from repro.bench import (
    BatchSimulator,
    NoiseSpec,
    OPSpec,
    Simulator,
    Testbench,
    input_noise_nv_rthz,
    integrated_noise_uvrms,
    output_noise_nv_rthz,
)
from repro.pdk import NoiseCard, get_technology
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    Mosfet,
    MosfetModel,
    Resistor,
    VoltageSource,
    dc_operating_point,
    noise_analysis,
)
from repro.spice.devices.base import NoiseSource
from repro.spice.noise import (
    _adjoint_per_frequency,
    _assemble_result,
    _gather_sources,
)

K_BOLTZMANN = 1.380649e-23
Q_ELECTRON = 1.602176634e-19

NMOS = MosfetModel("nmos", vth0=0.45, kp=300e-6, lambda_per_um=0.08,
                   cox=8.5e-3, cgdo=3e-10,
                   noise=NoiseCard(gamma=2.0 / 3.0, kf=1e-30, af=1.0))


def _rc_circuit(resistance=1e3, capacitance=1e-9, ac=1.0):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("VIN", "in", "0", dc=0.0, ac=ac))
    circuit.add(Resistor("R1", "in", "out", resistance))
    circuit.add(Capacitor("C1", "out", "0", capacitance))
    return circuit


class TestNoiseSource:
    def test_psd_white_plus_flicker(self):
        source = NoiseSource("D", "ch", 0, 1, white=2e-18, flicker=1e-15)
        freqs = np.array([1.0, 10.0, 1e3, 1e9])
        np.testing.assert_allclose(source.psd(freqs), 2e-18 + 1e-15 / freqs)

    def test_flicker_exponent(self):
        source = NoiseSource("D", "ch", 0, 1, white=0.0, flicker=1e-15,
                             flicker_exponent=2.0)
        np.testing.assert_allclose(source.psd(np.array([10.0])), 1e-17)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            NoiseSource("D", "ch", 0, 1, white=-1e-18)
        with pytest.raises(ValueError):
            NoiseSource("D", "ch", 0, 1, white=0.0, flicker=-1.0)


class TestDeviceNoiseModels:
    def test_resistor_thermal(self):
        circuit = _rc_circuit(resistance=2e3)
        op = dc_operating_point(circuit)
        (source,) = circuit.device("R1").noise_sources(op)
        t_kelvin = op.temperature + 273.15
        assert source.white == pytest.approx(4 * K_BOLTZMANN * t_kelvin / 2e3)
        assert source.flicker == 0.0

    def test_mosfet_channel_thermal_and_flicker(self):
        circuit = Circuit("mos")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
        circuit.add(VoltageSource("VG", "g", "0", dc=1.0))
        circuit.add(Mosfet("M1", "vdd", "g", "0", "0", NMOS, 10e-6, 1e-6))
        op = dc_operating_point(circuit)
        info = op.device_info["M1"]
        (source,) = circuit.device("M1").noise_sources(op)
        t_kelvin = op.temperature + 273.15
        expected_white = 4 * K_BOLTZMANN * t_kelvin * (2.0 / 3.0) * abs(info["gm"])
        expected_flicker = 1e-30 * abs(info["ids"]) / (8.5e-3 * 10e-6 * 1e-6)
        assert source.white == pytest.approx(expected_white, rel=1e-12)
        assert source.flicker == pytest.approx(expected_flicker, rel=1e-12)

    def test_mosfet_without_flicker_card(self):
        quiet = MosfetModel("nmos", vth0=0.45, kp=300e-6, lambda_per_um=0.08,
                            cox=8.5e-3, cgdo=3e-10)
        circuit = Circuit("mos")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
        circuit.add(VoltageSource("VG", "g", "0", dc=1.0))
        circuit.add(Mosfet("M1", "vdd", "g", "0", "0", quiet, 10e-6, 1e-6))
        op = dc_operating_point(circuit)
        (source,) = circuit.device("M1").noise_sources(op)
        assert source.flicker == 0.0

    def test_diode_shot(self):
        circuit = Circuit("diode")
        circuit.add(VoltageSource("VIN", "in", "0", dc=1.0))
        circuit.add(Resistor("R1", "in", "d", 1e3))
        circuit.add(Diode("D1", "d", "0"))
        op = dc_operating_point(circuit)
        (source,) = circuit.device("D1").noise_sources(op)
        i_d = abs(op.device_info["D1"]["i"])
        assert i_d > 0.0
        assert source.white == pytest.approx(2 * Q_ELECTRON * i_d, rel=1e-12)

    def test_sources_and_capacitors_are_noiseless(self):
        circuit = _rc_circuit()
        op = dc_operating_point(circuit)
        assert circuit.device("VIN").noise_sources(op) == []
        assert circuit.device("C1").noise_sources(op) == []


class TestNoiseCard:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseCard(gamma=-1.0)
        with pytest.raises(ValueError):
            NoiseCard(kf=-1e-30)

    def test_technology_fingerprint_covers_noise_card(self):
        tech = get_technology("180nm")
        # Noise parameters are part of the device card, hence of the
        # technology fingerprint: different KF must never share caches.
        from dataclasses import replace
        louder = replace(tech.nmos,
                         noise=NoiseCard(gamma=2.0 / 3.0, kf=1e-28, af=1.0))
        assert replace(tech, nmos=louder).fingerprint != tech.fingerprint

    def test_corner_cards_keep_noise(self):
        tech = get_technology("180nm")
        cornered = tech.with_corner(nmos_kp_scale=0.9, nmos_vth_shift=0.03,
                                    pmos_kp_scale=0.9, pmos_vth_shift=0.03,
                                    corner="ss")
        assert cornered.nmos.noise == tech.nmos.noise
        assert cornered.pmos.noise == tech.pmos.noise


class TestNoiseAnalysis:
    FREQS = np.logspace(0, 9, 46)

    def test_validation(self):
        circuit = _rc_circuit()
        op = dc_operating_point(circuit)
        with pytest.raises(ValueError):
            noise_analysis(circuit, op, np.array([0.0, 1.0]), output="out")
        with pytest.raises(ValueError):
            noise_analysis(circuit, op, self.FREQS, output="0")

    def test_vectorized_matches_per_frequency_exactly(self):
        circuit = _rc_circuit()
        op = dc_operating_point(circuit)
        fast = noise_analysis(circuit, op, self.FREQS, output="out")
        adjoints, rhs = _adjoint_per_frequency(circuit, op, self.FREQS,
                                               circuit.node_index("out"))
        slow = _assemble_result(self.FREQS, "out", _gather_sources(circuit, op),
                                adjoints, rhs)
        np.testing.assert_allclose(fast.output_psd, slow.output_psd,
                                   rtol=1e-12)
        np.testing.assert_allclose(fast.gain, slow.gain, rtol=1e-12)
        for key in fast.source_transfers:
            np.testing.assert_allclose(fast.source_transfers[key],
                                       slow.source_transfers[key], rtol=1e-12)

    def test_input_referral_divides_by_gain(self):
        circuit = _rc_circuit()
        op = dc_operating_point(circuit)
        result = noise_analysis(circuit, op, self.FREQS, output="out")
        np.testing.assert_allclose(
            result.input_psd, result.output_psd / np.abs(result.gain) ** 2,
            rtol=1e-12)
        # The RC forward gain is the low-pass response itself.
        expected = 1.0 / (1.0 + 2j * np.pi * self.FREQS * 1e3 * 1e-9)
        np.testing.assert_allclose(result.gain, expected, rtol=1e-6)

    def test_unexcited_circuit_has_no_input_referred_noise(self):
        circuit = _rc_circuit(ac=0.0)
        op = dc_operating_point(circuit)
        result = noise_analysis(circuit, op, self.FREQS, output="out")
        assert result.gain is None and result.input_psd is None
        with pytest.raises(ValueError):
            result.input_density(1e3)
        with pytest.raises(ValueError):
            result.integrated_input_noise()
        # Output-referred quantities remain well-defined.
        assert result.integrated_output_noise() > 0.0

    def test_contribution_fractions_sum_to_one(self):
        circuit = Circuit("divider")
        circuit.add(VoltageSource("VIN", "in", "0", dc=0.0, ac=1.0))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Resistor("R2", "out", "0", 3e3))
        op = dc_operating_point(circuit)
        result = noise_analysis(circuit, op, self.FREQS, output="out")
        fractions = result.contribution_fractions()
        assert set(fractions) == {"R1", "R2"}
        assert sum(fractions.values()) == pytest.approx(1.0, rel=1e-12)

    def test_integration_band_needs_two_points(self):
        circuit = _rc_circuit()
        op = dc_operating_point(circuit)
        result = noise_analysis(circuit, op, self.FREQS, output="out")
        with pytest.raises(ValueError):
            result.integrated_output_noise(1e20, 1e21)


class TestNoiseBench:
    FREQS = np.logspace(0, 9, 91)

    def _bench(self):
        def build(design):
            return _rc_circuit(resistance=design["r"])
        return Testbench(
            name="rc_noise",
            builders=build,
            analyses=[OPSpec("op"),
                      NoiseSpec("noise", frequencies=self.FREQS,
                                output="out", op="op")],
            measures=[output_noise_nv_rthz(1e3, "noise"),
                      input_noise_nv_rthz(1e3, "noise"),
                      integrated_noise_uvrms("noise")])

    def test_simulator_runs_noise_spec(self):
        result = Simulator().run(self._bench(), {"r": 1e3})
        assert result.ok
        assert result.metrics["en_out"] > 0.0
        assert result.metrics["vnoise"] > 0.0
        # kT/C bound: the integrated output noise of an RC is sqrt(kT/C).
        expected_uv = np.sqrt(K_BOLTZMANN * 300.15 / 1e-9) * 1e6
        assert result.metrics["vnoise"] == pytest.approx(expected_uv, rel=0.01)

    def test_batch_matches_serial_bit_identically(self):
        bench = self._bench()
        designs = [{"r": 1e3}, {"r": 47e3}, {"r": 220.0}]
        serial = [Simulator().run(bench, d) for d in designs]
        batched = BatchSimulator().run([(bench, d) for d in designs])
        for s, b in zip(serial, batched):
            assert b.ok and s.metrics == b.metrics

    def test_batch_rejects_mismatched_noise_grids(self):
        def build(design):
            return _rc_circuit(resistance=design["r"])
        def bench_with(freqs):
            return Testbench(
                name="rc_noise", builders=build,
                analyses=[OPSpec("op"),
                          NoiseSpec("noise", frequencies=freqs,
                                    output="out", op="op")],
                measures=[output_noise_nv_rthz(1e3, "noise")])
        jobs = [(bench_with(self.FREQS), {"r": 1e3}),
                (bench_with(self.FREQS[::2]), {"r": 1e3})]
        with pytest.raises(ValueError):
            BatchSimulator().run(jobs)
