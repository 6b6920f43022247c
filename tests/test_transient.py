"""Unit tests for the transient subsystem: waveforms, solver, measurements,
and the settling-time scenario flowing through the evaluation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import TwoStageOpAmpSettling
from repro.engine import EvaluationEngine
from repro.errors import NetlistError
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    PulseWaveform,
    PWLWaveform,
    Resistor,
    SineWaveform,
    StepWaveform,
    TransientResult,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
    transient_analysis,
    transient_operating_point,
)
from repro.spice.ac import _ac_analysis_per_frequency

EXPERT_DESIGN = {
    "w_diff": 24e-6, "l_diff": 0.6e-6,
    "w_load": 12e-6, "l_load": 0.6e-6,
    "w_out": 80e-6, "l_out": 0.35e-6,
    "c_comp": 2.2e-12, "r_zero": 1.8e3,
    "i_bias1": 30e-6, "i_bias2": 220e-6,
}


def rc_circuit(waveform) -> Circuit:
    circuit = Circuit("rc")
    circuit.add(VoltageSource("VIN", "in", "0", dc=0.0, waveform=waveform))
    circuit.add(Resistor("R1", "in", "out", 1e3))
    circuit.add(Capacitor("C1", "out", "0", 1e-9))
    return circuit


class TestWaveforms:
    def test_step_levels_and_ramp(self):
        step = StepWaveform(initial=0.2, final=1.0, delay=1e-6, rise_time=1e-7)
        assert step.value_at(0.0) == 0.2
        assert step.value_at(1e-6) == 0.2
        assert step.value_at(1.05e-6) == pytest.approx(0.6)
        assert step.value_at(2e-6) == 1.0
        assert step.breakpoints(1e-5) == (1e-6, 1.1e-6)

    def test_step_breakpoints_clipped_to_window(self):
        step = StepWaveform(delay=2e-6)
        assert step.breakpoints(1e-6) == ()

    def test_pulse_single(self):
        pulse = PulseWaveform(initial=0.0, pulsed=1.0, delay=1e-6,
                              rise=1e-7, fall=1e-7, width=2e-6)
        assert pulse.value_at(0.5e-6) == 0.0
        assert pulse.value_at(1.05e-6) == pytest.approx(0.5)
        assert pulse.value_at(2e-6) == 1.0
        assert pulse.value_at(3.15e-6) == pytest.approx(0.5)
        assert pulse.value_at(5e-6) == 0.0

    def test_pulse_periodic(self):
        pulse = PulseWaveform(initial=0.0, pulsed=1.0, delay=0.0,
                              rise=0.0, fall=0.0, width=1e-6, period=2e-6)
        assert pulse.value_at(0.5e-6) == 1.0
        assert pulse.value_at(1.5e-6) == 0.0
        assert pulse.value_at(2.5e-6) == 1.0
        breaks = pulse.breakpoints(4e-6)
        assert all(0.0 < b < 4e-6 for b in breaks)
        assert any(abs(b - 2e-6) < 1e-12 for b in breaks)

    def test_pwl_interpolation_and_breakpoints(self):
        pwl = PWLWaveform([(0.0, 0.0), (1e-6, 1.0), (2e-6, 0.5)])
        assert pwl.value_at(0.5e-6) == pytest.approx(0.5)
        assert pwl.value_at(1.5e-6) == pytest.approx(0.75)
        assert pwl.value_at(5e-6) == 0.5  # holds the last value
        assert pwl.breakpoints(3e-6) == (1e-6, 2e-6)

    def test_pwl_requires_points(self):
        with pytest.raises(ValueError):
            PWLWaveform([])

    def test_sine_delay_and_phase(self):
        sine = SineWaveform(offset=0.5, amplitude=0.1, frequency=1e6,
                            delay=1e-6)
        assert sine.value_at(0.0) == pytest.approx(0.5)
        assert sine.value_at(1e-6 + 0.25e-6) == pytest.approx(0.6)

    def test_sources_fall_back_to_dc_without_waveform(self):
        source = VoltageSource("V1", "a", "0", dc=1.5)
        assert source.value_at(123.0) == 1.5
        sink = CurrentSource("I1", "a", "0", dc=2e-6)
        assert sink.value_at(0.5) == 2e-6


class TestTransientSolver:
    def test_grid_spans_window_exactly(self):
        result = transient_analysis(rc_circuit(StepWaveform(0.0, 1.0)), 1e-6)
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(1e-6, rel=1e-12)
        assert np.all(np.diff(result.times) > 0)

    def test_breakpoints_are_hit_exactly(self):
        delay = 0.35e-6
        result = transient_analysis(
            rc_circuit(StepWaveform(0.0, 1.0, delay=delay)), 1e-6)
        assert np.min(np.abs(result.times - delay)) < 1e-18

    def test_breakpoint_within_tolerance_of_t_stop_merges(self):
        # Regression: a waveform edge within the controller's time
        # tolerance (1e-12 * t_stop) of the end of the window used to be
        # kept as its own breakpoint; landing on it ended the sweep one
        # sliver step short of t_stop.  It must merge into t_stop instead.
        t_stop = 1e-6
        delay, rise, fall = 0.2e-6, 1e-8, 1e-8
        width = (t_stop - 5e-19) - delay - rise - fall
        pulse = PulseWaveform(initial=0.0, pulsed=1.0, delay=delay,
                              rise=rise, fall=fall, width=width)
        edges = pulse.breakpoints(t_stop)
        assert any(0.0 < t_stop - edge <= 1e-12 * t_stop for edge in edges)
        result = transient_analysis(rc_circuit(pulse), t_stop)
        assert result.times[-1] == t_stop
        assert np.all(np.diff(result.times) > 0)

    def test_breakpoint_exactly_at_t_stop(self):
        # An edge landing exactly on t_stop is not a separate breakpoint --
        # the final time appears once and the grid stays strictly
        # increasing.
        t_stop = 1e-6
        pwl = PWLWaveform([(0.0, 0.0), (0.5e-6, 1.0), (t_stop, 0.5)])
        result = transient_analysis(rc_circuit(pwl), t_stop)
        assert result.times[-1] == t_stop
        assert np.all(np.diff(result.times) > 0)
        assert np.min(np.abs(result.times - 0.5e-6)) < 1e-18

    def test_breakpoints_denser_than_dt_initial(self):
        # A pulse train whose edges are closer together than the startup
        # timestep: the controller must land on every edge exactly rather
        # than stepping over any.
        t_stop = 1e-6
        pulse = PulseWaveform(initial=0.0, pulsed=1.0, delay=0.0,
                              rise=1e-9, fall=1e-9, width=4e-8,
                              period=1e-7)
        circuit = rc_circuit(pulse)
        result = transient_analysis(circuit, t_stop, dt_initial=2e-7)
        edges = [edge for edge in pulse.breakpoints(t_stop)
                 if 0.0 < edge < t_stop]
        assert max(np.diff(sorted(edges))) < 2e-7  # denser than dt_initial
        for edge in edges:
            assert np.min(np.abs(result.times - edge)) < 1e-18
        assert result.times[-1] == t_stop

    def test_initial_condition_uses_waveform_start(self):
        # Step *down* from 1 V: the t=0 sample must sit at the waveform's
        # initial level, not at the source's dc attribute (0 V here).
        result = transient_analysis(
            rc_circuit(StepWaveform(1.0, 0.0, delay=1e-7)), 8e-6,
            observe=["out"])
        assert result.voltage("out")[0] == pytest.approx(1.0, abs=1e-6)
        assert result.final_value("out") == pytest.approx(0.0, abs=1e-3)

    def test_transient_operating_point_restores_dc(self):
        circuit = rc_circuit(StepWaveform(0.7, 1.0))
        source = circuit.device("VIN")
        op = transient_operating_point(circuit)
        assert source.dc == 0.0  # restored
        assert op.voltage("out") == pytest.approx(0.7, abs=1e-6)

    def test_runs_are_deterministic(self):
        first = transient_analysis(rc_circuit(StepWaveform(0.0, 1.0)), 2e-6)
        second = transient_analysis(rc_circuit(StepWaveform(0.0, 1.0)), 2e-6)
        np.testing.assert_array_equal(first.times, second.times)
        np.testing.assert_array_equal(first.voltage("out"),
                                      second.voltage("out"))

    def test_current_source_waveform_drives_rc(self):
        circuit = Circuit("ir")
        circuit.add(CurrentSource("IIN", "0", "out", dc=0.0,
                                  waveform=StepWaveform(0.0, 1e-3)))
        circuit.add(Resistor("R1", "out", "0", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        result = transient_analysis(circuit, 10e-6, observe=["out"])
        assert result.final_value("out") == pytest.approx(1.0, rel=1e-3)

    def test_sine_steady_state_matches_ac(self):
        # Drive the RC well above its corner and compare the steady-state
        # amplitude with the AC transfer function at that frequency.
        frequency = 1.0 / (2 * np.pi * 1e-6)  # exactly the corner: |H|=1/sqrt(2)
        circuit = rc_circuit(SineWaveform(offset=0.0, amplitude=1.0,
                                          frequency=frequency))
        t_stop = 26e-6  # ~4 periods; the start-up transient decays with tau=1us
        result = transient_analysis(circuit, t_stop, observe=["out"],
                                    reltol=1e-5)
        tail = result.times > t_stop - 1.0 / frequency
        amplitude = 0.5 * (result.voltage("out")[tail].max()
                           - result.voltage("out")[tail].min())
        assert amplitude == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-2)

    def test_observe_ground_returns_zeros(self):
        result = transient_analysis(rc_circuit(StepWaveform(0.0, 1.0)), 1e-6,
                                    observe=["0", "out"])
        assert np.all(result.voltage("0") == 0.0)

    def test_unknown_observe_node_raises(self):
        with pytest.raises(NetlistError):
            transient_analysis(rc_circuit(StepWaveform(0.0, 1.0)), 1e-6,
                               observe=["nope"])

    def test_invalid_t_stop_rejected(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(StepWaveform(0.0, 1.0)), 0.0)

    def test_inductor_dc_is_short_and_ac_is_affine(self):
        circuit = Circuit("li")
        circuit.add(VoltageSource("VIN", "in", "0", dc=1.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Inductor("L1", "mid", "0", 1e-3))
        op = dc_operating_point(circuit)
        assert op.voltage("mid") == pytest.approx(0.0, abs=1e-9)
        inductor = circuit.device("L1")
        assert inductor.branch_current(op.voltages) == pytest.approx(1e-3)
        # AC: |V_mid| = |jwL| / |R + jwL| -- cross-check one frequency on
        # both solver paths.
        circuit.device("VIN").ac = 1.0
        frequency = np.array([1e6])
        for ac in (ac_analysis(circuit, op, frequency),
                   _ac_analysis_per_frequency(circuit, op, frequency,
                                              circuit.nodes)):
            omega_l = 2 * np.pi * 1e6 * 1e-3
            expected = omega_l / np.hypot(1e3, omega_l)
            assert abs(ac.response("mid")[0]) == pytest.approx(expected, rel=1e-9)


class TestMeasurements:
    @staticmethod
    def first_order_result(tau: float = 1e-6, t_stop: float = 8e-6,
                           n: int = 2001) -> TransientResult:
        times = np.linspace(0.0, t_stop, n)
        return TransientResult(times=times,
                               node_voltages={"out": 1.0 - np.exp(-times / tau)})

    def test_settling_time_first_order(self):
        result = self.first_order_result()
        # 1% settling of a first-order step is ln(100) * tau.
        assert result.settling_time("out", tolerance=0.01) == pytest.approx(
            np.log(100.0) * 1e-6, rel=1e-2)

    def test_settling_time_never_settles_is_inf(self):
        times = np.linspace(0.0, 1.0, 101)
        ramp = TransientResult(times=times, node_voltages={"out": times.copy()})
        # Relative to a final value of 2.0 the ramp is still outside the band.
        assert ramp.settling_time("out", tolerance=0.01, final=2.0) == np.inf

    def test_slew_rate_first_order(self):
        result = self.first_order_result()
        # 10-90 slew of a first-order step: 0.8 / (tau * ln 9).
        assert result.slew_rate("out") == pytest.approx(
            0.8 / (np.log(9.0) * 1e-6), rel=1e-2)

    def test_slew_rate_dead_output_is_zero(self):
        flat = TransientResult(times=np.linspace(0, 1, 11),
                               node_voltages={"out": np.full(11, 0.3)})
        assert flat.slew_rate("out") == 0.0

    def test_zero_swing_measurements_are_zero(self):
        # A dead output (no swing at all) must hit the zero-swing branch of
        # every step-response measurement: no slew, settled from t=0, no
        # overshoot -- and never a divide-by-zero.
        flat = TransientResult(times=np.linspace(0, 1, 11),
                               node_voltages={"out": np.full(11, 0.3)})
        assert flat.slew_rate("out") == 0.0
        assert flat.settling_time("out") == 0.0
        assert flat.overshoot_percent("out") == 0.0
        # Noise around an unchanged final value still has zero swing.
        noisy = TransientResult(
            times=np.linspace(0, 1, 11),
            node_voltages={"out": 0.3 + 1e-16 * np.arange(11.0)})
        assert noisy.slew_rate("out") == 0.0
        assert noisy.overshoot_percent("out") == 0.0

    def test_overshoot_of_damped_ringing(self):
        times = np.linspace(0.0, 10.0, 4001)
        ring = 1.0 - np.exp(-0.5 * times) * np.cos(np.pi * times)
        result = TransientResult(times=times, node_voltages={"out": ring})
        # First peak: damping shifts it slightly before t=1.
        t_peak = 1.0 - np.arctan(0.5 / np.pi) / np.pi
        expected = -np.exp(-0.5 * t_peak) * np.cos(np.pi * t_peak) * 100.0
        assert result.overshoot_percent("out", final=1.0) == pytest.approx(
            expected, rel=1e-3)

    def test_overshoot_monotone_response_is_zero(self):
        result = self.first_order_result()
        assert result.overshoot_percent("out") == pytest.approx(0.0, abs=1e-6)

    def test_falling_step_measurements(self):
        times = np.linspace(0.0, 8e-6, 2001)
        falling = np.exp(-times / 1e-6)
        result = TransientResult(times=times, node_voltages={"out": falling})
        assert result.slew_rate("out") == pytest.approx(
            0.8 / (np.log(9.0) * 1e-6), rel=1e-2)
        assert result.settling_time("out", tolerance=0.01) == pytest.approx(
            np.log(100.0) * 1e-6, rel=1e-2)

    def test_value_interpolation(self):
        result = TransientResult(times=np.array([0.0, 1.0, 2.0]),
                                 node_voltages={"out": np.array([0.0, 2.0, 2.0])})
        assert result.value_at("out", 0.5) == pytest.approx(1.0)
        assert result.final_value("out") == 2.0


class TestSettlingScenario:
    """Acceptance: the settling scenario runs end-to-end through the engine."""

    def test_expert_design_metrics(self):
        problem = TwoStageOpAmpSettling("180nm")
        metrics = problem.simulate(EXPERT_DESIGN)
        assert set(problem.metric_names) <= set(metrics)
        assert 0.0 < metrics["t_settle"] < 1.0       # settles in well under 1 us
        assert metrics["slew"] > problem.constraints[0].threshold
        assert metrics["overshoot"] < problem.constraints[1].threshold
        assert metrics["i_total"] == pytest.approx(250.0, rel=0.05)

    def test_engine_roundtrip_with_cache_hits(self):
        problem = TwoStageOpAmpSettling("180nm")
        engine = EvaluationEngine(problem)
        x = np.array([[EXPERT_DESIGN[name] for name in problem.design_space.names]])
        first = engine.evaluate_batch(x)
        second = engine.evaluate_batch(x)
        assert engine.cache.stats.hits == 1
        assert engine.n_evaluated == 1  # the repeat never re-simulated
        np.testing.assert_array_equal(
            [first[0].metrics[m] for m in problem.metric_names],
            [second[0].metrics[m] for m in problem.metric_names])
        assert first[0].feasible

    def test_cache_token_folds_transient_config(self):
        base = TwoStageOpAmpSettling("180nm")
        assert base.cache_token != TwoStageOpAmpSettling(
            "180nm", t_stop=2e-6).cache_token
        assert base.cache_token != TwoStageOpAmpSettling(
            "180nm", transient_reltol=1e-5).cache_token
        assert base.cache_token != TwoStageOpAmpSettling(
            "180nm", step_amplitude=0.4).cache_token
        # Constraint levels decide feasibility of the cached records, so they
        # are part of the identity too.
        assert base.cache_token != TwoStageOpAmpSettling(
            "180nm", min_slew=5.0).cache_token
        assert base.cache_token != TwoStageOpAmpSettling(
            "180nm", max_overshoot=5.0).cache_token
        assert base.cache_token == TwoStageOpAmpSettling("180nm").cache_token

    def test_failed_metrics_cover_all_metric_names(self):
        problem = TwoStageOpAmpSettling("180nm")
        failed = problem.failed_metrics()
        for name in problem.metric_names:
            assert name in failed
        assert failed["t_settle"] >= 1e6
        evaluation = problem.failed_evaluation(np.zeros(problem.design_space.dim))
        assert not evaluation.feasible
