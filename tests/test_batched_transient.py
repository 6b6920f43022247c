"""Bit-equivalence suite for batched transient analysis.

``transient_analysis_batch`` exists purely for throughput: every design in
a batch must reproduce its serial ``transient_analysis`` run **bit for
bit** -- accepted timepoints, waveforms, accept/reject counters, Newton
iteration totals, and even the exception type and message when a design
fails.  This suite enforces that over every registry circuit (good and
random, often non-convergent designs) and a linear RC ladder, at batch
sizes 1 / 8 / 64, with mixed per-design temperatures, and through the
:class:`~repro.bench.BatchSimulator` TranSpec integration.
"""

import warnings

import numpy as np
import pytest

from repro.bench import BatchSimulator, Simulator
from repro.circuits import make_problem
from repro.errors import ConvergenceError
from repro.spice import (
    Capacitor,
    Circuit,
    Resistor,
    StepWaveform,
    VoltageSource,
    dc_operating_point,
    transient_analysis,
    transient_analysis_batch,
    transient_operating_point,
    transient_operating_point_batch,
)

GOOD_DESIGNS = {
    "two_stage_opamp": dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6,
                            l_load=0.5e-6, w_out=60e-6, l_out=0.3e-6,
                            c_comp=2e-12, r_zero=2e3, i_bias1=20e-6,
                            i_bias2=100e-6),
    "two_stage_opamp_settling": dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6,
                                     l_load=0.5e-6, w_out=60e-6, l_out=0.3e-6,
                                     c_comp=2e-12, r_zero=2e3, i_bias1=20e-6,
                                     i_bias2=100e-6),
    "three_stage_opamp": dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6,
                              l_load=0.5e-6, w_mid=30e-6, l_mid=0.35e-6,
                              w_out=80e-6, l_out=0.25e-6, c_m1=2e-12,
                              c_m2=0.5e-12, i_bias1=10e-6, i_bias23=80e-6),
    "bandgap": dict(r_ptat=100e3, r_out=600e3, w_mirror=10e-6, l_mirror=1e-6,
                    w_amp_in=5e-6, l_amp_in=0.5e-6, i_amp=1e-6,
                    area_ratio=8.0),
    # Circuits whose MOSFETs are not adjacent in the netlist.
    "ldo": dict(w_pass=100e-6, l_pass=0.5e-6, gm_ea=3e-3, r_ea=3e5,
                c_ea=5e-12, r_fb=2e4),
    "comparator": dict(w_in=10e-6, l_in=0.18e-6, w_latch_n=4e-6,
                       w_latch_p=8e-6, w_tail=10e-6),
    "ring_vco": dict(w_n=5e-6, w_p=10e-6, l_gate=0.18e-6, c_stage=1e-12),
}

ALL_CIRCUITS = sorted(GOOD_DESIGNS)

#: Short analysis window: a few hundred controller steps per design keeps
#: the full-registry sweeps fast while still exercising BE/trap switching,
#: LTE rejections and breakpoint landings.
T_STOP = 2e-7

#: The ring oscillates from its start-up kick on, so its step count grows
#: with the window: T_STOP costs ~18 s per design serially, 10 ns (several
#: rail-to-rail periods) about half a second.
RING_T_STOP = 1e-8


def _designs(problem, name, n_random, seed=11):
    """The good design plus ``n_random`` space samples (some non-convergent)."""
    rng = np.random.default_rng(seed)
    rows = problem.design_space.sample(n_random, rng=rng)
    return [GOOD_DESIGNS[name]] + [problem.design_space.as_dict(row)
                                   for row in rows]


def _serial_outcomes(builder, designs, t_stop=T_STOP, **kwargs):
    """Serial reference: one fresh build and run per design."""
    outcomes = []
    for design in designs:
        try:
            outcomes.append(transient_analysis(builder(design), t_stop,
                                               **kwargs))
        except Exception as exc:  # noqa: BLE001 -- compared against batch
            outcomes.append(exc)
    return outcomes


def assert_tran_identical(serial, batched):
    if isinstance(serial, Exception) or isinstance(batched, Exception):
        assert type(serial) is type(batched)
        assert str(serial) == str(batched)
        return
    assert np.array_equal(serial.times, batched.times)
    assert serial.node_voltages.keys() == batched.node_voltages.keys()
    for node in serial.node_voltages:
        assert np.array_equal(serial.node_voltages[node],
                              batched.node_voltages[node])
    assert serial.n_accepted == batched.n_accepted
    assert serial.n_rejected == batched.n_rejected
    assert serial.n_newton_iterations == batched.n_newton_iterations


# ===================================================================== #
# batched transient vs serial transient                                 #
# ===================================================================== #
class TestBatchedTransient:
    @pytest.mark.parametrize("name", ALL_CIRCUITS)
    def test_registry_circuits_bit_identical(self, name):
        problem = make_problem(name)
        designs = _designs(problem, name, n_random=7)  # B = 8
        t_stop = RING_T_STOP if name == "ring_vco" else T_STOP
        for key, builder in problem.bench.builders.items():
            serial = _serial_outcomes(builder, designs, t_stop)
            # Fresh builds: a separate batch over its own circuits proves
            # independence from serial-solve side effects and build order.
            batched = transient_analysis_batch(
                [builder(design) for design in designs], t_stop,
                return_errors=True)
            assert len(serial) == len(batched)
            for outcome_serial, outcome_batched in zip(serial, batched):
                assert_tran_identical(outcome_serial, outcome_batched)

    def test_batch_of_one_matches_serial(self):
        problem = make_problem("two_stage_opamp_settling")
        builder = problem.bench.builders["main"]
        design = GOOD_DESIGNS["two_stage_opamp_settling"]
        [serial] = _serial_outcomes(builder, [design])
        [batched] = transient_analysis_batch([builder(design)], T_STOP)
        assert_tran_identical(serial, batched)

    def test_batch_of_64_bit_identical(self):
        problem = make_problem("two_stage_opamp_settling")
        builder = problem.bench.builders["main"]
        designs = _designs(problem, "two_stage_opamp_settling", n_random=63,
                           seed=3)
        t_stop = 5e-8
        serial = _serial_outcomes(builder, designs, t_stop=t_stop)
        batched = transient_analysis_batch(
            [builder(design) for design in designs], t_stop,
            return_errors=True)
        for outcome_serial, outcome_batched in zip(serial, batched):
            assert_tran_identical(outcome_serial, outcome_batched)

    def test_mixed_per_design_temperatures(self):
        problem = make_problem("two_stage_opamp_settling")
        builder = problem.bench.builders["main"]
        design = GOOD_DESIGNS["two_stage_opamp_settling"]
        temperatures = np.array([-40.0, 27.0, 85.0, 125.0])
        serial = []
        for temp in temperatures:
            serial.append(transient_analysis(builder(design), T_STOP,
                                             temperature=float(temp)))
        batched = transient_analysis_batch(
            [builder(design) for _ in temperatures], T_STOP,
            temperature=temperatures)
        for outcome_serial, outcome_batched in zip(serial, batched):
            assert_tran_identical(outcome_serial, outcome_batched)
        # Distinct temperatures must actually produce distinct waveforms.
        assert not np.array_equal(batched[0].voltage("out"),
                                  batched[3].voltage("out"))

    def test_first_error_raises_without_return_errors(self):
        problem = make_problem("three_stage_opamp")
        builder = problem.bench.builders["main"]
        designs = _designs(problem, "three_stage_opamp", n_random=3, seed=3)
        serial = _serial_outcomes(builder, designs)
        failing = [outcome for outcome in serial
                   if isinstance(outcome, Exception)]
        assert failing, "expected at least one non-convergent random design"
        with pytest.raises(ConvergenceError) as excinfo:
            transient_analysis_batch(
                [builder(design) for design in designs], T_STOP)
        first = next(o for o in serial if isinstance(o, Exception))
        assert str(excinfo.value) == str(first)

    def test_temperature_disagreeing_with_ops_raises(self):
        problem = make_problem("two_stage_opamp_settling")
        builder = problem.bench.builders["main"]
        design = GOOD_DESIGNS["two_stage_opamp_settling"]
        circuits = [builder(design) for _ in range(2)]
        ops = transient_operating_point_batch(circuits, temperature=85.0)
        # The message names both temperatures, on both drivers.
        with pytest.raises(ValueError, match=r"temperature=27C .* 85C"):
            transient_analysis_batch(circuits, T_STOP, temperature=27.0,
                                     operating_points=ops)
        with pytest.raises(ValueError, match=r"temperature=27C .* 85C"):
            transient_analysis(builder(design), T_STOP, temperature=27.0,
                               operating_point=ops[0])
        # A matching (or omitted) temperature is accepted silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = transient_analysis_batch(circuits, T_STOP,
                                               temperature=85.0,
                                               operating_points=ops)
            serial = transient_analysis(builder(design), T_STOP,
                                        operating_point=ops[0])
        assert_tran_identical(serial, batched[0])

    def test_operating_point_batch_matches_serial_and_restores_dc(self):
        problem = make_problem("two_stage_opamp_settling")
        builder = problem.bench.builders["main"]
        design = GOOD_DESIGNS["two_stage_opamp_settling"]
        circuits = [builder(design) for _ in range(3)]
        dc_before = [[device.dc for device in circuit.devices
                      if hasattr(device, "dc")] for circuit in circuits]
        batched = transient_operating_point_batch(circuits)
        dc_after = [[device.dc for device in circuit.devices
                     if hasattr(device, "dc")] for circuit in circuits]
        assert dc_before == dc_after
        serial = transient_operating_point(builder(design))
        for op in batched:
            assert op.converged == serial.converged
            assert op.iterations == serial.iterations
            assert np.array_equal(op.voltages, serial.voltages)

    def test_empty_batch(self):
        assert transient_analysis_batch([], 1e-6) == []

    def test_invalid_t_stop_rejected(self):
        problem = make_problem("two_stage_opamp_settling")
        builder = problem.bench.builders["main"]
        design = GOOD_DESIGNS["two_stage_opamp_settling"]
        with pytest.raises(ValueError):
            transient_analysis_batch([builder(design)], 0.0)


# ===================================================================== #
# batch composition                                                     #
# ===================================================================== #
#: Controller settings under which the ring's eight designs end three ways:
#: four reach RING_T_STOP, one underflows dt_min on LTE rejections and
#: three exceed max_steps mid-run.
RING_LIMITS = dict(max_steps=380, dt_min=8e-13)


class TestBatchComposition:
    """A design's transient does not depend on which designs share its batch.

    The oscillating ring's designs finish step attempts at different
    Newton passes, and designs that fail mid-run leave the batch while the
    others step on.
    """

    def test_outcome_independent_of_batch_composition(self):
        problem = make_problem("ring_vco")
        builder = problem.bench.builders["main"]
        designs = _designs(problem, "ring_vco", n_random=7)
        serial = _serial_outcomes(builder, designs, RING_T_STOP,
                                  **RING_LIMITS)
        messages = [str(outcome) for outcome in serial
                    if isinstance(outcome, ConvergenceError)]
        assert sum("exceeded 380 steps" in m for m in messages) >= 2
        assert any("underflowed" in m for m in messages)
        order = np.random.default_rng(5).permutation(len(designs)).tolist()
        survivors = [i for i in order
                     if not isinstance(serial[i], Exception)]
        assert len(survivors) >= 3
        for selection in (survivors, survivors[1:3], order):
            batched = transient_analysis_batch(
                [builder(designs[i]) for i in selection], RING_T_STOP,
                return_errors=True, **RING_LIMITS)
            for i, outcome in zip(selection, batched):
                assert_tran_identical(serial[i], outcome)
                if not isinstance(outcome, Exception):
                    assert outcome.stats.dt_min == serial[i].stats.dt_min
                    assert outcome.stats.dt_max == serial[i].stats.dt_max


# ===================================================================== #
# linear RC ladder                                                      #
# ===================================================================== #
def _ladder(n_sections, r_scale):
    """An RC ladder driven by a step -- linear, arbitrary-size, transient."""
    circuit = Circuit(f"ladder{n_sections}")
    circuit.add(VoltageSource("VIN", "n0", "0", dc=0.0,
                              waveform=StepWaveform(0.0, 1.0, delay=1e-8,
                                                    rise_time=1e-9)))
    for i in range(n_sections):
        circuit.add(Resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1e3 * r_scale))
        circuit.add(Capacitor(f"C{i}", f"n{i + 1}", "0", 1e-12))
    return circuit


class TestLadderTransient:
    def test_ladder_bit_identical(self):
        scales = [0.5, 1.0, 2.0, 4.0]
        t_stop = 1e-7
        serial = [transient_analysis(_ladder(12, scale), t_stop)
                  for scale in scales]
        batched = transient_analysis_batch(
            [_ladder(12, scale) for scale in scales], t_stop)
        for outcome_serial, outcome_batched in zip(serial, batched):
            assert_tran_identical(outcome_serial, outcome_batched)


# ===================================================================== #
# BatchSimulator TranSpec routing                                       #
# ===================================================================== #
class TestBatchSimulatorTransient:
    def _problem(self, **kwargs):
        return make_problem("two_stage_opamp_settling", t_stop=4e-7, **kwargs)

    def test_simresults_bit_identical_to_serial(self):
        problem = self._problem()
        designs = _designs(problem, "two_stage_opamp_settling", n_random=5,
                           seed=3)
        serial = [Simulator().run(problem.bench, design)
                  for design in designs]
        batched = BatchSimulator().run(
            [(problem.bench, design) for design in designs])
        assert any(not result.ok for result in serial)  # failures exercised
        for result_serial, result_batched in zip(serial, batched):
            assert type(result_serial) is type(result_batched)
            assert result_serial.ok == result_batched.ok
            assert result_serial.failure == result_batched.failure
            assert result_serial.metrics == result_batched.metrics
            assert result_serial.stats == result_batched.stats
            tran_serial = result_serial.analyses.get("tran")
            tran_batched = result_batched.analyses.get("tran")
            if tran_serial is not None:
                assert_tran_identical(tran_serial, tran_batched)

    def test_mismatched_tran_specs_rejected(self):
        fast = self._problem()
        slow = make_problem("two_stage_opamp_settling", t_stop=8e-7)
        design = GOOD_DESIGNS["two_stage_opamp_settling"]
        with pytest.raises(ValueError, match="transient"):
            BatchSimulator().run([(fast.bench, design), (slow.bench, design)])


# ===================================================================== #
# enriched initial-condition failure messages                           #
# ===================================================================== #
class TestEnrichedInitialConditionMessages:
    """The failed-initial-condition message carries the DC solver state.

    Both transient paths embed ``SolveStats.failure_detail`` from the
    operating point's stats, so a pre-solved non-converged initial
    condition must produce character-identical serial and batched
    messages.
    """

    #: A budget no opamp converges under (see test_batched.py).
    HARD = dict(max_iterations=2, gmin_steps=(1e-12,), rescue=False)

    @staticmethod
    def _circuit():
        problem = make_problem("two_stage_opamp")
        return problem.bench.builders["main"](
            GOOD_DESIGNS["two_stage_opamp"])

    def test_serial_message_carries_solver_state(self):
        circuit = self._circuit()
        op = dc_operating_point(circuit, **self.HARD)
        assert not op.converged
        with pytest.raises(ConvergenceError) as excinfo:
            transient_analysis(circuit, T_STOP, operating_point=op)
        message = str(excinfo.value)
        assert "initial condition" in message
        for token in ("Newton iterations", "residual=", "gmin="):
            assert token in message
        assert message.endswith(op.stats.failure_detail())

    def test_batched_message_identical_to_serial(self):
        op = dc_operating_point(self._circuit(), **self.HARD)
        with pytest.raises(ConvergenceError) as excinfo:
            transient_analysis(self._circuit(), T_STOP, operating_point=op)
        batched = transient_analysis_batch([self._circuit()], T_STOP,
                                           operating_points=[op],
                                           return_errors=True)
        assert type(batched[0]) is ConvergenceError
        assert str(batched[0]) == str(excinfo.value)
