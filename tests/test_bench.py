"""Tests for the declarative testbench layer and PVT corner sweeps.

The centrepiece is the equivalence suite: every registered circuit's
Testbench-produced metrics must be **bit-identical** to the legacy
imperative ``simulate()`` path at the nominal corner, for good designs and
for random (often failing) ones alike.  On top of that: operating-point
reuse accounting, per-analysis temperature, testbench validation, corner
technology derivation, worst-case aggregation and corner-sweep determinism
across execution backends.
"""

import numpy as np
import pytest

from repro.bench import (
    ACSpec,
    Check,
    CornerSpec,
    Measure,
    OPSpec,
    Simulator,
    TempSweepSpec,
    Testbench,
    apply_corner,
    gain_db,
    nominal_corner,
    standard_corners,
    supply_current_ua,
    worst_case_metrics,
)
from repro.bo.problem import Constraint
from repro.circuits import CornerSizingProblem, available_problems, make_problem
from repro.circuits.bandgap import BandgapReference
from repro.circuits.three_stage_opamp import ThreeStageOpAmp
from repro.circuits.two_stage_opamp import TwoStageOpAmp, TwoStageOpAmpSettling
from repro.engine import EvaluationEngine
from repro.errors import ConvergenceError
from repro.pdk import get_technology
from repro.spice import (
    ac_analysis,
    dc_operating_point,
    transient_analysis,
    transient_operating_point,
)
from repro.spice.sweep import temperature_coefficient_ppm, temperature_sweep

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
}

#: Circuits with a legacy imperative reference path (all the paper's benches).
LEGACY_CIRCUITS = sorted(GOOD_DESIGNS)

#: AC-only circuits are cheap enough for random-design equivalence sampling.
FAST_CIRCUITS = ["two_stage_opamp", "three_stage_opamp", "bandgap"]


# ===================================================================== #
# frozen legacy references: the pre-testbench imperative simulate paths #
# ===================================================================== #
def _legacy_two_stage(problem, design):
    circuit = problem.build_circuit(design)
    op = dc_operating_point(circuit)
    if not op.converged:
        return problem.failed_metrics()
    # Total supply current measured at the VDD source branch.
    i_total = abs(circuit.device("VDD").branch_current(op.voltages))
    ac = ac_analysis(circuit, op, problem.ac_frequencies, observe=["out"])
    gain_db = ac.dc_gain_db("out")
    gbw_hz = ac.unity_gain_frequency("out")
    pm_deg = ac.phase_margin_degrees("out")
    if not np.isfinite(gain_db):
        return problem.failed_metrics()
    return {
        "i_total": i_total * 1e6,
        "gain": float(gain_db),
        "pm": float(pm_deg),
        "gbw": float(gbw_hz / 1e6),
    }


def _legacy_two_stage_settling(problem, design):
    circuit = problem.build_follower_circuit(design, problem.step_waveform())
    op = transient_operating_point(circuit)
    if not op.converged:
        return problem.failed_metrics()
    i_total = abs(circuit.device("VDD").branch_current(op.voltages))
    try:
        result = transient_analysis(
            circuit, problem.t_stop, observe=["out"], operating_point=op,
            reltol=problem.transient_reltol, abstol=problem.transient_abstol)
    except ConvergenceError:
        return problem.failed_metrics()
    t_edge = problem.step_delay
    initial = result.value_at("out", t_edge)
    final = result.final_value("out")
    if abs(final - initial) < 0.5 * problem.step_amplitude:
        return problem.failed_metrics()
    settle = result.settling_time("out", tolerance=problem.settle_tolerance,
                                  t_start=t_edge)
    if not np.isfinite(settle):
        settle = problem.t_stop - t_edge
    return {
        "t_settle": float(settle * 1e6),
        "slew": float(result.slew_rate("out", t_start=t_edge) * 1e-6),
        "overshoot": float(result.overshoot_percent("out", t_start=t_edge)),
        "i_total": float(i_total * 1e6),
    }


def _legacy_three_stage(problem, design):
    # DC bias point in unity-gain feedback.
    dc_circuit = problem.build_circuit(design, feedback=True)
    op = dc_operating_point(dc_circuit)
    if not op.converged:
        return problem.failed_metrics()
    # Open-loop AC analysis around that bias point (device names match).
    ac_circuit = problem.build_circuit(design, feedback=False)
    # Total supply current from the VDD source branch of the bias solution.
    i_total = abs(dc_circuit.device("VDD").branch_current(op.voltages))
    ac = ac_analysis(ac_circuit, op, problem.ac_frequencies, observe=["out"])
    gain_db = ac.dc_gain_db("out")
    gbw_hz = ac.unity_gain_frequency("out")
    pm_deg = ac.phase_margin_degrees("out")
    if not np.isfinite(gain_db):
        return problem.failed_metrics()
    return {
        "i_total": i_total * 1e6,
        "gain": float(gain_db),
        "pm": float(pm_deg),
        "gbw": float(gbw_hz / 1e6),
    }


def _legacy_bandgap(problem, design):
    circuit = problem.build_circuit(design)
    # Temperature sweep for the reference voltage and its coefficient.
    temperatures = problem._sweep_grid()
    try:
        _, vref_curve, points = temperature_sweep(circuit, temperatures, "vref")
    except (np.linalg.LinAlgError, KeyError, ValueError):
        return problem.failed_metrics()
    if not all(p.converged for p in points) or not np.all(np.isfinite(vref_curve)):
        return problem.failed_metrics()
    room = points[len(points) // 2]
    if abs(room.voltage("vref")) < 0.05:
        return problem.failed_metrics()
    tc = temperature_coefficient_ppm(temperatures, vref_curve)

    i_branches = sum(abs(room.device_info[name].get("ids", 0.0))
                     for name in ("MPA", "MPB", "MPC"))
    i_total = (i_branches + design["i_amp"]) * 1e6

    # PSRR at 100 Hz: AC gain from the supply to the reference node.
    psrr_circuit = problem.build_circuit(design, supply_ac=1.0)
    op = dc_operating_point(psrr_circuit)
    if not op.converged:
        return problem.failed_metrics()
    ac = ac_analysis(psrr_circuit, op,
                     frequencies=np.array([10.0, 100.0, 1000.0]), observe=["vref"])
    supply_gain_db = ac.gain_at("vref", 100.0)
    psrr_db = -supply_gain_db
    return {
        "tc": float(tc),
        "i_total": float(i_total),
        "psrr": float(psrr_db),
        "vref": float(room.voltage("vref")),
    }


#: Problem class -> its frozen pre-testbench simulate path.
LEGACY_PATHS = {
    TwoStageOpAmp: _legacy_two_stage,
    TwoStageOpAmpSettling: _legacy_two_stage_settling,
    ThreeStageOpAmp: _legacy_three_stage,
    BandgapReference: _legacy_bandgap,
}


def legacy_simulate(problem, design):
    """The metrics the legacy imperative testbench produced for ``design``."""
    return LEGACY_PATHS[type(problem)](problem, design)


# ===================================================================== #
# equivalence: Testbench vs legacy imperative path                      #
# ===================================================================== #
class TestLegacyEquivalence:
    @pytest.mark.parametrize("name", LEGACY_CIRCUITS)
    def test_good_design_bit_identical(self, name):
        problem = make_problem(name)
        new = problem.simulate(GOOD_DESIGNS[name])
        old = legacy_simulate(problem, GOOD_DESIGNS[name])
        assert set(new) == set(old)
        for key in old:
            assert new[key] == old[key], (name, key)

    @pytest.mark.parametrize("name", FAST_CIRCUITS)
    def test_random_designs_bit_identical(self, name):
        # Random samples exercise failure paths (dead amplifiers, collapsed
        # references) as well as healthy ones; the two paths must agree on
        # every one of them, failed designs included.
        problem = make_problem(name)
        rng = np.random.default_rng(7)
        samples = problem.design_space.sample(6, rng)
        for row in samples:
            design = problem.design_space.as_dict(row)
            new = problem.simulate(design)
            old = legacy_simulate(problem, design)
            assert set(new) == set(old)
            for key in old:
                assert new[key] == old[key], (name, key)

    @pytest.mark.parametrize("name", FAST_CIRCUITS)
    def test_40nm_good_design_bit_identical(self, name):
        problem = make_problem(name, "40nm")
        new = problem.simulate(GOOD_DESIGNS[name])
        old = legacy_simulate(problem, GOOD_DESIGNS[name])
        for key in old:
            assert new[key] == old[key], (name, key)


# ===================================================================== #
# operating-point reuse                                                 #
# ===================================================================== #
class TestOperatingPointReuse:
    def test_two_stage_shares_one_bias(self):
        problem = make_problem("two_stage_opamp")
        sim = Simulator()
        result = sim.run(problem.bench, GOOD_DESIGNS["two_stage_opamp"])
        assert result.ok
        assert result.stats["n_op_solves"] == 1
        assert result.stats["n_op_reused"] == 1
        assert result.stats["n_circuits_built"] == 1

    def test_solver_call_count_drops_for_multi_analysis_bench(self, monkeypatch):
        # A bench with several analyses around one bias must hit the Newton
        # solver once; count actual dc_operating_point calls to be sure the
        # accounting is not fictional.
        import repro.bench.simulator as simulator_module
        calls = {"n": 0}
        real = dc_operating_point

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "dc_operating_point", counting)
        problem = make_problem("two_stage_opamp")
        frequencies = problem.ac_frequencies
        bench = Testbench(
            name="multi_ac",
            builders={"main": problem.build_circuit},
            analyses=[
                OPSpec("op"),
                ACSpec("ac1", frequencies=frequencies, observe=("out",), op="op"),
                ACSpec("ac2", frequencies=frequencies[:11], observe=("out",),
                       op="op"),
                ACSpec("ac3", frequencies=frequencies[:5], observe=("out",)),
            ],
            measures=[gain_db("ac1", "out", name="gain")],
        )
        result = Simulator().run(bench, GOOD_DESIGNS["two_stage_opamp"])
        assert result.ok
        assert calls["n"] == 1          # four analyses, one Newton solve
        assert result.stats["n_op_reused"] == 3

    def test_bandgap_builds_one_circuit(self):
        # The legacy path built a second PSRR netlist and re-solved it; the
        # bench shares one netlist across the sweep, the bias and the AC.
        problem = make_problem("bandgap")
        result = Simulator().run(problem.bench, GOOD_DESIGNS["bandgap"])
        assert result.ok
        assert result.stats["n_circuits_built"] == 1


# ===================================================================== #
# temperature plumbing                                                  #
# ===================================================================== #
class TestTemperature:
    def test_bench_default_temperature_reaches_operating_point(self):
        problem = make_problem("two_stage_opamp")
        result = Simulator().run(problem.bench, GOOD_DESIGNS["two_stage_opamp"])
        assert result["op"].temperature == 27.0

    def test_per_analysis_temperature_override(self):
        problem = make_problem("two_stage_opamp")
        bench = Testbench(
            name="hot_op",
            builders={"main": problem.build_circuit},
            analyses=[OPSpec("op", temperature=85.0)],
            measures=[supply_current_ua(analysis="op", source="VDD",
                                        circuit="main", name="i_total")],
        )
        result = Simulator().run(bench, GOOD_DESIGNS["two_stage_opamp"])
        assert result.ok
        assert result["op"].temperature == 85.0

    def test_hot_problem_changes_metrics(self):
        nominal = make_problem("two_stage_opamp")
        hot = make_problem("two_stage_opamp")
        hot.sim_temperature = 125.0
        design = GOOD_DESIGNS["two_stage_opamp"]
        cold_metrics = nominal.simulate(design)
        hot_metrics = hot.simulate(design)
        assert hot_metrics["gain"] != cold_metrics["gain"]
        # Distinct analysis temperatures must never share cache entries.
        assert nominal.cache_token != hot.cache_token

    def test_mutated_config_is_picked_up_after_first_simulate(self):
        # The bench is rebuilt per simulation, so configuration mutated
        # *after* a simulation must take effect (and track cache_token).
        problem = make_problem("two_stage_opamp")
        design = GOOD_DESIGNS["two_stage_opamp"]
        cold = problem.simulate(design)
        token_cold = problem.cache_token
        problem.sim_temperature = 125.0
        hot = problem.simulate(design)
        assert hot["gain"] != cold["gain"]
        assert problem.cache_token != token_cold

    def test_conflicting_pinned_temperature_rejected(self):
        # An analysis that pins a temperature while referencing a bias
        # solved at another one would silently run at the bias temperature;
        # the bench must refuse the contradiction at construction.
        problem = make_problem("two_stage_opamp")
        with pytest.raises(ValueError, match="pins temperature"):
            Testbench(
                name="conflict",
                builders={"main": problem.build_circuit},
                analyses=[
                    OPSpec("op"),
                    ACSpec("ac", frequencies=np.array([1.0, 10.0]),
                           observe=("out",), op="op", temperature=125.0),
                ],
                measures=[])

    def test_transient_temperature_conflict_is_deprecated(self):
        from repro.spice import (
            Capacitor,
            Circuit,
            Resistor,
            StepWaveform,
            VoltageSource,
            transient_analysis,
            transient_operating_point,
        )
        circuit = Circuit("rc")
        circuit.add(VoltageSource("V1", "in", "0", dc=0.0,
                                  waveform=StepWaveform(0.0, 1.0)))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        op = transient_operating_point(circuit, temperature=85.0)
        with pytest.raises(ValueError, match=r"temperature=27C .* 85C"):
            transient_analysis(circuit, 1e-6, observe=["out"],
                               operating_point=op, temperature=27.0)
        # Matching (or omitted) temperatures stay silent.
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transient_analysis(circuit, 1e-6, observe=["out"],
                               operating_point=op, temperature=85.0)
            transient_analysis(circuit, 1e-6, observe=["out"],
                               operating_point=op)


# ===================================================================== #
# testbench validation and failure handling                             #
# ===================================================================== #
class TestTestbenchValidation:
    def _builder(self, design):  # pragma: no cover - never simulated
        raise AssertionError("validation must fail before building")

    def test_duplicate_analysis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate analysis"):
            Testbench("t", self._builder,
                      analyses=[OPSpec("op"), OPSpec("op")], measures=[])

    def test_unknown_circuit_key_rejected(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            Testbench("t", self._builder,
                      analyses=[OPSpec("op", circuit="nope")], measures=[])

    def test_forward_op_reference_rejected(self):
        with pytest.raises(ValueError, match="not an earlier OP analysis"):
            Testbench("t", self._builder,
                      analyses=[ACSpec("ac", frequencies=np.array([1.0]),
                                       observe=("out",), op="op"),
                                OPSpec("op")],
                      measures=[])

    def test_duplicate_measure_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate measure"):
            Testbench("t", self._builder, analyses=[OPSpec("op")],
                      measures=[Measure("m", lambda ctx: 0.0),
                                Measure("m", lambda ctx: 1.0)])

    def test_failed_check_reports_reason(self):
        problem = make_problem("two_stage_opamp")
        bench = Testbench(
            name="always_dead",
            builders={"main": problem.build_circuit},
            analyses=[OPSpec("op")],
            checks=[Check("never alive", lambda ctx: False)],
            measures=[])
        result = Simulator().run(bench, GOOD_DESIGNS["two_stage_opamp"])
        assert not result.ok
        assert "never alive" in result.failure

    def test_non_finite_gated_measure_fails(self):
        problem = make_problem("two_stage_opamp")
        bench = Testbench(
            name="nan_gate",
            builders={"main": problem.build_circuit},
            analyses=[OPSpec("op")],
            measures=[Measure("bad", lambda ctx: float("nan"),
                              require_finite=True)])
        result = Simulator().run(bench, GOOD_DESIGNS["two_stage_opamp"])
        assert not result.ok
        assert "bad" in result.failure


# ===================================================================== #
# PVT corners                                                           #
# ===================================================================== #
class TestCornerSpecs:
    def test_process_letters_validated(self):
        with pytest.raises(ValueError, match="process"):
            CornerSpec("broken", process="sx")
        with pytest.raises(ValueError, match="vdd_scale"):
            CornerSpec("broken", vdd_scale=0.0)

    def test_standard_corners_nominal_first_unique(self):
        corners = standard_corners()
        nominal = corners[0]
        assert (nominal.process, nominal.temperature, nominal.vdd_scale) == ("tt", 27.0, 1.0)
        names = [corner.name for corner in corners]
        assert len(set(names)) == len(names) == 5

    def test_apply_corner_scales_models(self):
        tech = get_technology("180nm")
        slow = apply_corner(tech, CornerSpec("s", "ss", 125.0, 0.9))
        assert slow.nmos.kp == pytest.approx(tech.nmos.kp * 0.85)
        assert slow.nmos.vth0 == pytest.approx(tech.nmos.vth0 + 0.03)
        assert slow.vdd == pytest.approx(tech.vdd * 0.9)
        assert slow.name == tech.name          # design spaces keyed on name
        assert slow.fingerprint != tech.fingerprint
        fast = apply_corner(tech, CornerSpec("f", "ff", -40.0, 1.1))
        assert fast.nmos.kp > tech.nmos.kp > slow.nmos.kp

    def test_nominal_corner_card_is_bitwise_nominal(self):
        tech = get_technology("180nm")
        derived = apply_corner(tech, nominal_corner())
        assert derived.nmos.kp == tech.nmos.kp
        assert derived.vdd == tech.vdd
        assert derived.fingerprint == tech.fingerprint

    def test_worst_case_aggregation(self):
        constraints = [Constraint("gain", 60.0, "ge"),
                       Constraint("noise", 1.0, "le")]
        per_corner = [
            {"i": 10.0, "gain": 70.0, "noise": 0.5, "extra": 3.0},
            {"i": 12.0, "gain": 61.0, "noise": 0.9, "extra": 9.0},
            {"i": 11.0, "gain": 75.0, "noise": 0.2, "extra": 1.0},
        ]
        worst = worst_case_metrics(per_corner, "i", True, constraints)
        assert worst["i"] == 12.0              # minimised objective: max
        assert worst["gain"] == 61.0           # ge constraint: min
        assert worst["noise"] == 0.9           # le constraint: max
        assert worst["extra"] == 3.0           # unconstrained: nominal corner
        assert worst["i_nominal"] == 10.0


class TestCornerProblems:
    def test_registered(self):
        assert {"two_stage_opamp_corners", "three_stage_opamp_corners",
                "bandgap_corners"} <= set(available_problems())

    def test_nominal_child_matches_base_problem(self):
        corners = make_problem("two_stage_opamp_corners")
        base = make_problem("two_stage_opamp")
        design = GOOD_DESIGNS["two_stage_opamp"]
        child_metrics = corners.children[0].simulate(design)
        base_metrics = base.simulate(design)
        for key in base_metrics:
            assert child_metrics[key] == base_metrics[key]

    def test_worst_case_never_beats_nominal(self):
        corners = make_problem("two_stage_opamp_corners")
        design = GOOD_DESIGNS["two_stage_opamp"]
        worst = corners.simulate(design)
        nominal = corners.children[0].simulate(design)
        assert worst["gain"] <= nominal["gain"]
        assert worst["pm"] <= nominal["pm"]
        assert worst["gbw"] <= nominal["gbw"]
        assert worst["i_total"] >= nominal["i_total"]
        assert worst["i_total_nominal"] == nominal["i_total"]

    def test_children_cache_tokens_distinct(self):
        corners = make_problem("two_stage_opamp_corners")
        tokens = [child.cache_token for child in corners.children]
        assert len(set(tokens)) == len(tokens)
        base = make_problem("two_stage_opamp")
        assert corners.cache_token != base.cache_token

    def test_corner_set_changes_cache_token(self):
        default = make_problem("two_stage_opamp_corners")
        reduced = make_problem(
            "two_stage_opamp_corners",
            corners=[{"name": "nominal"},
                     {"name": "hot", "process": "ss", "temperature": 125.0,
                      "vdd_scale": 0.9}])
        assert default.cache_token != reduced.cache_token
        assert len(reduced.corners) == 2
        assert reduced.corners[1].process == "ss"  # dict coercion worked

    def test_custom_base_kwargs_forwarded(self):
        corners = make_problem("two_stage_opamp_corners",
                               load_capacitance=5e-12)
        assert all(child.load_capacitance == 5e-12
                   for child in corners.children)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_corner_sweep_deterministic_across_backends(self, backend):
        reference = make_problem("two_stage_opamp_corners")
        parallel = make_problem("two_stage_opamp_corners", backend=backend,
                                max_workers=2)
        design = GOOD_DESIGNS["two_stage_opamp"]
        expected = reference.simulate(design)
        for _ in range(2):                     # repeat: ordering must hold
            metrics = parallel.simulate(design)
            assert set(metrics) == set(expected)
            for key in expected:
                assert metrics[key] == expected[key], (backend, key)
        parallel.close()

    def test_corner_problem_through_engine_batch(self):
        problem = make_problem("two_stage_opamp_corners")
        engine = EvaluationEngine(problem, backend="serial")
        problem.attach_engine(engine)
        design = GOOD_DESIGNS["two_stage_opamp"]
        x = problem.design_space.from_dict(design).reshape(1, -1)
        batch = problem.evaluate_batch(np.vstack([x, x]))
        assert len(batch) == 2
        assert batch[0].metrics == batch[1].metrics
        assert engine.cache.stats.as_dict()["hits"] >= 1  # dedup within batch

    def test_dead_design_full_metrics_and_infeasible(self):
        problem = make_problem("two_stage_opamp_corners")
        # Minimum widths, lengths and currents: a dead amplifier at every
        # corner -- it must still yield a complete, infeasible record.
        lows = problem.design_space.bounds[:, 0]
        record = problem.evaluate(lows)
        assert set(problem.metric_names) <= set(record.metrics)
        assert not record.feasible


class TestCornerStudySpec:
    def test_problem_options_roundtrip_and_build(self):
        from repro.study import StudySpec
        spec = StudySpec(
            optimizer="rs", circuit="two_stage_opamp_corners",
            n_simulations=2, n_init=2,
            problem_options={"corners": [
                {"name": "nominal"},
                {"name": "hot", "process": "ss", "temperature": 125.0,
                 "vdd_scale": 0.9}]})
        rebuilt = StudySpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        problem = rebuilt.build_problem()
        assert len(problem.corners) == 2
        assert problem.name == "two_stage_opamp_corners_180nm"

    def test_quick_corner_study_runs_and_closes_pools(self, monkeypatch):
        from repro.study import Study, StudySpec
        closed = {"n": 0}
        from repro.bench import CornerSweep
        real_close = CornerSweep.close

        def counting_close(self):
            closed["n"] += 1
            real_close(self)

        monkeypatch.setattr(CornerSweep, "close", counting_close)
        spec = StudySpec(
            optimizer="rs", circuit="two_stage_opamp_corners",
            n_simulations=3, n_init=3, seed=0,
            problem_options={"corners": [
                {"name": "nominal"},
                {"name": "hot", "process": "ss", "temperature": 125.0,
                 "vdd_scale": 0.9}]})
        result = Study(spec).run()
        assert result.n_simulations >= 3
        assert "gain" in result.history.evaluations[0].metrics
        assert "i_total_nominal" in result.history.evaluations[0].metrics
        # Study.run must release the corner fan-out pool with the engine.
        assert closed["n"] >= 1


class TestCornerSweepLifecycle:
    def test_context_manager_closes_pool(self):
        from repro.bench import CornerSweep, nominal_corner
        with CornerSweep([nominal_corner()], backend="process") as sweep:
            sweep.backend.map(abs, [1, -2])
            assert sweep._backend is not None
        assert sweep._backend is None

    def test_leaked_pool_fails_loudly(self):
        # Regression: before the BackendOwner lifecycle, a CornerSweep whose
        # owner skipped close() leaked its pool silently; now the leak warns
        # (and `python -W error::ResourceWarning` turns it into a failure).
        from repro.bench import CornerSweep, nominal_corner
        sweep = CornerSweep([nominal_corner()], backend="process")
        sweep.backend.map(abs, [1, -2])
        with pytest.warns(ResourceWarning, match="live 'process' worker pool"):
            sweep.__del__()
        sweep.close()

    def test_closed_and_serial_sweeps_do_not_warn(self):
        import warnings as warnings_module
        from repro.bench import CornerSweep, nominal_corner
        closed = CornerSweep([nominal_corner()], backend="process")
        closed.backend.map(abs, [1])
        closed.close()
        serial = CornerSweep([nominal_corner()])
        serial.backend.map(abs, [1])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            closed.__del__()
            serial.__del__()

    def test_pickled_sweep_rebuilds_lazily(self):
        import pickle
        from repro.bench import CornerSweep, nominal_corner
        sweep = CornerSweep([nominal_corner()], backend="process")
        sweep.backend.map(abs, [1, -2])
        clone = pickle.loads(pickle.dumps(sweep))
        assert clone._backend is None
        assert clone.backend.map(abs, [-3]) == [3]
        clone.close()
        sweep.close()
