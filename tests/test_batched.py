"""Bit-equivalence suite for the batched-tensor simulation core.

The batched solvers exist purely for throughput: a result produced through
``dc_operating_point_batch`` / ``ac_analysis_batch`` / ``BatchSimulator`` /
the ``batched`` execution backend must be **bit-identical** to its serial
counterpart -- converged flags, iteration counts, raw voltage vectors,
metric dictionaries and session counters alike.  This suite enforces that
over every registry circuit on both technology nodes, for good and random
(often failing, rescue-ladder-exercising) designs, plus a 200+-unknown
resistor ladder, and through each batched integration point: the evaluation
engine, the Monte Carlo runner and the PVT corner sweep.
"""

import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.bench import (
    ACSpec,
    BatchSimulator,
    Check,
    Measure,
    MeasurementError,
    NoiseSpec,
    OPSpec,
    Simulator,
    SimResult,
    Testbench,
    TranSpec,
    gain_db,
)
from repro.circuits import make_problem
from repro.engine import (
    BatchedBackend,
    EvaluationEngine,
    SimulationFailure,
    available_backends,
    resolve_backend,
)
from repro.errors import ConvergenceError, NetlistError
from repro.mc import MonteCarloConfig, MonteCarloRunner
from repro.mc.samplers import make_sampler
from repro.pdk import get_technology
from repro.spice import (
    BatchStamper,
    Capacitor,
    Circuit,
    Mosfet,
    Resistor,
    Stamper,
    StepWaveform,
    VoltageSource,
    ac_analysis,
    ac_analysis_batch,
    dc_operating_point,
    dc_operating_point_batch,
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

#: The ring oscillates from its start-up kick on, so its transient cost
#: grows with the window: the default 250 ns bench takes ~20 s per run,
#: a 10 ns one (several rail-to-rail periods) under a second.
PROBLEM_OPTIONS = {"ring_vco": dict(t_stop=1e-8)}

#: AC-only benches, cheap enough for the wider random-design sweeps.
FAST_CIRCUITS = ["two_stage_opamp", "three_stage_opamp", "bandgap"]


def _designs(problem, name, n_random, seed=11):
    """The good design plus ``n_random`` space samples (some non-convergent)."""
    rng = np.random.default_rng(seed)
    rows = problem.design_space.sample(n_random, rng=rng)
    return [GOOD_DESIGNS[name]] + [problem.design_space.as_dict(row)
                                   for row in rows]


def _builder_batches(problem, designs):
    """Per-builder circuit batches (a batch must share one topology)."""
    return {key: [builder(design) for design in designs]
            for key, builder in problem.bench.builders.items()}


def assert_ops_identical(serial, batched):
    assert serial.converged == batched.converged
    assert serial.iterations == batched.iterations
    assert np.array_equal(serial.voltages, batched.voltages,
                          equal_nan=True)
    assert serial.node_voltages == batched.node_voltages
    assert serial.device_info == batched.device_info
    assert serial.temperature == batched.temperature


# ===================================================================== #
# batched DC vs serial DC                                               #
# ===================================================================== #
class TestBatchedDC:
    @pytest.mark.parametrize("name", ALL_CIRCUITS)
    @pytest.mark.parametrize("technology", ["180nm", "40nm"])
    def test_registry_circuits_bit_identical(self, name, technology):
        problem = make_problem(name, technology=technology,
                               **PROBLEM_OPTIONS.get(name, {}))
        designs = _designs(problem, name, n_random=4)
        for key, circuits in _builder_batches(problem, designs).items():
            serial = [dc_operating_point(c) for c in circuits]
            # Fresh builds: a separate batch over its own circuits proves
            # independence from serial-solve side effects and build order.
            batched = dc_operating_point_batch(
                [problem.bench.builders[key](design) for design in designs])
            assert len(serial) == len(batched)
            for op_serial, op_batched in zip(serial, batched):
                assert_ops_identical(op_serial, op_batched)

    def test_per_design_temperatures(self):
        problem = make_problem("two_stage_opamp")
        design = GOOD_DESIGNS["two_stage_opamp"]
        builder = problem.bench.builders["main"]
        temperatures = np.array([-40.0, 27.0, 125.0])
        serial = [dc_operating_point(builder(design), temperature=t)
                  for t in temperatures]
        batched = dc_operating_point_batch(
            [builder(design) for _ in temperatures], temperature=temperatures)
        for op_serial, op_batched in zip(serial, batched):
            assert_ops_identical(op_serial, op_batched)

    def test_topology_mismatch_rejected(self):
        problem = make_problem("two_stage_opamp")
        other = make_problem("bandgap")
        c1 = problem.bench.builders["main"](GOOD_DESIGNS["two_stage_opamp"])
        c2 = other.bench.builders["main"](GOOD_DESIGNS["bandgap"])
        from repro.errors import NetlistError
        with pytest.raises(NetlistError):
            dc_operating_point_batch([c1, c2])

    def test_large_ladder_bit_identical_and_exact(self):
        # A 210-resistor series ladder (211 unknowns) -- far past every
        # registry circuit -- on the dense path: batched must match serial
        # bit for bit, and every node must sit on its analytic divider
        # voltage V * (remaining resistors) / (total resistors), up to the
        # ~3 uV the final 1e-12 S gmin to ground leaks along the ladder.
        def ladder(n_resistors, volts):
            circuit = Circuit("ladder")
            circuit.add(VoltageSource("V1", "n0", "0", dc=volts))
            for i in range(n_resistors - 1):
                circuit.add(Resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1e3))
            circuit.add(Resistor("RL", f"n{n_resistors - 1}", "0", 1e3))
            return circuit

        n, supplies = 210, (1.0, 2.5)
        serial = [dc_operating_point(ladder(n, v)) for v in supplies]
        batched = dc_operating_point_batch([ladder(n, v) for v in supplies])
        for volts, op_serial, op_batched in zip(supplies, serial, batched):
            assert_ops_identical(op_serial, op_batched)
            assert op_batched.converged
            for i in range(n):
                assert op_batched.voltage(f"n{i}") == pytest.approx(
                    volts * (n - i) / n, abs=1e-5)


# ===================================================================== #
# batched AC vs serial AC                                               #
# ===================================================================== #
class TestBatchedAC:
    @pytest.mark.parametrize("name", FAST_CIRCUITS)
    @pytest.mark.parametrize("technology", ["180nm", "40nm"])
    def test_registry_circuits_bit_identical(self, name, technology):
        problem = make_problem(name, technology=technology)
        designs = _designs(problem, name, n_random=4)
        spec = next(s for s in problem.bench.analyses
                    if type(s).__name__ == "ACSpec")
        builder = problem.bench.builders[spec.circuit]
        circuits, ops = [], []
        for design in designs:
            circuit = builder(design)
            op = dc_operating_point(circuit)
            if op.converged:
                circuits.append(circuit)
                ops.append(op)
        assert circuits, "no converged design to run AC on"
        frequencies = problem.ac_frequencies
        serial = [ac_analysis(c, op, frequencies, observe=list(spec.observe))
                  for c, op in zip(circuits, ops)]
        batched = ac_analysis_batch(circuits, ops, frequencies,
                                    observe=list(spec.observe))
        for res_serial, res_batched in zip(serial, batched):
            assert np.array_equal(res_serial.frequencies,
                                  res_batched.frequencies)
            assert (set(res_serial.node_voltages)
                    == set(res_batched.node_voltages))
            for node in res_serial.node_voltages:
                assert np.array_equal(res_serial.node_voltages[node],
                                      res_batched.node_voltages[node]), (
                    name, node)


# ===================================================================== #
# BatchSimulator vs Simulator                                           #
# ===================================================================== #
def _raise_if_exploding(design, exc):
    if design.get("explode", 0.0) > 0.0:
        raise exc


def _non_converging_two_stage(problem):
    """A sampled two-stage design whose DC bias does not converge."""
    rows = problem.design_space.sample(20, rng=np.random.default_rng(0))
    for row in rows:
        design = problem.design_space.as_dict(row)
        if not dc_operating_point(problem.build_circuit(design)).converged:
            return design
    raise AssertionError("no non-converging design in the sample")


def _failure_case(mode):
    """``(bench, designs)``: the good design, then one that hits ``mode``."""
    problem = make_problem("two_stage_opamp")
    good = GOOD_DESIGNS["two_stage_opamp"]
    builder = problem.build_circuit
    analyses = [OPSpec("op"), ACSpec("ac", frequencies=problem.ac_frequencies,
                                     observe=("out",), op="op")]
    checks = []
    measures = [gain_db("ac", "out", name="gain")]
    designs = [good, {**good, "explode": 1.0}]
    if mode == "builder_raises":
        def builder(design):
            _raise_if_exploding(design, RuntimeError("builder exploded"))
            return problem.build_circuit(design)
    elif mode == "check_raises":
        checks = [Check("ratio is finite",
                        lambda ctx: 1.0 / (1.0 - ctx.design.get("explode", 0.0)))]
    elif mode == "measure_raises":
        def boom(ctx):
            _raise_if_exploding(ctx.design, RuntimeError("measure exploded"))
            return 1.0
        measures.append(Measure("boom", boom))
    elif mode == "measure_fails":
        def unmeasurable(ctx):
            _raise_if_exploding(ctx.design, MeasurementError("no crossing"))
            return 1.0
        measures.append(Measure("crossing", unmeasurable))
    elif mode == "noise_fails":
        analyses.append(NoiseSpec("noise", frequencies=np.logspace(1, 6, 6),
                                  output="0", op="op"))
    elif mode == "noise_raises":
        analyses.append(NoiseSpec("noise", frequencies=np.logspace(1, 6, 6),
                                  output="nowhere", op="op"))
    elif mode == "op_not_converged":
        designs = [good, _non_converging_two_stage(problem)]
    elif mode == "ac_bias_not_converged":
        analyses = [ACSpec("ac", frequencies=problem.ac_frequencies,
                           observe=("out",))]
        designs = [good, _non_converging_two_stage(problem)]
    bench = Testbench(name=f"failure_{mode}", builders={"main": builder},
                      analyses=analyses, checks=checks, measures=measures)
    return bench, designs


#: (failure mode, how the second job ends: raised or failed SimResult).
FAILURE_MODES = [
    ("builder_raises", "raises"),
    ("check_raises", "raises"),
    ("measure_raises", "raises"),
    ("measure_fails", "fails"),
    ("noise_fails", "fails"),
    ("noise_raises", "raises"),
    ("op_not_converged", "fails"),
    ("ac_bias_not_converged", "fails"),
]


def _ladder(design):
    """An RC ladder whose section count -- its topology -- is a design value."""
    n_sections = int(design["n"])
    circuit = Circuit(f"ladder{n_sections}")
    circuit.add(VoltageSource("VIN", "n0", "0", dc=0.0, ac=1.0,
                              waveform=StepWaveform(0.0, 1.0, delay=1e-8,
                                                    rise_time=1e-9)))
    for i in range(n_sections):
        node = "out" if i == n_sections - 1 else f"n{i + 1}"
        circuit.add(Resistor(f"R{i}", f"n{i}", node, 1e3))
        circuit.add(Capacitor(f"C{i}", node, "0", 1e-12))
    return circuit


def _common_source(design):
    """A resistor-loaded stage whose MOSFET polarity is a design value."""
    technology = get_technology("180nm")
    model = technology.pmos if design["pmos"] else technology.nmos
    circuit = Circuit("common_source")
    circuit.add(VoltageSource("VDD", "vdd", "0", dc=technology.vdd))
    circuit.add(VoltageSource("VIN", "in", "0", dc=0.9))
    circuit.add(Resistor("RL", "vdd", "out", 10e3))
    circuit.add(Mosfet("M1", "out", "in", "0", "0", model, 10e-6, 1e-6))
    return circuit


def _ladder_bench():
    frequencies = np.logspace(5, 9, 9)
    return Testbench(
        name="ladder",
        builders={"main": _ladder},
        analyses=[
            OPSpec("op"),
            ACSpec("ac", frequencies=frequencies, observe=("out",), op="op"),
            NoiseSpec("noise", frequencies=frequencies, output="out", op="op"),
            TranSpec("tran", t_stop=1e-7, observe=("out",)),
        ],
        measures=[
            Measure("ac_mag", lambda ctx: float(
                abs(ctx.result("ac").node_voltages["out"][4]))),
            Measure("noise", lambda ctx:
                    ctx.result("noise").integrated_output_noise()),
            Measure("v_end", lambda ctx: ctx.result("tran").final_value("out")),
        ])

class TestBatchSimulator:
    @pytest.mark.parametrize("name", ALL_CIRCUITS)
    def test_good_design_bit_identical(self, name):
        problem = make_problem(name, **PROBLEM_OPTIONS.get(name, {}))
        bench = problem.bench
        design = GOOD_DESIGNS[name]
        serial = Simulator().run(bench, design)
        batched = BatchSimulator().run([(problem.bench, design)])[0]
        assert serial.ok == batched.ok
        assert serial.failure == batched.failure
        assert serial.metrics == batched.metrics
        assert serial.stats == batched.stats

    @pytest.mark.parametrize("name", FAST_CIRCUITS)
    def test_random_designs_bit_identical(self, name):
        problem = make_problem(name)
        designs = _designs(problem, name, n_random=6, seed=23)
        serial = [Simulator().run(problem.bench, design)
                  for design in designs]
        batched = BatchSimulator().run([(problem.bench, design)
                                        for design in designs])
        for design, res_serial, res_batched in zip(designs, serial, batched):
            assert not isinstance(res_batched, SimulationFailure)
            assert res_serial.ok == res_batched.ok
            assert res_serial.failure == res_batched.failure
            assert res_serial.metrics == res_batched.metrics
            assert res_serial.stats == res_batched.stats

    def test_mixed_benches_rejected(self):
        two_stage = make_problem("two_stage_opamp")
        bandgap = make_problem("bandgap")
        with pytest.raises(ValueError):
            BatchSimulator().run([
                (two_stage.bench, GOOD_DESIGNS["two_stage_opamp"]),
                (bandgap.bench, GOOD_DESIGNS["bandgap"]),
            ])

    def test_backend_simulate_mixed_falls_back(self):
        # The batched backend absorbs the structural mismatch and produces
        # per-job results identical to serial simulate.
        two_stage = make_problem("two_stage_opamp")
        bandgap = make_problem("bandgap")
        jobs = [(two_stage, GOOD_DESIGNS["two_stage_opamp"]),
                (bandgap, GOOD_DESIGNS["bandgap"])]
        results = BatchedBackend().simulate(jobs)
        for (problem, design), result in zip(jobs, results):
            assert result == problem.simulate(design)

    @pytest.mark.parametrize("mode,ending", FAILURE_MODES)
    def test_failure_parity(self, mode, ending):
        # Serial raises (or fails) with the type and message the batched
        # session reports per job; a failing job leaves its neighbour alone.
        bench, designs = _failure_case(mode)
        batched = BatchSimulator().run([(bench, design) for design in designs])
        for design, outcome in zip(designs, batched):
            try:
                serial = Simulator().run(bench, design)
            except Exception as exc:  # noqa: BLE001 - compared below
                assert isinstance(outcome, SimulationFailure), (mode, outcome)
                assert outcome.kind == type(exc).__name__
                assert outcome.message == f"{type(exc).__name__}: {exc}"
                continue
            assert isinstance(outcome, SimResult), (mode, outcome)
            assert outcome.ok == serial.ok
            assert outcome.failure == serial.failure
            assert outcome.metrics == serial.metrics
            assert outcome.stats == serial.stats
        if mode.startswith("noise"):
            # The noise modes hit every job, the good design included.
            assert isinstance(batched[0], type(batched[1]))
        else:
            assert isinstance(batched[0], SimResult) and batched[0].ok
        if ending == "raises":
            assert isinstance(batched[1], SimulationFailure)
        else:
            assert isinstance(batched[1], SimResult) and not batched[1].ok

    def test_crash_counted_alike_in_telemetry(self):
        bench, designs = _failure_case("builder_raises")
        telemetry.reset()
        telemetry.enable()
        try:
            with pytest.raises(RuntimeError, match="builder exploded"):
                Simulator().run(bench, designs[1])
            serial = telemetry.snapshot()["counters"]
            telemetry.reset()
            outcome, = BatchSimulator().run([(bench, designs[1])])
            batched = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert isinstance(outcome, SimulationFailure)
        assert serial == batched
        assert serial["repro_bench_runs_total"] == 1
        assert serial["repro_bench_failures_total"] == 1

    def test_mixed_polarity_rejected_and_served_serially(self):
        # Sibling MOSFETs of another polarity are a topology mismatch: the
        # stacked solvers refuse the batch and BatchSimulator serves it
        # through its serial path.
        designs = [{"pmos": 0.0}, {"pmos": 1.0}]
        with pytest.raises(NetlistError, match="'M1'"):
            dc_operating_point_batch([_common_source(design)
                                      for design in designs])
        bench = Testbench(
            name="common_source",
            builders={"main": _common_source},
            analyses=[OPSpec("op")],
            measures=[Measure("v_out", lambda ctx:
                              ctx.result("op").node_voltages["out"])])
        serial = [Simulator().run(bench, design) for design in designs]
        batched = BatchSimulator().run([(bench, design) for design in designs])
        for res_serial, res_batched in zip(serial, batched):
            assert res_serial.ok and res_batched.ok
            assert res_serial.metrics == res_batched.metrics
            assert res_serial.stats == res_batched.stats
        assert serial[0].metrics != serial[1].metrics

    def test_design_dependent_topology_falls_back_bit_identical(self):
        bench = _ladder_bench()
        designs = [{"n": 3.0}, {"n": 5.0}, {"n": 8.0}]
        # The stacked solvers refuse the mix, so every solver call of the
        # batched session takes the serial fallback.
        with pytest.raises(NetlistError):
            dc_operating_point_batch([_ladder(design) for design in designs])
        serial = [Simulator().run(bench, design) for design in designs]
        batched = BatchSimulator().run([(bench, design) for design in designs])
        for res_serial, res_batched in zip(serial, batched):
            assert res_serial.ok and res_batched.ok
            assert res_serial.metrics == res_batched.metrics
            assert res_serial.stats == res_batched.stats
            for analysis in ("ac", "tran"):
                assert np.array_equal(res_serial[analysis].node_voltages["out"],
                                      res_batched[analysis].node_voltages["out"])


# ===================================================================== #
# Monte Carlo: 64-sample batch, per-sample operating points, runner     #
# ===================================================================== #
class TestMonteCarloBatched:
    def test_64_varied_samples_bit_identical_ops(self):
        problem = make_problem("two_stage_opamp")
        design = GOOD_DESIGNS["two_stage_opamp"]
        sampler = make_sampler("normal", problem.mismatch_device_names(),
                               seed=9, n_max=64)
        samples = sampler.take(0, 64)
        varied = [problem.with_variation(sample) for sample in samples]
        circuits = [p.bench.builders["dc"](design) for p in varied]
        serial = [dc_operating_point(c) for c in circuits]
        batched = dc_operating_point_batch(
            [p.bench.builders["dc"](design) for p in varied])
        assert len(batched) == 64
        for op_serial, op_batched in zip(serial, batched):
            assert_ops_identical(op_serial, op_batched)

    def test_runner_backend_bit_identical(self):
        design = GOOD_DESIGNS["two_stage_opamp"]
        config = MonteCarloConfig(n_max=24, n_min=8, batch_size=12, seed=3,
                                  ci_half_width=None)
        serial = MonteCarloRunner(config, backend="serial").run(
            make_problem("two_stage_opamp"), design)
        batched = MonteCarloRunner(config, backend="batched").run(
            make_problem("two_stage_opamp"), design)
        assert serial.estimate == batched.estimate
        assert serial.stopped_by == batched.stopped_by
        assert serial.n_failures == batched.n_failures
        assert serial.per_sample == batched.per_sample
        assert serial.fingerprints == batched.fingerprints


# ===================================================================== #
# engine + corner integration                                           #
# ===================================================================== #
class TestEngineBatched:
    def test_backend_registered(self, monkeypatch):
        assert "batched" in available_backends()
        backend = resolve_backend("batched")
        assert isinstance(backend, BatchedBackend)
        # Degraded map semantics stay serial-ordered.
        assert backend.map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]
        # Behaviour, not a flag: the batched backend stacks testbench jobs
        # into one BatchSimulator session, the serial one runs a Simulator
        # session per job, and both return the same metrics.
        calls = {"run": 0, "batch": 0}

        def counting(method, key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return method(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Simulator, "run", counting(Simulator.run, "run"))
        monkeypatch.setattr(BatchSimulator, "run",
                            counting(BatchSimulator.run, "batch"))
        problem = make_problem("two_stage_opamp")
        jobs = [(problem, GOOD_DESIGNS["two_stage_opamp"])] * 3
        stacked = backend.simulate(jobs)
        assert calls == {"run": 0, "batch": 1}
        serial = resolve_backend("serial").simulate(jobs)
        assert calls == {"run": 3, "batch": 1}
        assert stacked == serial

    def test_evaluate_batch_bit_identical(self):
        rng = np.random.default_rng(77)
        x = make_problem("two_stage_opamp").design_space.sample(6, rng=rng)
        records = {}
        for backend in ("serial", "batched"):
            problem = make_problem("two_stage_opamp")
            engine = EvaluationEngine(problem, backend=backend, cache=False)
            with warnings.catch_warnings():
                # Random rows may include designs whose simulation raises;
                # both paths must pessimise them identically (and quietly,
                # as far as this test is concerned).
                warnings.simplefilter("ignore", RuntimeWarning)
                records[backend] = engine.evaluate_batch(x)
        for rec_serial, rec_batched in zip(records["serial"],
                                           records["batched"]):
            assert np.array_equal(rec_serial.x, rec_batched.x)
            assert rec_serial.metrics == rec_batched.metrics
            assert rec_serial.objective == rec_batched.objective
            assert rec_serial.feasible == rec_batched.feasible
            assert rec_serial.violation == rec_batched.violation
            assert rec_serial.tag == rec_batched.tag

    def test_corner_sweep_bit_identical(self):
        design = GOOD_DESIGNS["two_stage_opamp"]
        with make_problem("two_stage_opamp_corners") as serial_problem:
            serial = serial_problem.simulate(design)
        with make_problem("two_stage_opamp_corners",
                          backend="batched") as batched_problem:
            batched = batched_problem.simulate(design)
        assert serial == batched


# ===================================================================== #
# stamper units and Newton-driver regressions                           #
# ===================================================================== #
class TestStamperUnits:
    def test_add_gmin_touches_only_node_diagonal(self):
        stamper = Stamper(n_nodes=3, n_branches=2)
        stamper.add_gmin(1e-3)
        expected = np.zeros((5, 5))
        expected[0, 0] = expected[1, 1] = expected[2, 2] = 1e-3
        assert np.array_equal(stamper.matrix, expected)

    def test_stamper_buffer_reuse(self):
        problem = make_problem("two_stage_opamp")
        circuit = problem.bench.builders["main"](
            GOOD_DESIGNS["two_stage_opamp"])
        stamper = circuit.make_stamper()
        voltages = np.zeros(circuit.n_nodes + circuit.n_branches)
        circuit.stamp_dc(voltages, 27.0, gmin=1e-3, stamper=stamper)
        first = stamper.matrix.copy(), stamper.rhs.copy()
        matrix_buffer, rhs_buffer = stamper.matrix, stamper.rhs
        # Restamping reuses the same buffers and reproduces the same values.
        circuit.stamp_dc(voltages, 27.0, gmin=1e-3, stamper=stamper)
        assert stamper.matrix is matrix_buffer
        assert stamper.rhs is rhs_buffer
        assert np.array_equal(stamper.matrix, first[0])
        assert np.array_equal(stamper.rhs, first[1])
        # A fresh one-shot stamp agrees with the reused-buffer stamp.
        one_shot = circuit.stamp_dc(voltages, 27.0, gmin=1e-3)
        assert np.array_equal(one_shot.matrix, first[0])
        assert np.array_equal(one_shot.rhs, first[1])

    def test_batch_stamper_accumulates_columns(self):
        stamper = BatchStamper(batch_size=3, n_nodes=2, n_branches=0)
        stamper.add_entry(0, 0, np.array([1.0, 2.0, 3.0]))
        stamper.add_entry(0, 0, 1.0)
        stamper.add_rhs(1, np.array([0.5, 0.25, 0.125]))
        assert np.array_equal(stamper.matrix[:, 0, 0],
                              np.array([2.0, 3.0, 4.0]))
        assert np.array_equal(stamper.rhs[:, 1],
                              np.array([0.5, 0.25, 0.125]))
        # Ground (negative) indices are ignored like in the serial stamper.
        stamper.add_entry(-1, 0, 9.0)
        stamper.add_rhs(-1, 9.0)
        assert np.array_equal(stamper.matrix[:, 0, 0],
                              np.array([2.0, 3.0, 4.0]))

    def test_stamper_lstsq_on_singular(self):
        stamper = Stamper(n_nodes=2, n_branches=0)
        stamper.add_entry(0, 0, 1.0)
        stamper.add_rhs(0, 2.0)
        # Row/column 1 is empty: singular, solve must raise, lstsq must not.
        with pytest.raises(np.linalg.LinAlgError):
            stamper.solve()
        solution = stamper.solve_lstsq()
        assert np.isfinite(solution).all()
        assert solution[0] == pytest.approx(2.0)

    def test_newton_survives_failing_lstsq_fallback(self, monkeypatch):
        # Regression for the rescue path: when the direct solve *and* the
        # least-squares fallback both raise (lstsq's SVD can fail to
        # converge on pathological systems), the driver must report a
        # non-converged operating point instead of crashing the analysis.
        problem = make_problem("two_stage_opamp")
        circuit = problem.bench.builders["main"](
            GOOD_DESIGNS["two_stage_opamp"])

        def raise_linalg(self, *index):
            raise np.linalg.LinAlgError("SVD did not converge")

        # The controller's solve chain: stacked solve, then per-design
        # direct solve, then per-design least squares.
        monkeypatch.setattr(BatchStamper, "solve", raise_linalg)
        monkeypatch.setattr(BatchStamper, "solve_design", raise_linalg)
        monkeypatch.setattr(BatchStamper, "solve_lstsq_design", raise_linalg)
        op = dc_operating_point(circuit, rescue=False)
        assert not op.converged

    def test_non_finite_lstsq_solution_bails(self, monkeypatch):
        # The other half of the regression: a lstsq "solution" full of
        # non-finite values must end the Newton loop as non-converged, not
        # propagate NaNs into later iterations.
        problem = make_problem("two_stage_opamp")
        circuit = problem.bench.builders["main"](
            GOOD_DESIGNS["two_stage_opamp"])
        size = circuit.n_nodes + circuit.n_branches

        def raise_linalg(self, *index):
            raise np.linalg.LinAlgError("singular")

        def nan_solution(self, index):
            return np.full(size, np.nan)

        monkeypatch.setattr(BatchStamper, "solve", raise_linalg)
        monkeypatch.setattr(BatchStamper, "solve_design", raise_linalg)
        monkeypatch.setattr(BatchStamper, "solve_lstsq_design", nan_solution)
        op = dc_operating_point(circuit, rescue=False)
        assert not op.converged
        assert np.isfinite(op.voltages).all()


# ===================================================================== #
# enriched failure messages                                             #
# ===================================================================== #
class TestEnrichedFailureMessages:
    """ConvergenceError messages carry the final solver state.

    The enriched fragment (Newton iteration count, final residual norm,
    final gmin level) is rendered by ``SolveStats.failure_detail`` from
    values both solver paths compute through identical arithmetic, so the
    serial and batched messages must agree character for character.
    """

    #: A budget no opamp converges under: two Newton iterations on the
    #: tightest gmin rung, with the rescue ladder disabled.
    HARD = dict(max_iterations=2, gmin_steps=(1e-12,), rescue=False)

    @staticmethod
    def _circuit():
        problem = make_problem("two_stage_opamp")
        return problem.bench.builders["main"](
            GOOD_DESIGNS["two_stage_opamp"])

    def test_serial_message_carries_solver_state(self):
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(self._circuit(), raise_on_failure=True,
                               **self.HARD)
        message = str(excinfo.value)
        assert "did not converge" in message
        for token in ("Newton iterations", "residual=", "gmin="):
            assert token in message
        # The fragment is exactly the stats' own rendering.
        op = dc_operating_point(self._circuit(), **self.HARD)
        assert not op.converged
        assert message.endswith(op.stats.failure_detail())

    def test_batched_message_matches_serial_fragment(self):
        serial = dc_operating_point(self._circuit(), **self.HARD)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point_batch([self._circuit()],
                                     raise_on_failure=True, **self.HARD)
        message = str(excinfo.value)
        assert "first failure" in message
        assert serial.stats.failure_detail() in message

    def test_serial_and_batched_details_bit_identical(self):
        serial = dc_operating_point(self._circuit(), **self.HARD)
        batched = dc_operating_point_batch([self._circuit()], **self.HARD)[0]
        assert not serial.converged and not batched.converged
        assert batched.stats.failure_detail() == serial.stats.failure_detail()
        assert batched.stats.final_residual == serial.stats.final_residual
        assert batched.stats.final_gmin == serial.stats.final_gmin
        assert batched.stats.iterations == serial.stats.iterations
