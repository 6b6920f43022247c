"""Tests for the batched evaluation engine (backends, cache, coordinator)."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.bo.design_space import DesignSpace, DesignVariable
from repro.bo.problem import Constraint, OptimizationProblem
from repro.circuits import TwoStageOpAmp, make_problem
from repro.circuits.registry import register_problem
from repro.engine import (
    BatchedBackend,
    DesignCache,
    EvaluationEngine,
    ProcessBackend,
    SerialBackend,
    SimulationFailure,
    available_backends,
    resolve_backend,
    simulate_job,
)
from repro.study import run_study
from repro.study.spec import SpecError, StudySpec
from repro.spice import ac_analysis, dc_operating_point
from repro.spice.ac import _ac_analysis_per_frequency, _ac_analysis_vectorized


class PicklableQuadratic(OptimizationProblem):
    """Unconstrained toy problem defined at module level so pickling by
    reference is unambiguous (the two conftest modules both claim the name
    ``conftest``, which confuses pickle in full-repo runs)."""

    def __init__(self, dim: int = 3):
        space = DesignSpace([DesignVariable(f"x{i}", 0.0, 1.0) for i in range(dim)])
        super().__init__(name="picklable_quadratic", design_space=space,
                         objective="f", minimize=False, constraints=[])

    def simulate(self, design):
        x = np.array([design[f"x{i}"] for i in range(self.design_space.dim)])
        return {"f": float(-np.sum((x - 0.6) ** 2))}


@register_problem("engine_quadratic", overwrite=True)
class _RegisteredQuadratic(PicklableQuadratic):
    """:class:`PicklableQuadratic` under the registry's constructor contract,
    so a :class:`StudySpec` (and each process worker) can rebuild it."""

    def __init__(self, technology: str = "180nm", dim: int = 3):
        super().__init__(dim=dim)


class FragileProblem(OptimizationProblem):
    """Toy constrained problem whose simulation raises for x0 > 0.5."""

    def __init__(self, dim: int = 2):
        space = DesignSpace([DesignVariable(f"x{i}", 0.0, 1.0) for i in range(dim)])
        super().__init__(name="fragile", design_space=space, objective="cost",
                         minimize=True, constraints=[Constraint("g", 0.1, "ge")])

    def simulate(self, design):
        if design["x0"] > 0.5:
            raise RuntimeError("diverged")
        return {"cost": design["x0"] + design["x1"], "g": design["x1"]}


def _default_backend_name(_):
    return resolve_backend(None).name


# ---------------------------------------------------------------------- #
# backends                                                                #
# ---------------------------------------------------------------------- #
class TestBackends:
    def test_available(self):
        assert available_backends() == ["batched", "process", "serial"]

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("batched"), BatchedBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)
        backend = ProcessBackend(max_workers=2)
        assert resolve_backend(backend) is backend

    def test_resolve_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_thread_is_rejected_with_available_backends(self, quadratic_problem):
        listing = r"available: \['batched', 'process', 'serial'\]"
        with pytest.raises(ValueError, match=f"unknown backend 'thread'; {listing}"):
            resolve_backend("thread")
        with pytest.raises(ValueError, match=listing):
            EvaluationEngine(quadratic_problem, backend="thread")
        with pytest.raises(SpecError, match=listing):
            StudySpec(optimizer="rs", circuit="two_stage_opamp",
                      backend="thread")
        # Fan-out owners (problem_options) reject it when built, not by
        # failing every evaluation later.
        with pytest.raises(ValueError, match=listing):
            make_problem("two_stage_opamp_corners", backend="thread")

    def test_default_is_serial_inside_pool_workers(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        # Code resolving the default inside a process-pool worker (e.g. a
        # fanned-out optimizer's lazily built engine) gets serial too, so a
        # worker never recurses into a pool of pools.
        with ProcessBackend(max_workers=2) as backend:
            assert backend.map(_default_backend_name, [0, 1]) == ["serial"] * 2

    def test_serial_map_preserves_order(self):
        assert SerialBackend().map(lambda v: v * v, [3, 1, 2]) == [9, 1, 4]

    def test_process_map_preserves_order(self):
        with ProcessBackend(max_workers=2) as backend:
            assert backend.map(abs, [-3, 2, -1]) == [3, 2, 1]

    def test_pooled_backend_is_picklable_without_executor(self):
        backend = ProcessBackend(max_workers=2)
        backend.map(str, [1, 2])  # force pool creation
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.max_workers == 2
        assert clone._executor is None
        assert clone.map(str, [3]) == ["3"]
        backend.shutdown()


# ---------------------------------------------------------------------- #
# cache                                                                   #
# ---------------------------------------------------------------------- #
class TestDesignCache:
    def test_key_is_content_based(self):
        x = np.array([1.0, 2.0, 3.0])
        assert DesignCache.key_for("p", x) == DesignCache.key_for("p", x.copy())
        assert DesignCache.key_for("p", x) != DesignCache.key_for("q", x)
        assert DesignCache.key_for("p", x) != DesignCache.key_for("p", x + 1e-12)

    def test_hit_miss_statistics(self, quadratic_problem):
        cache = DesignCache()
        key = DesignCache.key_for("p", np.ones(3))
        assert cache.get(key) is None
        cache.put(key, quadratic_problem.evaluate(np.full(3, 0.5)))
        assert cache.get(key) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self, quadratic_problem):
        cache = DesignCache(maxsize=2)
        record = quadratic_problem.evaluate(np.full(3, 0.5))
        keys = [DesignCache.key_for("p", np.full(3, float(i))) for i in range(3)]
        for key in keys:
            cache.put(key, record)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(keys[0]) is None  # oldest entry evicted
        assert cache.get(keys[2]) is not None


# ---------------------------------------------------------------------- #
# engine                                                                  #
# ---------------------------------------------------------------------- #
class TestEvaluationEngine:
    def test_cache_hits_skip_simulation(self, quadratic_problem, rng):
        engine = EvaluationEngine(quadratic_problem)
        x = quadratic_problem.design_space.sample(5, rng=rng)
        first = engine.evaluate_batch(x)
        assert engine.n_evaluated == 5
        second = engine.evaluate_batch(x)
        assert engine.n_evaluated == 5  # all hits, no new simulations
        assert engine.cache.stats.hits == 5
        for a, b in zip(first, second):
            assert a.metrics == b.metrics
            assert a.objective == b.objective
            np.testing.assert_array_equal(a.x, b.x)

    def test_within_batch_deduplication(self, quadratic_problem):
        engine = EvaluationEngine(quadratic_problem)
        row = np.full(3, 0.25)
        results = engine.evaluate_batch(np.vstack([row, row, row]))
        assert engine.n_evaluated == 1
        assert all(r.metrics == results[0].metrics for r in results)
        # The two deduplicated rows count as saved simulations (hits).
        assert engine.cache.stats.hits == 2
        assert engine.cache.stats.misses == 1

    def test_caller_mutation_cannot_pollute_cache(self, quadratic_problem):
        engine = EvaluationEngine(quadratic_problem)
        x = np.full((1, 3), 0.4)
        first = engine.evaluate_batch(x)[0]
        first.metrics["f"] = 123.0  # caller mutates their record in place
        second = engine.evaluate_batch(x)[0]
        assert second.metrics["f"] != 123.0  # cache entry untouched

    def test_cache_disabled_counts_every_row(self, quadratic_problem, rng):
        engine = EvaluationEngine(quadratic_problem, cache=False)
        x = quadratic_problem.design_space.sample(3, rng=rng)
        engine.evaluate_batch(x)
        engine.evaluate_batch(x)
        assert engine.n_evaluated == 6
        assert "cache" not in engine.stats()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failure_isolation(self, backend):
        problem = FragileProblem()
        engine = EvaluationEngine(problem, backend=backend)
        x = np.array([[0.2, 0.9], [0.8, 0.1], [0.3, 0.4]])
        with pytest.warns(RuntimeWarning, match="recording pessimised"):
            results = engine.evaluate_batch(x)
        assert engine.n_failures == 1
        assert results[1].tag.startswith("error:RuntimeError")
        assert not results[1].feasible
        assert results[1].objective == problem.failed_metrics()["cost"]
        # The healthy rows are untouched by their neighbour's crash.
        assert results[0].metrics["cost"] == pytest.approx(1.1)
        assert results[2].metrics["cost"] == pytest.approx(0.7)
        engine.close()

    def test_contract_errors_are_not_isolated(self):
        class BrokenMetrics(OptimizationProblem):
            def __init__(self):
                space = DesignSpace([DesignVariable("a", 0.0, 1.0)])
                super().__init__(name="broken", design_space=space,
                                 objective="f", minimize=False, constraints=[])

            def simulate(self, design):
                return {"wrong_name": 1.0}  # objective metric missing

        engine = EvaluationEngine(BrokenMetrics())
        # A problem-implementation bug must crash loudly, not become a run
        # full of pessimised records.
        with pytest.raises(RuntimeError, match="contract error"):
            engine.evaluate_batch(np.array([[0.5]]))

    def test_cache_disabled_skips_deduplication(self, quadratic_problem):
        engine = EvaluationEngine(quadratic_problem, cache=False)
        row = np.full(3, 0.25)
        engine.evaluate_batch(np.vstack([row, row, row]))
        assert engine.n_evaluated == 3  # every row simulated independently

    def test_failures_are_not_cached(self):
        problem = FragileProblem()
        engine = EvaluationEngine(problem)
        x = np.array([[0.8, 0.1]])
        with pytest.warns(RuntimeWarning):
            engine.evaluate_batch(x)
            engine.evaluate_batch(x)
        assert engine.n_evaluated == 2  # re-evaluated, not served from cache

    def test_shared_cache_distinguishes_problem_configurations(self):
        from repro.circuits import FOMProblem
        from repro.engine import DesignCache
        cache = DesignCache()
        base = TwoStageOpAmp("180nm")
        x = base.design_space.sample(1, rng=np.random.default_rng(21))
        # Same name, different randomly-estimated normalization ranges.
        fom_a = FOMProblem(TwoStageOpAmp("180nm"), n_normalization_samples=4, rng=0)
        fom_b = FOMProblem(TwoStageOpAmp("180nm"), n_normalization_samples=4, rng=99)
        assert fom_a.name == fom_b.name
        assert fom_a.cache_token != fom_b.cache_token
        # Same class, same name, different scalar config -> distinct tokens;
        # identical config -> identical tokens (so caching still works).
        heavy_load = TwoStageOpAmp("180nm", load_capacitance=5e-12)
        assert heavy_load.cache_token != base.cache_token
        assert TwoStageOpAmp("180nm").cache_token == base.cache_token
        EvaluationEngine(fom_a, cache=cache).evaluate_batch(x)
        EvaluationEngine(fom_b, cache=cache).evaluate_batch(x)
        # B must not be served A's fom record from the shared cache: same
        # design, same name, but distinct tokens -> two independent entries.
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_problem_default_engine_and_attach(self, quadratic_problem):
        assert quadratic_problem.engine.backend.name == "serial"
        replacement = EvaluationEngine(quadratic_problem, backend="process")
        quadratic_problem.attach_engine(replacement)
        assert quadratic_problem.engine is replacement
        replacement.close()

    def test_problem_pickles_without_engine(self, rng):
        problem = PicklableQuadratic(dim=3)
        problem.evaluate_batch(problem.design_space.sample(2, rng=rng))
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.__dict__["_engine"] is None
        assert clone.name == problem.name


# ---------------------------------------------------------------------- #
# backend equivalence on the real testbench                               #
# ---------------------------------------------------------------------- #
class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def batch(self):
        problem = TwoStageOpAmp("180nm")
        x = problem.design_space.sample(4, rng=np.random.default_rng(42))
        return problem, x

    def _metrics(self, problem, x, backend):
        fresh = TwoStageOpAmp("180nm")
        engine = EvaluationEngine(fresh, backend=backend, cache=False)
        try:
            return [e.metrics for e in engine.evaluate_batch(x)]
        finally:
            engine.close()

    def test_serial_batched_process_agree(self, batch):
        problem, x = batch
        serial = self._metrics(problem, x, "serial")
        batched = self._metrics(problem, x, "batched")
        process = self._metrics(problem, x, "process")
        for reference, candidate in ((serial, batched), (serial, process)):
            for a, b in zip(reference, candidate):
                assert a.keys() == b.keys()
                for name in a:
                    assert a[name] == pytest.approx(b[name], rel=1e-12, abs=1e-12)

    def test_simulate_job_entry_point_is_picklable(self, batch):
        problem, x = batch
        design = problem.design_space.as_dict(x[0])
        # Round-trip both the entry point and the job through pickle the
        # way a process pool would before calling it.
        fn = pickle.loads(pickle.dumps(simulate_job))
        remote = fn(pickle.loads(pickle.dumps((problem, design))))
        assert remote == problem.simulate(design)

    def test_simulate_job_returns_failure_instead_of_raising(self):
        problem = FragileProblem()
        job = pickle.loads(pickle.dumps((problem, {"x0": 0.9, "x1": 0.2})))
        outcome = pickle.loads(pickle.dumps(simulate_job))(job)
        assert outcome == SimulationFailure("RuntimeError",
                                            "RuntimeError: diverged")


# ---------------------------------------------------------------------- #
# vectorized AC analysis                                                  #
# ---------------------------------------------------------------------- #
class TestVectorizedAC:
    def test_matches_per_frequency_on_two_stage_opamp(self):
        problem = TwoStageOpAmp("180nm")
        rng = np.random.default_rng(0)
        checked = 0
        for row in problem.design_space.sample(6, rng=rng):
            circuit = problem.build_circuit(problem.design_space.as_dict(row))
            op = dc_operating_point(circuit)
            if not op.converged:
                continue
            frequencies = problem.ac_frequencies
            fast = ac_analysis(circuit, op, frequencies, observe=["out"])
            slow = _ac_analysis_per_frequency(circuit, op, frequencies,
                                              ["out"])
            scale = np.max(np.abs(slow.response("out")))
            error = np.max(np.abs(fast.response("out") - slow.response("out")))
            assert error <= 1e-9 * max(scale, 1.0)
            assert fast.dc_gain_db("out") == pytest.approx(slow.dc_gain_db("out"),
                                                           abs=1e-9)
            checked += 1
        assert checked >= 3  # the sample must exercise real solves

    def test_auto_uses_vectorized_for_affine_devices(self):
        problem = TwoStageOpAmp("180nm")
        row = problem.design_space.sample(1, rng=np.random.default_rng(3))[0]
        circuit = problem.build_circuit(problem.design_space.as_dict(row))
        op = dc_operating_point(circuit)
        frequencies = problem.ac_frequencies
        auto = ac_analysis(circuit, op, frequencies, observe=["out"])
        fast = _ac_analysis_vectorized(circuit, op, frequencies, ["out"])
        np.testing.assert_array_equal(auto.response("out"), fast.response("out"))

    def test_non_affine_device_forces_per_frequency(self):
        problem = TwoStageOpAmp("180nm")
        row = problem.design_space.sample(1, rng=np.random.default_rng(3))[0]
        circuit = problem.build_circuit(problem.design_space.as_dict(row))
        op = dc_operating_point(circuit)
        circuit.devices[0].ac_affine = False
        frequencies = problem.ac_frequencies[:10]
        auto = ac_analysis(circuit, op, frequencies, observe=["out"])
        slow = _ac_analysis_per_frequency(circuit, op, frequencies, ["out"])
        np.testing.assert_array_equal(auto.response("out"), slow.response("out"))

    def test_secretly_non_affine_stamps_are_caught_by_probe(self):
        problem = TwoStageOpAmp("180nm")
        row = problem.design_space.sample(1, rng=np.random.default_rng(3))[0]
        circuit = problem.build_circuit(problem.design_space.as_dict(row))
        op = dc_operating_point(circuit)
        frequencies = problem.ac_frequencies[:8]

        # A device whose stamps are quadratic in omega while still claiming
        # ac_affine=True (a buggy custom device).
        class QuadraticDevice:
            name = "QBAD"
            ac_affine = True
            n_branches = 0
            node_names = ("out", "0")
            is_nonlinear = False

            def bind(self, nodes, branches):
                self.node_indices, self.branch_indices = nodes, branches

            def stamp_dc(self, stamper, voltages, temperature):
                pass

            def stamp_ac(self, stamper, omega, operating_point):
                index = self.node_indices[0]
                stamper.add_entry(index, index, 1e-9 * omega ** 2)

        circuit.add(QuadraticDevice())
        reference = _ac_analysis_per_frequency(circuit, op, frequencies,
                                               ["out"])
        auto = ac_analysis(circuit, op, frequencies, observe=["out"])
        # The affinity probe must reject extrapolation and fall back to the
        # exact per-frequency solve.
        np.testing.assert_array_equal(auto.response("out"), reference.response("out"))
        with pytest.raises(np.linalg.LinAlgError, match="not affine"):
            _ac_analysis_vectorized(circuit, op, frequencies, ["out"])


# ---------------------------------------------------------------------- #
# thread-local autodiff state                                             #
# ---------------------------------------------------------------------- #
class TestThreadLocalGrad:
    def test_no_grad_does_not_leak_to_other_threads(self):
        seen: dict[str, bool] = {}

        def worker():
            seen["requires_grad"] = Tensor([1.0], requires_grad=True).requires_grad

        with no_grad():
            assert not Tensor([1.0], requires_grad=True).requires_grad
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["requires_grad"] is True

    def test_concurrent_no_grad_contexts_are_independent(self):
        ready = threading.Barrier(2)
        flags: dict[str, bool] = {}

        def with_grad():
            ready.wait()
            flags["grad"] = Tensor([1.0], requires_grad=True).requires_grad

        def without_grad():
            with no_grad():
                ready.wait()
                flags["no_grad"] = Tensor([1.0], requires_grad=True).requires_grad

        threads = [threading.Thread(target=with_grad),
                   threading.Thread(target=without_grad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert flags == {"grad": True, "no_grad": False}


# ---------------------------------------------------------------------- #
# repeated-run fan-out                                                    #
# ---------------------------------------------------------------------- #
class TestRunRepeatedBackends:
    def test_serial_and_process_runs_are_byte_identical(self):
        spec = StudySpec(optimizer="rs", circuit="engine_quadratic",
                         n_simulations=12, n_init=4, batch_size=4, seed=9,
                         n_seeds=2)
        serial = run_study(spec)
        serial_again = run_study(spec)
        with ProcessBackend(max_workers=2) as backend:
            pooled = run_study(spec, runner_backend=backend)
        np.testing.assert_array_equal(serial["curves"], serial_again["curves"])
        np.testing.assert_array_equal(serial["curves"], pooled["curves"])
        assert len(serial["histories"]) == len(pooled["histories"]) == 2
        for a, b in zip(serial["histories"], pooled["histories"]):
            assert pickle.dumps(a.evaluations) == pickle.dumps(b.evaluations)
