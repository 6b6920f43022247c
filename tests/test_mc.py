"""Tests for the Monte Carlo mismatch & yield subsystem.

Covers the pdk variation layer (Pelgrom cards, per-device samples, derived
fingerprints), the seeded samplers (determinism, batching invariance, stream
splitting), the Wilson estimator and the adaptive-stopping guarantee, the
runner's backend fan-out (bit-identical yield estimates and per-sample
fingerprints across serial/batched/process), and the registered ``*_yield``
sizing problems end to end.
"""

from __future__ import annotations

import gc
import hashlib
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from repro.bo.problem import Constraint
from repro.bench.aggregate import sigma_metrics, worst_case_metrics
from repro.circuits import make_problem
from repro.engine.backends import SerialBackend
from repro.mc import (
    MonteCarloConfig,
    MonteCarloRunner,
    YieldEstimator,
    available_samplers,
    classify_pass,
    make_sampler,
    wilson_interval,
)
from repro.pdk import (
    MismatchCard,
    VariationSample,
    apply_variation,
    get_technology,
)

GOOD_TWO_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                      w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                      i_bias1=20e-6, i_bias2=100e-6)


# ---------------------------------------------------------------------- #
# pdk variation layer                                                     #
# ---------------------------------------------------------------------- #
class TestVariation:
    def test_pelgrom_sigma_scales_with_area(self):
        card = MismatchCard(avt=3.5e-9, abeta=1.0e-8)
        small = card.sigma_vth(1e-6, 0.18e-6)
        large = card.sigma_vth(4e-6, 0.72e-6)  # 4x W, 4x L -> 4x area
        assert small == pytest.approx(4.0 * large)
        assert card.sigma_beta(20e-6, 0.5e-6) == pytest.approx(
            1.0e-8 / np.sqrt(20e-6 * 0.5e-6))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MismatchCard(avt=-1e-9, abeta=0.0)

    def test_sample_requires_sorted_unique_devices(self):
        sample = VariationSample.from_zscores(0, ("MB", "MA"), [1, 2], [0, 0])
        assert sample.device_names == ("MA", "MB")
        with pytest.raises(ValueError, match="duplicate"):
            VariationSample.from_zscores(0, ("MA", "MA"), [1, 2], [0, 0])

    def test_with_variation_changes_fingerprint_only(self):
        tech = get_technology("180nm")
        sample = VariationSample.from_zscores(3, ("MN1",), [1.5], [-0.5])
        varied = tech.with_variation(sample)
        assert varied.name == tech.name
        assert varied.nmos == tech.nmos            # models stay nominal
        assert varied.fingerprint != tech.fingerprint
        assert tech.with_variation(None).fingerprint == tech.fingerprint
        # Distinct samples -> distinct fingerprints.
        other = tech.with_variation(
            VariationSample.from_zscores(4, ("MN1",), [1.5], [-0.5]))
        assert other.fingerprint != varied.fingerprint

    def test_fingerprint_is_the_digest_of_the_whole_card(self):
        # The fingerprint reuses the nominal part's text across samples;
        # the digest must stay that of repr(astuple(card)) for every card.
        tech = get_technology("180nm")
        sample = VariationSample.from_zscores(
            3, ("MN1", "MP2"), [1.5, -0.25], [-0.5, 2.0])
        other = VariationSample.from_zscores(7, ("MN1",), [0.1], [0.2])
        corner = tech.with_corner(nmos_kp_scale=0.9, pmos_vth_shift=0.02,
                                  vdd_scale=0.9, corner="ss")
        cards = [tech, corner, tech.with_variation(sample),
                 corner.with_variation(sample),
                 tech.with_variation(sample).with_corner(corner="ff"),
                 tech.with_variation(sample).with_variation(other),
                 tech.with_variation(sample).with_variation(None)]
        for card in cards:
            expected = hashlib.sha1(
                repr(astuple(card)).encode()).hexdigest()[:16]
            assert card.fingerprint == expected
        assert len({card.fingerprint for card in cards}) == 6

    def test_apply_variation_shifts_named_mosfets(self):
        problem = make_problem("two_stage_opamp")
        circuit = problem.build_circuit(GOOD_TWO_STAGE)
        tech = problem.technology
        sample = VariationSample.from_zscores(
            0, ("MN1", "MN2"), [2.0, -2.0], [1.0, 0.0])
        apply_variation(circuit, tech.with_variation(sample))
        mn1, mn2 = circuit.device("MN1"), circuit.device("MN2")
        sigma = tech.nmos_mismatch.sigma_vth(mn1.width, mn1.length)
        assert mn1.model.vth0 == pytest.approx(tech.nmos.vth0 + 2.0 * sigma)
        assert mn2.model.vth0 == pytest.approx(tech.nmos.vth0 - 2.0 * sigma)
        sigma_beta = tech.nmos_mismatch.sigma_beta(mn1.width, mn1.length)
        assert mn1.model.kp == pytest.approx(tech.nmos.kp * (1 + sigma_beta))
        # Unnamed devices untouched.
        assert circuit.device("MP1").model is tech.pmos

    def test_nominal_sample_is_identity(self):
        problem = make_problem("two_stage_opamp")
        circuit = problem.build_circuit(GOOD_TWO_STAGE)
        names = tuple(problem.mismatch_device_names())
        zeros = [0.0] * len(names)
        apply_variation(circuit, problem.technology.with_variation(
            VariationSample.from_zscores(-1, names, zeros, zeros)))
        assert circuit.device("MN1").model == problem.technology.nmos

    def test_mismatch_device_names_all_mosfets(self):
        problem = make_problem("two_stage_opamp")
        assert problem.mismatch_device_names() == (
            "MN1", "MN2", "MP1", "MP2", "MP3")


# ---------------------------------------------------------------------- #
# samplers                                                                #
# ---------------------------------------------------------------------- #
class TestSamplers:
    DEVICES = ("MA", "MB", "MC")

    @pytest.mark.parametrize("name", ["normal", "lhs", "sobol"])
    def test_seeded_streams_are_bit_identical(self, name):
        a = make_sampler(name, self.DEVICES, seed=42, n_max=32)
        b = make_sampler(name, self.DEVICES, seed=42, n_max=32)
        np.testing.assert_array_equal(a.zscores, b.zscores)
        assert a.take(0, 32) == b.take(0, 32)

    @pytest.mark.parametrize("name", ["normal", "lhs", "sobol"])
    def test_batching_does_not_change_draws(self, name):
        sampler = make_sampler(name, self.DEVICES, seed=7, n_max=20)
        whole = sampler.take(0, 20)
        rebatched = sampler.take(0, 3) + sampler.take(3, 9) + sampler.take(12, 8)
        assert whole == rebatched

    def test_device_order_does_not_matter(self):
        a = make_sampler("normal", ("MA", "MB"), seed=1, n_max=4)
        b = make_sampler("normal", ("MB", "MA"), seed=1, n_max=4)
        assert a.take(0, 4) == b.take(0, 4)

    def test_split_streams_are_independent_and_deterministic(self):
        parent = make_sampler("normal", self.DEVICES, seed=9, n_max=16)
        children = parent.split(3)
        again = parent.split(3)
        assert len({child.seed for child in children}) == 3
        for child, repeat in zip(children, again):
            np.testing.assert_array_equal(child.zscores, repeat.zscores)
        assert not np.array_equal(children[0].zscores, children[1].zscores)

    def test_take_outside_stream_raises(self):
        sampler = make_sampler("normal", self.DEVICES, seed=0, n_max=8)
        with pytest.raises(ValueError, match="outside the stream"):
            sampler.take(4, 8)

    def test_unknown_sampler_hint(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("sobool", self.DEVICES)

    def test_registry_names(self):
        assert {"normal", "lhs", "sobol"} <= set(available_samplers())

    @pytest.mark.parametrize("name", ["lhs", "sobol"])
    def test_stratified_zscores_are_finite_normals(self, name):
        sampler = make_sampler(name, self.DEVICES, seed=3, n_max=64)
        z = sampler.zscores
        assert np.all(np.isfinite(z))
        assert abs(float(np.mean(z))) < 0.25  # roughly centred


# ---------------------------------------------------------------------- #
# estimator                                                               #
# ---------------------------------------------------------------------- #
class TestEstimator:
    def test_wilson_interval_basic_properties(self):
        low, high = wilson_interval(50, 100, 0.95)
        assert 0.0 < low < 0.5 < high < 1.0
        # Tighter with more data.
        low2, high2 = wilson_interval(500, 1000, 0.95)
        assert high2 - low2 < high - low
        # Extreme proportions keep non-degenerate intervals inside [0, 1].
        low3, high3 = wilson_interval(100, 100, 0.95)
        assert low3 < 1.0 and high3 == 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(1, 2, confidence=1.0)

    def test_estimator_accumulates(self):
        estimator = YieldEstimator(0.95)
        estimator.add(3, 4)
        estimator.update(True)
        est = estimator.estimate()
        assert est.n_samples == 5 and est.n_pass == 4
        assert est.value == pytest.approx(0.8)
        assert est.ci_low < 0.8 < est.ci_high
        metrics = est.as_metrics()
        assert set(metrics) == {"yield", "yield_ci_low", "yield_ci_high"}

    def test_reached_is_half_width_criterion(self):
        estimator = YieldEstimator(0.95)
        estimator.add(98, 100)
        half = estimator.estimate().half_width
        assert estimator.reached(half + 1e-12)
        assert not estimator.reached(half - 1e-12)
        assert not estimator.reached(None)


# ---------------------------------------------------------------------- #
# aggregation                                                             #
# ---------------------------------------------------------------------- #
class TestAggregate:
    CONSTRAINTS = [Constraint("g", 10.0, "ge"), Constraint("i", 5.0, "le")]

    def test_worst_case_unchanged_semantics(self):
        per_corner = [{"obj": 1.0, "g": 12.0, "i": 4.0, "extra": 7.0},
                      {"obj": 3.0, "g": 11.0, "i": 4.5, "extra": 9.0}]
        metrics = worst_case_metrics(per_corner, "obj", True, self.CONSTRAINTS)
        assert metrics["obj"] == 3.0 and metrics["g"] == 11.0
        assert metrics["i"] == 4.5 and metrics["extra"] == 7.0
        assert metrics["obj_nominal"] == 1.0

    def test_sigma_metrics_sense_aware_p99(self):
        rng = np.random.default_rng(0)
        g = 12.0 + rng.normal(size=200)
        per_sample = [{"obj": float(2 + 0.1 * k % 3), "g": float(v),
                       "i": float(4 + 0.01 * k)}
                      for k, v in enumerate(g)]
        out = sigma_metrics(per_sample, "obj", True, self.CONSTRAINTS)
        assert out["g_mean"] == pytest.approx(float(np.mean(g)), rel=1e-12)
        assert out["g_std"] == pytest.approx(float(np.std(g)), rel=1e-12)
        # 'ge' metric: p99 is the *low* tail; 'le' metric: the high tail.
        assert out["g_p99"] == pytest.approx(float(np.percentile(g, 1.0)))
        assert out["i_p99"] > out["i_mean"]
        # Minimised objective: p99 is the high tail.
        assert out["obj_p99"] >= out["obj_mean"]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            worst_case_metrics([], "obj", True, [])
        with pytest.raises(ValueError):
            sigma_metrics([], "obj", True, [])

    def test_sigma_metrics_cover_union_of_keys(self):
        # A crashed first sample carries only the pessimised constraint
        # metrics; statistics for unconstrained measures seen in later
        # samples (e.g. the bandgap's vref) must still be reported.
        per_sample = [{"obj": 1e6, "g": -1e6},
                      {"obj": 2.0, "g": 12.0, "vref": 0.81},
                      {"obj": 2.1, "g": 12.5, "vref": 0.83}]
        out = sigma_metrics(per_sample, "obj", True, self.CONSTRAINTS)
        assert out["vref_mean"] == pytest.approx(0.82)
        assert out["g_mean"] == pytest.approx((-1e6 + 12.0 + 12.5) / 3)


# ---------------------------------------------------------------------- #
# runner (synthetic problem: fast, analytic yield)                        #
# ---------------------------------------------------------------------- #
class _FakeMismatchProblem:
    """Runner-protocol stub: pass iff margin + vth_z of device 'DA' >= 0."""

    constraints = [Constraint("m", 0.0, "ge")]

    def __init__(self, margin: float, crash_indices=()):
        self.margin = float(margin)
        self.crash_indices = set(crash_indices)
        self.technology = get_technology("180nm")
        self.n_simulated = 0

    def mismatch_device_names(self):
        return ("DA", "DB")

    def failed_metrics(self):
        return {"m": -1e6}

    def with_variation(self, sample):
        import copy
        clone = copy.copy(self)
        clone.sample = sample
        return clone

    def simulate(self, design):
        if self.sample.index in self.crash_indices:
            raise RuntimeError("boom")
        self.n_simulated += 1
        return {"m": self.margin + self.sample.devices[0].vth_z}


class TestRunner:
    def test_adaptive_stop_never_wider_than_target(self):
        # The acceptance guarantee: whenever the runner reports a ci_target
        # stop, the reported interval half-width is at or below the target.
        for margin in (-3.0, 0.0, 0.4, 3.0):
            for target in (0.02, 0.05, 0.1):
                config = MonteCarloConfig(n_max=512, n_min=16, batch_size=16,
                                          seed=5, ci_half_width=target)
                result = MonteCarloRunner(config).run(
                    _FakeMismatchProblem(margin), {})
                if result.stopped_by == "ci_target":
                    assert result.estimate.half_width <= target
                else:
                    assert result.n_samples == config.n_max

    def test_adaptive_stopping_saves_samples_on_easy_designs(self):
        config = MonteCarloConfig(n_max=512, n_min=32, batch_size=32, seed=5)
        easy = MonteCarloRunner(config).run(_FakeMismatchProblem(4.0), {})
        marginal = MonteCarloRunner(config).run(_FakeMismatchProblem(0.0), {})
        assert easy.stopped_by == "ci_target"
        assert easy.n_samples <= 64            # pinned near yield 1 quickly
        assert marginal.n_samples > 4 * easy.n_samples

    def test_n_min_respected_before_stopping(self):
        config = MonteCarloConfig(n_max=64, n_min=48, batch_size=8, seed=5,
                                  ci_half_width=0.49)
        result = MonteCarloRunner(config).run(_FakeMismatchProblem(5.0), {})
        assert result.n_samples >= 48

    def test_ci_target_none_runs_full_budget(self):
        config = MonteCarloConfig(n_max=40, n_min=8, batch_size=16, seed=1,
                                  ci_half_width=None)
        result = MonteCarloRunner(config).run(_FakeMismatchProblem(4.0), {})
        assert result.stopped_by == "n_max" and result.n_samples == 40

    def test_crashing_samples_are_isolated_failures(self):
        config = MonteCarloConfig(n_max=16, n_min=16, batch_size=8, seed=2,
                                  ci_half_width=None)
        result = MonteCarloRunner(config).run(
            _FakeMismatchProblem(9.0, crash_indices={3, 7}), {})
        assert result.n_failures == 2
        assert result.estimate.n_pass == 14
        assert result.per_sample[3] == {"m": -1e6}

    def test_results_carry_aligned_samples_and_fingerprints(self):
        config = MonteCarloConfig(n_max=8, n_min=8, batch_size=4, seed=3,
                                  ci_half_width=None)
        problem = _FakeMismatchProblem(0.0)
        result = MonteCarloRunner(config).run(problem, {})
        assert [s.index for s in result.samples] == list(range(8))
        assert len(set(result.fingerprints)) == 8
        expected = problem.technology.with_variation(
            result.samples[0]).fingerprint
        assert result.fingerprints[0] == expected

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_min"):
            MonteCarloConfig(n_max=8, n_min=9)
        with pytest.raises(ValueError, match="sampler"):
            MonteCarloConfig(sampler="gaussian")
        with pytest.raises(ValueError, match="ci_half_width"):
            MonteCarloConfig(ci_half_width=0.7)
        with pytest.raises(ValueError, match="unknown Monte Carlo config"):
            MonteCarloConfig.from_dict({"n_samples": 8})
        roundtrip = MonteCarloConfig.from_dict(
            MonteCarloConfig(n_max=12, n_min=4).to_dict())
        assert roundtrip.n_max == 12

    def test_classify_pass_requires_finite_satisfaction(self):
        constraints = [Constraint("g", 1.0, "ge")]
        assert classify_pass({"g": 2.0}, constraints)
        assert not classify_pass({"g": 0.5}, constraints)
        assert not classify_pass({"g": float("nan")}, constraints)


# ---------------------------------------------------------------------- #
# pool lifecycle                                                          #
# ---------------------------------------------------------------------- #
class TestPoolLifecycle:
    def test_runner_context_manager_closes_pool(self):
        with MonteCarloRunner(MonteCarloConfig(n_max=4, n_min=4, batch_size=4),
                              backend="process") as runner:
            runner.backend.map(abs, [1, -2])
            assert runner._backend is not None
        assert runner._backend is None

    def test_leaked_runner_pool_warns_loudly(self):
        runner = MonteCarloRunner(backend="process")
        runner.backend.map(abs, [1, -2])
        with pytest.warns(ResourceWarning, match="live 'process' worker pool"):
            runner.__del__()
        runner.close()

    def test_serial_and_injected_backends_never_warn(self):
        serial = MonteCarloRunner(backend="serial")
        serial.backend.map(abs, [1])
        injected = MonteCarloRunner(backend=SerialBackend())
        injected.backend.map(abs, [1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial.__del__()
            injected.__del__()
        gc.collect()

    def test_close_does_not_shut_down_injected_shared_pool(self):
        # A caller-provided backend is the documented way to *share* one
        # pool between consumers: closing the runner must release only its
        # reference, never the pool out from under the other users.
        from repro.engine.backends import ProcessBackend
        shared = ProcessBackend(max_workers=2)
        try:
            runner = MonteCarloRunner(backend=shared)
            runner.backend.map(abs, [1, -2])
            runner.close()
            assert runner._backend is None
            assert shared.map(abs, [-5]) == [5]   # pool still alive
        finally:
            shared.shutdown()

    def test_problem_is_context_manager(self):
        with make_problem("two_stage_opamp_yield",
                          mc={"n_max": 4, "n_min": 4}) as problem:
            assert problem._runner is not None
        # close() is idempotent and already ran via __exit__.
        problem.close()


# ---------------------------------------------------------------------- #
# yield problems end to end                                               #
# ---------------------------------------------------------------------- #
#: Marginal two-stage point: small minimum-length devices and a first-stage
#: bias that parks the mean gain right on the 60 dB spec, so the mismatch
#: yield is ~0.5 -- strictly between 0 and 1, and the cross-backend
#: comparison cannot pass degenerately.
MARGINAL_TWO_STAGE = dict(w_diff=2.0e-6, l_diff=0.18e-6, w_load=2.0e-6,
                          l_load=0.18e-6, w_out=20e-6, l_out=0.18e-6,
                          c_comp=0.8e-12, r_zero=3e3,
                          i_bias1=52e-6, i_bias2=150e-6)


class TestYieldProblems:
    def test_registered_and_listed(self):
        from repro.circuits import available_problems
        for name in ("two_stage_opamp_yield", "bandgap_yield",
                     "three_stage_opamp_yield"):
            assert name in available_problems()

    def test_good_design_metrics_and_adaptive_cost(self):
        with make_problem("two_stage_opamp_yield",
                          mc={"n_max": 256, "n_min": 24, "batch_size": 24,
                              "seed": 3}) as problem:
            metrics = problem.simulate(GOOD_TWO_STAGE)
        assert metrics["yield"] == 1.0
        assert metrics["yield_ci_low"] > 0.85
        # Adaptive stopping: a deeply feasible design costs ~n_min samples.
        assert metrics["mc_samples"] <= 72
        for name in ("gain", "pm", "gbw", "i_total"):
            assert {f"{name}_mean", f"{name}_std", f"{name}_p99"} <= set(metrics)
        assert metrics["gain_std"] < 1.0   # a matched good design is tight

    def test_dead_nominal_design_skips_monte_carlo(self):
        with make_problem("two_stage_opamp_yield",
                          mc={"n_max": 64, "n_min": 64}) as problem:
            dead = dict(GOOD_TWO_STAGE, i_bias1=1e-6, i_bias2=2e-6,
                        w_diff=2e-6, w_out=4e-6, l_out=2e-6)
            _, ok = problem.base_problem.simulate_checked(dead)
            if ok:
                pytest.skip("design unexpectedly alive; pick a deader one")
            metrics = problem.simulate(dead)
        assert metrics["yield"] == 0.0 and metrics["mc_samples"] == 0.0
        # Every metric key is a finite float (surrogate-trainable).
        assert all(np.isfinite(v) for v in metrics.values())

    @pytest.mark.parametrize("n_samples", [256])
    def test_yield_bit_identical_across_backends(self, n_samples):
        # Acceptance criterion: a 256-sample yield estimate is bit-identical
        # across serial, batched and process backends for a fixed seed --
        # metrics, per-sample draws and per-sample cache fingerprints.
        mc = {"n_max": n_samples, "n_min": 32, "batch_size": 64, "seed": 11,
              "ci_half_width": None}
        results = {}
        for backend in ("serial", "batched", "process"):
            with make_problem("two_stage_opamp_yield", mc=mc,
                              backend=backend, max_workers=4) as problem:
                metrics = problem.simulate(MARGINAL_TWO_STAGE)
                run = problem._runner.run(
                    problem.base_problem, MARGINAL_TWO_STAGE,
                    device_names=problem.mismatch_device_names())
            results[backend] = (metrics, run.fingerprints, run.samples)
        serial = results["serial"]
        assert 0.0 < serial[0]["yield"] < 1.0
        assert serial[0]["mc_samples"] == n_samples
        for backend in ("batched", "process"):
            assert results[backend][0] == serial[0], backend
            assert results[backend][1] == serial[1], backend
            assert results[backend][2] == serial[2], backend

    def test_cache_token_tracks_mc_configuration(self):
        tokens = set()
        for options in ({"mc": {"seed": 0}}, {"mc": {"seed": 1}},
                        {"mc": {"n_max": 128}}, {"yield_target": 0.8},
                        {"mc": {"sampler": "sobol"}},
                        # Confidence shapes yield_ci_low/high even with
                        # adaptive stopping disabled: it must split tokens.
                        {"mc": {"ci_half_width": None}},
                        {"mc": {"ci_half_width": None, "confidence": 0.99}}):
            with make_problem("two_stage_opamp_yield", **options) as problem:
                tokens.add(problem.cache_token)
                assert problem.cache_token.startswith(
                    "two_stage_opamp_yield_180nm:")
        assert len(tokens) == 7

    def test_yield_constraint_enters_problem(self):
        with make_problem("two_stage_opamp_yield",
                          yield_target=0.95) as problem:
            names = [c.name for c in problem.constraints]
            assert names == ["gain", "pm", "gbw", "yield"]
            assert problem.constraints[-1].threshold == 0.95
        with pytest.raises(ValueError, match="yield_target"):
            make_problem("two_stage_opamp_yield", yield_target=1.5)

    def test_runner_rejects_yield_wrapper_problems(self):
        # Running the runner on a yield problem would silently ignore every
        # sample (delegation to the un-varied base) while nesting a full MC
        # run inside each one -- both entry points fail loudly instead.
        with make_problem("two_stage_opamp_yield",
                          mc={"n_max": 4, "n_min": 4}) as problem:
            runner = MonteCarloRunner(MonteCarloConfig(n_max=4, n_min=4))
            with pytest.raises(ValueError, match="base_problem"):
                runner.run(problem, GOOD_TWO_STAGE)
            with pytest.raises(NotImplementedError, match="base_problem"):
                problem.with_variation(None)
            runner.close()

    def test_sampler_choice_changes_estimates_deterministically(self):
        mc = {"n_max": 32, "n_min": 32, "batch_size": 32, "seed": 7,
              "ci_half_width": None}
        runs = {}
        for sampler in ("normal", "sobol"):
            with make_problem("two_stage_opamp_yield",
                              mc=dict(mc, sampler=sampler)) as problem:
                runs[sampler] = problem.simulate(MARGINAL_TWO_STAGE)
                repeat = make_problem("two_stage_opamp_yield",
                                      mc=dict(mc, sampler=sampler))
                assert repeat.simulate(MARGINAL_TWO_STAGE) == runs[sampler]
                repeat.close()
        assert runs["normal"] != runs["sobol"]
