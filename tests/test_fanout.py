"""Failure parity of the one simulation fan-out, ``backend.simulate``.

The evaluation engine, the Monte Carlo runner and the PVT corner sweep all
hand their jobs to one ``backend.simulate`` call.  A job that raises must
come back as the same :class:`~repro.engine.SimulationFailure` -- same
``kind``, same ``message`` -- on every backend, have the same downstream
effect in every consumer, and leave its healthy neighbours bit-identical.
The raising problem is testbench-backed, so the batched backend really
stacks the jobs into one session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import Check, CornerSpec, CornerSweep
from repro.circuits import TwoStageOpAmp
from repro.circuits.corners import CornerSizingProblem
from repro.engine import EvaluationEngine, SimulationFailure, resolve_backend
from repro.mc import MonteCarloConfig, MonteCarloRunner
from repro.mc.samplers import make_sampler

BACKENDS = ["serial", "batched", "process"]

GOOD = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
            w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
            i_bias1=20e-6, i_bias2=100e-6)

FAILURE = SimulationFailure("RuntimeError", "RuntimeError: marked job exploded")


class ExplodingTwoStage(TwoStageOpAmp):
    """A two-stage op-amp whose bench raises for one marked job.

    The job is marked by its ``c_comp`` value, its mismatch sample index or
    its analysis temperature.  The check raises instead of failing, so the
    job ends in an exception on every backend.  Module level, so the
    process backend can pickle it.
    """

    def __init__(self, technology="180nm", explode_c_comp=None,
                 explode_sample=None, explode_temperature=None):
        super().__init__(technology=technology)
        self.explode_c_comp = explode_c_comp
        self.explode_sample = explode_sample
        self.explode_temperature = explode_temperature

    def testbench(self):
        return self._armed(super().testbench())

    def mc_testbench(self):
        return self._armed(super().mc_testbench())

    def _armed(self, bench):
        bench.checks = [*bench.checks, Check("job is not marked", self._check)]
        return bench

    def _check(self, ctx) -> bool:
        sample = self.technology.variation
        if (ctx.design["c_comp"] == self.explode_c_comp
                or (sample is not None and sample.index == self.explode_sample)
                or self.sim_temperature == self.explode_temperature):
            raise RuntimeError("marked job exploded")
        return True


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_failure_parity(backend):
    problem = ExplodingTwoStage(explode_c_comp=3e-12)
    space = problem.design_space
    x = np.vstack([space.from_dict(GOOD),
                   space.from_dict({**GOOD, "c_comp": 3e-12}),
                   space.from_dict({**GOOD, "c_comp": 1.5e-12})])
    reference = EvaluationEngine(TwoStageOpAmp(), cache=False).evaluate_batch(x)
    with EvaluationEngine(problem, backend=backend, cache=False,
                          max_workers=2) as engine:
        with pytest.warns(RuntimeWarning, match="recording pessimised"):
            records = engine.evaluate_batch(x)
    assert engine.n_failures == 1
    assert records[1].tag == f"error:{FAILURE.message}"
    assert records[1].metrics == problem.failed_evaluation(x[1]).metrics
    for index in (0, 2):
        assert records[index].metrics == reference[index].metrics
        assert records[index].objective == reference[index].objective
        assert records[index].tag == ""


@pytest.mark.parametrize("backend", BACKENDS)
def test_monte_carlo_failure_parity(backend):
    problem = ExplodingTwoStage(explode_sample=2)
    config = MonteCarloConfig(n_max=6, n_min=6, batch_size=6, seed=4,
                              ci_half_width=None)
    reference = MonteCarloRunner(config).run(TwoStageOpAmp(), GOOD)
    with MonteCarloRunner(config, backend=backend, max_workers=2) as runner:
        result = runner.run(problem, GOOD)
        # The fan-out itself: the marked sample's clone fails alike.
        sampler = make_sampler(config.sampler, problem.mismatch_device_names(),
                               seed=config.seed, n_max=config.n_max)
        jobs = [(problem.with_variation(sample), GOOD)
                for sample in sampler.take(0, config.n_max)]
        outcomes = runner.backend.simulate(jobs)
    assert outcomes[2] == FAILURE
    assert result.n_failures == 1
    assert result.per_sample[2] == problem.failed_metrics()
    for index in (0, 1, 3, 4, 5):
        assert outcomes[index] == reference.per_sample[index]
        assert result.per_sample[index] == reference.per_sample[index]


@pytest.mark.parametrize("backend", BACKENDS)
def test_corner_failure_parity(backend):
    corners = (CornerSpec("nominal"),
               CornerSpec("ss_hot_low", "ss", 125.0, 0.9),
               CornerSpec("ff_cold_high", "ff", -40.0, 1.1))
    reference = CornerSizingProblem("two_stage_opamp", TwoStageOpAmp,
                                    corners=corners)
    with CornerSizingProblem("exploding", ExplodingTwoStage, corners=corners,
                             backend=backend, max_workers=2,
                             explode_temperature=125.0) as problem:
        with CornerSweep(corners, backend=backend, max_workers=2) as sweep:
            outcomes = sweep.run(problem.children, GOOD)
        metrics = problem.simulate(GOOD)
        failed = problem.failed_metrics()
    expected = CornerSweep(corners).run(reference.children, GOOD)
    assert outcomes[1] == FAILURE
    assert outcomes[0] == expected[0] and outcomes[2] == expected[2]
    # One raising corner pessimises the whole design.
    assert metrics == failed


def test_batched_backend_stacks_the_raising_job(monkeypatch):
    from repro.bench import BatchSimulator, Simulator
    calls = {"run": 0, "batch": 0}
    run, batch_run = Simulator.run, BatchSimulator.run

    def counting_run(self, *args, **kwargs):
        calls["run"] += 1
        return run(self, *args, **kwargs)

    def counting_batch(self, *args, **kwargs):
        calls["batch"] += 1
        return batch_run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counting_run)
    monkeypatch.setattr(BatchSimulator, "run", counting_batch)
    problem = ExplodingTwoStage(explode_c_comp=3e-12)
    outcomes = resolve_backend("batched").simulate(
        [(problem, GOOD), (problem, {**GOOD, "c_comp": 3e-12})])
    assert calls == {"run": 0, "batch": 1}
    assert outcomes[1] == FAILURE
    assert outcomes[0] == TwoStageOpAmp().simulate(GOOD)
