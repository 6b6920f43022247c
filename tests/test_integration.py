"""End-to-end integration tests: KATO on the real circuit testbenches."""

import numpy as np
import pytest

from repro.bo import MACE
from repro.circuits import FOMProblem, TwoStageOpAmp
from repro.core import KATO, SourceModel


QUICK = dict(batch_size=4, surrogate_train_iters=12, kat_train_iters=40,
             pop_size=24, n_generations=6)


@pytest.mark.slow
class TestEndToEnd:
    def test_kato_constrained_on_two_stage(self, two_stage_problem, two_stage_evaluations):
        kato = KATO(TwoStageOpAmp("180nm"), rng=0, **QUICK)
        history = kato.optimize(n_simulations=len(two_stage_evaluations) + 12,
                                n_init=0, initial_evaluations=list(two_stage_evaluations))
        assert len(history) >= len(two_stage_evaluations) + 12
        # The run must track feasibility correctly end to end.
        best = history.best(constrained=True)
        assert best is not None
        if best.feasible:
            assert best.metrics["gain"] >= 60.0

    def test_kato_fom_on_two_stage(self):
        fom = FOMProblem(TwoStageOpAmp("180nm"), n_normalization_samples=20, rng=1)
        kato = KATO(fom, rng=1, **QUICK)
        history = kato.optimize(n_simulations=26, n_init=10)
        curve = history.best_curve(constrained=False)
        assert curve[-1] >= curve[9]

    def test_transfer_between_nodes(self, two_stage_evaluations, two_stage_problem):
        # Build a source model from the cached 180 nm evaluations.
        x_unit = two_stage_problem.design_space.to_unit(
            np.array([e.x for e in two_stage_evaluations]))
        y = two_stage_problem.metrics_matrix(list(two_stage_evaluations))
        source = SourceModel(x_unit, y, metric_names=two_stage_problem.metric_names,
                             train_iters=15)
        target = TwoStageOpAmp("40nm")
        kato = KATO(target, source=source, rng=2, **QUICK)
        history = kato.optimize(n_simulations=30, n_init=18)
        report = kato.transfer_report()
        assert report["transfer"] and len(report["weights"]) == 2
        assert len(history) >= 30

    def test_constrained_mace_baseline_on_circuit(self, two_stage_evaluations):
        problem = TwoStageOpAmp("180nm")
        optimizer = MACE(problem, batch_size=4, rng=3, variant="modified",
                         surrogate_train_iters=10, pop_size=24, n_generations=5)
        history = optimizer.optimize(n_simulations=len(two_stage_evaluations) + 8,
                                     n_init=0,
                                     initial_evaluations=list(two_stage_evaluations))
        assert len(history) >= len(two_stage_evaluations) + 8
