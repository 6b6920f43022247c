"""Tests for the experiment harnesses (tiny budgets) and the reporting helpers."""

import numpy as np
import pytest

from repro.experiments import (
    curves_to_rows,
    format_table,
    improvement_ratio,
    run_constrained_experiment,
    run_fom_experiment,
    run_neuk_assessment,
    speedup_ratio,
)
from repro.experiments.fom_experiment import fom_summary
from repro.study.sources import make_source_model


class TestReporting:
    def test_format_table_contains_rows_and_columns(self):
        text = format_table({"kato": {"i": 124.2, "gain": 61.2},
                             "mace": {"i": 127.7, "gain": 79.3}}, title="Table 1")
        assert "Table 1" in text and "kato" in text and "gain" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table({})

    def test_curves_to_rows(self):
        results = {"kato": {"summary": {"mean": np.array([1.0, 2.0, 3.0, 4.0])}}}
        rows = curves_to_rows(results, budgets=[2, 4])
        assert rows["kato"]["best@2"] == 2.0
        assert rows["kato"]["best@4"] == 4.0

    def test_improvement_ratio_directions(self):
        assert improvement_ratio(100.0, 120.0, minimize=True) == pytest.approx(1.2)
        assert improvement_ratio(1.2, 1.0, minimize=False) == pytest.approx(1.2)

    def test_speedup_ratio(self):
        reference = np.array([10.0, 8.0, 6.0, 5.0, 5.0, 5.0])
        candidate = np.array([9.0, 5.0, 4.0, 4.0, 4.0, 4.0])
        assert speedup_ratio(candidate, reference, minimize=True) == pytest.approx(3.0)

    def test_speedup_ratio_never_reached(self):
        reference = np.array([5.0, 4.0])
        candidate = np.array([10.0, 9.0])
        assert speedup_ratio(candidate, reference, minimize=True) == 0.0


@pytest.mark.slow
class TestExperimentSmoke:
    """Tiny-budget smoke runs of the experiment harnesses (marked slow)."""

    def test_neuk_assessment_returns_all_kernels(self):
        results = run_neuk_assessment(n_train=20, n_test=10, train_iters=15,
                                      kernels=("rbf", "neuk"))
        assert set(results) == {"rbf", "neuk"}
        for stats in results.values():
            assert np.isfinite(stats["rmse"])

    def test_fom_experiment_smoke(self):
        results = run_fom_experiment(methods=("rs", "kato"), n_simulations=20,
                                     n_init=8, n_seeds=1,
                                     n_normalization_samples=15, quick=True)
        summary = fom_summary(results)
        assert set(summary) == {"rs", "kato"}
        assert all(np.isfinite(v) for v in summary.values())

    def test_constrained_experiment_smoke(self):
        results = run_constrained_experiment(methods=("kato",), n_simulations=26,
                                             n_init=16, n_seeds=1, quick=True)
        curve = results["kato"]["summary"]["mean"]
        assert len(curve) >= 26

    def test_make_source_model(self):
        source = make_source_model("two_stage_opamp", "180nm", n_samples=15, seed=0,
                                   train_iters=10)
        assert source.input_dim == 10
        assert source.output_dim == 4
