"""Tests for the KATO core: Neural-Kernel GPs, KAT-GP, selective transfer and Algorithm 1."""

import numpy as np
import pytest

from repro.core import (
    KATGP,
    KATO,
    SelectiveTransfer,
    SourceModel,
    neural_kernel_factory,
)
from repro.bo import MACE
from repro.errors import NotFittedError
from repro.gp import GPRegression, MultiOutputGP
from repro.kernels import NeuralKernel


def _source_dataset(rng, n=40, d_in=3, d_out=2):
    x = rng.uniform(size=(n, d_in))
    y1 = np.sin(4 * x[:, 0]) + x[:, 1]
    y2 = 10.0 * x[:, 2] - 2.0 * x[:, 0]
    return x, np.column_stack([y1, y2][:d_out])


def _target_dataset(rng, n=30, d_in=4, d_out=2):
    # Related but different input/output spaces (one extra input dimension,
    # shifted/scaled outputs) -- the KAT-GP setting.
    x = rng.uniform(size=(n, d_in))
    y1 = 2.0 * np.sin(4 * x[:, 0]) + x[:, 1] + 0.5
    y2 = 5.0 * x[:, 2] - x[:, 0] + 1.0
    return x, np.column_stack([y1, y2][:d_out])


class TestNeukGP:
    def test_neukgp_uses_neural_kernel(self, rng):
        model = GPRegression(kernel=neural_kernel_factory(rng=0)(3))
        assert isinstance(model.kernel, NeuralKernel)
        x = rng.uniform(size=(20, 3))
        y = np.sum(x, axis=1)
        model.fit(x, y, n_iters=20)
        mean, var = model.predict(x[:5])
        assert np.all(np.isfinite(mean)) and np.all(var > 0)

    def test_neuk_multioutput(self, rng):
        model = MultiOutputGP(kernel_factory=neural_kernel_factory(rng=0))
        x = rng.uniform(size=(15, 2))
        model.fit(x, np.column_stack([x[:, 0], x[:, 1] * 2]), n_iters=10)
        assert isinstance(model[0].kernel, NeuralKernel)

    def test_factory_dimensions(self):
        factory = neural_kernel_factory(rng=0)
        assert factory(5).input_dim == 5


class TestSourceModel:
    def test_holds_standardisation(self, rng):
        x, y = _source_dataset(rng)
        source = SourceModel(x, y, train_iters=15)
        assert source.input_dim == 3 and source.output_dim == 2
        assert np.allclose(source.y_mean, y.mean(axis=0))

    def test_standardized_prediction_scale(self, rng):
        from repro.autodiff import Tensor
        x, y = _source_dataset(rng)
        source = SourceModel(x, y, train_iters=20)
        mean, var = source.predict_standardized_tensor(Tensor(x[:10]))
        assert mean.shape == (10, 2)
        assert np.abs(mean.data).max() < 5.0
        assert np.all(var.data > 0)

    def test_metric_names_default(self, rng):
        x, y = _source_dataset(rng)
        assert SourceModel(x, y, train_iters=5).metric_names == [
            "source_metric_0", "source_metric_1"]


class TestKATGP:
    def _fitted(self, rng, n_target=30, n_iters=60):
        xs, ys = _source_dataset(rng, n=40)
        source = SourceModel(xs, ys, train_iters=20)
        xt, yt = _target_dataset(rng, n=n_target)
        model = KATGP(source, target_input_dim=4, target_output_dim=2, rng=0)
        model.fit(xt, yt, n_iters=n_iters)
        return model, xt, yt

    def test_predict_shapes_and_finiteness(self, rng):
        model, xt, _ = self._fitted(rng)
        mean, var = model.predict(xt[:7])
        assert mean.shape == (7, 2) and var.shape == (7, 2)
        assert np.all(np.isfinite(mean)) and np.all(var > 0)

    def test_training_reduces_loss(self, rng):
        model, _, _ = self._fitted(rng)
        history = model.training_history_
        assert len(history) > 5
        assert history[-1] < history[0]

    def test_fit_learns_target_scale(self, rng):
        model, xt, yt = self._fitted(rng, n_target=40, n_iters=120)
        mean, _ = model.predict(xt)
        # The aligned model should track the target data far better than a
        # constant predictor at the mean.
        residual = np.mean((mean - yt) ** 2)
        baseline = np.mean((yt - yt.mean(axis=0)) ** 2)
        assert residual < baseline

    def test_views_split_columns(self, rng):
        model, xt, _ = self._fitted(rng)
        objective_mean, objective_var = model.objective_view().predict(xt[:4])
        assert objective_mean.shape == (4,)
        constraint_mean, constraint_var = model.constraint_view().predict(xt[:4])
        assert constraint_mean.shape == (4, 1)
        full_mean, _ = model.predict(xt[:4])
        assert np.allclose(objective_mean, full_mean[:, 0])

    def test_unfitted_predict_raises(self, rng):
        xs, ys = _source_dataset(rng)
        source = SourceModel(xs, ys, train_iters=5)
        model = KATGP(source, target_input_dim=4, target_output_dim=2, rng=0)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((1, 4)))

    def test_dimension_validation(self, rng):
        xs, ys = _source_dataset(rng)
        source = SourceModel(xs, ys, train_iters=5)
        model = KATGP(source, target_input_dim=4, target_output_dim=2, rng=0)
        with pytest.raises(Exception):
            model.fit(np.zeros((5, 3)), np.zeros((5, 2)))

    def test_encoder_bridges_different_input_dims(self, rng):
        model, _, _ = self._fitted(rng)
        assert model.encoder.in_features == 4
        assert model.encoder.out_features == 3


class TestSelectiveTransfer:
    def test_initial_probabilities_proportional(self):
        selector = SelectiveTransfer([200, 50], rng=0)
        assert np.allclose(selector.probabilities(), [0.8, 0.2])

    def test_allocation_sums_to_batch(self):
        selector = SelectiveTransfer([200, 50], rng=0)
        counts = selector.allocate(8)
        assert counts.sum() == 8
        assert np.all(counts >= 1)

    def test_allocation_single_slot(self):
        selector = SelectiveTransfer([1, 1000], rng=0)
        assert selector.allocate(1).sum() == 1

    def test_update_shifts_weights(self):
        selector = SelectiveTransfer([10, 10], rng=0)
        selector.update(np.array([3.0, 0.0]))
        assert selector.weights[0] == 13.0
        assert selector.probabilities()[0] > 0.5

    def test_update_from_evaluations_counts_improvements(self):
        selector = SelectiveTransfer([10, 10], rng=0)
        labels = np.array([0, 0, 1, 1])
        objectives = np.array([1.0, 5.0, 0.5, 4.0])     # minimisation, incumbent 2.0
        improvements = selector.update_from_evaluations(labels, objectives, 2.0,
                                                        minimize=True)
        assert improvements.tolist() == [1.0, 1.0]

    def test_select_from_respects_counts(self, rng):
        selector = SelectiveTransfer([90, 10], rng=0)
        sets = [rng.uniform(size=(20, 3)), rng.uniform(size=(20, 3))]
        designs, labels = selector.select_from(sets, batch_size=10)
        assert designs.shape == (10, 3)
        assert (labels == 0).sum() >= (labels == 1).sum()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SelectiveTransfer([5.0])
        with pytest.raises(ValueError):
            SelectiveTransfer([1.0, -1.0])
        selector = SelectiveTransfer([1.0, 1.0])
        with pytest.raises(ValueError):
            selector.update(np.array([1.0]))
        with pytest.raises(ValueError):
            selector.update(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            selector.allocate(0)

    def test_history_recorded(self):
        selector = SelectiveTransfer([2.0, 2.0])
        selector.update(np.array([1.0, 0.0]))
        assert len(selector.history) == 2


class TestKATOOptimizer:
    QUICK = dict(batch_size=3, surrogate_train_iters=10, kat_train_iters=30,
                 pop_size=16, n_generations=5)

    def test_unconstrained_improves(self, quadratic_problem):
        kato = KATO(quadratic_problem, rng=0, **self.QUICK)
        history = kato.optimize(n_simulations=21, n_init=9)
        curve = history.best_curve(constrained=False)
        assert curve[-1] >= curve[8]
        assert curve[-1] > -0.2

    def test_constrained_without_transfer(self, constrained_problem):
        kato = KATO(constrained_problem, rng=0, **self.QUICK)
        history = kato.optimize(n_simulations=21, n_init=12)
        assert len(history) >= 21
        assert kato.transfer_report()["weights"] is None

    def test_constrained_with_transfer_updates_weights(self, constrained_problem, rng):
        # Source: a related toy problem sharing the metric structure.
        source_x = rng.uniform(size=(30, 3))
        source_y = np.column_stack([
            source_x.sum(axis=1) * 1.2,
            source_x[:, 0] + source_x[:, 1],
            (source_x ** 2).sum(axis=1),
        ])
        source = SourceModel(source_x, source_y, train_iters=10)
        kato = KATO(constrained_problem, source=source, rng=0, **self.QUICK)
        history = kato.optimize(n_simulations=24, n_init=12)
        report = kato.transfer_report()
        assert report["transfer"]
        assert len(report["weights"]) == 2
        # Weights grow only through Eq. 14 updates and never shrink.
        assert all(w >= 1.0 for w in report["weights"])
        assert len(history) >= 24

    def test_rbf_kernel_option(self, quadratic_problem):
        kato = KATO(quadratic_problem, rng=0, batch_size=2, surrogate_train_iters=5,
                    pop_size=16, n_generations=3, use_neural_kernel=False)
        history = kato.optimize(n_simulations=12, n_init=6)
        assert len(history) >= 12

    @pytest.mark.parametrize("fixture", ["constrained_problem", "quadratic_problem"])
    def test_without_transfer_is_neukgp_modified_mace(self, fixture, request):
        # "KATO w/o TL" = Neural-Kernel GPs + the modified constrained MACE:
        # KATO draws its kernel generator from its own after construction.
        problem = request.getfixturevalue(fixture)
        budget = dict(batch_size=3, surrogate_train_iters=10, pop_size=16,
                      n_generations=5)
        kato = KATO(problem, source=None, rng=np.random.default_rng(5), **budget)
        mace_rng = np.random.default_rng(5)
        kernel_rng = np.random.default_rng(mace_rng.integers(0, 2**31 - 1))
        mace = MACE(problem, rng=mace_rng, variant="modified",
                    kernel_factory=neural_kernel_factory(rng=kernel_rng), **budget)
        kato_history = kato.optimize(n_simulations=15, n_init=9)
        mace_history = mace.optimize(n_simulations=15, n_init=9)
        np.testing.assert_array_equal(kato_history.x, mace_history.x)
        np.testing.assert_array_equal(kato_history.objectives, mace_history.objectives)

    def test_fit_transfer_requires_source(self, quadratic_problem):
        kato = KATO(quadratic_problem, rng=0, **self.QUICK)
        with pytest.raises(RuntimeError):
            kato.fit_transfer_surrogate()
