"""Tests for GP regression and the multi-output wrapper."""

import numpy as np
import pytest
from scipy.linalg import cho_solve

from repro.autodiff import Tensor
from repro.errors import NotFittedError
from repro.gp import GPRegression, MultiOutputGP
from repro.kernels import (
    Matern12Kernel,
    Matern32Kernel,
    Matern52Kernel,
    NeuralKernel,
    PeriodicKernel,
    RationalQuadraticKernel,
    RBFKernel,
)

STATIONARY_KERNELS = (RBFKernel, Matern12Kernel, Matern32Kernel, Matern52Kernel,
                      RationalQuadraticKernel)


def _toy_data(rng, n=30, d=2):
    x = rng.uniform(0, 1, size=(n, d))
    y = np.sin(5 * x[:, 0]) + x[:, 1] ** 2 + 0.01 * rng.normal(size=n)
    return x, y


class TestGPRegression:
    def test_interpolates_training_data(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=40)
        mean, _ = gp.predict(x)
        assert np.max(np.abs(mean - y)) < 0.15

    def test_generalises(self, rng):
        x, y = _toy_data(rng, n=50)
        x_test = rng.uniform(0, 1, size=(20, 2))
        y_test = np.sin(5 * x_test[:, 0]) + x_test[:, 1] ** 2
        gp = GPRegression().fit(x, y, n_iters=60)
        mean, _ = gp.predict(x_test)
        assert np.sqrt(np.mean((mean - y_test) ** 2)) < 0.3

    def test_variance_lower_near_training_points(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=40)
        _, var_train = gp.predict(x[:5])
        _, var_far = gp.predict(np.full((1, 2), 5.0))
        assert var_far[0] > var_train.mean()

    def test_training_improves_likelihood(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=60)
        assert len(gp.training_history_) > 2
        assert gp.training_history_[-1] <= gp.training_history_[0]

    def test_return_std(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=20)
        mean, std = gp.predict(x[:3], return_std=True)
        _, var = gp.predict(x[:3])
        assert np.allclose(std, np.sqrt(var))

    def test_no_optimize_keeps_hyperparameters(self, rng):
        x, y = _toy_data(rng)
        kernel = RBFKernel(2)
        before = kernel.raw_lengthscale.data.copy()
        GPRegression(kernel=kernel).fit(x, y, optimize=False)
        assert np.allclose(kernel.raw_lengthscale.data, before)

    def test_custom_kernels(self, rng):
        x, y = _toy_data(rng)
        for kernel in (Matern52Kernel(2), NeuralKernel(2, rng=0)):
            gp = GPRegression(kernel=kernel).fit(x, y, n_iters=30)
            mean, var = gp.predict(x[:4])
            assert np.all(np.isfinite(mean)) and np.all(var > 0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GPRegression().predict(np.zeros((1, 2)))

    def test_mismatched_shapes_raise(self, rng):
        with pytest.raises(ValueError):
            GPRegression().fit(rng.normal(size=(5, 2)), rng.normal(size=4))

    def test_kernel_dim_mismatch(self, rng):
        x, y = _toy_data(rng)
        with pytest.raises(ValueError):
            GPRegression(kernel=RBFKernel(5)).fit(x, y)

    def test_single_point_fit(self):
        gp = GPRegression().fit(np.array([[0.5, 0.5]]), np.array([1.0]))
        mean, var = gp.predict(np.array([[0.5, 0.5]]))
        assert np.isfinite(mean[0]) and var[0] >= 0

    def test_normalize_y_recovers_offset(self, rng):
        x = rng.uniform(size=(20, 1))
        y = 1000.0 + np.sin(3 * x[:, 0])
        gp = GPRegression().fit(x, y, n_iters=40)
        mean, _ = gp.predict(x)
        assert np.abs(mean - y).max() < 1.0

    def test_log_marginal_likelihood_finite(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=20)
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_noise_property_positive(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=20)
        assert gp.noise > 0

    def test_predict_tensor_matches_predict(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=30)
        x_new = rng.uniform(size=(5, 2))
        mean_np, var_np = gp.predict(x_new)
        mean_t, var_t = gp.predict_tensor(Tensor(x_new))
        assert np.allclose(mean_t.data, mean_np, atol=1e-8)
        assert np.allclose(var_t.data, var_np, atol=1e-8)

    def test_predict_tensor_gradient_matches_finite_difference(self, rng):
        x, y = _toy_data(rng)
        gp = GPRegression().fit(x, y, n_iters=30)
        x_new = rng.uniform(0.2, 0.8, size=(3, 2))
        tensor = Tensor(x_new, requires_grad=True)
        mean, var = gp.predict_tensor(tensor)
        (mean + var).sum().backward()
        eps = 1e-5
        perturbed = x_new.copy()
        perturbed[1, 0] += eps
        minus = x_new.copy()
        minus[1, 0] -= eps

        def scalar(z):
            m, v = gp.predict(z)
            return float((m + v).sum())

        numeric = (scalar(perturbed) - scalar(minus)) / (2 * eps)
        assert tensor.grad[1, 0] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


class TestMultiOutputGP:
    def test_fits_each_output(self, rng):
        x, y = _toy_data(rng)
        outputs = np.column_stack([y, -2.0 * y + 3.0])
        model = MultiOutputGP().fit(x, outputs, n_iters=30)
        mean, var = model.predict(x)
        assert mean.shape == (x.shape[0], 2)
        assert var.shape == (x.shape[0], 2)
        assert np.abs(mean - outputs).max() < 0.5

    def test_len_and_getitem(self, rng):
        x, y = _toy_data(rng)
        model = MultiOutputGP().fit(x, np.column_stack([y, y]), n_iters=10)
        assert len(model) == 2
        assert isinstance(model[0], GPRegression)

    def test_kernel_factory_used(self, rng):
        x, y = _toy_data(rng)
        model = MultiOutputGP(kernel_factory=lambda d: Matern52Kernel(d))
        model.fit(x, np.column_stack([y]), n_iters=10)
        assert isinstance(model[0].kernel, Matern52Kernel)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MultiOutputGP().predict(np.zeros((1, 2)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            MultiOutputGP().fit(rng.normal(size=(5, 2)), rng.normal(size=(4, 2)))

    def test_predict_tensor_shapes(self, rng):
        x, y = _toy_data(rng)
        model = MultiOutputGP().fit(x, np.column_stack([y, y * 2]), n_iters=10)
        mean, var = model.predict_tensor(Tensor(x[:4]))
        assert mean.shape == (4, 2)
        assert var.shape == (4, 2)


def _regression_data(n, d, duplicated=False, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    if duplicated:
        # Coincident rows: their computed r^2 is only rounding noise.
        x[-4:] = x[:4]
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 + 0.05 * rng.normal(size=n)
    return x, y


def _gradient(gp, objective):
    gp.zero_grad()
    nlml = objective(with_grad=True)
    return nlml, np.concatenate([param.grad.ravel() for param in gp.parameters()])


def _route_calls(monkeypatch):
    """Count the fit steps taken by each gradient route."""
    calls = {"_tape_nlml": 0, "_stationary_nlml": 0}
    for name in calls:
        original = getattr(GPRegression, name)

        def counted(self, with_grad, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, with_grad)

        monkeypatch.setattr(GPRegression, name, counted)
    return calls


class TestClosedFormGradient:
    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("kernel_cls", STATIONARY_KERNELS)
    def test_matches_tape_gradient(self, kernel_cls, duplicated):
        x, y = _regression_data(30, 4, duplicated=duplicated)
        gp = GPRegression(kernel=kernel_cls(4)).fit(x, y, optimize=False)
        rng = np.random.default_rng(11)
        for param in gp.parameters():
            param.data = param.data + 0.4 * rng.normal(size=param.data.shape)
        tape_nlml, tape = _gradient(gp, gp._tape_nlml)
        closed_nlml, closed = _gradient(gp, gp._stationary_nlml)
        assert closed_nlml == pytest.approx(tape_nlml, rel=1e-12)
        assert np.linalg.norm(closed - tape) <= 1e-9 * np.linalg.norm(tape)

    @pytest.mark.parametrize("kernel_cls", STATIONARY_KERNELS)
    def test_fitted_likelihood_matches_tape_route(self, kernel_cls, monkeypatch):
        x, y = _regression_data(40, 5, duplicated=True)
        closed = GPRegression(kernel=kernel_cls(5)).fit(x, y, n_iters=40)
        monkeypatch.setattr(GPRegression, "_stationary_nlml", GPRegression._tape_nlml)
        tape = GPRegression(kernel=kernel_cls(5)).fit(x, y, n_iters=40)
        assert len(closed.training_history_) == len(tape.training_history_)
        assert closed.log_marginal_likelihood() == pytest.approx(
            tape.log_marginal_likelihood(), rel=1e-8)

    def test_near_singular_data_backs_off_to_best_state(self, monkeypatch):
        # Near-duplicate rows under a huge outputscale: Adam drives the noise
        # down until the covariance stops being positive definite.
        x = np.random.default_rng(0).uniform(size=(20, 2))
        x = np.vstack([x, x + 1e-7])
        y = np.sin(3.0 * x[:, 0]) + x[:, 1]
        scores = []
        original = GPRegression._stationary_nlml

        def recorded(self, with_grad):
            scores.append(original(self, with_grad))
            return scores[-1]

        monkeypatch.setattr(GPRegression, "_stationary_nlml", recorded)
        gp = GPRegression(kernel=RBFKernel(2, outputscale=1e6), noise=1e-4)
        gp.fit(x, y, n_iters=60, lr=1.0)
        assert scores[-1] is None
        # Fewer than the 20 non-improving steps the stall stop needs.
        assert 1 < len(gp.training_history_) < 20
        assert gp.training_history_ == scores[:-1]
        assert -gp.log_marginal_likelihood() == min(gp.training_history_)

    @pytest.mark.parametrize("kernel_cls", STATIONARY_KERNELS)
    def test_stationary_kernels_take_closed_form_route(self, kernel_cls, monkeypatch):
        calls = _route_calls(monkeypatch)
        x, y = _regression_data(15, 3)
        GPRegression(kernel=kernel_cls(3)).fit(x, y, n_iters=10)
        assert calls == {"_tape_nlml": 0, "_stationary_nlml": 11}

    @pytest.mark.parametrize("make_kernel", [
        lambda d: NeuralKernel(d, rng=0),
        PeriodicKernel,
        lambda d: RBFKernel(d) + PeriodicKernel(d),
    ], ids=["neuk", "periodic", "sum"])
    def test_other_kernels_take_tape_route(self, make_kernel, monkeypatch):
        calls = _route_calls(monkeypatch)
        x, y = _regression_data(15, 3)
        GPRegression(kernel=make_kernel(3)).fit(x, y, n_iters=10)
        assert calls["_stationary_nlml"] == 0
        assert calls["_tape_nlml"] > 0


class TestFitKeepsBestScoredState:
    @pytest.mark.parametrize("n", [12, 40, 116])
    def test_returned_model_is_the_history_minimum(self, n):
        x, y = _regression_data(n, 10, seed=n)
        model = GPRegression(kernel=RBFKernel(10)).fit(x, y, n_iters=30)
        assert -model.log_marginal_likelihood() == min(model.training_history_)
        assert len(model.training_history_) == 31

    def test_tape_route_returns_the_history_minimum(self):
        x, y = _regression_data(20, 3)
        model = GPRegression(kernel=NeuralKernel(3, rng=0)).fit(x, y, n_iters=15)
        assert -model.log_marginal_likelihood() == min(model.training_history_)

    def test_inverse_covariance_is_formed_on_first_tensor_prediction(self):
        x, y = _regression_data(20, 3)
        model = GPRegression().fit(x, y, n_iters=10)
        assert model._k_inv is None
        model.predict(x[:3])
        assert model._k_inv is None
        model.predict_tensor(Tensor(x[:3]))
        assert np.array_equal(model._k_inv, cho_solve(model._cho, np.eye(20)))
