"""Tests for the optimizers: Adam, the L-BFGS wrapper and train_module."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Linear, MLP, Module, Parameter
from repro.optim import Adam, minimize_lbfgs, train_module


def _quadratic_parameter():
    return Parameter([4.0, -3.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        theta = _quadratic_parameter()
        optimizer = Adam([theta], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss = ((theta - Tensor([1.0, 2.0])) ** 2).sum()
            loss.backward()
            optimizer.step()
        assert np.allclose(theta.data, [1.0, 2.0], atol=1e-2)

    def test_skips_parameters_without_grad(self):
        theta = Parameter([1.0])
        Adam([theta]).step()  # no gradient accumulated; must not crash
        assert np.allclose(theta.data, [1.0])

    def test_grad_clip_limits_step(self):
        theta = Parameter([0.0])
        optimizer = Adam([theta], lr=1.0, grad_clip=1e-3)
        theta.grad = np.array([1e6])
        optimizer.step()
        assert abs(theta.data[0]) <= 1.0 + 1e-9

    def test_weight_decay_shrinks(self):
        theta = Parameter([10.0])
        optimizer = Adam([theta], lr=0.5, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()
            theta.grad = np.array([0.0])
            optimizer.step()
        assert abs(theta.data[0]) < 10.0

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter([1.0])], lr=-0.1)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter([1.0])], betas=(1.5, 0.9))


class TestLBFGS:
    def test_finds_box_minimum(self, rng):
        bounds = np.array([[-2.0, 2.0], [-2.0, 2.0]])
        x, value = minimize_lbfgs(lambda x: float(np.sum((x - 0.5) ** 2)), bounds,
                                  n_restarts=3, rng=rng)
        assert np.allclose(x, 0.5, atol=1e-4)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_respects_bounds(self, rng):
        bounds = np.array([[0.0, 1.0]])
        x, _ = minimize_lbfgs(lambda x: float(-x[0]), bounds, rng=rng)
        assert 0.0 <= x[0] <= 1.0
        assert x[0] == pytest.approx(1.0, abs=1e-6)

    def test_explicit_start_used(self, rng):
        bounds = np.array([[-5.0, 5.0]])
        x, _ = minimize_lbfgs(lambda x: float((x[0] - 3.0) ** 2), bounds,
                              x0=np.array([2.9]), n_restarts=0, rng=rng)
        assert x[0] == pytest.approx(3.0, abs=1e-4)

    def test_invalid_bounds_shape(self, rng):
        with pytest.raises(ValueError):
            minimize_lbfgs(lambda x: 0.0, np.zeros((3,)), rng=rng)

    def test_nan_objective_fallback(self, rng):
        bounds = np.array([[0.0, 1.0]])
        x, _ = minimize_lbfgs(lambda x: float("nan"), bounds, n_restarts=2, rng=rng)
        assert 0.0 <= x[0] <= 1.0


class TestTrainModule:
    def test_reduces_loss_and_returns_history(self, rng):
        model = MLP(1, 1, hidden=(8,), activation="tanh", rng=rng)
        x = np.linspace(-1, 1, 32).reshape(-1, 1)
        y = Tensor(np.sin(2 * x))

        def loss_fn():
            return ((model(x) - y) ** 2).mean()

        history = train_module(model, loss_fn, n_iters=80, lr=0.05)
        assert len(history) > 5
        assert history[-1] < history[0]

    def test_early_stop_on_stall(self, rng):
        theta = Parameter([0.0])

        class Wrapper(Module):
            def __init__(self):
                self.theta = theta

            def forward(self):
                return self.theta

        history = train_module(Wrapper(), lambda: (theta * 0.0).sum(),
                               n_iters=500, patience=5)
        assert len(history) < 500

    def test_keeps_best_state_on_divergence(self, rng):
        layer = Linear(1, 1, rng=rng)
        calls = {"n": 0}

        def loss_fn():
            calls["n"] += 1
            if calls["n"] > 3:
                return (layer(np.ones((1, 1))) * np.nan).sum()
            return (layer(np.ones((1, 1))) ** 2).sum()

        history = train_module(layer, loss_fn, n_iters=20)
        assert np.all(np.isfinite(layer.weight.data))
        assert len(history) == 3
