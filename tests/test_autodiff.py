"""Tests for the reverse-mode autodiff engine (gradient checks included)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, no_grad
from repro.autodiff.functional import (
    as_tensor,
    pairwise_sqdist,
    stack,
)
from repro.gp import GPRegression
from repro.kernels import NeuralKernel, RBFKernel, stationary


def numeric_gradient(func, x, eps=1e-6):
    grad = np.zeros_like(x)
    for index in np.ndindex(x.shape):
        plus, minus = x.copy(), x.copy()
        plus[index] += eps
        minus[index] -= eps
        grad[index] = (func(plus) - func(minus)) / (2 * eps)
    return grad


def check_gradient(build_loss, x0, tolerance=1e-5):
    """Compare autodiff gradient against central finite differences."""
    tensor = Tensor(x0, requires_grad=True)
    build_loss(tensor).backward()
    numeric = numeric_gradient(lambda x: float(build_loss(Tensor(x)).data), x0)
    assert np.max(np.abs(tensor.grad - numeric)) < tolerance


def _reference_pairwise_sqdist(x1, x2):
    """Frozen copy of the original tape-chain ``pairwise_sqdist`` (11 graph nodes)."""
    x1 = as_tensor(x1)
    x2 = as_tensor(x2)
    sq1 = (x1 * x1).sum(axis=1, keepdims=True)
    sq2 = (x2 * x2).sum(axis=1, keepdims=True).transpose()
    cross = x1 @ x2.transpose()
    dist = sq1 + sq2 - cross * 2.0
    return dist.clip_min(0.0)


class TestBasicOps:
    def test_add_grad(self, rng):
        x = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t + 2.0 + t).sum(), x)

    def test_sub_and_neg_grad(self, rng):
        x = rng.normal(size=(4,))
        check_gradient(lambda t: (1.5 - t - t).sum(), x)

    def test_mul_grad(self, rng):
        x = rng.normal(size=(3, 3))
        check_gradient(lambda t: (t * t * 3.0).sum(), x)

    def test_div_grad(self, rng):
        x = rng.uniform(0.5, 2.0, size=(5,))
        check_gradient(lambda t: (2.0 / t + t / 4.0).sum(), x)

    def test_pow_grad(self, rng):
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_gradient(lambda t: (t ** 3).sum(), x)

    def test_matmul_grad(self, rng):
        w = rng.normal(size=(3, 4))
        fixed = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t @ Tensor(fixed)).sum(), w)

    def test_matmul_vector_cases(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a @ b).backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)

    def test_exp_log_sqrt_grads(self, rng):
        x = rng.uniform(0.5, 2.0, size=(6,))
        check_gradient(lambda t: (t.exp() + t.log() + t.sqrt()).sum(), x)

    def test_sigmoid_tanh_relu_grads(self, rng):
        x = rng.normal(size=(10,))
        check_gradient(lambda t: (t.sigmoid() * 2.0 + t.tanh()).sum(), x)
        check_gradient(lambda t: t.relu().sum(), x + 0.1)

    def test_abs_grad(self, rng):
        x = rng.normal(size=(8,)) + 0.05
        check_gradient(lambda t: t.abs().sum(), x)

    def test_clip_min_grad_passes_above(self):
        t = Tensor([0.5, 2.0], requires_grad=True)
        t.clip_min(1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0])


class TestShapesAndReductions:
    def test_transpose_grad(self, rng):
        x = rng.normal(size=(3, 5))
        check_gradient(lambda t: (t.transpose() @ Tensor(np.ones((3, 1)))).sum(), x)

    def test_reshape_grad(self, rng):
        x = rng.normal(size=(2, 6))
        check_gradient(lambda t: (t.reshape(3, 4) * 2.0).sum(), x)

    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_mean_grad(self, rng):
        x = rng.normal(size=(4, 4))
        check_gradient(lambda t: t.mean() * 16.0, x)

    def test_getitem_grad(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        (x[2] * 3.0).backward()
        expected = np.zeros(5)
        expected[2] = 3.0
        assert np.allclose(x.grad, expected)

    def test_broadcast_add_grad(self, rng):
        a = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, 3.0)
        assert np.allclose(b.grad, 4.0)

    def test_broadcast_mul_unbroadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)


class TestGraphMechanics:
    def test_reused_leaf_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a + a * 3.0).backward()
        assert np.allclose(a.grad, 7.0)

    def test_reused_intermediate_node(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        z = x * 2.0
        ((z * z).sum() + z.sum() * 3.0).backward()
        assert np.allclose(x.grad, 8.0 * x.data + 6.0)

    def test_backward_with_seed(self, rng):
        k = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        seed = rng.normal(size=(3, 3))
        (k * k).backward(seed)
        assert np.allclose(k.grad, 2.0 * k.data * seed)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_no_grad_context(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
            out = t * 2.0
        assert not out.requires_grad

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).backward()
        t.zero_grad()
        assert t.grad is None

    def test_item_and_numpy(self):
        t = Tensor([[3.5]])
        assert t.item() == 3.5
        assert t.numpy().shape == (1, 1)

    def test_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])


class TestFunctional:
    def test_pairwise_sqdist_values(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        assert np.allclose(pairwise_sqdist(Tensor(a), Tensor(b)).data, expected, atol=1e-9)

    def test_pairwise_sqdist_gradient(self, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(3, 2))
        weights = rng.normal(size=(4, 3))
        check_gradient(lambda t: (pairwise_sqdist(t, Tensor(b)) * weights).sum(), a)

    def test_pairwise_sqdist_nonnegative(self, rng):
        a = rng.normal(size=(6, 2))
        assert np.all(pairwise_sqdist(Tensor(a), Tensor(a)).data >= 0.0)

    def test_pairwise_sqdist_gradient_x2(self, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(3, 2))
        weights = rng.normal(size=(4, 3))
        check_gradient(lambda t: (pairwise_sqdist(Tensor(a), t) * weights).sum(), b)

    def test_pairwise_sqdist_self_distance_gradient(self, rng):
        # x1 and x2 are the same tensor, so both gradients land in one .grad.
        a = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, 5))
        check_gradient(lambda t: (pairwise_sqdist(t, t) * weights).sum(), a)

    @pytest.mark.parametrize("leaf_inputs", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 3, 2), (12, 9, 5), (40, 40, 6)])
    def test_pairwise_sqdist_bitwise_matches_tape_chain(self, shape, leaf_inputs):
        n, m, d = shape
        rng = np.random.default_rng(n * 100 + m)
        a_np = rng.normal(size=(n, d))
        # Near-copies of rows of ``a`` make some distances cancel below zero,
        # so the clip and its gradient mask are exercised too.
        b_np = a_np[:m] + 1e-9 * rng.normal(size=(m, d))
        upstream = rng.normal(size=(n, m))
        results = []
        for op in (pairwise_sqdist, _reference_pairwise_sqdist):
            a = Tensor(a_np, requires_grad=True)
            b = Tensor(b_np, requires_grad=True)
            # The kernels pass non-leaf inputs (rows divided by lengthscales).
            out = op(a, b) if leaf_inputs else op(a * 1.0, b * 1.0)
            out.backward(upstream)
            results.append((out.data, a.grad, b.grad))
        (value, grad_a, grad_b), (ref_value, ref_a, ref_b) = results
        assert np.any(value == 0.0)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad_a, ref_a)
        assert np.array_equal(grad_b, ref_b)

    @staticmethod
    def _fitted_rbf_parameters():
        rng = np.random.default_rng(2024)
        x = rng.uniform(size=(30, 3))
        y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2]
        gp = GPRegression(RBFKernel(3)).fit(x, y, n_iters=40)
        return [parameter.data.copy() for parameter in gp.parameters()]

    def test_rbf_gp_fit_is_bitwise_reproducible(self):
        first = self._fitted_rbf_parameters()
        second = self._fitted_rbf_parameters()
        assert len(first) == len(second) == 3
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @staticmethod
    def _fitted_neuk_parameters():
        # The Neural Kernel has no closed-form gradient, so the fit runs on
        # the tape and its RBF and RQ primitives go through pairwise_sqdist.
        rng = np.random.default_rng(2024)
        x = rng.uniform(size=(30, 3))
        y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2]
        gp = GPRegression(NeuralKernel(3, rng=0)).fit(x, y, n_iters=40)
        return [parameter.data.copy() for parameter in gp.parameters()]

    def test_neuk_gp_fit_matches_tape_chain_bitwise(self, monkeypatch):
        fused = self._fitted_neuk_parameters()
        monkeypatch.setattr(stationary, "pairwise_sqdist", _reference_pairwise_sqdist)
        chained = self._fitted_neuk_parameters()
        assert len(fused) == len(chained) > 5
        for a, b in zip(fused, chained):
            assert np.array_equal(a, b)

    def test_stack_and_grad(self, rng):
        tensors = [Tensor(rng.normal(size=(2, 2)), requires_grad=True) for _ in range(3)]
        out = stack(tensors, axis=0)
        assert out.shape == (3, 2, 2)
        (out * 2.0).sum().backward()
        for tensor in tensors:
            assert np.allclose(tensor.grad, 2.0)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_matmul_shapes(self, n, m):
        a = Tensor(np.ones((n, 3)), requires_grad=True)
        b = Tensor(np.ones((3, m)))
        out = a @ b
        assert out.shape == (n, m)
        out.sum().backward()
        assert a.grad.shape == (n, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10))
    def test_sigmoid_range_and_grad_sign(self, values):
        t = Tensor(values, requires_grad=True)
        out = t.sigmoid()
        assert np.all(out.data > 0) and np.all(out.data < 1)
        out.sum().backward()
        assert np.all(t.grad >= 0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
    def test_sum_equals_numpy(self, values):
        assert Tensor(values).sum().item() == pytest.approx(float(np.sum(values)), abs=1e-9)
