"""Tests for GP kernels: validity properties and the Neural Kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor
from repro.kernels import (
    DeepKernel,
    Matern52Kernel,
    NeuralKernel,
    PeriodicKernel,
    RBFKernel,
    RationalQuadraticKernel,
)

ALL_STATIONARY = [RBFKernel, RationalQuadraticKernel, PeriodicKernel, Matern52Kernel]


def _random_inputs(rng, n=12, d=3):
    return rng.normal(size=(n, d))


@pytest.mark.parametrize("kernel_cls", ALL_STATIONARY)
class TestKernelValidity:
    def test_symmetry(self, kernel_cls, rng):
        kernel = kernel_cls(3)
        x = _random_inputs(rng)
        k = kernel.matrix(x, x)
        assert np.allclose(k, k.T, atol=1e-10)

    def test_positive_semidefinite(self, kernel_cls, rng):
        kernel = kernel_cls(3)
        x = _random_inputs(rng)
        eigenvalues = np.linalg.eigvalsh(kernel.matrix(x, x))
        assert eigenvalues.min() > -1e-8

    def test_cross_matrix_shape(self, kernel_cls, rng):
        kernel = kernel_cls(3)
        a, b = _random_inputs(rng, 5), _random_inputs(rng, 7)
        assert kernel.matrix(a, b).shape == (5, 7)

    def test_diag_matches_matrix(self, kernel_cls, rng):
        kernel = kernel_cls(3)
        x = _random_inputs(rng, 6)
        assert np.allclose(kernel.diag(x), np.diag(kernel.matrix(x, x)), atol=1e-10)


@pytest.mark.parametrize("kernel_cls", ALL_STATIONARY)
def test_stationary_diag_is_the_outputscale_without_a_gram_matrix(kernel_cls, monkeypatch):
    kernel = kernel_cls(3, outputscale=2.5)

    def no_gram(x1, x2):
        raise AssertionError("diag built the Gram matrix")

    monkeypatch.setattr(kernel, "forward", no_gram)
    assert np.array_equal(kernel.diag(np.zeros((500, 3))), np.full(500, kernel.outputscale))


@pytest.mark.parametrize("kernel_cls", [Matern52Kernel])
def test_matern_duplicated_rows_correlate_fully(kernel_cls, rng):
    kernel = kernel_cls(10)
    kernel.raw_lengthscale.data = rng.normal(scale=0.5, size=10)
    x = rng.uniform(size=(40, 10))
    x[-10:] = x[:10]
    k = kernel.matrix(x, x)
    # Rounding noise in r^2 must not lower these below the outputscale.
    assert np.allclose(np.diag(k), kernel.outputscale, rtol=1e-11, atol=0.0)
    assert np.allclose(np.diag(k[-10:, :10]), kernel.outputscale, rtol=1e-11, atol=0.0)
    tensor = Tensor(x, requires_grad=True)
    kernel(tensor, tensor).sum().backward()
    assert np.all(np.isfinite(tensor.grad))


class TestStationaryBehaviour:
    def test_rbf_decays_with_distance(self):
        kernel = RBFKernel(1)
        near = kernel.matrix([[0.0]], [[0.1]])[0, 0]
        far = kernel.matrix([[0.0]], [[3.0]])[0, 0]
        assert near > far

    def test_rbf_self_similarity_is_max(self, rng):
        kernel = RBFKernel(2)
        x = _random_inputs(rng, 8, 2)
        k = kernel.matrix(x, x)
        assert np.all(np.diag(k) >= k.max(axis=1) - 1e-12)

    def test_ard_lengthscale_property(self):
        kernel = RBFKernel(4, lengthscale=0.5)
        assert np.allclose(kernel.lengthscale, 0.5)
        assert kernel.outputscale == pytest.approx(1.0)

    def test_periodic_kernel_periodicity(self):
        kernel = PeriodicKernel(1, period=1.0)
        k0 = kernel.matrix([[0.0]], [[0.0]])[0, 0]
        k_period = kernel.matrix([[0.0]], [[1.0]])[0, 0]
        assert k_period == pytest.approx(k0, rel=1e-6)

    def test_matern_smoothness_ordering(self, rng):
        # Matern-5/2 is rougher than its nu -> inf limit, the RBF kernel, and
        # decays faster at moderate distance.
        x0, x1 = np.array([[0.0]]), np.array([[1.0]])
        k52 = Matern52Kernel(1).matrix(x0, x1)[0, 0]
        k_rbf = RBFKernel(1).matrix(x0, x1)[0, 0]
        assert k_rbf > k52

    def test_rq_alpha_property(self):
        kernel = RationalQuadraticKernel(2, alpha=2.0)
        assert kernel.alpha == pytest.approx(2.0)

    def test_gradients_reach_hyperparameters(self, rng):
        kernel = RBFKernel(3)
        x = _random_inputs(rng, 6)
        kernel(Tensor(x), Tensor(x)).sum().backward()
        assert kernel.raw_lengthscale.grad is not None
        assert kernel.raw_outputscale.grad is not None

    def test_invalid_input_dim(self):
        with pytest.raises(ValueError):
            RBFKernel(0)


class TestNeuralKernel:
    def test_symmetry_and_psd(self, rng):
        kernel = NeuralKernel(3, rng=0)
        x = _random_inputs(rng, 10)
        k = kernel.matrix(x, x)
        assert np.allclose(k, k.T, atol=1e-8)
        assert np.linalg.eigvalsh(k).min() > -1e-6

    def test_positive_values(self, rng):
        kernel = NeuralKernel(3, rng=0)
        x = _random_inputs(rng, 6)
        assert np.all(kernel.matrix(x, x) > 0)

    def test_default_primitives_match_paper(self):
        kernel = NeuralKernel(4, rng=0)
        assert set(kernel.primitive_names) == {"rbf", "rq", "periodic"}

    def test_gradients_reach_all_parameters(self, rng):
        kernel = NeuralKernel(3, rng=0)
        x = _random_inputs(rng, 6)
        kernel(Tensor(x), Tensor(x)).sum().backward()
        grads = [p.grad is not None for p in kernel.parameters()]
        assert all(grads)
        assert kernel.num_parameters() > 10

    def test_latent_dim_and_mix(self):
        kernel = NeuralKernel(5, latent_dim=3, n_mix=2, rng=0)
        assert kernel.latent_dim == 3
        assert kernel.mix_weight.shape == (2, 3)

    def test_describe(self):
        info = NeuralKernel(3, rng=0).describe()
        assert info["type"] == "NeuralKernel"
        assert info["n_parameters"] > 0

    def test_requires_primitives(self):
        with pytest.raises(ValueError):
            NeuralKernel(3, primitives=())

    def test_unknown_primitive(self):
        with pytest.raises(ValueError):
            NeuralKernel(3, primitives=("bogus",))

    def test_deep_kernel_baseline(self, rng):
        kernel = DeepKernel(3, feature_dim=4, rng=0)
        x = _random_inputs(rng, 8)
        k = kernel.matrix(x, x)
        assert np.allclose(k, k.T, atol=1e-8)
        assert np.linalg.eigvalsh(k).min() > -1e-7


class TestKernelProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 10))
    def test_rbf_psd_random_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        eigenvalues = np.linalg.eigvalsh(RBFKernel(2).matrix(x, x))
        assert eigenvalues.min() > -1e-8

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.1, 5.0))
    def test_rbf_outputscale_scales_kernel(self, scale):
        x = np.array([[0.0], [1.0]])
        base = RBFKernel(1, outputscale=1.0).matrix(x, x)
        scaled = RBFKernel(1, outputscale=scale).matrix(x, x)
        assert np.allclose(scaled, scale * base, rtol=1e-6)
