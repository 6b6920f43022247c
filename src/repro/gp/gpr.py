"""Exact GP regression with autodiff-trained kernels.

The marginal likelihood (paper Eq. 3) is maximised with Adam.  Gradients with
respect to *all* kernel parameters -- including the weights inside the Neural
Kernel -- are obtained by seeding the reverse pass with the analytic gradient
of the likelihood with respect to the covariance matrix,

    dL/dK = 0.5 * (alpha alpha^T - K_n^{-1}),  alpha = K_n^{-1} y,

which avoids differentiating through the Cholesky factorisation itself while
remaining exact.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from repro.autodiff import Tensor, no_grad
from repro.autodiff.functional import as_tensor
from repro.errors import NotFittedError
from repro.kernels import Kernel, RBFKernel
from repro.nn.module import Module, Parameter
from repro.optim.adam import Adam
from repro.utils.validation import check_matrix, check_vector

_MIN_NOISE = 1e-8
_JITTER = 1e-8


class GPRegression(Module):
    """Single-output exact GP regression.

    Parameters
    ----------
    kernel:
        Any :class:`repro.kernels.Kernel`; defaults to an ARD RBF kernel of
        the right dimensionality at :meth:`fit` time when ``None``.
    noise:
        Initial observation-noise variance (trained jointly with the kernel).
    normalize_y:
        Standardise targets internally (recommended; predictions are always
        returned in the original scale).
    """

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-2,
                 normalize_y: bool = True):
        self.kernel = kernel
        self.raw_noise = Parameter([np.log(max(noise, _MIN_NOISE))], name="raw_noise")
        self.normalize_y = bool(normalize_y)
        self.x_train_: np.ndarray | None = None
        self.y_train_: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._cho = None
        self._k_inv: np.ndarray | None = None
        self.training_history_: list[float] = []

    # ------------------------------------------------------------------ #
    # properties                                                          #
    # ------------------------------------------------------------------ #
    @property
    def noise(self) -> float:
        """Observation-noise variance in the standardized output space."""
        return float(np.exp(self.raw_noise.data[0])) + _MIN_NOISE

    def _require_fitted(self) -> None:
        if self.x_train_ is None or self._alpha is None:
            raise NotFittedError("GPRegression must be fitted before prediction")

    # ------------------------------------------------------------------ #
    # fitting                                                             #
    # ------------------------------------------------------------------ #
    def fit(self, x, y, n_iters: int = 80, lr: float = 0.05,
            optimize: bool = True) -> "GPRegression":
        """Fit the GP to data, optionally optimising hyper-parameters.

        Parameters
        ----------
        x, y:
            Training inputs ``(n, d)`` and targets ``(n,)``.
        n_iters, lr:
            Adam schedule for marginal-likelihood maximisation.
        optimize:
            When ``False`` only the data is cached (hyper-parameters are
            left untouched) -- used by tests and by warm-started refits.
        """
        x = check_matrix(x, "x")
        y = check_vector(y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y must have the same number of rows, got {x.shape[0]} and {y.shape[0]}"
            )
        if x.shape[0] < 1:
            raise ValueError("at least one training point is required")
        if self.kernel is None:
            self.kernel = RBFKernel(x.shape[1])
        if self.kernel.input_dim != x.shape[1]:
            raise ValueError(
                f"kernel expects {self.kernel.input_dim} input dims, data has {x.shape[1]}"
            )

        self.x_train_ = x.copy()
        if self.normalize_y:
            self._y_mean = float(y.mean())
            std = float(y.std())
            self._y_std = std if std > 1e-12 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self.y_train_ = (y - self._y_mean) / self._y_std

        if optimize and x.shape[0] >= 2:
            self.training_history_ = self._optimize_hyperparameters(n_iters, lr)
        self._update_posterior_cache()
        return self

    def _covariance_tensor(self) -> Tensor:
        """Training covariance ``K + sigma_n^2 I`` as a graph tensor."""
        x = as_tensor(self.x_train_)
        k = self.kernel(x, x)
        noise = self.raw_noise.exp() + _MIN_NOISE
        eye = Tensor(np.eye(self.x_train_.shape[0]))
        return k + eye * noise

    def _nlml_and_grad_seed(self, a_np: np.ndarray) -> tuple[float, np.ndarray] | None:
        """Negative log marginal likelihood and its gradient w.r.t. ``A``."""
        n = a_np.shape[0]
        y = self.y_train_
        a_np = a_np + _JITTER * np.eye(n)
        try:
            cho = cho_factor(a_np, lower=True)
        except np.linalg.LinAlgError:
            return None
        alpha = cho_solve(cho, y)
        logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
        nlml = 0.5 * float(y @ alpha) + 0.5 * logdet + 0.5 * n * np.log(2.0 * np.pi)
        a_inv = cho_solve(cho, np.eye(n))
        grad = 0.5 * (a_inv - np.outer(alpha, alpha))
        return nlml, grad

    def _optimize_hyperparameters(self, n_iters: int, lr: float) -> list[float]:
        params = self.parameters()
        optimizer = Adam(params, lr=lr, grad_clip=20.0)
        history: list[float] = []
        best = np.inf
        best_state = self.state_dict()
        stall = 0
        for _ in range(int(n_iters)):
            optimizer.zero_grad()
            a_tensor = self._covariance_tensor()
            result = self._nlml_and_grad_seed(a_tensor.data)
            if result is None:
                # Covariance became non-PSD: back off to the best parameters.
                self.load_state_dict(best_state)
                break
            nlml, seed = result
            history.append(nlml)
            if nlml < best - 1e-7:
                best = nlml
                best_state = self.state_dict()
                stall = 0
            else:
                stall += 1
                if stall >= 20:
                    break
            a_tensor.backward(seed)
            optimizer.step()
        if history and history[-1] > best:
            self.load_state_dict(best_state)
        return history

    def _update_posterior_cache(self) -> None:
        with no_grad():
            a_tensor = self._covariance_tensor()
        n = self.x_train_.shape[0]
        a_np = a_tensor.data + _JITTER * np.eye(n)
        jitter = _JITTER
        while True:
            try:
                self._cho = cho_factor(a_np, lower=True)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter, 1e-10) * 10.0
                if jitter > 1e2:
                    raise
                a_np = a_tensor.data + jitter * np.eye(n)
        self._alpha = cho_solve(self._cho, self.y_train_)
        self._k_inv = cho_solve(self._cho, np.eye(n))

    # ------------------------------------------------------------------ #
    # prediction                                                          #
    # ------------------------------------------------------------------ #
    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the training data at the current parameters."""
        self._require_fitted()
        a_tensor = self._covariance_tensor()
        result = self._nlml_and_grad_seed(a_tensor.data)
        if result is None:
            return -np.inf
        return -result[0]

    def predict(self, x, return_std: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (or standard deviation) at ``x``.

        Implements paper Eq. 4, mapped back to the original output scale.
        """
        self._require_fitted()
        x = check_matrix(x, "x", n_cols=self.x_train_.shape[1])
        k_star = self.kernel.matrix(x, self.x_train_)           # (m, n)
        mean = k_star @ self._alpha
        lower = solve_triangular(self._cho[0], k_star.T, lower=True)
        k_diag = self.kernel.diag(x)
        var = np.maximum(k_diag - np.sum(lower**2, axis=0), 1e-12)
        mean = mean * self._y_std + self._y_mean
        var = var * self._y_std**2
        if return_std:
            return mean, np.sqrt(var)
        return mean, var

    def predict_tensor(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Differentiable posterior mean and variance at tensor inputs ``x``.

        Used by KAT-GP: gradients flow through the *inputs* (the encoder
        output) while the source-GP posterior (``alpha`` and ``K^{-1}``) is
        held fixed, exactly as required by the knowledge-alignment training
        of paper Eq. 12.
        """
        self._require_fitted()
        x = as_tensor(x)
        x_train = Tensor(self.x_train_)
        k_star = self.kernel(x, x_train)                          # (m, n)
        alpha = Tensor(self._alpha.reshape(-1, 1))
        mean = (k_star @ alpha).reshape(x.shape[0])
        k_inv = Tensor(self._k_inv)
        quad = ((k_star @ k_inv) * k_star).sum(axis=1)
        k_ss = self.kernel(x, x)
        eye = Tensor(np.eye(x.shape[0]))
        k_diag = (k_ss * eye).sum(axis=1)
        var = (k_diag - quad).clip_min(1e-12)
        mean = mean * self._y_std + self._y_mean
        var = var * (self._y_std**2)
        return mean, var

    def sample_posterior(self, x, n_samples: int = 1, rng=None) -> np.ndarray:
        """Draw joint posterior samples at ``x`` (shape ``(n_samples, m)``)."""
        from repro.utils.random import as_rng

        self._require_fitted()
        rng = as_rng(rng)
        x = check_matrix(x, "x", n_cols=self.x_train_.shape[1])
        k_star = self.kernel.matrix(x, self.x_train_)
        mean = k_star @ self._alpha * self._y_std + self._y_mean
        k_ss = self.kernel.matrix(x, x)
        lower = solve_triangular(self._cho[0], k_star.T, lower=True)
        cov = k_ss - lower.T @ lower
        cov = cov * self._y_std**2
        cov = cov + 1e-8 * np.trace(cov) / max(x.shape[0], 1) * np.eye(x.shape[0])
        return rng.multivariate_normal(mean, cov, size=n_samples, method="cholesky"
                                       if _is_posdef(cov) else "svd")


def _is_posdef(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False
