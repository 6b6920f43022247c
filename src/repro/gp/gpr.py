"""Exact GP regression trained by marginal-likelihood maximisation.

The marginal likelihood (paper Eq. 3) is maximised with Adam.  Each step
factors the training covariance ``K_n`` once (``dpotrf``), solves for
``alpha = K_n^{-1} y`` (``dpotrs``) and forms ``K_n^{-1}`` (``dpotri``), which
gives the gradient of the negative log marginal likelihood with respect to
the covariance matrix (Rasmussen & Williams, *GPML* 2006, Eq. 5.9),

    dL/dK = 0.5 * (K_n^{-1} - alpha alpha^T).

How that gradient reaches the kernel parameters depends on the kernel type:

* stationary ARD kernels (RBF, Matern, RQ -- :class:`StationaryKernel`) are
  differentiated in closed form from their profile ``f(r^2)`` and ``f'(r^2)``,
  with no autodiff graph and an O(n d)-memory lengthscale gradient;
* every other kernel (Neuk, Periodic, DKL, composites) builds the covariance
  as an autodiff graph and seeds its reverse pass with ``dL/dK``, so
  gradients reach every parameter -- including the weights inside the Neural
  Kernel -- without differentiating through the Cholesky factorisation.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from repro.autodiff import Tensor, no_grad
from repro.autodiff.functional import as_tensor
from repro.errors import NotFittedError
from repro.kernels import Kernel, RBFKernel
from repro.kernels.stationary import StationaryKernel
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

    def _stationary_gram(self):
        """Training covariance of a stationary kernel, with its gradient parts.

        Returns ``(K + sigma_n^2 I, K, x / lengthscale, r^2, f'(r^2))``.
        """
        kernel = self.kernel
        scaled, r2 = kernel.gram_sqdist(self.x_train_)
        value, slope = kernel.profile(r2)
        k = value * kernel.outputscale
        cov = k.copy()
        cov.flat[::cov.shape[0] + 1] += self.noise
        return cov, k, scaled, r2, slope

    def _covariance(self) -> np.ndarray:
        """Training covariance ``K + sigma_n^2 I`` as numpy, as the fit scores it."""
        if isinstance(self.kernel, StationaryKernel):
            return self._stationary_gram()[0]
        with no_grad():
            return self._covariance_tensor().data

    def _tape_nlml(self, with_grad: bool) -> float | None:
        """NLML; with ``with_grad`` also back-propagate it through the graph."""
        if not with_grad:
            return _nlml_terms(self._covariance(), self.y_train_, False)[0]
        cov = self._covariance_tensor()
        nlml, seed = _nlml_terms(cov.data, self.y_train_, True)
        if seed is not None:
            cov.backward(seed)
        return nlml

    def _stationary_nlml(self, with_grad: bool) -> float | None:
        """NLML; with ``with_grad`` also its closed-form parameter gradients."""
        kernel = self.kernel
        cov, k, scaled, r2, slope = self._stationary_gram()
        nlml, seed = _nlml_terms(cov, self.y_train_, with_grad)
        if seed is None:
            return nlml
        scale = kernel.outputscale
        self.raw_noise.grad = np.array([np.trace(seed) * np.exp(self.raw_noise.data[0])])
        # Products go through scipy's BLAS or plain ufuncs, never numpy's
        # BLAS: threaded calls alternating between numpy's and scipy's
        # OpenBLAS pools contend for the cores.
        kernel.raw_outputscale.grad = np.array([np.sum(seed * k)])
        # dL/dlog(l_k) = sum_ij M_ij (a_ik - a_jk)^2 with a = x / l and
        # M = -2 s (dL/dK o f'), expanded as 2 sum_i a_i o (r_i a_i - (M a)_i)
        # with r = M 1, so that no (n, n, d) tensor is built.
        weights = seed * slope
        weights *= -2.0 * scale
        spread = scaled * weights.sum(axis=1)[:, None] - dgemm(1.0, weights, scaled)
        kernel.raw_lengthscale.grad = 2.0 * np.sum(scaled * spread, axis=0)
        for param, dvalue in kernel.profile_param_grads(r2):
            param.grad = np.array([scale * np.sum(seed * dvalue)])
        return nlml

    def _optimize_hyperparameters(self, n_iters: int, lr: float) -> list[float]:
        objective = (self._stationary_nlml if isinstance(self.kernel, StationaryKernel)
                     else self._tape_nlml)
        params = self.parameters()
        optimizer = Adam(params, lr=lr, grad_clip=20.0)
        n_steps = int(n_iters)
        history: list[float] = []
        best, best_state = np.inf, [param.data.copy() for param in params]
        stall_best, stall = np.inf, 0
        # The state after the last Adam step is scored too (forward only), so
        # the parameters kept are always the best *scored* ones.
        for step in range(n_steps + 1):
            optimizer.zero_grad()
            nlml = objective(with_grad=step < n_steps)
            if nlml is None:
                # Covariance became non-PSD: back off to the best parameters.
                break
            history.append(nlml)
            if nlml < best:
                best, best_state = nlml, [param.data.copy() for param in params]
            if nlml < stall_best - 1e-7:
                stall_best, stall = nlml, 0
            else:
                stall += 1
                if stall >= 20:
                    break
            if step < n_steps:
                optimizer.step()
        for param, value in zip(params, best_state):
            param.data = value
        return history

    def _update_posterior_cache(self) -> None:
        cov = self._covariance()
        n = self.x_train_.shape[0]
        a_np = cov + _JITTER * np.eye(n)
        jitter = _JITTER
        while True:
            try:
                self._cho = cho_factor(a_np, lower=True)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter, 1e-10) * 10.0
                if jitter > 1e2:
                    raise
                a_np = cov + jitter * np.eye(n)
        self._alpha = cho_solve(self._cho, self.y_train_)
        # K^{-1} is only read by predict_tensor; formed there on first use.
        self._k_inv = None

    # ------------------------------------------------------------------ #
    # prediction                                                          #
    # ------------------------------------------------------------------ #
    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the training data at the current parameters."""
        self._require_fitted()
        nlml = _nlml_terms(self._covariance(), self.y_train_, False)[0]
        return -np.inf if nlml is None else -nlml

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
        if self._k_inv is None:
            self._k_inv = cho_solve(self._cho, np.eye(self.x_train_.shape[0]))
        k_inv = Tensor(self._k_inv)
        quad = ((k_star @ k_inv) * k_star).sum(axis=1)
        k_ss = self.kernel(x, x)
        eye = Tensor(np.eye(x.shape[0]))
        k_diag = (k_ss * eye).sum(axis=1)
        var = (k_diag - quad).clip_min(1e-12)
        mean = mean * self._y_std + self._y_mean
        var = var * (self._y_std**2)
        return mean, var


def _nlml_terms(cov: np.ndarray, y: np.ndarray,
                with_grad: bool) -> tuple[float | None, np.ndarray | None]:
    """Negative log marginal likelihood of ``y`` under ``N(0, cov)``.

    With ``with_grad`` also returns ``dL/dcov = 0.5 (cov^{-1} - alpha
    alpha^T)``.  A covariance that is not positive definite gives ``(None,
    None)``; a non-finite one raises ``ValueError``.
    """
    n = y.shape[0]
    jittered = np.array(np.asarray_chkfinite(cov), order="F")
    jittered.flat[::n + 1] += _JITTER
    # ``clean`` zeroes the upper triangle, which dpotri then leaves untouched.
    chol, info = dpotrf(jittered, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        return None, None
    alpha, _ = dpotrs(chol, y, lower=1)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    nlml = 0.5 * float(y @ alpha) + 0.5 * logdet + 0.5 * n * np.log(2.0 * np.pi)
    if not with_grad:
        return nlml, None
    inverse, _ = dpotri(chol, lower=1, overwrite_c=1)
    inverse += np.tril(inverse, -1).T
    inverse -= np.outer(alpha, alpha)
    inverse *= 0.5
    return nlml, inverse
