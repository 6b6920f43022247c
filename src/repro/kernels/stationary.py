"""Classic stationary kernels with ARD lengthscales.

RBF, Rational Quadratic and Matern-5/2 subclass
:class:`StationaryKernel`: ``k(x, x') = outputscale * f(r^2)`` of the
lengthscale-scaled squared distance ``r^2``.  Besides the taped ``forward``
they give ``f`` and its derivative ``f'`` on ``r^2`` as plain numpy, which is
all a GP fit needs to form its marginal-likelihood gradient in closed form.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

from repro.autodiff import Tensor
from repro.autodiff.functional import as_tensor, pairwise_sqdist
from repro.kernels.base import Kernel, _log
from repro.nn.module import Parameter


class _ARDKernel(Kernel):
    """Shared machinery for kernels with per-dimension lengthscales."""

    def __init__(self, input_dim: int, lengthscale: float = 1.0,
                 outputscale: float = 1.0):
        super().__init__(input_dim)
        self.raw_lengthscale = Parameter(
            np.full(input_dim, _log(lengthscale)), name="raw_lengthscale")
        self.raw_outputscale = Parameter([_log(outputscale)], name="raw_outputscale")

    @property
    def lengthscale(self) -> np.ndarray:
        return np.exp(self.raw_lengthscale.data)

    @property
    def outputscale(self) -> float:
        return float(np.exp(self.raw_outputscale.data[0]))

    def _scaled(self, x: Tensor) -> Tensor:
        """Divide every input dimension by its lengthscale (ARD scaling)."""
        inv = (self.raw_lengthscale * -1.0).exp()
        return as_tensor(x) * inv

    def _sqdist(self, x1, x2) -> Tensor:
        return pairwise_sqdist(self._scaled(x1), self._scaled(x2))

    def diag(self, x) -> np.ndarray:
        """``k(x, x) = outputscale`` for every row, in O(m)."""
        return np.full(as_tensor(x).shape[0], self.outputscale)


class StationaryKernel(_ARDKernel):
    """ARD kernel ``outputscale * f(r^2)`` with a closed-form profile ``f``."""

    def gram_sqdist(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x / lengthscale, r^2)`` of the Gram matrix of ``x``, as numpy.

        ``r^2`` within rounding error of zero (the diagonal, duplicated rows)
        is exactly zero.
        """
        scaled = x * np.exp(-self.raw_lengthscale.data)
        sq = (scaled * scaled).sum(axis=1)
        # scipy's BLAS, the library of the fit's LAPACK calls: threaded calls
        # alternating between numpy's and scipy's OpenBLAS pools contend.
        r2 = dgemm(-2.0, scaled, scaled, trans_b=True)
        r2 += sq[:, None]
        r2 += sq
        r2 *= r2 > _rounding_floor(scaled, scaled)
        return scaled, r2

    def profile(self, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``f(r^2)`` and ``f'(r^2)`` on squared distances ``r2 >= 0``."""
        raise NotImplementedError

    def profile_param_grads(self, r2: np.ndarray) -> list[tuple[Parameter, np.ndarray]]:
        """``(p, df/dp)`` for each trainable shape parameter ``p`` of ``f``."""
        return []


class RBFKernel(StationaryKernel):
    """Squared-exponential / ARD kernel, the paper's Eq. for ``k(x, x'|theta)``."""

    def forward(self, x1, x2) -> Tensor:
        return (self._sqdist(x1, x2) * -0.5).exp() * self.raw_outputscale.exp()

    def profile(self, r2):
        value = np.exp(r2 * -0.5)
        return value, value * -0.5


class RationalQuadraticKernel(StationaryKernel):
    """Rational quadratic kernel, a scale mixture of RBF kernels."""

    def __init__(self, input_dim: int, lengthscale: float = 1.0,
                 outputscale: float = 1.0, alpha: float = 1.0):
        super().__init__(input_dim, lengthscale, outputscale)
        self.raw_alpha = Parameter([_log(alpha)], name="raw_alpha")

    @property
    def alpha(self) -> float:
        return float(np.exp(self.raw_alpha.data[0]))

    def forward(self, x1, x2) -> Tensor:
        alpha = self.raw_alpha.exp()
        sqdist = self._sqdist(x1, x2)
        inner = sqdist * 0.5 / alpha + 1.0
        # inner^(-alpha) computed via exp(-alpha * log(inner)) so alpha stays trainable.
        log_inner = inner.log()
        return (log_inner * (alpha * -1.0)).exp() * self.raw_outputscale.exp()

    def profile(self, r2):
        alpha = self.alpha
        inner = r2 * 0.5 / alpha + 1.0
        value = np.exp(np.log(inner) * -alpha)
        return value, value * -0.5 / inner

    def profile_param_grads(self, r2):
        # d f / d log(alpha) = alpha * f * (r^2 / (2 alpha inner) - log(inner)).
        alpha = self.alpha
        inner = r2 * 0.5 / alpha + 1.0
        log_inner = np.log(inner)
        value = np.exp(log_inner * -alpha)
        return [(self.raw_alpha, value * (r2 * 0.5 / inner - alpha * log_inner))]


class PeriodicKernel(_ARDKernel):
    """Exponential-sine-squared (periodic) kernel with a trainable period."""

    def __init__(self, input_dim: int, lengthscale: float = 1.0,
                 outputscale: float = 1.0, period: float = 1.0):
        super().__init__(input_dim, lengthscale, outputscale)
        self.raw_period = Parameter([_log(period)], name="raw_period")

    @property
    def period(self) -> float:
        return float(np.exp(self.raw_period.data[0]))

    def forward(self, x1, x2) -> Tensor:
        # Standard ARD periodic (exp-sine-squared) kernel,
        #   k = s^2 exp(-2 sum_d sin^2(pi (x_d - x'_d) / p) / l_d^2),
        # which is positive semi-definite for any input dimension.  ``sin`` is
        # not a tensor primitive, so sin^2 uses a custom backward rule.
        x1 = as_tensor(x1)
        x2 = as_tensor(x2)
        n, d = x1.shape
        m = x2.shape[0]
        diff = x1.reshape(n, 1, d) - x2.reshape(1, m, d)
        period = self.raw_period.exp()
        sin_sq = _sin_squared(diff * (np.pi) / period)            # (n, m, d)
        inv_sq_ls = (self.raw_lengthscale * -2.0).exp()            # (d,)
        weighted = (sin_sq * inv_sq_ls).sum(axis=2)                # (n, m)
        return (weighted * -2.0).exp() * self.raw_outputscale.exp()


def _sin_squared(t: Tensor) -> Tensor:
    """``sin(t)^2`` with a custom backward (d/dt sin^2 t = sin 2t)."""
    data = np.sin(t.data) ** 2

    def backward(upstream: np.ndarray) -> None:
        t._accumulate(upstream * np.sin(2.0 * t.data))

    return t._make(data, (t,), backward)


def _rounding_floor(a: np.ndarray, b: np.ndarray) -> float:
    """Rounding-error bound of the entries of ``pairwise_sqdist(a, b)``.

    ``|a_i|^2 + |b_j|^2 - 2 a_i.b_j`` cancels for coincident rows; a computed
    value at or below ``(d + 2) eps (max |a_i|^2 + max |b_j|^2)`` is zero up
    to rounding.
    """
    largest = (a * a).sum(axis=1).max(initial=0.0) + (b * b).sum(axis=1).max(initial=0.0)
    return (a.shape[1] + 2) * np.finfo(float).eps * largest


def _zero_below(t: Tensor, floor: float) -> Tensor:
    """``t`` where it exceeds ``floor``, else exactly zero with no gradient."""
    keep = t.data > floor

    def backward(upstream: np.ndarray) -> None:
        t._accumulate(upstream * keep)

    return t._make(np.where(keep, t.data, 0.0), (t,), backward)


class Matern52Kernel(StationaryKernel):
    """Matern kernel with ``nu = 5/2``."""

    def profile(self, r2):
        # As in ``forward``, r^2 below 1e-24 is clipped and passes no gradient.
        distance = np.sqrt(np.maximum(r2, 1e-24))
        passes = r2 >= 1e-24
        root5 = np.sqrt(5.0)
        decay = np.exp(distance * -root5)
        value = (distance * root5 + distance * distance * (5.0 / 3.0) + 1.0) * decay
        slope = (distance * root5 + 1.0) * decay * (-5.0 / 6.0)
        return value, np.where(passes, slope, 0.0)

    def forward(self, x1, x2) -> Tensor:
        # r^2 that is only rounding noise (the diagonal, duplicated rows) is
        # zeroed first, so it passes no gradient through the sqrt.
        a1, a2 = self._scaled(x1), self._scaled(x2)
        sqdist = _zero_below(pairwise_sqdist(a1, a2), _rounding_floor(a1.data, a2.data))
        distance = sqdist.clip_min(1e-24).sqrt()
        scale = self.raw_outputscale.exp()
        root5 = float(np.sqrt(5.0))
        poly = distance * root5 + (distance * distance) * (5.0 / 3.0) + 1.0
        return poly * (distance * -root5).exp() * scale
