"""Neural Kernel (Neuk) and the deep-kernel baseline.

The Neural Kernel (paper section 3.1, Eq. 8-10) composes primitive kernels
the way a linear layer composes features:

1. every primitive kernel ``h_i`` gets its own linear input map
   ``h_i(x, x') = h_i(W_i x + b_i, W_i x' + b_i)`` (Eq. 8);
2. the kernel values are mixed by a linear layer
   ``z = W_z h(x, x') + b_z`` (Eq. 9);
3. a final exponential gives ``k_neuk(x, x') = exp(sum_j z_j + b_k)``
   (Eq. 10).

The result is ``exp(sum_i w_i h_i + c)`` with ``w_i`` the column sums of
the signed mixing matrix ``W_z`` (``mix_weight``).  The exponential of a
PSD kernel is PSD, but ``sum_i w_i h_i`` is only PSD when every ``w_i >= 0``,
so the Neuk is positive semi-definite only while every column sum of
``mix_weight`` is non-negative.  Nothing enforces that: training can drive
a column sum below zero and make the Gram matrix indefinite.

:class:`DeepKernel` is the DKL baseline: an MLP feature extractor feeding
an RBF kernel.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.functional import as_tensor, stack
from repro.kernels.base import Kernel, _log
from repro.kernels.stationary import (
    PeriodicKernel,
    RBFKernel,
    RationalQuadraticKernel,
)
from repro.nn.layers import Linear, MLP
from repro.nn.module import Parameter
from repro.utils.random import RandomState, as_rng

_DEFAULT_PRIMITIVES = ("rbf", "rq", "periodic")


def _make_primitive(name: str, dim: int) -> Kernel:
    name = name.lower()
    if name == "rbf":
        return RBFKernel(dim)
    if name == "rq":
        return RationalQuadraticKernel(dim)
    if name in ("per", "periodic"):
        return PeriodicKernel(dim)
    raise ValueError(f"unknown primitive kernel {name!r}")


class NeuralKernel(Kernel):
    """A single Neuk unit (Eq. 8-10 of the paper).

    Parameters
    ----------
    input_dim:
        Dimension of the design space the kernel operates on.
    latent_dim:
        Dimension of the linear input maps ``W_i`` (the space the primitive
        kernels see).  Defaults to ``input_dim``.
    primitives:
        Names of the primitive kernels; the paper uses PER, RBF and RQ
        (Fig. 1a).
    n_mix:
        Output dimension of the mixing layer (number of latent variables
        ``z_j`` summed inside the exponential).
    """

    def __init__(self, input_dim: int, latent_dim: int | None = None,
                 primitives: tuple[str, ...] = _DEFAULT_PRIMITIVES,
                 n_mix: int = 4, rng: RandomState = None):
        super().__init__(input_dim)
        rng = as_rng(rng)
        self.latent_dim = int(latent_dim) if latent_dim is not None else int(input_dim)
        self.primitive_names = tuple(primitives)
        if not self.primitive_names:
            raise ValueError("at least one primitive kernel is required")
        self.n_mix = int(n_mix)
        # One linear input map per primitive kernel (Eq. 8).
        self.input_maps = [
            Linear(self.input_dim, self.latent_dim, rng=rng, init_scheme="near_identity")
            for _ in self.primitive_names
        ]
        self.primitives = [
            _make_primitive(name, self.latent_dim) for name in self.primitive_names
        ]
        # Mixing layer over kernel values (Eq. 9).  Initialised so the unit
        # starts as an (almost) plain average of the primitive kernels, which
        # keeps early GP fits well conditioned.
        n_prim = len(self.primitive_names)
        mix = np.full((self.n_mix, n_prim), 1.0 / (n_prim * self.n_mix))
        mix = mix + as_rng(rng).normal(0.0, 0.01, size=mix.shape)
        self.mix_weight = Parameter(mix, name="mix_weight")
        self.mix_bias = Parameter(np.zeros(self.n_mix), name="mix_bias")
        # Output bias b_k inside the exponential (Eq. 10).
        self.output_bias = Parameter([0.0], name="output_bias")

    def forward(self, x1, x2) -> Tensor:
        x1 = as_tensor(x1)
        x2 = as_tensor(x2)
        # Eq. 8: primitive kernels on linearly mapped inputs.
        values = []
        for mapper, primitive in zip(self.input_maps, self.primitives):
            z1 = mapper(x1)
            z2 = mapper(x2)
            values.append(primitive(z1, z2))
        h = stack(values, axis=0)                      # (n_prim, n, m)
        n_prim = len(values)
        n, m = values[0].shape
        # Eq. 9: z_j = sum_i W_z[j, i] * h_i + b_z[j], kept as (n_mix, n, m).
        h_flat = h.reshape(n_prim, n * m)
        z_flat = self.mix_weight @ h_flat              # (n_mix, n*m)
        z = z_flat.reshape(self.n_mix, n, m) + self.mix_bias.reshape(self.n_mix, 1, 1)
        # Eq. 10: exponential of the summed latent variables plus bias.
        exponent = z.sum(axis=0) + self.output_bias
        # Clamp the exponent for numerical stability of downstream Cholesky.
        return _clip(exponent, -30.0, 30.0).exp()

    def describe(self) -> dict[str, object]:
        """Human-readable summary used by the experiment reports."""
        return {
            "type": "NeuralKernel",
            "primitives": list(self.primitive_names),
            "latent_dim": self.latent_dim,
            "n_mix": self.n_mix,
            "n_parameters": self.num_parameters(),
        }


def _clip(t: Tensor, low: float, high: float) -> Tensor:
    """Clip with straight-through gradient inside the interval."""
    data = np.clip(t.data, low, high)

    def backward(upstream: np.ndarray) -> None:
        inside = (t.data > low) & (t.data < high)
        t._accumulate(upstream * inside)

    return t._make(data, (t,), backward)


class DeepKernel(Kernel):
    """Deep Kernel Learning baseline: RBF on MLP-extracted features.

    This is the kernel KATO positions Neuk against (paper section 1 and 3.1):
    powerful but data-hungry and sensitive to the network design.
    """

    def __init__(self, input_dim: int, feature_dim: int = 8,
                 hidden: tuple[int, ...] = (32, 32), rng: RandomState = None):
        super().__init__(input_dim)
        rng = as_rng(rng)
        self.extractor = MLP(input_dim, feature_dim, hidden=hidden,
                             activation="tanh", rng=rng)
        self.rbf = RBFKernel(feature_dim)
        self.feature_dim = int(feature_dim)

    def forward(self, x1, x2) -> Tensor:
        f1 = self.extractor(as_tensor(x1))
        f2 = self.extractor(as_tensor(x2))
        return self.rbf(f1, f2)
