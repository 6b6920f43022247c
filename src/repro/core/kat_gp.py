"""Knowledge Alignment and Transfer GP (KAT-GP), paper section 3.2.

The source knowledge lives in a *frozen* multi-output GP fitted on the source
circuit's data.  Transfer to a target circuit with a different design space
and a different performance space is achieved by

* an **encoder** ``E`` mapping target designs into the source design space,
* a **decoder** ``D`` mapping the vector of source-metric predictions into
  the target metrics,

both small ``linear-sigmoid-linear`` networks (hidden width 32, as in the
paper).  Because the decoder is nonlinear the composite model is no longer a
GP; its predictive mean and variance are obtained with the Delta method
(Eq. 11) and the encoder/decoder are trained by maximising the resulting
Gaussian log-likelihood of the target data (Eq. 12).
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor, no_grad
from repro.autodiff.functional import as_tensor, stack
from repro.errors import NotFittedError
from repro.gp import MultiOutputGP
from repro.nn.layers import MLP
from repro.nn.module import Module, Parameter
from repro.optim.trainer import train_module
from repro.utils.random import RandomState, as_rng
from repro.utils.validation import check_matrix


class SourceModel:
    """A frozen multi-output GP holding the source circuit's knowledge.

    Parameters
    ----------
    x, y:
        Source designs (unit cube, ``(n_s, d_s)``) and source metrics
        ``(n_s, m_s)``.
    kernel_factory:
        Kernel constructor for the source GPs (defaults to ARD RBF; pass
        :func:`repro.core.neuk_gp.neural_kernel_factory` for Neuk sources).
    metric_names:
        Optional names of the source metrics (used in reports).
    """

    def __init__(self, x, y, kernel_factory=None, metric_names: list[str] | None = None,
                 train_iters: int = 60):
        x = check_matrix(x, "x")
        y = check_matrix(y, "y")
        self.x = x
        self.y = y
        self.metric_names = list(metric_names) if metric_names else [
            f"source_metric_{i}" for i in range(y.shape[1])]
        self.gp = MultiOutputGP(kernel_factory=kernel_factory)
        self.gp.fit(x, y, n_iters=train_iters)
        # Output standardisation so the decoder sees O(1) inputs.
        self.y_mean = y.mean(axis=0)
        y_std = y.std(axis=0)
        self.y_std = np.where(y_std < 1e-9, 1.0, y_std)

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    @property
    def output_dim(self) -> int:
        return self.y.shape[1]

    def predict_standardized_tensor(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Differentiable source predictions in standardized output space."""
        mean, var = self.gp.predict_tensor(x)
        mean_std = (mean - Tensor(self.y_mean)) * Tensor(1.0 / self.y_std)
        var_std = var * Tensor(1.0 / self.y_std**2)
        return mean_std, var_std


class KATGP(Module):
    """Encoder / frozen-source-GP / decoder transfer surrogate.

    The model predicts every target metric jointly: the decoder consumes the
    whole vector of (standardized) source-metric predictions, which is what
    lets knowledge transfer across performance spaces of different sizes.

    Parameters
    ----------
    source:
        The frozen :class:`SourceModel`.
    target_input_dim / target_output_dim:
        Dimensions of the target design space and metric vector.
    hidden:
        Hidden width of the encoder and decoder (32 in the paper).
    """

    def __init__(self, source: SourceModel, target_input_dim: int,
                 target_output_dim: int, hidden: int = 32,
                 rng: RandomState = None):
        rng = as_rng(rng)
        self.source = source
        self.target_input_dim = int(target_input_dim)
        self.target_output_dim = int(target_output_dim)
        self.hidden = int(hidden)
        # Encoder: target design -> source design space (kept in [0, 1] via a
        # final sigmoid since source GPs were trained on the unit cube).
        self.encoder = MLP(self.target_input_dim, source.input_dim,
                           hidden=(hidden,), activation="sigmoid",
                           output_activation="sigmoid", rng=rng)
        # Decoder: explicit linear-sigmoid-linear parameters so its Jacobian
        # (needed by the Delta method) is available analytically.
        scale_in = 1.0 / np.sqrt(source.output_dim)
        scale_hidden = 1.0 / np.sqrt(hidden)
        self.dec_w1 = Parameter(rng.normal(0.0, scale_in, size=(hidden, source.output_dim)))
        self.dec_b1 = Parameter(np.zeros(hidden))
        self.dec_w2 = Parameter(rng.normal(0.0, scale_hidden,
                                           size=(self.target_output_dim, hidden)))
        self.dec_b2 = Parameter(np.zeros(self.target_output_dim))
        self.raw_noise = Parameter(np.full(self.target_output_dim, np.log(1e-2)))
        # Target output standardisation (set at fit time).
        self._t_mean = np.zeros(self.target_output_dim)
        self._t_std = np.ones(self.target_output_dim)
        self._fitted = False
        self.training_history_: list[float] = []

    # ------------------------------------------------------------------ #
    # forward pieces                                                      #
    # ------------------------------------------------------------------ #
    def _decode(self, mean_s: Tensor, var_s: Tensor) -> tuple[Tensor, Tensor]:
        """Delta-method push of the source posterior through the decoder.

        Returns the decoded mean ``(n, m_t)`` and variance ``(n, m_t)`` in
        *standardized target* space (Eq. 11 with independent source outputs).
        """
        pre = mean_s @ self.dec_w1.transpose() + self.dec_b1            # (n, H)
        hidden = pre.sigmoid()
        mean_t = hidden @ self.dec_w2.transpose() + self.dec_b2         # (n, m_t)
        dhidden = hidden * (hidden * -1.0 + 1.0)                        # sigmoid'
        variances = []
        for k in range(self.target_output_dim):
            w2_row = self.dec_w2[k].reshape(1, self.hidden)              # (1, H)
            # J_k[i, j] = sum_h w2[k, h] * s'(z_i)[h] * w1[h, j]
            jac_k = (dhidden * w2_row) @ self.dec_w1                     # (n, m_s)
            variances.append(((jac_k * jac_k) * var_s).sum(axis=1))      # (n,)
        var_t = stack(variances, axis=1)                                  # (n, m_t)
        return mean_t, var_t

    def _forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Standardized-target predictive mean and variance (with gradients)."""
        encoded = self.encoder(x)
        mean_s, var_s = self.source.predict_standardized_tensor(encoded)
        return self._decode(mean_s, var_s)

    # ------------------------------------------------------------------ #
    # training                                                            #
    # ------------------------------------------------------------------ #
    def fit(self, x, y, n_iters: int = 150, lr: float = 0.02) -> "KATGP":
        """Train encoder, decoder and noise on target data (paper Eq. 12)."""
        x = check_matrix(x, "x", n_cols=self.target_input_dim)
        y = check_matrix(y, "y", n_cols=self.target_output_dim)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        self._t_mean = y.mean(axis=0)
        t_std = y.std(axis=0)
        self._t_std = np.where(t_std < 1e-9, 1.0, t_std)
        y_standardized = (y - self._t_mean) / self._t_std
        x_tensor = Tensor(x)
        y_tensor = Tensor(y_standardized)

        def negative_log_likelihood() -> Tensor:
            mean, var = self._forward(x_tensor)
            noise = self.raw_noise.exp() + 1e-6
            total_var = var + noise
            residual = y_tensor - mean
            log_term = total_var.log()
            nll = (residual * residual / total_var + log_term).sum() * 0.5
            return nll * (1.0 / x.shape[0])

        self.training_history_ = train_module(self, negative_log_likelihood,
                                              n_iters=n_iters, lr=lr)
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    # prediction                                                          #
    # ------------------------------------------------------------------ #
    def predict(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and variance per target metric, original scale."""
        if not self._fitted:
            raise NotFittedError("KATGP must be fitted before prediction")
        x = check_matrix(x, "x", n_cols=self.target_input_dim)
        with no_grad():
            mean, var = self._forward(Tensor(x))
            noise = np.exp(self.raw_noise.data) + 1e-6
        mean = mean.data * self._t_std + self._t_mean
        var = (var.data + noise) * self._t_std**2
        return mean, np.maximum(var, 1e-12)

    def objective_view(self) -> "_ColumnView":
        """Single-output view of metric column 0 (the optimisation objective)."""
        return _ColumnView(self, columns=[0], flatten=True)

    def constraint_view(self) -> "_ColumnView":
        """Multi-output view of the constraint metric columns (1..m_t-1)."""
        return _ColumnView(self, columns=list(range(1, self.target_output_dim)),
                           flatten=False)


class _ColumnView:
    """Adapter exposing a subset of KAT-GP output columns via ``predict``.

    The objective view flattens to 1-D (what the scalar acquisitions expect);
    the constraint view always stays 2-D even with a single constraint (what
    the probability-of-feasibility code expects).
    """

    def __init__(self, model: KATGP, columns: list[int], flatten: bool):
        self.model = model
        self.columns = list(columns)
        self.flatten = bool(flatten)

    def predict(self, x) -> tuple[np.ndarray, np.ndarray]:
        mean, var = self.model.predict(x)
        mean = mean[:, self.columns]
        var = var[:, self.columns]
        if self.flatten and len(self.columns) == 1:
            return mean.ravel(), var.ravel()
        return mean, var
