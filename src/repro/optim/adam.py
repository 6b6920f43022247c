"""Adam optimizer (Kingma & Ba, 2015) over :class:`repro.nn.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor

_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class Adam:
    """Adam with optional gradient clipping.

    The moment decay rates are fixed at ``(0.9, 0.999)`` and the
    denominator guard at ``1e-8``, the defaults of the original paper.

    Used to maximise the GP marginal likelihood with respect to kernel,
    encoder and decoder parameters, mirroring the paper's PyTorch training.
    """

    def __init__(self, parameters: list[Tensor], lr: float = 0.01,
                 grad_clip: float | None = None):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._step = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one Adam update using the currently accumulated gradients."""
        self._step += 1
        bias1 = 1.0 - _BETA1 ** self._step
        bias2 = 1.0 - _BETA2 ** self._step
        for index, param in enumerate(self.parameters):
            grad = param.grad
            if grad is None:
                continue
            grad = np.asarray(grad, dtype=float)
            if self.grad_clip is not None:
                norm = np.linalg.norm(grad)
                if norm > self.grad_clip:
                    grad = grad * (self.grad_clip / (norm + 1e-12))
            self._m[index] = _BETA1 * self._m[index] + (1 - _BETA1) * grad
            self._v[index] = _BETA2 * self._v[index] + (1 - _BETA2) * grad**2
            m_hat = self._m[index] / bias1
            v_hat = self._v[index] / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
