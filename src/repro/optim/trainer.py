"""Generic training loop shared by GP-likelihood and network training."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autodiff import Tensor
from repro.nn.module import Module
from repro.optim.adam import Adam

_TOL = 1e-7
_PATIENCE = 25
_GRAD_CLIP = 10.0


def train_module(module: Module, loss_fn: Callable[[], Tensor],
                 n_iters: int = 100, lr: float = 0.05) -> list[float]:
    """Minimise ``loss_fn()`` over the parameters of ``module`` with Adam.

    The loss function closes over the module (and data) and returns a scalar
    :class:`Tensor`; this is the pattern used for GP negative log marginal
    likelihood and KAT-GP alignment training.

    Returns the loss history.  Training stops early when the best loss has
    not improved by 1e-7 for 25 consecutive iterations, or when a non-finite
    loss is encountered (the last finite parameters are kept).  Gradients
    are clipped to norm 10.
    """
    optimizer = Adam(module.parameters(), lr=lr, grad_clip=_GRAD_CLIP)
    history: list[float] = []
    best_loss = np.inf
    best_state = module.state_dict()
    stall = 0
    for _ in range(int(n_iters)):
        optimizer.zero_grad()
        loss = loss_fn()
        value = float(loss.data)
        if not np.isfinite(value):
            module.load_state_dict(best_state)
            break
        history.append(value)
        if value < best_loss - _TOL:
            best_loss = value
            best_state = module.state_dict()
            stall = 0
        else:
            stall += 1
            if stall >= _PATIENCE:
                break
        loss.backward()
        optimizer.step()
    # Keep the best parameters seen rather than the last iterate.
    if history and history[-1] > best_loss:
        module.load_state_dict(best_state)
    return history
