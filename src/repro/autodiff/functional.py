"""Functional helpers built on :class:`repro.autodiff.Tensor`.

These are the handful of array-level operations that the kernel and GP code
need beyond plain tensor methods: pairwise squared distances and stacking.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Lift ``value`` to a :class:`Tensor` (no copy when already a tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def pairwise_sqdist(x1: Tensor, x2: Tensor) -> Tensor:
    """Pairwise squared Euclidean distances between rows of ``x1`` and ``x2``.

    Returns an ``(n, m)`` tensor where entry ``(i, j)`` is
    ``||x1[i] - x2[j]||^2``, computed as ``|x1[i]|^2 + |x2[j]|^2 - 2 x1[i].x2[j]``
    and clipped at zero to guard against tiny negative values from
    cancellation.  The result is a single graph node whose backward pass is
    written out by hand; entries that were clipped pass no gradient.
    """
    x1 = as_tensor(x1)
    x2 = as_tensor(x2)
    a, b = x1.data, x2.data
    sq1 = (a * a).sum(axis=1, keepdims=True)            # (n, 1)
    sq2 = (b * b).sum(axis=1, keepdims=True).T          # (1, m)
    dist = sq1 + sq2 - (a @ b.T) * 2.0                  # (n, m)

    def backward(upstream: np.ndarray) -> None:
        u = upstream * (dist >= 0.0)
        if x1.requires_grad:
            x1._accumulate((u.sum(axis=1, keepdims=True) * a - u @ b) * 2.0)
        if x2.requires_grad:
            x2._accumulate((u.sum(axis=0, keepdims=True).T * b - (a.T @ u).T) * 2.0)

    return x1._make(np.maximum(dist, 0.0), (x1, x2), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, preserving gradients."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(upstream: np.ndarray) -> None:
        pieces = np.split(np.asarray(upstream), len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    probe = tensors[0]
    return probe._make(data, tensors, backward)
