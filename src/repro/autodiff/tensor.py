"""A small reverse-mode automatic-differentiation engine.

Only the operations required by this package are implemented, but they are
implemented carefully: correct broadcasting in the backward pass, stable
nonlinearities and topologically-ordered gradient accumulation.  The engine is
deliberately eager and graph-per-call (like PyTorch), which is the natural fit
for the GP marginal-likelihood training loops used throughout the library.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

# Graph-construction state is thread-local so concurrent forward passes (the
# ``--spawn-workers`` service workers and the HTTP server run on threads of
# one process) cannot observe a ``no_grad`` entered on another thread.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Whether new tensors participate in graph construction on this thread."""
    return getattr(_GRAD_STATE, "enabled", True)


def _set_grad_enabled(enabled: bool) -> None:
    _GRAD_STATE.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (pure forward passes).

    The flag is per-thread: entering ``no_grad`` on one thread leaves graph
    construction untouched on every other thread.
    """
    previous = is_grad_enabled()
    _set_grad_enabled(False)
    try:
        yield
    finally:
        _set_grad_enabled(previous)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    return arr


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a float numpy array.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties                                                    #
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() only works for single-element tensors")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    # ------------------------------------------------------------------ #
    # graph construction helpers                                          #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=float), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # arithmetic                                                          #
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data + other.data

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream)
            other._accumulate(upstream)

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(-upstream)

        return self._make(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data - other.data

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream)
            other._accumulate(-upstream)

        return self._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data * other.data

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * other.data)
            other._accumulate(upstream * self.data)

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data / other.data

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream / other.data)
            other._accumulate(-upstream * self.data / (other.data ** 2))

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        exponent = float(exponent)
        data = self.data ** exponent

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * exponent * self.data ** (exponent - 1.0))

        return self._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data @ other.data

        def backward(upstream: np.ndarray) -> None:
            upstream = np.asarray(upstream, dtype=float)
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(upstream * b)
                other._accumulate(upstream * a)
            elif a.ndim == 1:
                # (d,) @ (d, m) -> (m,)
                self._accumulate(upstream @ b.T)
                other._accumulate(np.outer(a, upstream))
            elif b.ndim == 1:
                # (n, d) @ (d,) -> (n,)
                self._accumulate(np.outer(upstream, b))
                other._accumulate(a.T @ upstream)
            else:
                self._accumulate(upstream @ np.swapaxes(b, -1, -2))
                other._accumulate(np.swapaxes(a, -1, -2) @ upstream)

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities                                          #
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(np.maximum(self.data, 1e-300))

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream / np.maximum(self.data, 1e-300))

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(np.maximum(self.data, 0.0))

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * 0.5 / np.maximum(data, 1e-150))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -700, 700))),
            np.exp(np.clip(self.data, -700, 700))
            / (1.0 + np.exp(np.clip(self.data, -700, 700))),
        )

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * (self.data > 0.0))

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * np.sign(self.data))

        return self._make(data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise maximum with a constant (gradient passes where unclipped)."""
        data = np.maximum(self.data, minimum)

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(upstream * (self.data >= minimum))

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation and reductions                                   #
    # ------------------------------------------------------------------ #
    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(np.asarray(upstream).T)

        return self._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(upstream: np.ndarray) -> None:
            self._accumulate(np.asarray(upstream).reshape(original))

        return self._make(data, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(upstream: np.ndarray) -> None:
            upstream = np.asarray(upstream, dtype=float)
            if axis is None:
                grad = np.broadcast_to(upstream, self.data.shape)
            else:
                if not keepdims:
                    upstream = np.expand_dims(upstream, axis=axis)
                grad = np.broadcast_to(upstream, self.data.shape)
            self._accumulate(grad)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(upstream: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, upstream)
            self._accumulate(grad)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # backward pass                                                       #
    # ------------------------------------------------------------------ #
    def backward(self, gradient=None) -> None:
        """Backpropagate from this tensor.

        ``gradient`` defaults to 1 for scalar outputs; for non-scalar outputs
        an explicit upstream gradient of matching shape must be supplied
        (this is what the GP marginal-likelihood trainer uses to seed the
        gradient with respect to the kernel matrix).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("gradient must be provided for non-scalar outputs")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=float)

        ordered: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    ordered.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)

        grads: dict[int, np.ndarray] = {id(self): gradient}
        for node in reversed(ordered):
            upstream = grads.pop(id(node), None)
            if upstream is None:
                continue
            if node._backward is None:
                # Leaf tensor: accumulate into .grad
                node._accumulate(upstream)
                continue
            # Intermediate node: route gradient to parents through its rule.
            # The op closures call parent._accumulate directly; to keep leaf
            # semantics we temporarily intercept accumulation via .grad for
            # parents that are *not* leaves.
            node._route(upstream, grads)

    def _route(self, upstream: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the op backward rule, redirecting non-leaf parent grads."""
        saved: list[tuple[Tensor, np.ndarray | None]] = []
        for parent in self._parents:
            if parent._backward is not None and parent.requires_grad:
                saved.append((parent, parent.grad))
                parent.grad = None
        self._backward(upstream)
        for parent, previous in saved:
            contribution = parent.grad
            parent.grad = previous
            if contribution is None:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + contribution
            else:
                grads[id(parent)] = contribution
