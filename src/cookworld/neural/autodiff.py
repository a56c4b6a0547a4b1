"""Small reverse-mode autodiff over float64 numpy arrays.

Only the operations the policy networks need. Gradients accumulate into
Tensor.grad; every backward formula is covered by finite-difference tests.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class DetachedGraphError(RuntimeError):
    """backward() was called on a tensor with no recorded graph."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        if not self._parents and self._backward is None:
            raise DetachedGraphError("tensor has no recorded computation graph")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in node._backward(g):
                # never add in place: an op may hand one array to two parents
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg


def _wrap(data, parents, backward) -> Tensor:
    if not _GRAD_ENABLED:
        return Tensor(data)
    return Tensor(data, parents=parents, backward=backward)


def constant(data) -> Tensor:
    return Tensor(data)


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting in the backward pass."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _tracked(t: Tensor) -> bool:
    """Whether a gradient into t is used: a leaf that wants one, or a recorded op."""
    return t.requires_grad or t._backward is not None


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return tuple((t, _sum_to_shape(g, t.data.shape)) for t in (a, b) if _tracked(t))

    return _wrap(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        return tuple((t, _sum_to_shape(tg, t.data.shape)) for t, tg in ((a, g), (b, -g)) if _tracked(t))

    return _wrap(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return tuple(
            (t, _sum_to_shape(g * other.data, t.data.shape)) for t, other in ((a, b), (b, a)) if _tracked(t)
        )

    return _wrap(out, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    out = a.data * factor

    def backward(g):
        return ((a, g * factor),)

    return _wrap(out, (a,), backward)


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or batched over the leading axis
    of two 3-D tensors."""
    if a.data.ndim != b.data.ndim:
        raise ValueError("matmul operands need the same number of dimensions")
    out = a.data @ b.data

    def backward(g):
        return ((a, g @ _swap_last(b.data)), (b, _swap_last(a.data) @ g))

    return _wrap(out, (a, b), backward)


def grouped_matmul(x: Tensor, weights: Sequence[Tensor], bounds: Sequence[int]) -> Tensor:
    """Rows bounds[i]:bounds[i+1] of x times weights[i], one matmul per
    group of rows; the groups tile x."""
    spans = list(zip(weights, bounds[:-1], bounds[1:]))
    out = np.concatenate([x.data[lo:hi] @ w.data for w, lo, hi in spans])

    def backward(g):
        dx = np.concatenate([g[lo:hi] @ w.data.T for w, lo, hi in spans])
        return ((x, dx),) + tuple((w, x.data[lo:hi].T @ g[lo:hi]) for w, lo, hi in spans)

    return _wrap(out, (x, *weights), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    out = _swap_last(a.data)

    def backward(g):
        return ((a, _swap_last(g)),)

    return _wrap(out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        return ((a, g.reshape(a.data.shape)),)

    return _wrap(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = a.data * mask

    def backward(g):
        return ((a, g * mask),)

    return _wrap(out, (a,), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=1)
    widths = [p.data.shape[1] for p in parts]

    def backward(g):
        grads = []
        offset = 0
        for part, width in zip(parts, widths):
            grads.append((part, g[:, offset : offset + width]))
            offset += width
        return tuple(grads)

    return _wrap(out, tuple(parts), backward)


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def backward(g):
        return ((a, np.full_like(a.data, float(g))),)

    return _wrap(out, (a,), backward)


def gather_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    out = table.data[idx]

    def backward(g):
        return ((table, _segment_sum(g, idx, table.data.shape[0])),)

    return _wrap(out, (table,), backward)


def _segment_sum(x: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    # One bincount over every element: each output element sums its rows in
    # their original order. np.add.reduceat pays a per-segment cost that
    # dominates on the many one- and two-row segments of a packed graph.
    width = int(np.prod(x.shape[1:], dtype=np.intp))
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, weights=x.reshape(-1), minlength=count * width)
    return sums.reshape((count,) + x.shape[1:])


def segment_sum(x: Tensor, ids, count: int) -> Tensor:
    """Row i of the (count, ...) result sums the rows of x whose id is i.
    Ids need not be sorted; an empty segment gives a zero row."""
    ids = np.asarray(ids, dtype=np.intp)
    out = _segment_sum(x.data, ids, count)

    def backward(g):
        return ((x, g[ids]),)

    return _wrap(out, (x,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis; -inf entries get weight 0."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((a, out * (g - inner)),)

    return _wrap(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        d = x.data.shape[1]
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        dgain = _sum_to_shape(g * xhat, gain.data.shape)
        dbias = _sum_to_shape(g, bias.data.shape)
        return ((x, dx), (gain, dgain), (bias, dbias))

    return _wrap(out, (x, gain, bias), backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias as one tape node."""
    out = x.data @ weight.data + bias.data

    def backward(g):
        return (
            (x, g @ weight.data.T),
            (weight, x.data.T @ g),
            (bias, _sum_to_shape(g, bias.data.shape)),
        )

    return _wrap(out, (x, weight, bias), backward)
