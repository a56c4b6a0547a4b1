"""Small reverse-mode autodiff over floating numpy arrays.

Only the operations the policy networks need. Every op computes in its
operands' dtype: the policy networks' passes run in float32, and the
finite-difference tests check every backward formula in float64.
Gradients accumulate into Tensor.grad.

Ops record only inside ad.tape(), which the trainer's td_update alone
opens: each op computes its result and hands it to _wrap with its
module-level backward formula and what that formula reads, and _wrap
appends one entry to the open tape, a Wengert list in creation order.
Outside a tape every result comes back bare and nothing is recorded.
Tensor.backward walks the tape in reverse from its own entry.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Sequence

import numpy as np

_TAPE: Optional[list] = None


@contextlib.contextmanager
def tape():
    """Record every op run in the block on a fresh tape, so that backward()
    can be called on its results while the block lasts."""
    global _TAPE
    previous, _TAPE = _TAPE, []
    try:
        yield
    finally:
        _TAPE = previous


class DetachedGraphError(RuntimeError):
    """backward() was called on a tensor that is not on the open tape."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_entry")

    def __init__(self, data, requires_grad: bool = False):
        """data as an array: a float array keeps its dtype (and is not
        copied), anything else becomes float64."""
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._entry: Optional[int] = None  # index of the tape entry that made it

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Walk the open tape in reverse from this tensor's entry. A taped
        result's consumers all come after it, so its gradient is complete,
        summed in reverse creation order of its consumers, when the walk
        reaches it; a leaf sums its gradients into .grad in the same order."""
        entries, at = _TAPE, self._entry
        if entries is None or at is None or at >= len(entries) or entries[at][0] is not self:
            raise DetachedGraphError("tensor is not on the open tape")
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for i in range(at, -1, -1):
            out, formula, args = entries[i]
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in formula(g, *args):
                # never add in place: an op may hand one array to two parents
                if parent.requires_grad:
                    parent.grad = pg if parent.grad is None else parent.grad + pg
                else:
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg


def _wrap(data: np.ndarray, formula, *args) -> Tensor:
    """An op's result: the array it computed, recorded on the open tape
    with its backward formula and the operands and arrays that
    formula(g, *args) reads, or bare outside a tape. Built without
    __init__'s conversion, which a result computed from float tensors does
    not need."""
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    if _TAPE is None:
        out._entry = None
    else:
        out._entry = len(_TAPE)
        _TAPE.append((out, formula, args))
    return out


def constant(data) -> Tensor:
    return Tensor(data)


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting of a length-1 axis in the backward pass."""
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _tracked(t: Tensor) -> bool:
    """Whether a gradient into t is used: a leaf that wants one, or a recorded op."""
    return t.requires_grad or t._entry is not None


# Each op's backward formula takes the gradient g of its result and the
# arguments the op handed to _wrap, and returns (operand, gradient) pairs.


def _add_grad(g, a, b):
    return tuple((t, _sum_to_shape(g, t.data.shape)) for t in (a, b) if _tracked(t))


def add(a: Tensor, b: Tensor) -> Tensor:
    return _wrap(a.data + b.data, _add_grad, a, b)


def _sub_grad(g, a, b):
    return tuple((t, _sum_to_shape(tg, t.data.shape)) for t, tg in ((a, g), (b, -g)) if _tracked(t))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _wrap(a.data - b.data, _sub_grad, a, b)


def _mul_grad(g, a, b):
    return tuple(
        (t, _sum_to_shape(g * other.data, t.data.shape)) for t, other in ((a, b), (b, a)) if _tracked(t)
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _wrap(a.data * b.data, _mul_grad, a, b)


def _scale_grad(g, a, factor):
    return ((a, g * factor),)


def scale(a: Tensor, factor: float) -> Tensor:
    return _wrap(a.data * factor, _scale_grad, a, factor)


def _matmul_grad(g, a, b):
    grads = ((a, g @ b.data.T),) if _tracked(a) else ()
    return (grads + ((b, a.data.T @ g),)) if _tracked(b) else grads


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul takes two 2-D tensors")
    return _wrap(a.data @ b.data, _matmul_grad, a, b)


def _grouped_matmul_grad(g, x, spans):
    dx = np.concatenate([g[lo:hi] @ w.data.T for w, lo, hi in spans])
    return ((x, dx),) + tuple((w, x.data[lo:hi].T @ g[lo:hi]) for w, lo, hi in spans)


def grouped_matmul(x: Tensor, weights: Sequence[Tensor], bounds: Sequence[int]) -> Tensor:
    """Rows bounds[i]:bounds[i+1] of x times weights[i], one matmul per
    group of rows; the groups tile x."""
    spans = list(zip(weights, bounds[:-1], bounds[1:]))
    out = np.concatenate([x.data[lo:hi] @ w.data for w, lo, hi in spans])
    return _wrap(out, _grouped_matmul_grad, x, spans)


def _relu_grad(g, a, mask):
    return ((a, g * mask),)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _wrap(a.data * mask, _relu_grad, a, mask)


def _row_block_grad(g, a, rows):
    full = np.zeros_like(a.data)
    full[rows] = g
    return ((a, full),)


def row_block(a: Tensor, rows: slice) -> Tensor:
    """A contiguous block of rows of a, a[rows]."""
    return _wrap(a.data[rows], _row_block_grad, a, rows)


def _sum_all_grad(g, a):
    return ((a, np.full_like(a.data, float(g))),)


def sum_all(a: Tensor) -> Tensor:
    return _wrap(np.asarray(a.data.sum()), _sum_all_grad, a)


def _gather_rows_grad(g, table, idx):
    return ((table, _segment_sum(g, idx, table.data.shape[0])),)


def gather_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    return _wrap(table.data[idx], _gather_rows_grad, table, idx)


def _segment_sum(x: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    # One bincount over every element: each output element sums its rows in
    # their original order, in float64, and is rounded once to x's dtype.
    # np.add.reduceat pays a per-segment cost that dominates on the many
    # one- and two-row segments of a packed graph; a one-hot product was
    # faster only below about 100 rows, and np.add.at was slower throughout.
    width = math.prod(x.shape[1:])
    if count == 1 and width > 1 and x.flags.c_contiguous:
        # One segment: a reduction over the slow axis adds whole rows to the
        # running sum in order from 0.0 (pairwise summation applies only
        # along the fast axis), the same additions as the bincount.
        sums = np.add.reduce(x, axis=0, keepdims=True, dtype=np.float64, initial=0.0)
        return sums.astype(x.dtype, copy=False)
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, weights=x.reshape(-1), minlength=count * width)
    return sums.reshape((count,) + x.shape[1:]).astype(x.dtype, copy=False)


def _segment_sum_grad(g, x, ids):
    return ((x, g[ids]),)


def segment_sum(x: Tensor, ids, count: int) -> Tensor:
    """Row i of the (count, ...) result sums the rows of x whose id is i.
    Ids need not be sorted; an empty segment gives a zero row."""
    ids = np.asarray(ids, dtype=np.intp)
    return _wrap(_segment_sum(x.data, ids, count), _segment_sum_grad, x, ids)


def _blocks(x: np.ndarray, lo: int, hi: int, w: int) -> np.ndarray:
    """Rows lo:hi of x as (hi-lo)//w sequences of w rows, a view."""
    return x[lo:hi].reshape((hi - lo) // w, w, x.shape[1])


def _attention_grad(g, q, k, v, spans, factor, probs):
    dq, dk, dv = (np.empty_like(g) for _ in range(3))
    for (lo, hi, w), p in zip(spans, probs):
        go, qb, kb, vb = (_blocks(x, lo, hi, w) for x in (g, q.data, k.data, v.data))
        ds = go @ np.swapaxes(vb, -1, -2)
        ds = p * (ds - (ds * p).sum(axis=-1, keepdims=True)) * factor
        _blocks(dq, lo, hi, w)[...] = ds @ kb
        _blocks(dk, lo, hi, w)[...] = np.swapaxes(ds, -1, -2) @ qb
        _blocks(dv, lo, hi, w)[...] = np.swapaxes(p, -1, -2) @ go
    return tuple((t, tg) for t, tg in ((q, dq), (k, dk), (v, dv)) if _tracked(t))


def attention(q: Tensor, k: Tensor, v: Tensor, spans: Sequence[tuple[int, int, int]],
              factor: float) -> Tensor:
    """Self-attention within sequences of packed rows: each span (lo, hi, w)
    holds (hi-lo)//w sequences of w consecutive rows, and a sequence's rows
    attend over its own rows alone, softmax(q kᵀ * factor) v. The spans
    tile the rows in order."""
    out, probs = np.empty_like(q.data), []
    for lo, hi, w in spans:
        qb, kb, vb = (_blocks(x.data, lo, hi, w) for x in (q, k, v))
        scores = (qb @ np.swapaxes(kb, -1, -2)) * factor
        exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs.append(exp / exp.sum(axis=-1, keepdims=True))
        _blocks(out, lo, hi, w)[...] = probs[-1] @ vb
    return _wrap(out, _attention_grad, q, k, v, spans, factor, probs)


def _layer_norm_grad(g, x, gain, bias, inv, xhat):
    dxhat = g * gain.data
    dx = inv * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    dgain = _sum_to_shape(g * xhat, gain.data.shape)
    dbias = _sum_to_shape(g, bias.data.shape)
    return ((x, dx), (gain, dgain), (bias, dbias))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    # np.mean and np.var's own arithmetic, without their Python wrappers:
    # the same sums in the same order, so the same bits
    d = x.data.shape[1]
    centred = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / d
    var = np.add.reduce(centred * centred, axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    return _wrap(xhat * gain.data + bias.data, _layer_norm_grad, x, gain, bias, inv, xhat)


def _affine_grad(g, x, weight, bias):
    return (
        (x, g @ weight.data.T),
        (weight, x.data.T @ g),
        (bias, _sum_to_shape(g, bias.data.shape)),
    )


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias as one tape node."""
    return _wrap(x.data @ weight.data + bias.data, _affine_grad, x, weight, bias)
