"""Adam updates with global gradient-norm clipping, over a net's flat
parameter vector."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .nets import PolicyNet


class AdamState:
    """Adam's first and second moments, two vectors laid out like the net's
    flat parameter vector, and the number of steps taken. The scratch
    vectors an update works in are allocated by the first update."""

    def __init__(self, net: PolicyNet, m=None, v=None, t: int = 0):
        self.m = np.zeros_like(net.flat) if m is None else m
        self.v = np.zeros_like(net.flat) if v is None else v
        self.t = t
        self._scratch = None


def apply_update(
    net: PolicyNet,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    clip_norm: float = 5.0,
) -> None:
    """One Adam step in float64 over the net's flat weight vector, from the
    gradients of its passes widened to float64; gradients are cleared
    afterwards, and bump_version rounds the new weights into the passes.
    A parameter without a gradient counts as zeros: moments still advance,
    so a fresh optimizer leaves it unchanged but a warmed one may not.
    The clip norm sums each parameter's squares in layout order.
    """
    if state._scratch is None:
        state._scratch = (np.empty_like(net.flat), np.empty_like(net.flat))
    grad, work = state._scratch
    state.t += 1
    clip = clip_norm is not None and clip_norm > 0
    total, start = 0.0, 0
    for p in net.params.values():
        g = grad[start:start + p.data.size]
        start += g.size
        g[:] = 0.0 if p.grad is None else p.grad.reshape(-1)
        if clip and p.grad is not None:
            total += float(np.multiply(g, g, out=work[:g.size]).sum())
    norm = float(np.sqrt(total))
    if clip and norm > clip_norm:
        grad *= clip_norm / norm
    bias1 = 1.0 - beta1**state.t
    bias2 = 1.0 - beta2**state.t
    state.m *= beta1
    state.m += np.multiply(grad, 1.0 - beta1, out=work)
    state.v *= beta2
    state.v += np.multiply(np.square(grad, out=grad), 1.0 - beta2, out=grad)
    # flat -= lr * (m / bias1) / (sqrt(v / bias2) + eps), in the scratch vectors
    np.sqrt(np.divide(state.v, bias2, out=work), out=work)
    work += eps
    np.multiply(np.divide(state.m, bias1, out=grad), lr, out=grad)
    net.flat -= np.divide(grad, work, out=grad)
    net.zero_grad()
    net.bump_version()
