"""Adam updates with global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .nets import PolicyNet


class AdamState:
    def __init__(self, net: PolicyNet):
        self.m = {name: np.zeros_like(p.data) for name, p in net.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in net.params.items()}
        self.t = 0

    def as_dict(self) -> dict:
        return {"m": self.m, "v": self.v, "t": self.t}

    @classmethod
    def from_dict(cls, net: PolicyNet, state: dict) -> "AdamState":
        out = cls(net)
        for name in out.m:
            np.copyto(out.m[name], state["m"][name])
            np.copyto(out.v[name], state["v"][name])
        out.t = int(state["t"])
        return out


def global_grad_norm(net: PolicyNet) -> float:
    total = 0.0
    for p in net.params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def apply_update(
    net: PolicyNet,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    clip_norm: float = 5.0,
) -> None:
    """One Adam step over every parameter; gradients are cleared afterwards.

    Moments still advance on a zero gradient, so a fresh optimizer
    leaves parameters unchanged but a warmed one may not.
    """
    state.t += 1
    clip_scale = 1.0
    if clip_norm is not None and clip_norm > 0:
        norm = global_grad_norm(net)
        if norm > clip_norm:
            clip_scale = clip_norm / norm
    bias1 = 1.0 - beta1**state.t
    bias2 = 1.0 - beta2**state.t
    for name, p in net.params.items():
        grad = p.grad if p.grad is not None else 0.0
        grad = grad * clip_scale if clip_scale != 1.0 and p.grad is not None else grad
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * np.square(grad)
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
    net.zero_grad()
    net.bump_version()
