"""Double DQN targets and prioritized TD updates."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..kg import canonical_hash  # unused here, but perfbench/tracing.py wraps this name
from ..neural import autodiff as ad
from ..neural.nets import EmptyCandidatesError, PolicyNet
from ..neural.optim import AdamState, apply_update
from .replay import PrioritizedBuffer


def double_dqn_target(
    reward: float,
    done: bool,
    q_next_online: Optional[Sequence[float]],
    q_next_target: Optional[Sequence[float]],
    gamma: float,
) -> float:
    """y = r for terminal transitions, else r + gamma * Q_target(s', a*) with
    a* chosen by the online net (ties to the lowest index)."""
    if done:
        return float(reward)
    if q_next_online is None or len(q_next_online) == 0:
        raise EmptyCandidatesError("non-terminal transition needs next candidates")
    best = int(np.argmax(q_next_online))
    return float(reward) + gamma * float(q_next_target[best])


def _next_state_targets(batch, online: PolicyNet, target: PolicyNet, gamma: float) -> np.ndarray:
    """Double DQN targets for a batch, from the next states of its
    non-terminal transitions. The online net, whose weights change at every
    update, scores them in one fresh pass, run before td_update opens its
    tape and so recording nothing; the target net scores them from its
    memo, which lasts until the next sync_target."""
    targets = np.array([tr.td_reward for tr in batch], dtype=np.float64)
    live = [(i, tr) for i, tr in enumerate(batch) if not tr.done]
    if not live:
        return targets
    states = [(tr.next_obs, tr.cond_text, tr.next_candidates) for _, tr in live]
    q_on = online.q_tensor(states).data[:, 0]
    start = 0
    for (i, tr), state in zip(live, states):
        rows = slice(start, start + len(tr.next_candidates))
        targets[i] = double_dqn_target(tr.td_reward, False, q_on[rows], target.q_values(*state), gamma)
        start = rows.stop
    return targets


def td_update(
    buffer: PrioritizedBuffer,
    online: PolicyNet,
    target: PolicyNet,
    batch_size: int,
    gamma: float,
    rng: np.random.Generator,
    adam: AdamState,
    lr: float = 1e-3,
) -> float:
    """Sample, regress Q(s, a) onto the Double DQN target with importance
    weights, refresh sampled priorities, and apply one Adam step.

    The one place the program records a tape: the online net scores the
    batch's chosen actions on it in one packed pass (see
    PolicyNet.q_tensor), and the loss is taken back through it. The
    targets and importance weights enter it as the net's constants, so the
    whole chain runs in its passes' dtype."""
    batch, indices, weights = buffer.sample(batch_size, rng)
    targets = _next_state_targets(batch, online, target, gamma)

    online.zero_grad()
    with ad.tape():
        q_rows = online.q_tensor([(tr.obs, tr.cond_text, (tr.chosen_text,)) for tr in batch])
        errors = ad.sub(q_rows, online.constant(targets[:, None]))
        weighted = ad.mul(ad.mul(errors, errors), online.constant(weights[:, None]))
        loss = ad.scale(ad.sum_all(weighted), 1.0 / len(batch))
        loss.backward()
    apply_update(online, adam, lr=lr)

    td_errors = np.abs(q_rows.data[:, 0] - targets)
    buffer.update_priorities(indices, td_errors)
    return loss.item()
