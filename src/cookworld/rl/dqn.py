"""Double DQN targets and prioritized TD updates."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..kg import canonical_hash  # noqa: F401 -- a binding perfbench/tracing.py wraps
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


def _q_rows(net: PolicyNet, observations, conds, candidates) -> ad.Tensor:
    """Q of row i: observations[i], conditioned on conds[i] when the net
    takes an instruction (conds is empty otherwise), paired with
    candidates[i]. One graph pass and one text pass, each over the distinct
    items, then one scorer pass over all rows."""
    n = len(candidates)
    encoded = net.text_tensor(list(candidates) + list(conds))
    state = net.graph_tensor(observations)
    if conds:
        state = ad.concat_cols([state, ad.gather_rows(encoded, np.arange(n, 2 * n))])
    return net.score_tensor(state, ad.gather_rows(encoded, np.arange(n)))


def _next_state_targets(batch, online: PolicyNet, target: PolicyNet, gamma: float) -> np.ndarray:
    """Double DQN targets for a batch. Every next-state candidate of every
    non-terminal transition is one row. The online net, whose weights change
    at every update, scores the rows in one fresh no-grad pass; the target
    net scores them from its vector cache, which lasts until the next
    sync_target."""
    targets = np.array([tr.td_reward for tr in batch], dtype=np.float64)
    live = [(i, tr) for i, tr in enumerate(batch) if not tr.done]
    if not live:
        return targets
    observations = [tr.next_obs for _, tr in live for _ in tr.next_candidates]
    candidates = [c for _, tr in live for c in tr.next_candidates]
    conds = [tr.cond_text for _, tr in live for _ in tr.next_candidates] if online.state_parts == 2 else []
    with ad.no_grad():
        q_on = _q_rows(online, observations, conds, candidates).data[:, 0]
    q_tg = target.batch_q_values([(tr.next_obs, tr.cond_text, tr.next_candidates) for _, tr in live])
    start = 0
    for i, tr in live:
        rows = slice(start, start + len(tr.next_candidates))
        targets[i] = double_dqn_target(tr.td_reward, False, q_on[rows], q_tg[rows], gamma)
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

    The online net scores the batch's chosen actions on the tape in one
    packed graph, text and scorer pass (see _q_rows)."""
    batch, indices, weights = buffer.sample(batch_size, rng)
    targets = _next_state_targets(batch, online, target, gamma)

    online.zero_grad()
    conds = [tr.cond_text for tr in batch] if online.state_parts == 2 else []
    q_rows = _q_rows(online, [tr.obs for tr in batch], conds, [tr.chosen_text for tr in batch])
    errors = ad.sub(q_rows, ad.constant(targets[:, None]))
    weighted = ad.mul(ad.mul(errors, errors), ad.constant(weights[:, None]))
    loss = ad.scale(ad.sum_all(weighted), 1.0 / len(batch))
    loss_value = loss.item()
    loss.backward()
    apply_update(online, adam, lr=lr)

    td_errors = np.abs(q_rows.data[:, 0] - targets)
    buffer.update_priorities(indices, td_errors)
    return loss_value
