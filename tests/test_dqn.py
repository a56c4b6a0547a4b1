"""Double DQN target arithmetic and prioritized TD updates."""

import dataclasses

import numpy as np
import pytest

from cookworld.engine.vocab import default_vocabulary
from cookworld.kg import KGObservation, Triplet
from cookworld.neural.nets import EmptyCandidatesError, PolicyNet, clone_net
from cookworld.neural.optim import AdamState
from cookworld.rl.dqn import double_dqn_target, td_update
from cookworld.rl.replay import PrioritizedBuffer, Transition


def test_terminal_target_is_reward():
    assert double_dqn_target(1.0, True, None, None, 0.9) == 1.0
    assert double_dqn_target(-2.5, True, [], [], 0.9) == -2.5


def test_hand_computed_target():
    y = double_dqn_target(1.0, False, [0.2, 0.5], [0.9, 0.1], 0.9)
    assert y == pytest.approx(1.0 + 0.9 * 0.1, abs=1e-15)


def test_gamma_zero():
    assert double_dqn_target(0.7, False, [5.0, 1.0], [3.0, 2.0], 0.0) == 0.7


def test_tie_breaks_to_lowest_index():
    y = double_dqn_target(0.0, False, [0.5, 0.5], [1.0, 9.9], 1.0)
    assert y == 1.0


def test_empty_candidates_nonterminal_raises():
    with pytest.raises(EmptyCandidatesError):
        double_dqn_target(1.0, False, [], [], 0.9)


def test_online_equals_target_reduces_to_max_q():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.standard_normal(6)
        y = double_dqn_target(0.3, False, q, q, 0.9)
        assert y == pytest.approx(0.3 + 0.9 * q.max(), abs=1e-12)


def obs_of(room):
    return KGObservation(
        [Triplet("player", room, "at"), Triplet("cilantro", "cookbook", "part_of")]
    )


def make_transition(td_reward=1.0, done=True, level="S1", action="open fridge"):
    return Transition(
        obs=obs_of("kitchen"),
        cond_text="find cilantro",
        chosen_text=action,
        td_reward=td_reward,
        gate_reward=min(td_reward, 1.0),
        next_obs=obs_of("pantry"),
        next_candidates=("go north", "go south"),
        done=done,
        level=level,
    )


@pytest.fixture(scope="module")
def vocab():
    return default_vocabulary()


def small_net(vocab, seed=0):
    return PolicyNet(vocab, hidden_dim=8, rgcn_layers=1, state_parts=2,
                     ff_dim=16, scorer_hidden=16, seed=seed)


def test_td_update_exact_fit_zero_loss(vocab):
    online = small_net(vocab, seed=1)
    target = clone_net(online)
    buf = PrioritizedBuffer(16, alpha=0.6)
    tr = make_transition(done=True)
    q0 = float(online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0])
    for _ in range(4):
        buf.push(dataclasses.replace(tr, td_reward=q0, gate_reward=1.0))
    before = {k: p.data.copy() for k, p in online.params.items()}
    loss = td_update(buf, online, target, 4, 0.9, np.random.default_rng(0), AdamState(online))
    assert loss == pytest.approx(0.0, abs=1e-20)
    for k, p in online.params.items():
        assert np.array_equal(p.data, before[k])  # zero gradient, fresh Adam


def test_td_update_hand_computed_single_transition(vocab):
    online = small_net(vocab, seed=2)
    target = clone_net(online)
    buf = PrioritizedBuffer(4, alpha=0.6)
    tr = make_transition(td_reward=1.0, done=True)
    buf.push(tr)
    q0 = float(online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0])
    loss = td_update(buf, online, target, 1, 0.9, np.random.default_rng(1), AdamState(online))
    # single transition: importance weight is 1, loss = (q - y)^2
    assert loss == pytest.approx((q0 - 1.0) ** 2, rel=1e-12)


def test_td_update_nonterminal_uses_double_dqn(vocab):
    online = small_net(vocab, seed=3)
    target = small_net(vocab, seed=4)
    buf = PrioritizedBuffer(4, alpha=0.6)
    tr = make_transition(td_reward=0.5, done=False)
    buf.push(tr)
    q_on = online.q_values(tr.next_obs, tr.cond_text, list(tr.next_candidates))
    q_tg = target.q_values(tr.next_obs, tr.cond_text, list(tr.next_candidates))
    y = 0.5 + 0.9 * q_tg[int(np.argmax(q_on))]
    q0 = float(online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0])
    loss = td_update(buf, online, target, 1, 0.9, np.random.default_rng(2), AdamState(online))
    assert loss == pytest.approx((q0 - y) ** 2, rel=1e-10)


def test_td_update_priorities_refreshed(vocab):
    online = small_net(vocab, seed=5)
    target = clone_net(online)
    buf = PrioritizedBuffer(4, alpha=1.0)
    tr = make_transition(td_reward=5.0, done=True)
    buf.push(tr, priority=0.01)
    q0 = float(online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0])
    td_update(buf, online, target, 1, 0.9, np.random.default_rng(3), AdamState(online))
    assert buf.tree.get(0) == pytest.approx(abs(q0 - 5.0) + buf.epsilon, rel=1e-9)


def test_td_error_contracts_on_one_transition(vocab):
    online = small_net(vocab, seed=6)
    target = clone_net(online)
    buf = PrioritizedBuffer(4, alpha=0.6)
    tr = make_transition(td_reward=1.0, done=True)
    buf.push(tr)
    adam = AdamState(online)
    rng = np.random.default_rng(4)
    errors = []
    for _ in range(100):
        td_update(buf, online, target, 1, 0.9, rng, adam)
        q = float(online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0])
        errors.append(abs(q - 1.0))
    # trend over a 100-step window: late error well below early error
    assert np.mean(errors[-10:]) < 0.2 * max(errors[0], 1e-9) or np.mean(errors[-10:]) < 1e-3
