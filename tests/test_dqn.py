"""Double DQN target arithmetic and prioritized TD updates."""

import dataclasses

import numpy as np
import pytest

from cookworld.engine.vocab import default_vocabulary
from cookworld.kg import KGObservation, Triplet
from cookworld.neural import autodiff as ad
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
    # a zero output layer makes Q exactly the output bias on every path: the
    # batch-1 acting path and the batched learner otherwise agree only to
    # rounding, and Adam would scale a rounding-sized gradient to a full step
    online.params["scorer.w2"].data[:] = 0.0
    online.params["scorer.b2"].data[:] = 0.375
    target = clone_net(online)
    buf = PrioritizedBuffer(16, alpha=0.6)
    tr = make_transition(done=True)
    q0 = float(online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0])
    assert q0 == 0.375
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


# -- the batched update against a per-transition reference ---------------------------

@pytest.fixture(scope="module")
def warm_trainers(tmp_path_factory):
    """H-KGA and GATA trainers whose buffers hold the records of a short
    random-policy run on generated games (warmup only, no update yet)."""
    from cookworld.training.config import TrainConfig
    from cookworld.training.gamesets import generate_game_dir, load_game_dir
    from cookworld.training.loop import Trainer

    root = tmp_path_factory.mktemp("warm")
    levels = ["S1", "S2", "S3", "S4"]
    generate_game_dir(root, levels, {"train": 3}, 3)
    games = load_game_dir(root)["train"]
    trainers = {}
    for variant in ("H-KGA", "GATA"):
        cfg = TrainConfig(variant=variant, episodes=24, warmup_episodes=24, tau=0.5, r_min=-0.05,
                          hidden_dim=16, ff_dim=16, scorer_hidden=16, levels=tuple(levels), seed=2)
        trainer = Trainer(cfg, games)
        for _ in range(cfg.episodes):
            trainer.run_episode()
        trainers[variant] = trainer
    return trainers


def per_transition_reference(batch, weights, online, target, gamma):
    """Loss, parameter gradients and TD errors of one update, built from
    batch-1 encoder calls, one transition at a time."""
    online.zero_grad()
    loss = None
    errors = []
    for tr, w in zip(batch, weights):
        if tr.done:
            y = tr.td_reward
        else:
            candidates = list(tr.next_candidates)
            y = double_dqn_target(
                tr.td_reward, False,
                online.q_values(tr.next_obs, tr.cond_text, candidates),
                target.q_values(tr.next_obs, tr.cond_text, candidates), gamma,
            )
        state = online.graph_tensor([tr.obs])
        if online.state_parts == 2:
            state = ad.concat_cols([state, online.text_tensor([tr.cond_text])])
        q = online.score_tensor(state, online.text_tensor([tr.chosen_text]))
        err = ad.sub(q, ad.constant([[y]]))
        term = ad.scale(ad.mul(err, err), w / len(batch))
        loss = term if loss is None else ad.add(loss, term)
        errors.append(abs(float(err.data[0, 0])))
    loss.backward()
    grads = {name: p.grad for name, p in online.params.items()}
    return float(loss.data[0, 0]), grads, np.array(errors)


@pytest.mark.parametrize("variant, level", [("H-KGA", "sub"), ("H-KGA", "meta"), ("GATA", "sub")])
def test_batched_update_matches_per_transition_reference(warm_trainers, variant, level, monkeypatch):
    from cookworld.rl import dqn

    learner = getattr(warm_trainers[variant], level)
    assert learner.online.state_parts == (2 if (variant, level) == ("H-KGA", "sub") else 1)
    batch_size = min(32, len(learner.buffer))
    assert batch_size >= 8
    online = clone_net(learner.online)
    target = clone_net(learner.target)
    noise = np.random.default_rng(10)
    for p in target.params.values():  # a target that disagrees with the online net
        p.data += 0.3 * noise.standard_normal(p.data.shape)
    target.bump_version()
    batch, _, weights = learner.buffer.sample(batch_size, np.random.default_rng(9))
    assert any(not tr.done for tr in batch)
    ref_loss, ref_grads, ref_errors = per_transition_reference(batch, weights, online, target, 0.9)

    seen = {}
    real_apply = dqn.apply_update

    def record_grads(net, *args, **kwargs):
        seen["grads"] = {name: p.grad for name, p in net.params.items()}
        return real_apply(net, *args, **kwargs)

    # acting (batch-1 q_values) and the learner's batched Q agree on a non-trivial net
    conds = [tr.cond_text for tr in batch] if online.state_parts == 2 else []
    with ad.no_grad():
        q_batched = dqn._q_rows(online, [tr.obs for tr in batch], conds,
                                [tr.chosen_text for tr in batch]).data[:, 0]
    q_acting = [online.q_values(tr.obs, tr.cond_text, [tr.chosen_text])[0] for tr in batch]
    assert np.allclose(q_batched, q_acting, rtol=0, atol=1e-12)

    monkeypatch.setattr(dqn, "apply_update", record_grads)
    monkeypatch.setattr(learner.buffer, "update_priorities",
                        lambda indices, errors: seen.setdefault("errors", np.asarray(errors)))
    online.zero_grad()
    loss = td_update(learner.buffer, online, target, batch_size, 0.9,
                     np.random.default_rng(9), AdamState(online))
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-9)
    assert np.allclose(seen["errors"], ref_errors, rtol=0, atol=1e-9)
    for name, ref in ref_grads.items():
        got = seen["grads"][name]
        if ref is None:
            assert got is None or not got.any(), name
        else:
            assert np.allclose(got, ref, rtol=0, atol=1e-9), name
