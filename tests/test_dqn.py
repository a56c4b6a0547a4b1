"""Double DQN target arithmetic and prioritized TD updates."""

import copy
import dataclasses

import numpy as np
import pytest

from cookworld.engine.vocab import default_vocabulary
from cookworld.kg import KGObservation, Triplet, canonical_hash
from cookworld.neural import autodiff as ad
from cookworld.neural.nets import EmptyCandidatesError, PolicyNet, clone_net, distinct, sync_target
from cookworld.neural.optim import AdamState, apply_update
from cookworld.rl.dqn import double_dqn_target, td_update
from cookworld.rl.replay import PrioritizedBuffer, Transition
from conftest import concatenated_scores


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
    assert buf.priorities[0] == pytest.approx(abs(q0 - 5.0) + buf.epsilon, rel=1e-9)


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
    with ad.tape():
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
            state = [online.graph_tensor([tr.obs])]
            if online.state_parts == 2:
                state.append(online.text_tensor([tr.cond_text]))
            q = concatenated_scores(online, *state, online.text_tensor([tr.chosen_text]))
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
    q_batched = online.q_tensor([(tr.obs, tr.cond_text, (tr.chosen_text,)) for tr in batch]).data[:, 0]
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


LEARNERS = [("H-KGA", "sub"), ("H-KGA", "meta"), ("GATA", "sub")]


@pytest.mark.parametrize("variant, level", LEARNERS)
def test_factorized_scorer_equals_concatenated_form_on_replay(warm_trainers, variant, level):
    """The learner's Q rows, scored per input block, equal one first layer
    over [state; candidate] rows on a real replay batch, in values and in
    every parameter gradient."""
    learner = getattr(warm_trainers[variant], level)
    net = clone_net(learner.online)
    batch, _, _ = learner.buffer.sample(min(32, len(learner.buffer)), np.random.default_rng(16))
    # the chosen actions, then every next state: rows that repeat
    # observations and texts
    states = [(tr.obs, tr.cond_text, (tr.chosen_text,)) for tr in batch] + next_states(batch)
    rows = [(obs, cond, c) for obs, cond, candidates in states for c in candidates]
    assert len(rows) > len(states)
    weights = ad.constant(np.sin(np.arange(len(rows)))[:, None])

    def concatenated():
        state = [net.graph_tensor([obs for obs, _, _ in rows])]
        if net.state_parts == 2:
            state.append(net.text_tensor([cond for _, cond, _ in rows]))
        return concatenated_scores(net, *state, net.text_tensor([c for _, _, c in rows]))

    def run(build):
        net.zero_grad()
        with ad.tape():
            q = build()
            ad.sum_all(ad.mul(q, weights)).backward()
        return q.data, {name: p.grad for name, p in net.params.items()}

    got, got_grads = run(lambda: net.q_tensor(states))
    ref, ref_grads = run(concatenated)
    assert np.allclose(got, ref, rtol=0, atol=1e-12)
    for name, ref_grad in ref_grads.items():
        assert (got_grads[name] is None) == (ref_grad is None), name
        if ref_grad is not None:
            assert np.allclose(got_grads[name], ref_grad, rtol=0, atol=1e-12), name


@pytest.mark.parametrize("variant, level", LEARNERS)
def test_packed_encoders_equal_each_item_alone_on_replay(warm_trainers, variant, level):
    """On a real replay batch, the packed passes, texts of several lengths
    and observations whose nodes share classes, equal each text and each
    observation encoded alone, in values and in every parameter gradient."""
    learner = getattr(warm_trainers[variant], level)
    net = clone_net(learner.online)
    batch, _, _ = learner.buffer.sample(min(32, len(learner.buffer)), np.random.default_rng(18))
    observations, _ = distinct([tr.obs for tr in batch] + [tr.next_obs for tr in batch], key=canonical_hash)
    texts, _ = distinct([tr.chosen_text for tr in batch] + [c for tr in batch for c in tr.next_candidates]
                        + [tr.cond_text for tr in batch if net.state_parts == 2])
    assert len(observations) > 1
    assert len({len(net.vocab.encode(text)) for text in texts}) > 1
    for encode, items in ((net.graph_tensor, observations), (net.text_tensor, texts)):
        weights = np.cos(np.arange(len(items) * net.d)).reshape(len(items), net.d)

        def run(items, weights):
            with ad.tape():
                rows = encode(items)
                ad.sum_all(ad.mul(rows, ad.constant(weights))).backward()
            return rows.data

        net.zero_grad()
        packed = run(items, weights)
        packed_grads = {name: p.grad for name, p in net.params.items()}
        net.zero_grad()
        alone = np.concatenate([run([item], w[None]) for item, w in zip(items, weights)])
        assert np.allclose(packed, alone, rtol=0, atol=1e-12), encode.__name__
        for name, p in net.params.items():
            assert (p.grad is None) == (packed_grads[name] is None), name
            if p.grad is not None:
                assert np.allclose(packed_grads[name], p.grad, rtol=0, atol=1e-12), name


# -- the target net's cached pass ---------------------------------------------------

def disagreeing_nets(learner, seed):
    online = clone_net(learner.online)
    target = clone_net(learner.target)
    noise = np.random.default_rng(seed)
    for p in target.params.values():
        p.data += 0.3 * noise.standard_normal(p.data.shape)
    target.bump_version()
    return online, target


def next_states(batch):
    return [(tr.next_obs, tr.cond_text, tr.next_candidates) for tr in batch if not tr.done]


def memoized_q(net, states):
    """Each state's memoized Q (PolicyNet.q_values), laid end to end."""
    return np.concatenate([net.q_values(*state) for state in states])


@pytest.mark.parametrize("variant, level", LEARNERS)
def test_cached_targets_match_the_batched_pass(warm_trainers, variant, level):
    from cookworld.rl import dqn

    learner = getattr(warm_trainers[variant], level)
    online, target = disagreeing_nets(learner, 11)
    batch, _, _ = learner.buffer.sample(min(32, len(learner.buffer)), np.random.default_rng(12))
    live = [tr for tr in batch if not tr.done]
    assert live

    # reference: both nets scored by the packed untaped pass
    ref_on = online.q_tensor(next_states(batch)).data[:, 0]
    ref_tg = target.q_tensor(next_states(batch)).data[:, 0]
    assert np.allclose(memoized_q(target, next_states(batch)), ref_tg, rtol=0, atol=1e-12)
    expected, start = [], 0
    for tr in batch:
        if tr.done:
            expected.append(tr.td_reward)
            continue
        span = slice(start, start + len(tr.next_candidates))
        expected.append(double_dqn_target(tr.td_reward, False, ref_on[span], ref_tg[span], 0.9))
        start = span.stop
    assert np.allclose(dqn._next_state_targets(batch, online, target, 0.9), expected, rtol=0, atol=1e-12)

    # cold cache, and a cache warmed by another batch first: the same bits
    target.bump_version()
    cold = dqn._next_state_targets(batch, online, target, 0.9)
    target.bump_version()
    other, _, _ = learner.buffer.sample(len(batch), np.random.default_rng(13))
    dqn._next_state_targets(other, online, target, 0.9)
    warmed = len(target._vec_cache)
    warm = dqn._next_state_targets(batch, online, target, 0.9)
    assert warmed > 0
    assert np.array_equal(cold, warm)


@pytest.mark.parametrize("variant, level", LEARNERS)
def test_memoized_q_equals_a_cold_one_state_pass(warm_trainers, variant, level):
    learner = getattr(warm_trainers[variant], level)
    online, target = disagreeing_nets(learner, 16)
    batch, _, _ = learner.buffer.sample(min(32, len(learner.buffer)), np.random.default_rng(17))
    states = next_states(batch) + [(tr.obs, tr.cond_text, [tr.chosen_text]) for tr in batch]
    assert len(states) > len(batch)
    for net in (online, target):
        batched = memoized_q(net, states)  # fills the memo
        hits = [net.q_values(*state) for state in states]
        assert all(net.q_values(*state) is hit for state, hit in zip(states, hits))
        cold_net = clone_net(net)
        cold = []
        for state in states:
            cold_net.bump_version()
            cold.append(cold_net.q_values(*state))
        assert np.array_equal(batched, np.concatenate(cold))
        for hit, ref in zip(hits, cold):
            assert np.array_equal(hit, ref)


@pytest.mark.parametrize("variant, level", LEARNERS)
def test_target_cache_lives_as_long_as_the_target_weights(warm_trainers, variant, level, tmp_path):
    learner = copy.copy(getattr(warm_trainers[variant], level))  # shares the buffer, only samples it
    online = learner.online = clone_net(learner.online)
    target = learner.target = clone_net(learner.target)
    learner.adam = AdamState(online)
    batch, _, _ = learner.buffer.sample(min(16, len(learner.buffer)), np.random.default_rng(14))
    states = next_states(batch)
    assert states

    def filled_cache(net=target) -> np.ndarray:
        q = memoized_q(net, states)
        assert net._vec_cache and net._q_memo
        return q

    def emptied(*nets) -> bool:
        return all(not net._vec_cache and not net._q_memo for net in nets)

    def fresh_q() -> np.ndarray:
        """Q of a net built anew on the online weights, its cache cold."""
        return memoized_q(clone_net(online), states)

    # the warm learners made no update yet, so their target equals the
    # online net, and restoring the pre-step snapshot restores `before`
    before = filled_cache()
    assert np.array_equal(filled_cache(online), before)
    # an Adam step moves the online weights: it empties the online net's
    # cached rows, and the target keeps its own
    cached, memo = dict(target._vec_cache), dict(target._q_memo)
    learner.snapshot()
    noise = np.random.default_rng(15)
    for p in online.params.values():
        p.grad = noise.standard_normal(p.data.shape)
    apply_update(online, learner.adam, lr=0.05)
    assert emptied(online)
    stepped = filled_cache(online)
    assert not np.allclose(stepped, before)
    assert np.array_equal(stepped, fresh_q())
    assert cached.keys() == target._vec_cache.keys()
    assert all(target._vec_cache[key] is vec for key, vec in cached.items())
    assert memo.keys() == target._q_memo.keys()
    assert all(target._q_memo[key] is q for key, q in memo.items())
    assert np.array_equal(memoized_q(target, states), before)

    # a sync empties it, and the targets then come from the new weights
    sync_target(online, target)
    assert emptied(target)
    after = filled_cache()
    assert not np.allclose(after, before)
    assert np.array_equal(after, fresh_q())

    learner.restore()
    assert emptied(online, target)
    assert np.array_equal(filled_cache(), before)
    assert np.array_equal(before, fresh_q())

    learner.save(tmp_path)
    filled_cache(online)
    for p in online.params.values():  # weights the load must replace
        p.data += 0.1
    sync_target(online, target)
    filled_cache()
    learner.load(tmp_path, learner.updates)
    assert learner.online is not online  # the loaded net becomes the learner's own
    online = learner.online
    assert emptied(online, target)
    assert np.array_equal(filled_cache(), before)
    assert np.array_equal(before, fresh_q())
