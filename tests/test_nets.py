"""Network blocks: hand-computed values, invariances, and gradient checks."""

import numpy as np
import pytest

from cookworld.engine.vocab import Vocabulary, default_vocabulary
from cookworld.kg import KGObservation, Triplet
from cookworld.neural import autodiff as ad
from cookworld.neural.nets import (
    EmptyCandidatesError,
    EmptyTextError,
    PolicyNet,
    clone_net,
    load_checkpoint,
    save_checkpoint,
    sinusoidal_positions,
    sync_target,
)
from cookworld.neural.optim import AdamState, apply_update


@pytest.fixture(scope="module")
def vocab():
    return default_vocabulary()


def tiny_net(vocab, seed=0, parts=1, layers=2, d=8):
    return PolicyNet(
        vocab, hidden_dim=d, rgcn_layers=layers, state_parts=parts,
        ff_dim=2 * d, scorer_hidden=2 * d, seed=seed,
    )


def score(net, state, candidates):
    """Scores candidate vectors against a state vector, no gradients recorded."""
    cand = np.asarray(candidates, dtype=np.float64).reshape(len(candidates), net.d)
    with ad.no_grad():
        return net.score_tensor(ad.constant(np.atleast_2d(state)), ad.constant(cand)).data[:, 0]


def small_obs():
    return KGObservation(
        [
            Triplet("cilantro", "fridge", "in"),
            Triplet("knife", "table", "on"),
            Triplet("player", "kitchen", "at"),
        ]
    )


# -- graph encoder ---------------------------------------------------------

def test_empty_observation_is_zero_vector(vocab):
    net = tiny_net(vocab)
    assert np.array_equal(net.graph_vector(KGObservation([]))[0], np.zeros(8))


def test_graph_permutation_invariance(vocab):
    net = tiny_net(vocab, seed=5)
    obs = small_obs()
    shuffled = KGObservation(list(obs)[::-1])
    assert np.array_equal(net.graph_vector(obs)[0], net.graph_vector(shuffled)[0])


def test_graph_deterministic_across_instances(vocab):
    a = tiny_net(vocab, seed=9)
    b = tiny_net(vocab, seed=9)
    obs = small_obs()
    assert np.array_equal(a.graph_vector(obs)[0], b.graph_vector(obs)[0])


def test_graph_layout_follows_the_vocabulary(vocab):
    """Two vocabularies give the same observation different token ids; the
    second net must not reuse the first one's compiled layout."""
    obs = KGObservation([Triplet("parsley", "counter", "on"), Triplet("player", "pantry", "at")])
    small_vocab = Vocabulary(("counter", "on", "parsley", "player"))
    small = tiny_net(small_vocab, seed=2)
    full = tiny_net(vocab, seed=2)
    with ad.no_grad():
        small_first = small.graph_tensor([obs]).data
        full_second = full.graph_tensor([obs]).data
        small_vocab.graph_layouts.clear()
        vocab.graph_layouts.clear()
        assert np.array_equal(full_second, full.graph_tensor([obs]).data)
        assert np.array_equal(small_first, small.graph_tensor([obs]).data)


def test_single_triplet_one_layer_hand_computed(vocab):
    """One edge knife->table: hand-evaluate the message-passing update."""
    d = 8
    net = tiny_net(vocab, seed=1, layers=1, d=d)
    obs = KGObservation([Triplet("knife", "table", "on")])

    emb = net.params["word_emb"].data
    w_on = net.params["rgcn.0.rel.on"].data
    w_self = net.params["rgcn.0.self"].data
    bias = net.params["rgcn.0.bias"].data[0]
    e_on = net.params["rel_emb"].data[list(net_relations().index("on"))] if False else (
        net.params["rel_emb"].data[net_relations().index("on")]
    )

    h_knife = emb[vocab.id_of("knife")]
    h_table = emb[vocab.id_of("table")]
    # nodes sorted: knife(0), table(1); edge subject knife -> object table
    out_knife = np.maximum(h_knife @ w_self + bias, 0.0)
    msg = h_knife @ w_on + e_on
    out_table = np.maximum(h_table @ w_self + bias + msg, 0.0)
    expected = (out_knife + out_table) / 2.0
    assert np.allclose(net.graph_vector(obs)[0], expected, atol=1e-12)


def net_relations():
    from cookworld.kg import RELATIONS

    return list(RELATIONS)


def game_observations(s1_spec, s4_spec):
    """Observations along a few steps of real games, plus small and empty ones."""
    from cookworld.engine.state import admissible_actions, reset, step

    found = [small_obs(), KGObservation([])]
    for spec in (s1_spec, s4_spec):
        state, obs = reset(spec, step_limit=20)
        found.append(obs)
        for i in range(3):
            state, obs, _, _ = step(state, admissible_actions(state)[i])
            found.append(obs)
    return found


def test_graph_batch_equals_each_alone(vocab, s1_spec, s4_spec):
    net = tiny_net(vocab, seed=21, parts=1)
    found = game_observations(s1_spec, s4_spec)
    batch = found + [found[3], found[0], found[1]]  # duplicates, and the empty one twice
    with ad.no_grad():
        packed = net.graph_tensor(batch).data
        alone = np.concatenate([net.graph_tensor([obs]).data for obs in batch])
    assert packed.shape == (len(batch), 8)
    assert np.allclose(packed, alone, rtol=0, atol=1e-12)
    assert np.array_equal(packed[1], np.zeros(8))


def test_graph_batch_gradients_equal_each_alone(vocab, s1_spec, s4_spec):
    net = tiny_net(vocab, seed=22, parts=1)
    batch = game_observations(s1_spec, s4_spec)
    weights = np.cos(np.arange(len(batch) * 8)).reshape(len(batch), 8)
    net.zero_grad()
    ad.sum_all(ad.mul(net.graph_tensor(batch), ad.constant(weights))).backward()
    packed = {name: p.grad for name, p in net.params.items()}
    net.zero_grad()
    for obs, w in zip(batch, weights):
        ad.sum_all(ad.mul(net.graph_tensor([obs]), ad.constant(w[None]))).backward()
    for name, p in net.params.items():
        assert (p.grad is None) == (packed[name] is None), name
        if p.grad is not None:
            assert np.allclose(packed[name], p.grad, rtol=0, atol=1e-12), name


def test_text_batch_equals_each_alone(vocab):
    net = tiny_net(vocab, seed=23, parts=1)
    texts = ["knife", "take knife from table", "find cilantro", "knife", "open fridge",
             "dice red apple with knife", "find cilantro"]
    weights = np.sin(np.arange(len(texts) * 8)).reshape(len(texts), 8)
    net.zero_grad()
    packed = net.text_tensor(texts)
    ad.sum_all(ad.mul(packed, ad.constant(weights))).backward()
    packed_grads = {name: p.grad for name, p in net.params.items()}
    net.zero_grad()
    alone = []
    for text, w in zip(texts, weights):
        row = net.text_tensor([text])
        ad.sum_all(ad.mul(row, ad.constant(w[None]))).backward()
        alone.append(row.data)
    assert np.allclose(packed.data, np.concatenate(alone), rtol=0, atol=1e-12)
    for name, p in net.params.items():
        assert (p.grad is None) == (packed_grads[name] is None), name
        if p.grad is not None:
            assert np.allclose(packed_grads[name], p.grad, rtol=0, atol=1e-12), name


def test_scorer_rows_pair_state_rows(vocab):
    net = tiny_net(vocab, parts=1, seed=24)
    rng = np.random.default_rng(3)
    states, cands = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
    rows = score(net, states, cands)
    alone = [score(net, states[i], cands[i : i + 1])[0] for i in range(4)]
    assert np.allclose(rows, alone, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        score(net, states[:3], cands)  # neither one state row nor one per candidate


# -- text encoder -------------------------------------------------------------

def test_single_token_hand_computed(vocab):
    """One position: the attention softmax is the 1x1 identity, so the block
    reduces to the feed-forward pipeline around the value projection."""
    d = 8
    net = tiny_net(vocab, seed=2, d=d)
    token = "knife"
    x = net.params["word_emb"].data[vocab.id_of(token)] + sinusoidal_positions(1, d)[0]

    def layer_norm(v, g, b, eps=1e-5):
        mu = v.mean()
        var = v.var()
        return (v - mu) / np.sqrt(var + eps) * g + b

    attended = x @ net.params["attn.wv"].data @ net.params["attn.wo"].data
    h1 = layer_norm(x + attended, net.params["ln1.gain"].data[0], net.params["ln1.bias"].data[0])
    ff = (
        np.maximum(h1 @ net.params["ff.w1"].data + net.params["ff.b1"].data[0], 0.0)
        @ net.params["ff.w2"].data
        + net.params["ff.b2"].data[0]
    )
    expected = layer_norm(h1 + ff, net.params["ln2.gain"].data[0], net.params["ln2.bias"].data[0])
    assert np.allclose(net.text_vector(token)[0], expected, atol=1e-12)


def test_text_position_sensitivity(vocab):
    net = tiny_net(vocab, seed=3)
    assert not np.allclose(net.text_vector("find cilantro")[0], net.text_vector("cilantro find")[0])


def test_text_determinism(vocab):
    net = tiny_net(vocab, seed=3)
    assert np.array_equal(net.text_vector("find cilantro")[0], net.text_vector("find cilantro")[0])


def test_empty_text_raises(vocab):
    net = tiny_net(vocab)
    with pytest.raises(EmptyTextError):
        net.text_vector("   ")


# -- scorer ----------------------------------------------------------------------

def test_score_single_candidate_is_scalar(vocab):
    net = tiny_net(vocab, parts=1)
    state = np.ones(8)
    out = score(net, state, [np.ones(8)])
    assert out.shape == (1,)


def test_duplicate_candidates_duplicate_scores(vocab):
    net = tiny_net(vocab, parts=1)
    state = np.linspace(0, 1, 8)
    cand = np.linspace(1, 2, 8)
    out = score(net, state, [cand, cand.copy()])
    assert out[0] == out[1]


def test_zero_weights_give_bias(vocab):
    net = tiny_net(vocab, parts=1)
    net.params["scorer.w1"].data[:] = 0.0
    net.params["scorer.w2"].data[:] = 0.0
    net.params["scorer.b1"].data[:] = 0.0
    net.params["scorer.b2"].data[:] = 0.25
    out = score(net, np.ones(8), [np.zeros(8), np.ones(8)])
    assert np.allclose(out, 0.25)


def test_candidate_independence(vocab):
    net = tiny_net(vocab, parts=1, seed=8)
    state = np.linspace(-1, 1, 8)
    cands = [np.cos(np.arange(8) + k) for k in range(5)]
    full = score(net, state, cands)
    subset = score(net, state, cands[2:3])
    assert np.isclose(full[2], subset[0])


def test_empty_candidates_raise(vocab):
    net = tiny_net(vocab, parts=1)
    with pytest.raises(EmptyCandidatesError):
        score(net, np.ones(8), [])
    with pytest.raises(EmptyCandidatesError):
        net.q_values(small_obs(), None, [])


# -- gradient checks per block -----------------------------------------------------

def _loss_through(net, build):
    net.zero_grad()
    out = build()
    loss = ad.sum_all(ad.mul(out, out))
    value = loss.item()
    loss.backward()
    return value


def _max_rel_error(net, build, rng, trials=6, h=1e-4):
    value = _loss_through(net, build)
    worst = 0.0
    names = list(net.params)
    for _ in range(trials):
        name = names[int(rng.integers(0, len(names)))]
        p = net.params[name]
        if p.grad is None:
            continue
        flat = p.data.reshape(-1)
        idx = int(rng.integers(0, flat.size))
        analytic = p.grad.reshape(-1)[idx]
        orig = flat[idx]
        flat[idx] = orig + h
        up = float((build().data ** 2).sum())
        flat[idx] = orig - h
        down = float((build().data ** 2).sum())
        flat[idx] = orig
        numeric = (up - down) / (2 * h)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        if abs(numeric) > 1e-10 or abs(analytic) > 1e-10:
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def test_gradient_check_all_blocks(vocab):
    """20 randomized trials per block, d <= 8, max relative error < 1e-3."""
    rng = np.random.default_rng(42)
    obs = small_obs()
    for trial in range(20):
        net = tiny_net(vocab, seed=100 + trial, parts=2, d=8)
        graph = lambda: net.graph_tensor([obs])
        text = lambda: net.text_tensor(["take knife from table"])
        scorer = lambda: net.score_tensor(
            ad.constant(np.ones((1, 16))), ad.constant(np.linspace(-1, 1, 16).reshape(2, 8))
        )
        # the composition td_update trains through
        full = lambda: net.score_tensor(
            ad.concat_cols([net.graph_tensor([obs]), net.text_tensor(["find cilantro"])]),
            net.text_tensor(["open fridge"]),
        )
        for build in (graph, text, scorer, full):
            assert _max_rel_error(net, build, rng) < 1e-3


# -- optimizer and target sync ----------------------------------------------------------

def test_adam_zero_gradient_fresh_optimizer_no_change(vocab):
    net = tiny_net(vocab, seed=4)
    before = {k: p.data.copy() for k, p in net.params.items()}
    net.zero_grad()
    apply_update(net, AdamState(net))
    for k, p in net.params.items():
        assert np.array_equal(p.data, before[k])


def test_adam_single_step_hand_computed(vocab):
    net = tiny_net(vocab, seed=4)
    state = AdamState(net)
    name = "scorer.b2"
    p = net.params[name]
    p.data[:] = 1.0
    grad = 0.5
    net.zero_grad()
    p.grad = np.full_like(p.data, grad)
    apply_update(net, state, lr=1e-3, clip_norm=0.0)

    m = 0.1 * grad
    v = 0.001 * grad**2
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = 1.0 - 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p.data, expected, rtol=1e-12)


def test_adam_identical_nets_identical_updates(vocab):
    a = tiny_net(vocab, seed=6)
    b = tiny_net(vocab, seed=6)
    for net in (a, b):
        state = AdamState(net)
        net.zero_grad()
        for p in net.params.values():
            p.grad = np.full_like(p.data, 0.01)
        apply_update(net, state)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)


def test_gradients_cleared_after_update(vocab):
    net = tiny_net(vocab)
    net.params["scorer.b2"].grad = np.ones((1, 1))
    apply_update(net, AdamState(net))
    assert all(p.grad is None for p in net.params.values())


def test_sync_target(vocab):
    online = tiny_net(vocab, seed=1)
    target = tiny_net(vocab, seed=2)
    obs = small_obs()
    q_before_online = online.q_values(obs, None, ["open fridge"])
    q_before_target = target.q_values(obs, None, ["open fridge"])
    assert not np.allclose(q_before_online, q_before_target)
    sync_target(online, target)
    assert np.allclose(
        online.q_values(obs, None, ["open fridge"]),
        target.q_values(obs, None, ["open fridge"]),
    )
    snapshot = {k: p.data.copy() for k, p in target.params.items()}
    sync_target(online, target)  # idempotent
    for k, p in target.params.items():
        assert np.array_equal(p.data, snapshot[k])


# -- checkpoints ------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, vocab):
    net = tiny_net(vocab, seed=12, parts=2)
    state = AdamState(net)
    state.t = 7
    save_checkpoint(net, tmp_path / "net.npz", state.as_dict())
    loaded, opt = load_checkpoint(tmp_path / "net.npz", vocab)
    for k, p in net.params.items():
        assert np.array_equal(p.data, loaded.params[k].data)
    assert opt["t"] == 7
    assert loaded.state_parts == 2


def test_checkpoint_vocabulary_mismatch(tmp_path, vocab):
    from cookworld.neural.nets import VocabularyMismatchError

    net = tiny_net(vocab)
    save_checkpoint(net, tmp_path / "net.npz")
    other = Vocabulary(("alpha", "beta"))
    with pytest.raises(VocabularyMismatchError):
        load_checkpoint(tmp_path / "net.npz", other)


def test_clone_net_matches(vocab):
    net = tiny_net(vocab, seed=3, parts=2)
    twin = clone_net(net)
    obs = small_obs()
    assert np.allclose(
        net.q_values(obs, "find cilantro", ["open fridge"]),
        twin.q_values(obs, "find cilantro", ["open fridge"]),
    )
