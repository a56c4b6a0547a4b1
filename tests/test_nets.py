"""Network blocks: hand-computed values, invariances, and gradient checks."""

import gc
import hashlib
import json
import warnings

import numpy as np
import pytest

from cookworld.engine.vocab import Vocabulary, default_vocabulary
from cookworld.goals import generate_goal_set
from cookworld.kg import KGObservation, Triplet
from cookworld.neural import autodiff as ad
from cookworld.neural.nets import (
    EmptyCandidatesError,
    EmptyTextError,
    PolicyNet,
    _views,
    clone_net,
    load_checkpoint,
    save_checkpoint,
    sinusoidal_positions,
    sync_target,
)
from cookworld.neural.optim import AdamState, apply_update
from conftest import concatenated_scores, float64_net, write_weights


@pytest.fixture(scope="module")
def vocab():
    return default_vocabulary()


def tiny_net(vocab, seed=0, parts=1, layers=2, d=8):
    return PolicyNet(
        vocab, hidden_dim=d, rgcn_layers=layers, state_parts=parts,
        ff_dim=2 * d, scorer_hidden=2 * d, seed=seed,
    )


def score(net, state, candidates):
    """Scores candidate vectors against state vectors, no gradients recorded:
    one state row paired with every candidate, or each state row with the
    candidate beside it. A state row is the graph vector, followed by the
    instruction vector on a net that takes one."""
    state = np.atleast_2d(np.asarray(state, dtype=np.float64))
    cand = np.asarray(candidates, dtype=np.float64).reshape(len(candidates), net.d)
    n = len(cand)
    rows = np.zeros(n, dtype=np.intp) if len(state) == 1 else np.arange(len(state))
    texts = np.concatenate([cand, state[:, net.d:].reshape(-1, net.d)])
    conds = n + rows if net.state_parts == 2 else None
    return net.score_tensor(
        ad.constant(state[:, : net.d]), ad.constant(texts), rows, np.arange(n), conds
    ).data[:, 0]


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
    e_on = net.params["rel_emb"].data[net_relations().index("on")]

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
    net = float64_net(tiny_net(vocab, seed=21, parts=1))
    found = game_observations(s1_spec, s4_spec)
    batch = found + [found[3], found[0], found[1]]  # duplicates, and the empty one twice
    packed = net.graph_tensor(batch).data
    alone = np.concatenate([net.graph_tensor([obs]).data for obs in batch])
    assert packed.shape == (len(batch), 8)
    # not bit-equal: numpy computes a one-row matrix product (a relation
    # with one target row in an observation alone) by gemv, which rounds
    # differently from the multi-row gemm of the batch
    assert np.allclose(packed, alone, rtol=0, atol=1e-12)
    assert np.array_equal(packed[1], np.zeros(8))


def test_graph_batch_gradients_equal_each_alone(vocab, s1_spec, s4_spec):
    net = tiny_net(vocab, seed=22, parts=1)
    batch = game_observations(s1_spec, s4_spec)
    weights = np.cos(np.arange(len(batch) * 8)).reshape(len(batch), 8)
    net.zero_grad()
    with ad.tape():
        ad.sum_all(ad.mul(net.graph_tensor(batch), ad.constant(weights))).backward()
    packed = {name: p.grad for name, p in net.params.items()}
    net.zero_grad()
    for obs, w in zip(batch, weights):
        with ad.tape():
            ad.sum_all(ad.mul(net.graph_tensor([obs]), ad.constant(w[None]))).backward()
    for name, p in net.params.items():
        assert (p.grad is None) == (packed[name] is None), name
        if p.grad is not None:
            assert np.allclose(packed[name], p.grad, rtol=0, atol=1e-12), name


def edges(*triplets):
    return KGObservation([Triplet(*t) for t in triplets])


# Observation pairs whose nodes share names, and the number of node classes
# the pair packs into at layers 0, 1 and 2. "zork" and "quux" are both
# out of the vocabulary, so they embed the same tokens.
COLOURING_PAIRS = {
    # table receives knife through a different relation
    "relation": (
        edges(("knife", "table", "on")),
        edges(("knife", "table", "in")),
        (2, 3, 3),
    ),
    # fridge averages {zork, quux, knife} against {zork, knife}
    "multiplicity": (
        edges(("zork", "fridge", "in"), ("quux", "fridge", "in"), ("knife", "fridge", "in")),
        edges(("zork", "fridge", "in"), ("knife", "fridge", "in")),
        (3, 4, 4),
    ),
    # table and counter receive the same message but start from their own tokens
    "own state": (
        edges(("knife", "table", "on")),
        edges(("knife", "counter", "on")),
        (3, 3, 3),
    ),
    # kitchen's in-neighbour fridge differs only in what fridge receives
    "depth 2": (
        edges(("cilantro", "fridge", "in"), ("fridge", "kitchen", "in")),
        edges(("parsley", "fridge", "in"), ("fridge", "kitchen", "in")),
        (4, 5, 6),
    ),
}


@pytest.mark.parametrize("case", list(COLOURING_PAIRS))
def test_node_classes_separate_nodes_that_differ(vocab, case):
    """A batch gives one row to each node class and no more: a class merged
    too far encodes one observation's node with another's row."""
    from cookworld.neural.nets import _encoder_pass, _layout_for

    first, second, counts = COLOURING_PAIRS[case]
    net = float64_net(tiny_net(vocab, seed=26, layers=2, d=16))
    plan = _encoder_pass([_layout_for(obs, vocab) for obs in (first, second)], 2)
    assert (len(plan.token_scale), *(n for _, _, n in plan.layers)) == counts
    packed = net.graph_tensor([first, second]).data
    alone = np.concatenate([net.graph_tensor([obs]).data for obs in (first, second)])
    assert np.allclose(packed, alone, rtol=0, atol=1e-12)
    assert not np.allclose(alone[0], alone[1])


def test_text_batch_equals_each_alone(vocab):
    net = tiny_net(vocab, seed=23, parts=1)
    texts = ["knife", "take knife from table", "find cilantro", "knife", "open fridge",
             "dice red apple with knife", "find cilantro"]
    weights = np.sin(np.arange(len(texts) * 8)).reshape(len(texts), 8)
    net.zero_grad()
    with ad.tape():
        packed = net.text_tensor(texts)
        ad.sum_all(ad.mul(packed, ad.constant(weights))).backward()
    packed_grads = {name: p.grad for name, p in net.params.items()}
    net.zero_grad()
    alone = []
    for text, w in zip(texts, weights):
        with ad.tape():
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
    x = net.params["word_emb"].data[vocab.id_of(token)] + sinusoidal_positions(1, d, net.dtype)[0]

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


def test_positional_table_is_shared_and_read_only():
    table = sinusoidal_positions(5, 8, np.float32)
    assert sinusoidal_positions(5, 8, np.float32) is table
    assert sinusoidal_positions(5, 8, np.float64).dtype == np.float64
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    with pytest.raises(ValueError):
        table += 1.0


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """layer_norm's forward through numpy's mean and var."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias


def test_layer_norm_is_bit_equal_to_mean_and_var_on_text_batches(vocab, monkeypatch):
    net = tiny_net(vocab, seed=25, parts=1, d=16)
    seen = []
    real = ad.layer_norm

    def recorded(x, gain, bias):
        out = real(x, gain, bias)
        seen.append((x.data, gain.data, bias.data, out.data))
        return out

    monkeypatch.setattr(ad, "layer_norm", recorded)
    texts = ["knife", "take knife from table", "find cilantro", "open fridge",
             "dice red apple with knife", "cook yellow potato with oven", "prepare meal"]
    for batch in (texts, texts[:1], texts[1:4], texts[::-1]):
        net.text_tensor(batch)
    assert len(seen) == 8
    for x, gain, bias, out in seen:
        assert np.array_equal(out, reference_layer_norm(x, gain, bias))


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


@pytest.mark.parametrize("parts", [1, 2])
def test_memoized_q_is_read_only_and_bad_states_still_raise(vocab, parts):
    net = float64_net(tiny_net(vocab, parts=parts, seed=9))
    cond = "find cilantro" if parts == 2 else None
    state = (small_obs(), cond, ["open fridge", "take knife from table"])
    first = net.q_values(*state)
    assert net._q_memo
    assert net.q_values(*state) is first
    states = [state, (KGObservation([]), cond, ["open fridge"])]
    qs = [net.q_values(*s) for s in states]
    for q in qs:
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0] = 0.0
    assert qs[0] is first
    # the packed pass scores the same states as the memo
    assert np.allclose(net.q_tensor(states).data[:, 0], np.concatenate(qs), rtol=0, atol=1e-12)
    with pytest.raises(EmptyCandidatesError):
        net.q_values(small_obs(), cond, [])

    def memoized_q(states):
        return np.concatenate([net.q_values(*s) for s in states])

    for score_states in (memoized_q, net.q_tensor):
        with pytest.raises(EmptyCandidatesError):
            score_states([state, (small_obs(), cond, [])])
        if parts == 2:
            with pytest.raises(ValueError, match="instruction"):
                score_states([state, (small_obs(), None, ["open fridge"])])
    assert net.q_values(*state) is first


# sha256 of every Q vector below, laid end to end in float32 bytes; cut on
# OpenBLAS core SkylakeX (see tests/test_golden_runs.py on the scope of bits)
INFERENCE_DIGEST = "e179379f209908204c2b0977671d352961146448bd0533e04c27562b3da7a89e"


def test_inference_bytes_are_pinned(vocab, s1_trace, s4_trace):
    """Greedy H-KGA inference, bit for bit: fresh seeded meta and
    goal-conditioned sub nets at the default sizes score every observation
    of the golden traces, the meta net over the goal set's texts and the sub
    net over the admissible commands under each goal. Their caches start
    cold, so each graph and text is first encoded alone. The golden
    training runs catch inference drift only when it flips an argmax."""
    sub = PolicyNet(vocab, state_parts=2, seed=41)
    meta = PolicyNet(vocab, state_parts=1, seed=42)
    digest = hashlib.sha256()
    for trace in (s1_trace, s4_trace):
        for row in trace:
            goals = generate_goal_set(row.obs).texts
            digest.update(meta.q_values(row.obs, None, goals).tobytes())
            for goal in goals if row.admissible else ():
                digest.update(sub.q_values(row.obs, goal, row.admissible).tobytes())
    assert digest.hexdigest() == INFERENCE_DIGEST


@pytest.mark.parametrize("parts", [1, 2])
def test_factorized_scorer_equals_concatenated_form(vocab, s1_spec, s4_spec, parts):
    """Scoring per input block equals one first layer over [state; candidate]
    rows, in values and in every parameter gradient, through real encoders
    and with repeated observations and texts."""
    net = float64_net(tiny_net(vocab, seed=25, parts=parts))
    observations = game_observations(s1_spec, s4_spec)
    texts = ["open fridge", "find cilantro", "take knife from table", "dice red apple with knife",
             "go north"]
    rng = np.random.default_rng(7)
    n = 12
    graph_rows = rng.integers(0, len(observations), n)
    cand_rows = rng.integers(0, len(texts), n)
    cond_rows = rng.integers(0, len(texts), n) if parts == 2 else None
    weights = ad.constant(np.cos(np.arange(n))[:, None])

    def factorized():
        return net.score_tensor(net.graph_tensor(observations), net.text_tensor(texts),
                                graph_rows, cand_rows, cond_rows)

    def concatenated():
        encoded = net.text_tensor(texts)
        state = [ad.gather_rows(net.graph_tensor(observations), graph_rows)]
        if parts == 2:
            state.append(ad.gather_rows(encoded, cond_rows))
        return concatenated_scores(net, *state, ad.gather_rows(encoded, cand_rows))

    def run(build):
        net.zero_grad()
        with ad.tape():
            q = build()
            ad.sum_all(ad.mul(q, weights)).backward()
        return q.data, {name: p.grad for name, p in net.params.items()}

    got, got_grads = run(factorized)
    ref, ref_grads = run(concatenated)
    assert got.shape == (n, 1)
    assert np.allclose(got, ref, rtol=0, atol=1e-12)
    for name, ref_grad in ref_grads.items():
        assert (got_grads[name] is None) == (ref_grad is None), name
        if ref_grad is not None:
            assert np.allclose(got_grads[name], ref_grad, rtol=0, atol=1e-12), name
    # acting scores the same rows from its cached projections
    acting = np.concatenate([
        net.q_values(observations[g], texts[c] if parts == 2 else None, [texts[a]])
        for g, c, a in zip(graph_rows, cond_rows if parts == 2 else graph_rows, cand_rows)
    ])
    assert np.allclose(acting, ref[:, 0], rtol=0, atol=1e-12)


# -- gradient checks per block -----------------------------------------------------

def _loss_through(net, build):
    net.zero_grad()
    with ad.tape():
        out = build()
        loss = ad.sum_all(ad.mul(out, out))
        loss.backward()
    return loss.item()


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
        net = float64_net(tiny_net(vocab, seed=100 + trial, parts=2, d=8))
        graph = lambda: net.graph_tensor([obs])
        text = lambda: net.text_tensor(["take knife from table"])
        # a state row of ones paired with two candidates: texts hold the
        # candidates, then the instruction
        texts = np.concatenate([np.linspace(-1, 1, 16).reshape(2, 8), np.ones((1, 8))])
        scorer = lambda: net.score_tensor(
            ad.constant(np.ones((1, 8))), ad.constant(texts), [0, 0], [0, 1], [2, 2]
        )
        # the composition td_update trains through
        full = lambda: net.score_tensor(
            net.graph_tensor([obs]), net.text_tensor(["open fridge", "find cilantro"]),
            [0], [0], [1],
        )
        for build in (graph, text, scorer, full):
            assert _max_rel_error(net, build, rng) < 1e-3


def test_gradient_check_through_shared_nodes(vocab, s1_spec, s4_spec):
    """Finite differences through one batch whose observations share nodes,
    so each class row gathers the gradients of several nodes: three entries
    of every graph-encoder parameter, max relative error < 1e-3."""
    rng = np.random.default_rng(44)
    batch = [obs for first, second, _ in COLOURING_PAIRS.values() for obs in (first, second)]
    batch += game_observations(s1_spec, s4_spec)
    net = float64_net(tiny_net(vocab, seed=27, layers=2, d=8))
    weights = ad.constant(np.cos(np.arange(len(batch) * 8)).reshape(len(batch), 8))

    def loss():
        out = ad.mul(net.graph_tensor(batch), weights)
        return ad.sum_all(ad.mul(out, out))

    net.zero_grad()
    with ad.tape():
        loss().backward()
    h = 1e-5
    checked = 0
    for name, p in net.params.items():
        if p.grad is None:
            continue
        flat, grad = p.data.reshape(-1), p.grad.reshape(-1)
        live = np.flatnonzero(np.abs(grad) > 1e-6)
        for idx in rng.choice(live, size=min(3, len(live)), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss().item()
            flat[idx] = orig - h
            down = loss().item()
            flat[idx] = orig
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[idx]) / max(abs(numeric), abs(grad[idx])) < 1e-3, name
            checked += 1
    assert checked >= 3 * 10  # word and relation embeddings, and the R-GCN layers


# -- optimizer and target sync ----------------------------------------------------------

def test_adam_zero_gradient_fresh_optimizer_no_change(vocab):
    net = tiny_net(vocab, seed=4)
    before = {k: p.data.copy() for k, p in net.params.items()}
    net.zero_grad()
    apply_update(net, AdamState(net))
    for k, p in net.params.items():
        assert np.array_equal(p.data, before[k])


def test_adam_single_step_hand_computed(vocab):
    """The step is taken in float64 on the weights from a float32 gradient,
    and the passes read its result rounded once to float32."""
    net = tiny_net(vocab, seed=4)
    state = AdamState(net)
    name = "scorer.b2"
    write_weights(net, {name: 1.0})
    p = net.params[name]
    grad = 0.5
    net.zero_grad()
    p.grad = np.full_like(p.data, grad)
    assert p.grad.dtype == np.float32
    apply_update(net, state, lr=1e-3, clip_norm=0.0)

    m = 0.1 * grad
    v = 0.001 * grad**2
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = 1.0 - 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
    weight = _views(net.param_layout, net.flat)[name]
    assert weight.dtype == np.float64 and np.allclose(weight, expected, rtol=1e-12)
    assert np.array_equal(p.data, weight.astype(np.float32))


def test_adam_keeps_steps_under_half_a_float32_ulp(vocab):
    """Each step of 1e-8 on a weight of 1.0 is under half its float32 ulp
    (6.0e-8), so float32 weights would never move; the float64 weights add
    them up, and the passes see the sum once it rounds past 1.0."""
    net = tiny_net(vocab, seed=4)
    state = AdamState(net)
    name = "scorer.b2"
    write_weights(net, {name: 1.0})
    p = net.params[name]
    for step in range(10):
        net.zero_grad()
        p.grad = np.full_like(p.data, 0.5)
        apply_update(net, state, lr=1e-8, clip_norm=0.0)
        if step == 0:
            assert p.data[0, 0] == 1.0 and _views(net.param_layout, net.flat)[name][0, 0] < 1.0
    assert _views(net.param_layout, net.flat)[name][0, 0] == pytest.approx(1.0 - 1e-7, rel=1e-9)
    assert p.data[0, 0] < 1.0


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
    state.m[:] = np.arange(len(state.m))
    state.v[:] = 0.5
    save_checkpoint(net, tmp_path / "net.npz", state)
    loaded, opt = load_checkpoint(tmp_path / "net.npz", vocab)
    for k, p in net.params.items():
        assert np.array_equal(p.data, loaded.params[k].data)
    assert opt.t == 7
    assert np.array_equal(opt.m, state.m) and np.array_equal(opt.v, state.v)
    assert loaded.state_parts == 2


def test_checkpoint_vocabulary_mismatch(tmp_path, vocab):
    from cookworld.neural.nets import VocabularyMismatchError

    net = tiny_net(vocab)
    save_checkpoint(net, tmp_path / "net.npz")
    other = Vocabulary(("alpha", "beta"))
    with pytest.raises(VocabularyMismatchError):
        load_checkpoint(tmp_path / "net.npz", other)


def test_checkpoint_of_version_1_is_refused(tmp_path, vocab):
    from cookworld.neural.nets import CheckpointError

    # version 1 kept one array per parameter, named param.<name>
    net = tiny_net(vocab)
    meta = {"checkpoint_version": 1, "config": net.config(), "seed": net.seed,
            "vocab_tokens": list(vocab.tokens)}
    np.savez(tmp_path / "net.npz", meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **{f"param.{name}": p.data for name, p in net.params.items()})
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1 in .*net.npz"):
        load_checkpoint(tmp_path / "net.npz", vocab)


def _refusal(path, vocab) -> str:
    """load_checkpoint's refusal of path, its traceback dropped on return."""
    from cookworld.neural.nets import CheckpointError

    try:
        load_checkpoint(path, vocab)
    except CheckpointError as exc:
        return str(exc)
    raise AssertionError(f"{path} was loaded")


def test_a_corrupt_checkpoint_leaves_no_file_open(tmp_path, vocab):
    path = tmp_path / "broken.npz"
    path.write_bytes(b"PK\x03\x04 not actually a checkpoint")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert "cannot read checkpoint" in _refusal(path, vocab)
        gc.collect()  # an unclosed file warns as it is collected
    assert not [w for w in caught if "broken.npz" in str(w.message)]


def test_clone_net_matches(vocab):
    net = tiny_net(vocab, seed=3, parts=2)
    twin = clone_net(net)
    obs = small_obs()
    assert np.allclose(
        net.q_values(obs, "find cilantro", ["open fridge"]),
        twin.q_values(obs, "find cilantro", ["open fridge"]),
    )
