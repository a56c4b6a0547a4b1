"""Each net keeps its parameters in one flat vector.

Every params[name].data is a view of its segment of net.flat, so a copy
into flat or an in-place update of it moves every parameter at once; a
rebound .data would silently drop that parameter out of target syncs,
snapshots and Adam. Adam's moments are two vectors laid out the same way.
"""

import math

import numpy as np
import pytest

from cookworld.engine.vocab import default_vocabulary
from cookworld.kg import KGObservation, Triplet
from cookworld.neural import autodiff as ad
from cookworld.neural.nets import (
    CheckpointError, PolicyNet, _param_layout, clone_net, load_checkpoint, save_checkpoint,
    sync_target,
)
from cookworld.neural.optim import AdamState, apply_update
from cookworld.training.config import TrainConfig
from cookworld.training.loop import Learner


@pytest.fixture(scope="module")
def vocab():
    return default_vocabulary()


def tiny_net(vocab, seed=0, parts=1):
    return PolicyNet(vocab, hidden_dim=8, rgcn_layers=2, state_parts=parts, ff_dim=16,
                     scorer_hidden=16, seed=seed)


def assert_tiles_flat(net):
    """params[name].data views consecutive segments of net.flat, in
    _param_layout order, with the layout's shapes."""
    layout = _param_layout(len(net.vocab), **net.config())
    assert [name for name, _, _ in layout] == list(net.params)
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    base = net.flat.__array_interface__["data"][0]
    start = 0
    for (name, _, shape), p in zip(layout, net.params.values()):
        assert p.data.shape == shape and p.data.flags.c_contiguous, name
        assert np.shares_memory(p.data, net.flat), name
        assert p.data.__array_interface__["data"][0] == base + start * net.flat.itemsize, name
        start += math.prod(shape)
    assert start == net.flat.size


# -- the reference: the per-array Adam loop the flat update replaced ---------------------

def reference_update(params, grads, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                     clip_norm=5.0):
    """One Adam step over dicts of arrays, in place: the global norm summed
    per parameter in order, then every parameter stepped on its own.
    Returns whether the norm was clipped."""
    total = 0.0
    for grad in grads.values():
        if grad is not None:
            total += float((grad * grad).sum())
    norm = float(np.sqrt(total))
    clip_scale = clip_norm / norm if norm > clip_norm else 1.0
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, data in params.items():
        grad = grads[name] if grads[name] is not None else 0.0
        grad = grad * clip_scale if clip_scale != 1.0 and grads[name] is not None else grad
        m[name] *= beta1
        m[name] += (1.0 - beta1) * grad
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(grad)
        data -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
    return clip_scale != 1.0


OBSERVATIONS = [
    KGObservation([Triplet("cilantro", "fridge", "in"), Triplet("player", "kitchen", "at")]),
    KGObservation([Triplet("knife", "table", "on"), Triplet("fridge", "open", "is")]),
]


def backward_q(net, step):
    """Gradients of a scaled sum of squared Q over two candidates of one
    observation. Relations absent from the observation give their R-GCN
    weights no gradient; every fifth step also drops ff.w1's, and every
    other step the loss is large enough for the clip to trigger."""
    net.zero_grad()
    conds = ["find cilantro"] if net.state_parts == 2 else []
    with ad.tape():
        q = net.score_tensor(
            net.graph_tensor([OBSERVATIONS[step % 2]]),
            net.text_tensor(["open fridge", "take knife"] + conds),
            np.zeros(2, dtype=np.intp), np.arange(2), np.full(2, 2) if conds else None,
        )
        ad.scale(ad.sum_all(ad.mul(q, q)), 1e4 if step % 2 else 1e-2).backward()
    if step % 5 == 0:
        net.params["ff.w1"].grad = None
    return {name: p.grad for name, p in net.params.items()}


@pytest.mark.parametrize("parts", [2, 1], ids=["sub", "meta"])
def test_apply_update_matches_the_per_array_loop_bit_for_bit(vocab, parts):
    net = PolicyNet(vocab, state_parts=parts, seed=7)
    state = AdamState(net)
    params = {name: p.data.copy() for name, p in net.params.items()}
    m = {name: np.zeros_like(x) for name, x in params.items()}
    v = {name: np.zeros_like(x) for name, x in params.items()}
    clipped = missing = 0
    for step in range(1, 61):
        grads = backward_q(net, step)
        missing += sum(g is None for g in grads.values())
        clipped += reference_update(params, grads, m, v, step)
        apply_update(net, state)
        for name, p in net.params.items():
            assert np.array_equal(p.data, params[name]), (step, name)
    assert clipped >= 20 and 60 - clipped >= 20
    assert missing >= 60
    layout = list(net.params)
    assert np.array_equal(state.m, np.concatenate([m[name].ravel() for name in layout]))
    assert np.array_equal(state.v, np.concatenate([v[name].ravel() for name in layout]))
    assert state.t == 60


def test_apply_update_allocates_its_scratch_on_the_first_update(vocab):
    net = tiny_net(vocab)
    state = AdamState(net)
    assert state._scratch is None
    apply_update(net, state)
    assert all(x.shape == net.flat.shape for x in state._scratch)


# -- views are never rebound -------------------------------------------------------------

def _learner(vocab):
    cfg = TrainConfig(levels=("S1",), hidden_dim=8, ff_dim=16, scorer_hidden=16, batch_size=2)
    return Learner("sub", cfg, vocab, 2, 16, 3, np.random.default_rng(0))


def _constructed(vocab, tmp_path):
    return [tiny_net(vocab, seed=1, parts=2)]


def _cloned(vocab, tmp_path):
    return [clone_net(tiny_net(vocab, seed=1))]


def _loaded(vocab, tmp_path):
    net = tiny_net(vocab, seed=1)
    save_checkpoint(net, tmp_path / "net.npz", AdamState(net))
    return [load_checkpoint(tmp_path / "net.npz", vocab)[0]]


def _updated(vocab, tmp_path):
    net = tiny_net(vocab, seed=1)
    backward_q(net, 1)
    apply_update(net, AdamState(net))
    return [net]


def _synced(vocab, tmp_path):
    online, target = tiny_net(vocab, seed=1), tiny_net(vocab, seed=2)
    sync_target(online, target)
    assert np.array_equal(online.flat, target.flat)
    return [online, target]


def _restored(vocab, tmp_path):
    learner = _learner(vocab)
    learner.snapshot()
    learner.online.flat += 0.5
    learner.restore()
    assert np.array_equal(learner.online.flat, learner.best_flat)
    return [learner.online, learner.target]


def _resumed(vocab, tmp_path):
    saved = _learner(vocab)
    backward_q(saved.online, 1)
    apply_update(saved.online, saved.adam)
    saved.save(tmp_path)
    learner = _learner(vocab)
    learner.load(tmp_path, updates=1)
    assert np.array_equal(learner.online.flat, saved.online.flat)
    assert np.array_equal(learner.target.flat, saved.online.flat)
    assert np.array_equal(learner.adam.m, saved.adam.m) and learner.adam.t == 1
    return [learner.online, learner.target]


def test_resume_refuses_a_checkpoint_of_another_net_shape(vocab, tmp_path):
    saved = _learner(vocab)
    saved.save(tmp_path)
    wide = Learner("sub", TrainConfig(levels=("S1",), hidden_dim=8, ff_dim=24, scorer_hidden=8),
                   vocab, 2, 16, 3, np.random.default_rng(0))
    with pytest.raises(CheckpointError, match="sub.npz"):
        wide.load(tmp_path, updates=0)


@pytest.mark.parametrize("make", [_constructed, _cloned, _loaded, _updated, _synced, _restored,
                                  _resumed], ids=lambda f: f.__name__.strip("_"))
def test_parameters_stay_views_of_the_flat_vector(vocab, tmp_path, make):
    for net in make(vocab, tmp_path):
        assert_tiles_flat(net)
        # a write through flat reaches every parameter, and the reverse
        net.flat[:] = np.arange(net.flat.size)
        assert np.array_equal(np.concatenate([p.data.ravel() for p in net.params.values()]),
                              net.flat)
        net.params["scorer.b2"].data += 1.0
        assert net.flat[-1] == net.flat.size


def test_clones_and_snapshots_own_their_vectors(vocab):
    learner = _learner(vocab)
    learner.snapshot()
    before = learner.best_flat.copy()
    learner.online.flat += 1.0
    assert np.array_equal(learner.best_flat, before)
    assert not np.shares_memory(learner.online.flat, learner.target.flat)
    twin = clone_net(learner.online)
    assert not np.shares_memory(twin.flat, learner.online.flat)


# -- checkpoints hold and validate the vectors -------------------------------------------

def _without(key):
    def damage(arrays):
        del arrays[key]
    return damage


def _replaced(key, value):
    def damage(arrays):
        arrays[key] = value if not callable(value) else value(arrays[key])
    return damage


BAD_VECTORS = {
    "missing": _without,
    "one short": lambda key: _replaced(key, lambda x: x[:-1]),
    "one long": lambda key: _replaced(key, lambda x: np.append(x, 0.0)),
    "2-D": lambda key: _replaced(key, lambda x: x.reshape(1, -1)),
    "integer": lambda key: _replaced(key, lambda x: x.astype(np.int64)),
}

BAD_STEP_COUNTS = {
    "step count a list": np.array([1, 2]),
    "negative step count": np.array(-1),
    "float step count": np.array(3.0),
}


def _refused(vocab, tmp_path, key, damage):
    net = tiny_net(vocab, parts=2)
    path = tmp_path / "net.npz"
    save_checkpoint(net, path, AdamState(net, t=3))
    with np.load(path) as bundle:
        arrays = dict(bundle)
    damage(arrays)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=key) as info:
        load_checkpoint(path, vocab)
    assert "net.npz" in str(info.value)


@pytest.mark.parametrize("key", ["param", "adam.m", "adam.v"])
@pytest.mark.parametrize("case", list(BAD_VECTORS))
def test_checkpoint_with_a_bad_vector_is_refused(vocab, tmp_path, case, key):
    _refused(vocab, tmp_path, key, BAD_VECTORS[case](key))


@pytest.mark.parametrize("case", list(BAD_STEP_COUNTS))
def test_checkpoint_with_a_bad_adam_array_is_refused(vocab, tmp_path, case):
    _refused(vocab, tmp_path, "adam.t", _replaced("adam.t", BAD_STEP_COUNTS[case]))


def test_checkpoint_keeps_one_array_per_vector(vocab, tmp_path):
    net = tiny_net(vocab, parts=2)
    state = AdamState(net, t=4)
    state.m[:] = np.linspace(-1.0, 1.0, state.m.size)
    state.v[:] = np.linspace(0.0, 2.0, state.v.size)
    save_checkpoint(net, tmp_path / "net.npz", state)
    with np.load(tmp_path / "net.npz") as bundle:
        arrays = dict(bundle)
    assert set(arrays) == {"meta", "param", "adam.m", "adam.v", "adam.t"}
    assert int(arrays["adam.t"]) == 4
    for key, vector in (("param", net.flat), ("adam.m", state.m), ("adam.v", state.v)):
        assert arrays[key].dtype == np.float64 and np.array_equal(arrays[key], vector), key


class _Bundle(dict):
    """A checkpoint's arrays, read once, served as np.load serves them."""

    files = property(list)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_loaded_vectors_are_adopted_uncopied(vocab, tmp_path, monkeypatch):
    net = tiny_net(vocab, parts=2)
    save_checkpoint(net, tmp_path / "net.npz", AdamState(net, t=1))
    with np.load(tmp_path / "net.npz") as bundle:
        read = _Bundle(bundle)
    monkeypatch.setattr(np, "load", lambda path: read)
    loaded, state = load_checkpoint(tmp_path / "net.npz", vocab)
    assert loaded.flat is read["param"]
    assert state.m is read["adam.m"] and state.v is read["adam.v"]
    assert_tiles_flat(loaded)
