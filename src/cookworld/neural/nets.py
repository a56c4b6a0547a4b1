"""Policy networks: relation-typed graph encoder, single-block text encoder,
and a paired-candidate scorer, with deterministic seeded initialization.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..kg import KGObservation, RELATIONS, canonical_hash
from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_VERSION = 1


class EmptyTextError(ValueError):
    pass


class EmptyCandidatesError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class VocabularyMismatchError(CheckpointError):
    pass


class Parameter(Tensor):
    """Named leaf tensor with an owned gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, values: np.ndarray):
        super().__init__(values, requires_grad=True)
        self.name = name

    def zero_grad(self) -> None:
        self.grad = None


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(positions * div)
    enc[:, 1::2] = np.cos(positions * div)
    return enc


class _GraphLayout:
    """Parameter-free compilation of an observation: node token ids, an
    averaging matrix mapping gathered token embeddings to node features,
    and per-relation normalized adjacency."""

    __slots__ = ("n_nodes", "token_ids", "feature_avg", "adjacency")

    def __init__(self, obs: KGObservation, vocab):
        nodes = obs.entities()
        index = {name: i for i, name in enumerate(nodes)}
        n = len(nodes)
        self.n_nodes = n
        token_lists = [vocab.encode(name) or [0] for name in nodes]
        self.token_ids = [tid for ids in token_lists for tid in ids]
        self.feature_avg = np.zeros((n, len(self.token_ids)))
        cursor = 0
        for i, ids in enumerate(token_lists):
            self.feature_avg[i, cursor : cursor + len(ids)] = 1.0 / len(ids)
            cursor += len(ids)
        self.adjacency: dict[str, np.ndarray] = {}
        counts: dict[str, np.ndarray] = {}
        for t in obs:
            m = self.adjacency.get(t.relation)
            if m is None:
                m = np.zeros((n, n))
                self.adjacency[t.relation] = m
                counts[t.relation] = np.zeros(n)
            # message flows subject -> object
            m[index[t.object], index[t.subject]] += 1.0
            counts[t.relation][index[t.object]] += 1.0
        for rel, m in self.adjacency.items():
            c = counts[rel]
            m[c > 0] /= c[c > 0][:, None]


# keyed by the vocabulary too, because token ids depend on it; a Vocabulary
# hashes by identity and the key holds it, so its id is never reused
_LAYOUT_CACHE: OrderedDict[tuple, _GraphLayout] = OrderedDict()
_LAYOUT_CACHE_SIZE = 4096


def _layout_for(obs: KGObservation, vocab) -> _GraphLayout:
    key = (vocab, canonical_hash(obs))
    cached = _LAYOUT_CACHE.get(key)
    if cached is not None:
        _LAYOUT_CACHE.move_to_end(key)
        return cached
    layout = _GraphLayout(obs, vocab)
    _LAYOUT_CACHE[key] = layout
    if len(_LAYOUT_CACHE) > _LAYOUT_CACHE_SIZE:
        _LAYOUT_CACHE.popitem(last=False)
    return layout


class PolicyNet:
    """Online or target network for one policy.

    state_parts = 1 scores candidates against the graph state alone;
    state_parts = 2 additionally conditions on an instruction text.
    """

    def __init__(
        self,
        vocab,
        hidden_dim: int = 64,
        rgcn_layers: int = 2,
        state_parts: int = 1,
        ff_dim: int = 128,
        scorer_hidden: int = 128,
        seed: int = 0,
    ):
        self.vocab = vocab
        self.d = hidden_dim
        self.rgcn_layers = rgcn_layers
        self.state_parts = state_parts
        self.ff_dim = ff_dim
        self.scorer_hidden = scorer_hidden
        self.seed = seed
        self._vec_cache: dict = {}
        self.params: OrderedDict[str, Parameter] = OrderedDict()

        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xC00C)))
        d = hidden_dim
        v = len(vocab)

        def par(name: str, values: np.ndarray) -> Parameter:
            p = Parameter(name, values)
            self.params[name] = p
            return p

        par("word_emb", rng.uniform(-np.sqrt(3.0 / d), np.sqrt(3.0 / d), size=(v, d)))
        par("rel_emb", rng.uniform(-np.sqrt(3.0 / d), np.sqrt(3.0 / d), size=(len(RELATIONS), d)))
        for layer in range(rgcn_layers):
            for rel in RELATIONS:
                par(f"rgcn.{layer}.rel.{rel}", _glorot(rng, d, d, (d, d)))
            par(f"rgcn.{layer}.self", _glorot(rng, d, d, (d, d)))
            par(f"rgcn.{layer}.bias", np.zeros((1, d)))
        for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
            par(name, _glorot(rng, d, d, (d, d)))
        par("ln1.gain", np.ones((1, d)))
        par("ln1.bias", np.zeros((1, d)))
        par("ff.w1", _glorot(rng, d, ff_dim, (d, ff_dim)))
        par("ff.b1", np.zeros((1, ff_dim)))
        par("ff.w2", _glorot(rng, ff_dim, d, (ff_dim, d)))
        par("ff.b2", np.zeros((1, d)))
        par("ln2.gain", np.ones((1, d)))
        par("ln2.bias", np.zeros((1, d)))
        in_dim = (state_parts + 1) * d
        par("scorer.w1", _glorot(rng, in_dim, scorer_hidden, (in_dim, scorer_hidden)))
        par("scorer.b1", np.zeros((1, scorer_hidden)))
        par("scorer.w2", _glorot(rng, scorer_hidden, 1, (scorer_hidden, 1)))
        par("scorer.b2", np.zeros((1, 1)))

    # -- bookkeeping --------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def bump_version(self) -> None:
        self._vec_cache.clear()

    def config(self) -> dict:
        return {
            "hidden_dim": self.d,
            "rgcn_layers": self.rgcn_layers,
            "state_parts": self.state_parts,
            "ff_dim": self.ff_dim,
            "scorer_hidden": self.scorer_hidden,
        }

    # -- forward passes ------------------------------------------------------

    def graph_tensor(self, obs: KGObservation) -> Tensor:
        layout = _layout_for(obs, self.vocab)
        n = layout.n_nodes
        if n == 0:
            return ad.constant(np.zeros((1, self.d)))
        h = ad.matmul(
            ad.constant(layout.feature_avg),
            ad.gather_rows(self.params["word_emb"], layout.token_ids),
        )
        rel_ids = {rel: i for i, rel in enumerate(RELATIONS)}
        for layer in range(self.rgcn_layers):
            total = ad.add(
                ad.matmul(h, self.params[f"rgcn.{layer}.self"]),
                ad.tile_rows(self.params[f"rgcn.{layer}.bias"], n),
            )
            for rel, matrix in layout.adjacency.items():
                message = ad.add(
                    ad.matmul(h, self.params[f"rgcn.{layer}.rel.{rel}"]),
                    ad.gather_rows(self.params["rel_emb"], [rel_ids[rel]]),
                )
                total = ad.add(total, ad.matmul(ad.constant(matrix), message))
            h = ad.relu(total)
        return ad.mean_rows(h)

    def text_tensor(self, text: str) -> Tensor:
        ids = self.vocab.encode(text)
        if not ids:
            raise EmptyTextError(f"cannot encode empty text {text!r}")
        x = ad.add(
            ad.gather_rows(self.params["word_emb"], ids),
            ad.constant(sinusoidal_positions(len(ids), self.d)),
        )
        q = ad.matmul(x, self.params["attn.wq"])
        k = ad.matmul(x, self.params["attn.wk"])
        v = ad.matmul(x, self.params["attn.wv"])
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(self.d))
        attended = ad.matmul(ad.softmax_rows(scores), v)
        h1 = ad.layer_norm(
            ad.add(x, ad.matmul(attended, self.params["attn.wo"])),
            self.params["ln1.gain"],
            self.params["ln1.bias"],
        )
        ff = ad.affine(
            ad.relu(ad.affine(h1, self.params["ff.w1"], self.params["ff.b1"])),
            self.params["ff.w2"],
            self.params["ff.b2"],
        )
        h2 = ad.layer_norm(ad.add(h1, ff), self.params["ln2.gain"], self.params["ln2.bias"])
        return ad.mean_rows(h2)

    def score_tensor(self, state: Tensor, candidates: Tensor) -> Tensor:
        """state (1, parts*d) paired with each candidate row (n, d) -> (n, 1)."""
        n = candidates.data.shape[0]
        if n == 0:
            raise EmptyCandidatesError("no candidates to score")
        paired = ad.concat_cols([ad.tile_rows(state, n), candidates])
        hidden = ad.relu(ad.affine(paired, self.params["scorer.w1"], self.params["scorer.b1"]))
        return ad.affine(hidden, self.params["scorer.w2"], self.params["scorer.b2"])

    # -- cached inference ----------------------------------------------------

    def graph_vector(self, obs: KGObservation) -> np.ndarray:
        key = ("g", canonical_hash(obs))
        vec = self._vec_cache.get(key)
        if vec is None:
            with ad.no_grad():
                vec = self.graph_tensor(obs).data
            self._vec_cache[key] = vec
        return vec

    def text_vector(self, text: str) -> np.ndarray:
        key = ("t", text)
        vec = self._vec_cache.get(key)
        if vec is None:
            with ad.no_grad():
                vec = self.text_tensor(text).data
            self._vec_cache[key] = vec
        return vec

    def _state_vector(self, obs: KGObservation, cond_text: Optional[str]) -> np.ndarray:
        if self.state_parts == 1:
            return self.graph_vector(obs)
        if cond_text is None:
            raise ValueError("this net conditions on an instruction text")
        return np.concatenate([self.graph_vector(obs), self.text_vector(cond_text)], axis=1)

    def q_values(
        self, obs: KGObservation, cond_text: Optional[str], candidates: Sequence[str]
    ) -> np.ndarray:
        """Q for every candidate text, no gradients recorded."""
        if not candidates:
            raise EmptyCandidatesError("no candidates to score")
        state = self._state_vector(obs, cond_text)
        cand = np.concatenate([self.text_vector(c) for c in candidates], axis=0)
        with ad.no_grad():
            scores = self.score_tensor(ad.constant(state), ad.constant(cand))
        return scores.data[:, 0]


def sync_target(online: PolicyNet, target: PolicyNet) -> None:
    for name, p in online.params.items():
        np.copyto(target.params[name].data, p.data)
    target.bump_version()


def clone_net(net: PolicyNet) -> PolicyNet:
    twin = PolicyNet(
        net.vocab,
        hidden_dim=net.d,
        rgcn_layers=net.rgcn_layers,
        state_parts=net.state_parts,
        ff_dim=net.ff_dim,
        scorer_hidden=net.scorer_hidden,
        seed=net.seed,
    )
    sync_target(net, twin)
    return twin


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(net: PolicyNet, path: str | Path, optimizer_state: Optional[dict] = None) -> None:
    arrays = {f"param.{name}": p.data for name, p in net.params.items()}
    if optimizer_state is not None:
        for name, m in optimizer_state["m"].items():
            arrays[f"adam.m.{name}"] = m
        for name, v in optimizer_state["v"].items():
            arrays[f"adam.v.{name}"] = v
        arrays["adam.t"] = np.array(optimizer_state["t"])
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": net.config(),
        "seed": net.seed,
        "vocab_tokens": list(net.vocab.tokens),
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path, vocab) -> tuple[PolicyNet, Optional[dict]]:
    try:
        bundle = np.load(Path(path))
        meta = json.loads(bytes(bundle["meta"]).decode())
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    if meta["vocab_tokens"] != list(vocab.tokens):
        raise VocabularyMismatchError(
            f"checkpoint {path} was trained with a different vocabulary"
        )
    net = PolicyNet(vocab, seed=meta["seed"], **meta["config"])
    for name, p in net.params.items():
        key = f"param.{name}"
        if key not in bundle:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        np.copyto(p.data, bundle[key])
    optimizer_state = None
    if "adam.t" in bundle:
        optimizer_state = {
            "m": {name: bundle[f"adam.m.{name}"] for name in net.params},
            "v": {name: bundle[f"adam.v.{name}"] for name in net.params},
            "t": int(bundle["adam.t"]),
        }
    net.bump_version()
    return net, optimizer_state
