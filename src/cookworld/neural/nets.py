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


def distinct(items: Sequence, key=None) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's row among them."""
    rows: dict = {}
    unique: list = []
    index = np.empty(len(items), dtype=np.intp)
    for i, item in enumerate(items):
        k = item if key is None else key(item)
        row = rows.get(k)
        if row is None:
            row = rows[k] = len(unique)
            unique.append(item)
        index[i] = row
    return unique, index


REL_INDEX = {rel: i for i, rel in enumerate(RELATIONS)}


class _GraphLayout:
    """Parameter-free compilation of one or more observations for the R-GCN:
    their nodes laid end to end, as index arrays.

    Raw arrays: nodes per graph, every node's token ids with the node each
    token belongs to, and every edge as (relation, source node, target
    node). From these it derives the segment ids the encoder sums by: tokens
    into nodes (token_nodes), edges into (relation, target node) groups
    (group_ids), which are contiguous per relation, groups into nodes
    (group_dst), and nodes into graphs (graph_ids).
    """

    __slots__ = (
        "node_counts", "token_ids", "token_nodes", "edge_rel", "edge_src", "edge_dst",
        "n_nodes", "token_scale", "group_src", "group_ids", "group_scale", "group_rel",
        "group_dst", "relations", "relation_bounds", "graph_ids", "graph_scale",
    )

    def __init__(self, node_counts, token_ids, token_nodes, edge_rel, edge_src, edge_dst):
        self.node_counts = node_counts
        self.token_ids = token_ids
        self.token_nodes = token_nodes
        self.edge_rel = edge_rel
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        n = self.n_nodes = int(node_counts.sum())
        self.token_scale = 1.0 / np.bincount(token_nodes, minlength=n)[:, None]
        order = np.lexsort((edge_dst, edge_rel))
        rel, dst = edge_rel[order], edge_dst[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (rel[1:] != rel[:-1]) | (dst[1:] != dst[:-1])
        groups = self.group_ids = np.cumsum(first) - 1
        self.group_src = edge_src[order]
        self.group_scale = 1.0 / np.bincount(groups, minlength=first.sum())[:, None]  # 1 / in-degree
        self.group_rel = rel[first]
        self.group_dst = dst[first]
        # groups are sorted by relation: the relations present and their row bounds
        starts = np.flatnonzero(np.r_[True, self.group_rel[1:] != self.group_rel[:-1]])
        self.relations = [RELATIONS[r] for r in self.group_rel[starts]] if len(self.group_rel) else []
        self.relation_bounds = list(np.append(starts, len(self.group_rel))) if self.relations else []
        self.graph_ids = np.repeat(np.arange(len(node_counts)), node_counts)
        self.graph_scale = 1.0 / np.maximum(node_counts, 1)[:, None]

    @classmethod
    def of(cls, obs: KGObservation, vocab) -> "_GraphLayout":
        nodes = obs.entities()
        index = {name: i for i, name in enumerate(nodes)}
        token_lists = [vocab.encode(name) or [0] for name in nodes]
        edges = [(REL_INDEX[t.relation], index[t.subject], index[t.object]) for t in obs]
        # message flows subject -> object
        rel, src, dst = np.array(edges, dtype=np.intp).reshape(-1, 3).T
        return cls(
            np.array([len(nodes)], dtype=np.intp),
            np.array([tid for ids in token_lists for tid in ids], dtype=np.intp),
            np.repeat(np.arange(len(nodes)), [len(ids) for ids in token_lists]),
            rel, src, dst,
        )

    @classmethod
    def concat(cls, layouts: Sequence["_GraphLayout"]) -> "_GraphLayout":
        if len(layouts) == 1:
            return layouts[0]
        counts = np.concatenate([x.node_counts for x in layouts])
        offsets = np.r_[0, np.cumsum(counts)[:-1]]

        def shifted(field: str) -> np.ndarray:
            return np.concatenate([getattr(x, field) + off for x, off in zip(layouts, offsets)])

        return cls(
            counts,
            np.concatenate([x.token_ids for x in layouts]),
            shifted("token_nodes"),
            np.concatenate([x.edge_rel for x in layouts]),
            shifted("edge_src"),
            shifted("edge_dst"),
        )


_LAYOUT_CACHE_SIZE = 4096


def _layout_for(obs: KGObservation, vocab) -> _GraphLayout:
    """One observation's layout, cached on the vocabulary its token ids
    come from."""
    cache = vocab.graph_layouts
    key = canonical_hash(obs)
    cached = cache.get(key)
    if cached is not None:
        cache.move_to_end(key)
        return cached
    layout = cache[key] = _GraphLayout.of(obs, vocab)
    if len(cache) > _LAYOUT_CACHE_SIZE:
        cache.popitem(last=False)
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

    def graph_tensor(self, observations: Sequence[KGObservation]) -> Tensor:
        """Mean-pooled R-GCN encodings of the observations, one row each.

        The distinct observations are packed into one node list. Per layer,
        each relation averages its source nodes' states into the nodes it
        targets and projects only those averages by its own weight; one
        segment sum scatters every relation's messages into the nodes."""
        unique, rows = distinct(observations, key=canonical_hash)
        layout = _GraphLayout.concat([_layout_for(obs, self.vocab) for obs in unique])
        n, groups = layout.n_nodes, len(layout.group_rel)
        if n == 0:
            return ad.constant(np.zeros((len(observations), self.d)))
        h = ad.mul(
            ad.segment_sum(
                ad.gather_rows(self.params["word_emb"], layout.token_ids), layout.token_nodes, n
            ),
            ad.constant(layout.token_scale),
        )
        for layer in range(self.rgcn_layers):
            total = ad.affine(h, self.params[f"rgcn.{layer}.self"], self.params[f"rgcn.{layer}.bias"])
            if layout.relations:
                mean = ad.mul(
                    ad.segment_sum(ad.gather_rows(h, layout.group_src), layout.group_ids, groups),
                    ad.constant(layout.group_scale),
                )
                weights = [self.params[f"rgcn.{layer}.rel.{rel}"] for rel in layout.relations]
                messages = ad.add(
                    ad.grouped_matmul(mean, weights, layout.relation_bounds),
                    ad.gather_rows(self.params["rel_emb"], layout.group_rel),
                )
                total = ad.add(total, ad.segment_sum(messages, layout.group_dst, n))
            h = ad.relu(total)
        pooled = ad.mul(
            ad.segment_sum(h, layout.graph_ids, len(unique)), ad.constant(layout.graph_scale)
        )
        return pooled if len(unique) == len(observations) else ad.gather_rows(pooled, rows)

    def text_tensor(self, texts: Sequence[str]) -> Tensor:
        """Single-block transformer encodings of the texts, mean-pooled over
        each text's tokens, one row each.

        The distinct texts are padded to the longest; attention runs within
        each text, with padded keys masked out, and the pool drops padding."""
        unique, rows = distinct(texts)
        encoded = [self.vocab.encode(text) for text in unique]
        for text, ids in zip(unique, encoded):
            if not ids:
                raise EmptyTextError(f"cannot encode empty text {text!r}")
        b, d = len(unique), self.d
        lengths = np.array([len(ids) for ids in encoded])
        width = int(lengths.max())
        valid = np.arange(width) < lengths[:, None]  # (b, width)
        token_ids = np.zeros((b, width), dtype=np.intp)
        token_ids[valid] = [tid for ids in encoded for tid in ids]
        x = ad.add(
            ad.gather_rows(self.params["word_emb"], token_ids.reshape(-1)),
            ad.constant(np.tile(sinusoidal_positions(width, d), (b, 1))),
        )
        q = ad.reshape(ad.matmul(x, self.params["attn.wq"]), (b, width, d))
        k = ad.reshape(ad.matmul(x, self.params["attn.wk"]), (b, width, d))
        v = ad.reshape(ad.matmul(x, self.params["attn.wv"]), (b, width, d))
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d))
        if not valid.all():
            scores = ad.add(scores, ad.constant(np.where(valid, 0.0, -np.inf)[:, None, :]))
        attended = ad.reshape(ad.matmul(ad.softmax_rows(scores), v), (b * width, d))
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
        weights = (valid / lengths[:, None]).reshape(-1, 1)
        pooled = ad.segment_sum(ad.mul(h2, ad.constant(weights)), np.repeat(np.arange(b), width), b)
        return pooled if b == len(texts) else ad.gather_rows(pooled, rows)

    def _w1_rows(self, part: int) -> slice:
        """The rows of scorer.w1 that multiply input part `part` of
        [graph; instruction; candidate]: 0 the graph, 1 the instruction on a
        net that takes one, state_parts the candidate."""
        return slice(part * self.d, (part + 1) * self.d)

    def score_tensor(self, graphs: Tensor, texts: Tensor, graph_rows, cand_rows, cond_rows=None) -> Tensor:
        """Q of row i -> (n, 1): graph graphs[graph_rows[i]] paired with
        candidate texts[cand_rows[i]], conditioned on instruction
        texts[cond_rows[i]] when the net takes one.

        The first layer is factorized per input block,
        W1·[g; c; a] + b1 = (g·W1_g + b1) + c·W1_c + a·W1_a, so each block
        multiplies every graph or text row once and a row sums the block
        rows it gathers."""
        if len(cand_rows) == 0:
            raise EmptyCandidatesError("no candidates to score")

        def w1(part: int) -> Tensor:
            return ad.row_block(self.params["scorer.w1"], self._w1_rows(part))

        hidden = ad.gather_rows(ad.affine(graphs, w1(0), self.params["scorer.b1"]), graph_rows)
        if self.state_parts == 2:
            hidden = ad.add(hidden, ad.gather_rows(ad.matmul(texts, w1(1)), cond_rows))
        hidden = ad.add(hidden, ad.gather_rows(ad.matmul(texts, w1(self.state_parts)), cand_rows))
        return ad.affine(ad.relu(hidden), self.params["scorer.w2"], self.params["scorer.b2"])

    # -- cached inference ----------------------------------------------------

    def graph_vector(self, obs: KGObservation) -> np.ndarray:
        """One observation's graph encoding, (1, d), no gradients recorded."""
        with ad.no_grad():
            return self.graph_tensor([obs]).data

    def text_vector(self, text: str) -> np.ndarray:
        """One text's encoding, (1, d), no gradients recorded."""
        with ad.no_grad():
            return self.text_tensor([text]).data

    def _projection(self, part: int, item) -> np.ndarray:
        """An item's first-layer scorer row for input part `part` (see
        _w1_rows), (1, scorer_hidden): an observation's graph block plus
        b1, or a text's instruction or candidate block. Served from the
        vector cache, which lives as long as the weights (bump_version
        empties it); a miss is encoded alone, so a row's value does not
        depend on which call first needed it."""
        key = (part, canonical_hash(item) if part == 0 else item)
        row = self._vec_cache.get(key)
        if row is None:
            w1 = self.params["scorer.w1"].data[self._w1_rows(part)]
            if part == 0:
                row = self.graph_vector(item) @ w1 + self.params["scorer.b1"].data
            else:
                row = self.text_vector(item) @ w1
            self._vec_cache[key] = row
        return row

    def q_values(
        self, obs: KGObservation, cond_text: Optional[str], candidates: Sequence[str]
    ) -> np.ndarray:
        """Q for every candidate text, no gradients recorded."""
        return self.batch_q_values([(obs, cond_text, candidates)])

    def batch_q_values(
        self, states: Sequence[tuple[KGObservation, Optional[str], Sequence[str]]]
    ) -> np.ndarray:
        """Q for every candidate of every (obs, cond_text, candidates) state,
        laid end to end; no gradients recorded.

        score_tensor's formula on cached rows, in plain numpy: a state's
        row broadcast over its candidates' rows, one relu and one product
        with the output layer."""
        cand_part = self.state_parts
        blocks = []
        for obs, cond, candidates in states:
            if not candidates:
                raise EmptyCandidatesError("no candidates to score")
            state = self._projection(0, obs)
            if cand_part == 2:
                if cond is None:
                    raise ValueError("this net conditions on an instruction text")
                state = state + self._projection(1, cond)
            blocks.append(state + np.concatenate([self._projection(cand_part, c) for c in candidates]))
        hidden = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        np.maximum(hidden, 0.0, out=hidden)
        return (hidden @ self.params["scorer.w2"].data + self.params["scorer.b2"].data)[:, 0]


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
    if not isinstance(meta, dict) or meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    try:
        if meta["vocab_tokens"] != list(vocab.tokens):
            raise VocabularyMismatchError(
                f"checkpoint {path} was trained with a different vocabulary"
            )
        net = PolicyNet(vocab, seed=meta["seed"], **meta["config"])
    except (KeyError, TypeError) as exc:
        # a missing field, or a config PolicyNet does not take
        raise CheckpointError(f"malformed metadata in checkpoint {path}: {exc!r}") from exc
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
