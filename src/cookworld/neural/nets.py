"""Policy networks: relation-typed graph encoder, single-block text encoder,
and a paired-candidate scorer, with deterministic seeded initialization.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..kg import KGObservation, RELATIONS, canonical_hash
from . import autodiff as ad
from .autodiff import Tensor
from .optim import AdamState

CHECKPOINT_VERSION = 2


class EmptyTextError(ValueError):
    pass


class EmptyCandidatesError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class VocabularyMismatchError(CheckpointError):
    pass


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@functools.cache
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """The (length, dim) positional table, built once per shape and shared
    read-only."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(positions * div)
    enc[:, 1::2] = np.cos(positions * div)
    enc.flags.writeable = False
    return enc


def distinct(items: Sequence, key=None) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's row among them."""
    if len(items) == 1:
        return [items[0]], np.zeros(1, dtype=np.intp)
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


_U64 = np.uint64
_GOLDEN, _ODD = _U64(0x9E3779B97F4A7C15), _U64(0xD6E8FEB86659FD93)
_M1, _M2 = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_S27, _S30, _S31, _S32 = _U64(27), _U64(30), _U64(31), _U64(32)


def _splitmix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function on a uint64 array: a bijection whose
    every output bit depends on every input bit. Arithmetic wraps modulo
    2**64."""
    x = x + _GOLDEN
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


class _EdgeGroups:
    """A layer's edges grouped for the per-relation mean, by (relation,
    target row): each edge's source row (src) and group (ids), 1 / in-degree
    per group (scale), each group's relation and target row (rel, dst), and,
    as groups are sorted by relation, the indices of the relations present
    with their group row bounds. Within a group, edges keep the order they
    were given in."""

    __slots__ = ("src", "ids", "scale", "rel", "dst", "relations", "bounds")

    def __init__(self, edge_rel, edge_src, edge_dst):
        order = np.lexsort((edge_dst, edge_rel))
        rel, dst = edge_rel[order], edge_dst[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (rel[1:] != rel[:-1]) | (dst[1:] != dst[:-1])
        self.ids = np.cumsum(first) - 1
        self.src = edge_src[order]
        self.scale = 1.0 / np.bincount(self.ids, minlength=first.sum())[:, None]
        self.rel = rel[first]
        self.dst = dst[first]
        starts = np.flatnonzero(np.r_[True, self.rel[1:] != self.rel[:-1]])
        self.relations = self.rel[starts].tolist() if len(self.rel) else []
        self.bounds = np.append(starts, len(self.rel)).tolist() if self.relations else []


class _EncoderPass:
    """The rows graph_tensor computes for a set of observations, as index
    arrays.

    Layer 0 row i averages the embeddings of the tokens whose token_rows
    entry is i. R-GCN layer l maps its input rows to its own output rows:
    layers[l] is (self_rows, groups, n_rows), where output row i starts from
    input row self_rows[i] (row i when None) and groups holds the edges it
    averages, sources as input rows and targets as output rows. node_rows
    gives each node its final row (node i's row when None); graph_ids and
    graph_scale mean-pool the nodes into their observations."""

    __slots__ = ("token_ids", "token_rows", "token_scale", "layers", "node_rows",
                 "graph_ids", "graph_scale")

    def __init__(self, token_ids, token_rows, n_rows, layers, node_rows, node_counts):
        self.token_ids = token_ids
        self.token_rows = token_rows
        self.token_scale = 1.0 / np.bincount(token_rows, minlength=n_rows)[:, None]
        self.layers = layers
        self.node_rows = node_rows
        self.graph_ids = np.repeat(np.arange(len(node_counts)), node_counts)
        self.graph_scale = 1.0 / np.maximum(node_counts, 1)[:, None]


class _GraphLayout:
    """Parameter-free compilation of one observation for the R-GCN, as
    index arrays: every node's token ids with the node each token belongs
    to, every edge as (relation, source node, target node), and the edges
    grouped for the per-relation mean (groups). Once the observation joins a
    batch of several, it also keeps its nodes' colours (see colours_to)."""

    __slots__ = ("n_nodes", "token_ids", "token_nodes", "edge_rel", "edge_src", "edge_dst",
                 "groups", "colours", "_own")

    def __init__(self, obs: KGObservation, vocab):
        nodes = obs.entities()
        index = {name: i for i, name in enumerate(nodes)}
        token_lists = [vocab.encode(name) or [0] for name in nodes]
        edges = [(REL_INDEX[t.relation], index[t.subject], index[t.object]) for t in obs]
        self.n_nodes = len(nodes)
        self.token_ids = np.array([tid for ids in token_lists for tid in ids], dtype=np.intp)
        self.token_nodes = np.repeat(np.arange(len(nodes)), [len(ids) for ids in token_lists])
        # message flows subject -> object
        rel, src, dst = np.array(edges, dtype=np.intp).reshape(-1, 3).T
        self.edge_rel, self.edge_src, self.edge_dst = rel, src, dst
        self.groups = _EdgeGroups(rel, src, dst)
        self.colours: list[np.ndarray] = []
        self._own: Optional[_EncoderPass] = None

    def own_pass(self, depth: int) -> _EncoderPass:
        """The observation encoded alone: every node is its own row."""
        own = self._own
        if own is None or len(own.layers) != depth:
            n = self.n_nodes
            own = self._own = _EncoderPass(
                self.token_ids, self.token_nodes, n, [(None, self.groups, n)] * depth, None,
                np.array([n]),
            )
        return own

    def colours_to(self, depth: int) -> list[np.ndarray]:
        """The nodes' colours at layers 0..depth, 64-bit digests computed once
        and kept. Layer 0 digests a node's token ids with their positions;
        layer l+1 digests its own layer-l colour with the multiset of
        (relation, source's layer-l colour) over its in-edges, a sum of
        per-edge digests. Two nodes of one colour at layer l have the same
        R-GCN state after l layers, unless two digests collide: the
        assumption canonical_hash makes."""
        colours = self.colours
        if not colours:
            first_token = np.searchsorted(self.token_nodes, self.token_nodes)
            position = (np.arange(len(self.token_ids)) - first_token).astype(_U64)
            terms = _splitmix(self.token_ids.astype(_U64) | (position << _S32))
            tokens = np.zeros(self.n_nodes, dtype=_U64)
            np.add.at(tokens, self.token_nodes, terms)
            colours.append(_splitmix(tokens))
        if len(colours) <= depth:
            relation = _splitmix(self.edge_rel.astype(_U64))
            for _ in range(len(colours), depth + 1):
                own = colours[-1]
                incoming = np.zeros(self.n_nodes, dtype=_U64)
                np.add.at(incoming, self.edge_dst, _splitmix(own[self.edge_src] ^ relation))
                colours.append(_splitmix(own * _ODD + incoming))
        return colours


def _encoder_pass(layouts: Sequence[_GraphLayout], depth: int) -> _EncoderPass:
    """The pass that encodes the observations. One observation is encoded
    alone, uncoloured: its nodes are already distinct. Several are encoded
    together, one row per node class.

    The nodes are laid end to end, and a node's class at layer l is its
    colour there: one np.unique per layer gives each node its class row and
    one representative node per class. Layer 0 embeds the representatives'
    tokens; layer l computes a row per layer-(l+1) class from its
    representative's own layer-l row and in-edges."""
    if len(layouts) == 1:
        return layouts[0].own_pass(depth)
    counts = np.array([x.n_nodes for x in layouts])
    n = int(counts.sum())
    offsets = np.r_[0, np.cumsum(counts)[:-1]]
    edge_offsets = np.repeat(offsets, [len(x.edge_rel) for x in layouts])
    token_nodes = np.concatenate([x.token_nodes + off for x, off in zip(layouts, offsets)])
    edge_rel = np.concatenate([x.edge_rel for x in layouts])
    edge_src = np.concatenate([x.edge_src for x in layouts]) + edge_offsets
    edge_dst = np.concatenate([x.edge_dst for x in layouts]) + edge_offsets
    colours = [x.colours_to(depth) for x in layouts]
    classes, reps = [], []
    for layer in range(depth + 1):
        _, first, inverse = np.unique(
            np.concatenate([c[layer] for c in colours]), return_index=True, return_inverse=True
        )
        classes.append(inverse)
        reps.append(first)

    def represented(layer: int, node_ids: np.ndarray) -> np.ndarray:
        chosen = np.zeros(n, dtype=bool)
        chosen[reps[layer]] = True
        return chosen[node_ids]

    keep = represented(0, token_nodes)
    layers = []
    for layer in range(depth):
        into = represented(layer + 1, edge_dst)
        groups = _EdgeGroups(
            edge_rel[into], classes[layer][edge_src[into]], classes[layer + 1][edge_dst[into]]
        )
        layers.append((classes[layer][reps[layer + 1]], groups, len(reps[layer + 1])))
    return _EncoderPass(
        np.concatenate([x.token_ids for x in layouts])[keep], classes[0][token_nodes[keep]],
        len(reps[0]), layers, classes[depth], counts,
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
    layout = cache[key] = _GraphLayout(obs, vocab)
    if len(cache) > _LAYOUT_CACHE_SIZE:
        cache.popitem(last=False)
    return layout


def _param_layout(vocab_size: int, hidden_dim: int, rgcn_layers: int, state_parts: int,
                  ff_dim: int, scorer_hidden: int) -> list[tuple[str, str, tuple[int, int]]]:
    """Every parameter of a PolicyNet as (name, initializer, shape), in the
    order the seeded initialization draws them. Each setting must be an int
    (not a bool) in its range, or ValueError names it."""
    for name, value, low, high in (
        ("hidden_dim", hidden_dim, 1, None), ("rgcn_layers", rgcn_layers, 0, None),
        ("state_parts", state_parts, 1, 2), ("ff_dim", ff_dim, 1, None),
        ("scorer_hidden", scorer_hidden, 1, None),
    ):
        if type(value) is not int or value < low or (high is not None and value > high):
            most = "" if high is None else f" and at most {high}"
            raise ValueError(f"{name} must be an int of at least {low}{most}, got {value!r}")
    d, ff, hid = hidden_dim, ff_dim, scorer_hidden
    layout = [("word_emb", "emb", (vocab_size, d)), ("rel_emb", "emb", (len(RELATIONS), d))]
    for layer in range(rgcn_layers):
        layout += [(f"rgcn.{layer}.rel.{rel}", "glorot", (d, d)) for rel in RELATIONS]
        layout += [(f"rgcn.{layer}.self", "glorot", (d, d)), (f"rgcn.{layer}.bias", "zeros", (1, d))]
    layout += [(name, "glorot", (d, d)) for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo")]
    in_dim = (state_parts + 1) * d
    return layout + [
        ("ln1.gain", "ones", (1, d)), ("ln1.bias", "zeros", (1, d)),
        ("ff.w1", "glorot", (d, ff)), ("ff.b1", "zeros", (1, ff)),
        ("ff.w2", "glorot", (ff, d)), ("ff.b2", "zeros", (1, d)),
        ("ln2.gain", "ones", (1, d)), ("ln2.bias", "zeros", (1, d)),
        ("scorer.w1", "glorot", (in_dim, hid)), ("scorer.b1", "zeros", (1, hid)),
        ("scorer.w2", "glorot", (hid, 1)), ("scorer.b2", "zeros", (1, 1)),
    ]


def _layout_size(layout) -> int:
    return sum(math.prod(shape) for _, _, shape in layout)


def _views(layout, flat: np.ndarray) -> dict[str, np.ndarray]:
    """flat's consecutive segments, in layout order, as views named and
    shaped as the layout lists them."""
    views, start = {}, 0
    for name, _, shape in layout:
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


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
        self._configure(vocab, hidden_dim, rgcn_layers, state_parts, ff_dim, scorer_hidden, seed)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xC00C)))
        emb = np.sqrt(3.0 / hidden_dim)
        draw = {
            "emb": lambda shape: rng.uniform(-emb, emb, size=shape),
            "glorot": lambda shape: _glorot(rng, shape),
            "zeros": lambda shape: 0.0,
            "ones": lambda shape: 1.0,
        }
        # drawn straight into flat's views, so no second copy of the parameters exists
        self._adopt(np.empty(_layout_size(self.param_layout)))
        for (_, init, shape), p in zip(self.param_layout, self.params.values()):
            p.data[...] = draw[init](shape)

    @classmethod
    def _with_params(cls, vocab, config: dict, seed: int, flat: np.ndarray) -> "PolicyNet":
        """A net of this config whose parameter vector is flat, laid out as
        _param_layout lists the parameters, instead of draws from the seed."""
        net = cls.__new__(cls)
        net._configure(vocab, seed=seed, **config)
        net._adopt(flat)
        return net

    def _configure(self, vocab, hidden_dim: int, rgcn_layers: int, state_parts: int,
                   ff_dim: int, scorer_hidden: int, seed: int) -> None:
        self.param_layout = _param_layout(len(vocab), hidden_dim, rgcn_layers, state_parts, ff_dim,
                                          scorer_hidden)
        self.vocab = vocab
        self.d = hidden_dim
        self.rgcn_layers = rgcn_layers
        self.state_parts = state_parts
        self.ff_dim = ff_dim
        self.scorer_hidden = scorer_hidden
        self.seed = seed
        self._attn_scale = 1.0 / np.sqrt(hidden_dim)
        self._vec_cache: dict = {}
        self._q_memo: dict = {}

    def _adopt(self, flat: np.ndarray) -> None:
        """Make flat this net's parameter vector: each parameter's data is a
        view of its segment, never rebound, so writing flat writes them all.
        Resolve each R-GCN layer's self weight, bias and per-relation weights
        (indexed like RELATIONS) once, for graph_tensor."""
        self.flat = flat
        self.params = {
            name: Tensor(view, requires_grad=True) for name, view in _views(self.param_layout, flat).items()
        }
        self._rgcn = [
            (
                self.params[f"rgcn.{layer}.self"],
                self.params[f"rgcn.{layer}.bias"],
                [self.params[f"rgcn.{layer}.rel.{rel}"] for rel in RELATIONS],
            )
            for layer in range(self.rgcn_layers)
        ]

    # -- bookkeeping --------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def bump_version(self) -> None:
        """Forget every cached row and Q vector: the weights changed."""
        self._vec_cache.clear()
        self._q_memo.clear()

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

        The distinct observations are packed into one node list, and each
        layer computes one row per node class (see _encoder_pass): nodes whose
        computation trees agree share a row. Per layer, each relation
        averages its source rows into the rows it targets and projects only
        those averages by its own weight; one segment sum scatters every
        relation's messages into the rows. The pool gathers each node's
        final row."""
        unique, rows = distinct(observations, key=canonical_hash)
        layouts = [_layout_for(obs, self.vocab) for obs in unique]
        if not any(x.n_nodes for x in layouts):
            return ad.constant(np.zeros((len(observations), self.d)))
        plan = _encoder_pass(layouts, self.rgcn_layers)
        h = ad.mul(
            ad.segment_sum(
                ad.gather_rows(self.params["word_emb"], plan.token_ids),
                plan.token_rows, len(plan.token_scale),
            ),
            ad.constant(plan.token_scale),
        )
        for (self_w, bias, rel_ws), (self_rows, groups, n_rows) in zip(self._rgcn, plan.layers):
            total = ad.affine(h, self_w, bias)
            if self_rows is not None:
                total = ad.gather_rows(total, self_rows)
            if groups.relations:
                mean = ad.mul(
                    ad.segment_sum(ad.gather_rows(h, groups.src), groups.ids, len(groups.rel)),
                    ad.constant(groups.scale),
                )
                messages = ad.add(
                    ad.grouped_matmul(mean, [rel_ws[r] for r in groups.relations], groups.bounds),
                    ad.gather_rows(self.params["rel_emb"], groups.rel),
                )
                total = ad.add(total, ad.segment_sum(messages, groups.dst, n_rows))
            h = ad.relu(total)
        if plan.node_rows is not None:
            h = ad.gather_rows(h, plan.node_rows)
        pooled = ad.mul(
            ad.segment_sum(h, plan.graph_ids, len(unique)), ad.constant(plan.graph_scale)
        )
        return pooled if len(unique) == len(observations) else ad.gather_rows(pooled, rows)

    def text_tensor(self, texts: Sequence[str]) -> Tensor:
        """Single-block transformer encodings of the texts, mean-pooled over
        each text's tokens, one row each.

        The distinct texts are padded to the longest; attention runs within
        each text, with padded keys masked out, and the pool drops padding.
        A single text needs no padding: its positions are the shared table's
        rows themselves, and every token weighs 1 / length in the pool."""
        unique, rows = distinct(texts)
        encoded = [self.vocab.encode(text) for text in unique]
        for text, ids in zip(unique, encoded):
            if not ids:
                raise EmptyTextError(f"cannot encode empty text {text!r}")
        b, d = len(unique), self.d
        if b == 1:
            width = len(encoded[0])
            token_ids = np.array(encoded[0], dtype=np.intp)
            positions = sinusoidal_positions(width, d)
            mask = None
            weights = np.full((width, 1), 1.0 / width)
            segments = np.zeros(width, dtype=np.intp)
        else:
            lengths = np.array([len(ids) for ids in encoded])
            width = int(lengths.max())
            valid = np.arange(width) < lengths[:, None]  # (b, width)
            token_ids = np.zeros((b, width), dtype=np.intp)
            token_ids[valid] = [tid for ids in encoded for tid in ids]
            token_ids = token_ids.reshape(-1)
            positions = np.tile(sinusoidal_positions(width, d), (b, 1))
            mask = None if valid.all() else np.where(valid, 0.0, -np.inf)[:, None, :]
            weights = (valid / lengths[:, None]).reshape(-1, 1)
            segments = np.repeat(np.arange(b), width)
        x = ad.add(ad.gather_rows(self.params["word_emb"], token_ids), ad.constant(positions))
        q = ad.reshape(ad.matmul(x, self.params["attn.wq"]), (b, width, d))
        k = ad.reshape(ad.matmul(x, self.params["attn.wk"]), (b, width, d))
        v = ad.reshape(ad.matmul(x, self.params["attn.wv"]), (b, width, d))
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), self._attn_scale)
        if mask is not None:
            scores = ad.add(scores, ad.constant(mask))
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
        pooled = ad.segment_sum(ad.mul(h2, ad.constant(weights)), segments, b)
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

    def q_tensor(self, states: Sequence[tuple[KGObservation, Optional[str], Sequence[str]]]) -> Tensor:
        """batch_q_values' scores as one packed pass, (n, 1), taped unless under
        no_grad: one graph pass over the distinct observations and one text pass
        over the distinct candidate and instruction texts (see score_tensor)."""
        conds = [self._instruction(cond, candidates) for _, cond, candidates in states]
        conds = conds if self.state_parts == 2 else []
        candidates = [c for _, _, state_candidates in states for c in state_candidates]
        counts = [len(state_candidates) for _, _, state_candidates in states]
        graphs, graph_rows = distinct([obs for obs, _, _ in states], key=canonical_hash)
        texts, text_rows = distinct(candidates + conds)
        return self.score_tensor(
            self.graph_tensor(graphs), self.text_tensor(texts), np.repeat(graph_rows, counts),
            text_rows[:len(candidates)], np.repeat(text_rows[len(candidates):], counts) if conds else None,
        )

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
        laid end to end, read-only; no gradients recorded.

        Each state's Q is memoized until the weights change (bump_version
        empties the memo with the vector cache). A miss is score_tensor's
        formula on cached rows, in plain numpy, over that state alone: the
        state's row broadcast over its candidates' rows, one relu and one
        product with the output layer. So a state's Q never depends on which
        states it was scored with."""
        qs = [self._state_q(obs, cond, candidates) for obs, cond, candidates in states]
        if len(qs) == 1:
            return qs[0]
        q = np.concatenate(qs)
        q.flags.writeable = False
        return q

    def _instruction(self, cond: Optional[str], candidates: Sequence[str]) -> Optional[str]:
        """cond on a net that takes an instruction (state_parts 2), else None.
        Refuses a state without candidates or without the instruction it needs."""
        if not candidates:
            raise EmptyCandidatesError("no candidates to score")
        if self.state_parts == 1:
            return None
        if cond is None:
            raise ValueError("this net conditions on an instruction text")
        return cond

    def _state_q(self, obs: KGObservation, cond: Optional[str], candidates: Sequence[str]) -> np.ndarray:
        cond = self._instruction(cond, candidates)
        key = (canonical_hash(obs), cond, tuple(candidates))
        q = self._q_memo.get(key)
        if q is None:
            state = self._projection(0, obs)
            if cond is not None:
                state = state + self._projection(1, cond)
            hidden = state + np.concatenate([self._projection(self.state_parts, c) for c in candidates])
            np.maximum(hidden, 0.0, out=hidden)
            q = (hidden @ self.params["scorer.w2"].data + self.params["scorer.b2"].data)[:, 0]
            q.flags.writeable = False
            self._q_memo[key] = q
        return q


def sync_target(online: PolicyNet, target: PolicyNet) -> None:
    np.copyto(target.flat, online.flat)
    target.bump_version()


def clone_net(net: PolicyNet) -> PolicyNet:
    return PolicyNet._with_params(net.vocab, net.config(), net.seed, net.flat.copy())


# -- checkpoints --------------------------------------------------------------
# A checkpoint is one .npz: `param`, the net's flat vector; `meta`, JSON bytes
# of the version, config, seed and vocabulary; and with Adam state, the moment
# vectors `adam.m` and `adam.v` and the step count `adam.t`.

def save_checkpoint(net: PolicyNet, path: str | Path, optimizer_state: Optional[AdamState] = None) -> None:
    arrays = {"param": net.flat}
    if optimizer_state is not None:
        arrays.update({"adam.m": optimizer_state.m, "adam.v": optimizer_state.v,
                       "adam.t": np.array(optimizer_state.t)})
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


def load_checkpoint(path: str | Path, vocab) -> tuple[PolicyNet, Optional[AdamState]]:
    """The net a checkpoint holds, and its Adam state if it has one. The
    loaded vectors become the net's and the optimizer's own, uncopied."""
    try:
        with np.load(Path(path)) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    try:
        tokens, config, seed = meta["vocab_tokens"], meta["config"], meta["seed"]
        size = _layout_size(_param_layout(len(vocab), **config))
    except (KeyError, TypeError, ValueError) as exc:
        # a missing field, a setting PolicyNet does not take, or a bad value
        raise CheckpointError(f"malformed metadata in checkpoint {path}: {exc!r}") from exc
    if tokens != list(vocab.tokens):
        raise VocabularyMismatchError(f"checkpoint {path} was trained with a different vocabulary")

    def vector(name: str) -> np.ndarray:
        values = arrays.get(name)
        if values is None or values.dtype != np.float64 or values.shape != (size,):
            found = "missing" if values is None else f"{values.dtype} of shape {values.shape}"
            raise CheckpointError(
                f"checkpoint {path}: array {name} is {found}, not float64 of shape ({size},)"
            )
        return values

    net = PolicyNet._with_params(vocab, config, seed, vector("param"))
    if "adam.t" not in arrays:
        return net, None
    t = arrays["adam.t"]
    if t.shape != () or not np.issubdtype(t.dtype, np.integer) or t < 0:
        raise CheckpointError(f"checkpoint {path}: array adam.t is not a non-negative integer")
    return net, AdamState(net, vector("adam.m"), vector("adam.v"), int(t))
