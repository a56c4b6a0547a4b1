import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cookworld.engine.spec import load_game
from cookworld.engine.trace import load_trace
from cookworld.neural import autodiff as ad
from cookworld.neural.nets import PolicyNet, _views

FIXTURES = Path(__file__).parent / "fixtures"

# GameState fields that are not the world: the game, the clock and the outcome
NOT_WORLD = ("spec", "steps", "step_limit", "score", "done", "lost")


def world(state):
    """The state's world fields by name: where everything is and what was
    cut, cooked, eaten and collected, without score, clock or outcome."""
    return {
        f.name: getattr(state, f.name)
        for f in dataclasses.fields(state)
        if f.compare and f.name not in NOT_WORLD
    }


def float64_net(net):
    """A net whose passes run in float64 on net's pass weights, widened
    exactly. Finite differences and the structural equivalences (a batch
    against each item alone, cached against batched, factorized against
    concatenated) check the dtype-generic passes in float64, where they
    agree to 1e-12."""
    return PolicyNet._with_params(net.vocab, net.config(), net.seed, net.pass_flat.astype(np.float64),
                                  np.float64)


def write_weights(net, values):
    """Set the parameters values names in net's float64 weights, and round
    them into its passes. A write to params[name].data alone would be
    undone by the next update or sync."""
    weights = _views(net.param_layout, net.flat)
    for name, value in values.items():
        weights[name][...] = value
    net.bump_version()


def concatenated_scores(net, *parts):
    """The scorer as one first layer over [graph; instruction; candidate]
    rows: the form PolicyNet.score_tensor factorizes per input block. Each
    part's columns are placed by a product with a 0/1 matrix, which is exact."""
    placement = np.eye(sum(part.data.shape[1] for part in parts))
    rows, start = None, 0
    for part in parts:
        width = part.data.shape[1]
        placed = ad.matmul(part, ad.constant(placement[start : start + width]))
        rows = placed if rows is None else ad.add(rows, placed)
        start += width
    p = net.params
    hidden = ad.relu(ad.affine(rows, p["scorer.w1"], p["scorer.b1"]))
    return ad.affine(hidden, p["scorer.w2"], p["scorer.b2"])


@pytest.fixture(scope="session")
def s1_spec():
    return load_game(FIXTURES / "s1_game1.spec.json")


@pytest.fixture(scope="session")
def s4_spec():
    return load_game(FIXTURES / "s4_game1.spec.json")


@pytest.fixture(scope="session")
def s1_trace():
    return load_trace(FIXTURES / "s1_game1.trace.json")


@pytest.fixture(scope="session")
def s4_trace():
    return load_trace(FIXTURES / "s4_game1.trace.json")


@pytest.fixture(scope="session")
def s1_trace_rows():
    return json.loads((FIXTURES / "s1_game1.trace.json").read_text())


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
