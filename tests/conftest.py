import dataclasses
import json
from pathlib import Path

import pytest

from cookworld.engine.spec import load_game
from cookworld.engine.trace import load_trace

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
