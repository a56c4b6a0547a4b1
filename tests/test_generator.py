"""Structural targets and statistics of the procedural generator."""

import hashlib

import numpy as np
import pytest

from cookworld.engine.generate import LEVEL_PARAMS, generate_game
from cookworld.engine.spec import (
    LEVEL_STRUCTURE,
    dumps_spec,
    validate_spec,
)
from cookworld.engine.trace import record_trace
from cookworld.engine.walkthrough import walkthrough

# per-level targets: (#triplets, rooms, #ings, #reqs per ing, #acts, max score)
LEVEL_TABLE = {
    "S1": (21.44, 1, 1, 1, 11.54, 4),
    "S2": (21.50, 1, 1, 2, 11.81, 5),
    "S3": (46.09, 9, 1, 0, 7.25, 3),
    "S4": (54.54, 6, 3, 2, 28.38, 11),
    "US1": (19.85, 1, 1, 0, 7.98, 3),
    "US2": (20.74, 1, 1, 1, 8.87, 4),
    "US3": (33.04, 6, 1, 0, 7.61, 3),
    "US4": (47.31, 6, 3, 0, 13.90, 5),
}


@pytest.mark.parametrize("level", list(LEVEL_PARAMS))
def test_structural_targets_exact(level):
    _, rooms, ings, reqs, _, target_score = LEVEL_TABLE[level]
    for seed in range(25):
        spec = generate_game(level, seed)
        validate_spec(spec)
        assert len(spec.rooms) == rooms
        assert len(spec.recipe) == ings
        assert all(len(e.requirements) == reqs for e in spec.recipe)
        assert spec.max_score == target_score


@pytest.mark.parametrize("level", list(LEVEL_PARAMS))
def test_generation_deterministic(level):
    a = generate_game(level, 123)
    b = generate_game(level, 123)
    assert a == b
    assert dumps_spec(a) == dumps_spec(b)


def test_different_seeds_differ():
    for level in ("S1", "S4"):
        specs = [generate_game(level, seed) for seed in range(8)]
        texts = {dumps_spec(s) for s in specs}
        assert len(texts) == len(specs)


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        generate_game("S9", 0)


@pytest.mark.parametrize("level", list(LEVEL_PARAMS))
def test_walkthrough_solves_generated_games(level):
    for seed in range(25):
        spec = generate_game(level, seed)
        assert record_trace(spec, walkthrough(spec))[-2].score == spec.max_score


@pytest.mark.parametrize("level", list(LEVEL_PARAMS))
def test_level_statistics_within_bands(level):
    triplet_target, _, _, _, acts_target, _ = LEVEL_TABLE[level]
    triplets, acts = [], []
    for seed in range(100):
        spec = generate_game(level, seed)
        trace = record_trace(spec, walkthrough(spec))
        triplets.append(len(trace[0].obs))
        acts.append(np.mean([len(st.admissible) for st in trace[:-1]]))
    assert abs(np.mean(triplets) - triplet_target) <= 0.25 * triplet_target
    assert abs(np.mean(acts) - acts_target) <= 0.30 * acts_target


def test_level_structure_table_consistent():
    for level, (n_rooms, n_ings, reqs) in LEVEL_STRUCTURE.items():
        _, rooms, ings, per_ing, _, score = LEVEL_TABLE[level]
        assert (n_rooms, n_ings, reqs) == (rooms, ings, per_ing)
        assert score == ings + ings * per_ing + 2


# sha256 of dumps_spec(generate_game(level, 0)): the bytes of a game file
SPEC_FILE_SHA256 = {
    "S1": "1896753020a7a71188bf4ed82074c1fa375f7b8ebe674d4db201a22f393d48ee",
    "S2": "713841cf14ebe74cd4ff9b3f32fbd8d953d6c17293b7cc2772b0438b26d6a511",
    "S3": "222475789745cfad9752a510a8829ec9dee6c32478f7af16ce53664de5fc1746",
    "S4": "3150fc9faf00551c120f78cfb063bd409adad6ce71fc87586673b4407dbe0f6e",
    "US1": "fe7a5d11475e9e0e06aed4d2da66831cebc84f3e34b8cd42019ebdaf83ad2a7e",
    "US2": "2a2a41391f81660c100cc1fe047502fb9bd0938a7d7f82df14b0dd59bc4e8847",
    "US3": "a76f5acb7f6b2a83ffca29eba7c6784d01a7f2761e6d6d0a14c1c33a4f9171dd",
    "US4": "326bd75cdc3c0838caccf51f1804687a322b49f45b1830020ee2a70474a4c12b",
}


@pytest.mark.parametrize("level", list(LEVEL_PARAMS))
def test_game_file_bytes_pinned(level):
    text = dumps_spec(generate_game(level, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_FILE_SHA256[level]
