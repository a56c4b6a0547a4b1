"""Procedural game generation per difficulty level.

Every level has fixed structural targets (rooms, recipe size, requirements
per ingredient; spec.LEVEL_STRUCTURE) and tuned distractor counts so that
generated games land on the per-level observation and admissible-action
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kg import DIRECTIONS, OPPOSITE_DIRECTION
from .spec import (
    CUT_REQUIREMENTS,
    COOK_REQUIREMENTS,
    LEVEL_STRUCTURE,
    LEVELS,
    DoorSpec,
    Exit,
    GameSpec,
    ObjectSpec,
    RecipeEntry,
    RoomSpec,
    expected_max_score,
    validate_spec,
)
from .vocab import DISTRACTORS, DOOR_NAMES, INGREDIENTS, ROOMS, food_profile

KITCHEN_FURNITURE = (
    ("counter", "furniture"),
    ("table", "furniture"),
    ("fridge", "furniture"),
    ("stove", "appliance"),
    ("oven", "appliance"),
)

ROOM_SCENERY = {
    "bathroom": ("toilet",),
    "bedroom": ("bed", "nightstand", "wardrobe", "dresser"),
    "livingroom": ("sofa", "armchair", "bookcase"),
    "pantry": ("shelf",),
    "study": ("desk", "bookcase", "armchair"),
    "shed": ("workbench",),
    "basement": ("workbench", "shelf"),
    "laundry room": ("washing machine",),
    "garden": ("bench",),
    "backyard": ("bench",),
    "corridor": (),
    "driveway": (),
    "attic": ("dresser",),
}


@dataclass(frozen=True)
class LevelParams:
    food_distractors: tuple[int, int]
    junk_distractors: tuple[int, int]
    door_prob: float
    # True: distractor foods sit in the (closed) fridge and recipe
    # ingredients in the open, giving a sparser interaction profile
    sealed_distractors: bool = False


# Distractor counts are tuned against the per-level statistics; the seen and
# unseen one-room levels intentionally carry different distractor profiles.
LEVEL_PARAMS = {
    "S1": LevelParams((2, 3), (1, 3), 0.0),
    "S2": LevelParams((1, 2), (1, 3), 0.0),
    "S3": LevelParams((1, 2), (4, 6), 0.5),
    "S4": LevelParams((2, 3), (2, 4), 0.5),
    "US1": LevelParams((1, 2), (1, 2), 0.0, sealed_distractors=True),
    "US2": LevelParams((1, 2), (0, 1), 0.0, sealed_distractors=True),
    "US3": LevelParams((1, 2), (2, 4), 0.5),
    "US4": LevelParams((2, 3), (2, 3), 0.5),
}


def _rng_for(level: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, LEVELS.index(level))))


def _sample_rooms(rng: np.random.Generator, count: int) -> tuple[list[str], dict]:
    """Lay rooms on a grid by random attachment, so adjacency is symmetric
    and direction-consistent by construction."""
    names = ["kitchen"]
    pool = [r for r in ROOMS if r != "kitchen"]
    extra = list(rng.choice(pool, size=count - 1, replace=False)) if count > 1 else []
    names.extend(str(r) for r in extra)

    positions = {"kitchen": (0, 0)}
    occupied = {(0, 0)}
    edges: dict[str, dict[str, tuple[str, str | None]]] = {n: {} for n in names}
    offsets = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}

    for name in names[1:]:
        while True:
            anchor = names[int(rng.integers(0, len(positions)))]
            free = [
                d
                for d in DIRECTIONS
                if (
                    positions[anchor][0] + offsets[d][0],
                    positions[anchor][1] + offsets[d][1],
                )
                not in occupied
                and d not in edges[anchor]
            ]
            if not free:
                continue
            direction = str(rng.choice(free))
            pos = (
                positions[anchor][0] + offsets[direction][0],
                positions[anchor][1] + offsets[direction][1],
            )
            positions[name] = pos
            occupied.add(pos)
            edges[anchor][direction] = (name, None)
            edges[name][OPPOSITE_DIRECTION[direction]] = (anchor, None)
            break
    return names, edges


def _maybe_add_door(
    rng: np.random.Generator, edges: dict, door_prob: float
) -> list[DoorSpec]:
    kitchen_exits = sorted(edges.get("kitchen", {}).items())
    if not kitchen_exits or rng.random() >= door_prob:
        return []
    direction, (neighbor, _) = kitchen_exits[int(rng.integers(0, len(kitchen_exits)))]
    name = str(rng.choice(DOOR_NAMES))
    edges["kitchen"][direction] = (neighbor, name)
    edges[neighbor][OPPOSITE_DIRECTION[direction]] = ("kitchen", name)
    return [DoorSpec(name=name, room_a="kitchen", direction_from_a=direction, room_b=neighbor, open=False)]


def generate_game(level: str, seed: int) -> GameSpec:
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}, expected one of {sorted(LEVELS)}")
    n_rooms, n_ingredients, n_requirements = LEVEL_STRUCTURE[level]
    params = LEVEL_PARAMS[level]
    rng = _rng_for(level, seed)

    room_names, edges = _sample_rooms(rng, n_rooms)
    doors = _maybe_add_door(rng, edges, params.door_prob)
    rooms = tuple(
        RoomSpec(
            name=name,
            exits=tuple(
                Exit(direction=d, to=target, door=door)
                for d, (target, door) in sorted(edges[name].items())
            ),
        )
        for name in room_names
    )

    objects: list[ObjectSpec] = []
    used_names = set()
    for name, kind in KITCHEN_FURNITURE:
        objects.append(ObjectSpec(name, kind, "kitchen", "at"))
        used_names.add(name)
    for room in room_names:
        if room == "kitchen":
            continue
        for piece in ROOM_SCENERY.get(room, ()):
            if piece in used_names:
                continue
            objects.append(ObjectSpec(piece, "furniture", room, "at"))
            used_names.add(piece)

    objects.append(ObjectSpec("cookbook", "cookbook", "counter", "on"))
    knife_holder = str(rng.choice(["counter", "table"]))
    objects.append(ObjectSpec("knife", "tool", knife_holder, "on"))

    n_foods = int(rng.integers(params.food_distractors[0], params.food_distractors[1] + 1))
    n_junk = int(rng.integers(params.junk_distractors[0], params.junk_distractors[1] + 1))
    foods = [str(f) for f in rng.choice(INGREDIENTS, size=n_ingredients + n_foods, replace=False)]
    recipe_foods = foods[:n_ingredients]

    food_spots = [("fridge", "in"), ("counter", "on"), ("table", "on")]
    if any(o.name == "shelf" for o in objects):
        food_spots.append(("shelf", "on"))
    open_spots = [("counter", "on"), ("table", "on")]
    for food in foods:
        if params.sealed_distractors:
            if food in recipe_foods:
                holder, rel = open_spots[int(rng.integers(0, len(open_spots)))]
            else:
                holder, rel = "fridge", "in"
        else:
            holder, rel = food_spots[int(rng.integers(0, len(food_spots)))]
        cook_state, edible = food_profile(food)
        objects.append(
            ObjectSpec(food, "ingredient", holder, rel, cut_state="uncut", cook_state=cook_state, edible=edible)
        )

    # junk lives in the kitchen only for one-room games; elsewhere it is
    # scattered on floors so navigation steps stay sparse
    if len(room_names) == 1:
        junk_spots: list[tuple[str, str]] = [("counter", "on"), ("table", "on")]
    else:
        junk_spots = [(room, "at") for room in room_names if room != "kitchen"]
    junk = [str(j) for j in rng.choice(DISTRACTORS, size=n_junk, replace=False)]
    for item in junk:
        holder, rel = junk_spots[int(rng.integers(0, len(junk_spots)))]
        objects.append(ObjectSpec(item, "distractor", holder, rel))

    recipe = []
    for food in recipe_foods:
        cut = "none"
        cook = "none"
        if n_requirements == 2:
            cut = str(rng.choice(CUT_REQUIREMENTS))
            cook = str(rng.choice(COOK_REQUIREMENTS))
        elif n_requirements == 1:
            if rng.random() < 0.5:
                cut = str(rng.choice(CUT_REQUIREMENTS))
            else:
                cook = str(rng.choice(COOK_REQUIREMENTS))
        recipe.append(RecipeEntry(ingredient=food, cut=cut, cook=cook))
    recipe = tuple(sorted(recipe, key=lambda e: e.ingredient))

    start_room = room_names[int(rng.integers(0, len(room_names)))]
    spec = GameSpec(
        level=level,
        seed=seed,
        start_room=start_room,
        rooms=rooms,
        doors=tuple(doors),
        objects=tuple(objects),
        recipe=recipe,
        max_score=expected_max_score(recipe),
    )
    validate_spec(spec)
    return spec
