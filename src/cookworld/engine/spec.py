"""Immutable game definitions and their JSON file format."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

from ..kg import DIRECTIONS, OPPOSITE_DIRECTION, Triplet, is_entity_token
from ..records import load_record, read_record

FORMAT_VERSION = 1

LEVELS = ("S1", "S2", "S3", "S4", "US1", "US2", "US3", "US4")
UNSEEN_LEVELS = ("US1", "US2", "US3", "US4")

CUT_STATES = ("none", "uncut", "chopped", "diced", "sliced")
COOK_STATES = ("none", "raw", "fried", "roasted", "burned")
CUT_REQUIREMENTS = ("chopped", "diced", "sliced")
COOK_REQUIREMENTS = ("fried", "roasted")

OBJECT_KINDS = ("ingredient", "distractor", "tool", "furniture", "appliance", "cookbook")

# Interaction capabilities are keyed by object name so that hand-authored and
# generated specs agree on semantics without per-object capability fields.
SUPPORTER_NAMES = frozenset(
    {"counter", "table", "stove", "shelf", "workbench", "desk", "nightstand", "dresser"}
)
CONTAINER_NAMES = frozenset({"fridge", "kitchen cupboard", "toolbox", "trunk"})
APPLIANCE_RESULT = {"stove": "fried", "oven": "roasted"}

# (rooms, ingredients, requirements per ingredient) per difficulty level.
LEVEL_STRUCTURE = {
    "S1": (1, 1, 1),
    "S2": (1, 1, 2),
    "S3": (9, 1, 0),
    "S4": (6, 3, 2),
    "US1": (1, 1, 0),
    "US2": (1, 1, 1),
    "US3": (6, 1, 0),
    "US4": (6, 3, 0),
}


class SpecParseError(ValueError):
    """The document is not a well-formed game-spec file."""


class InvariantViolation(ValueError):
    """A structurally valid document violates a game-spec invariant."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


@dataclass(frozen=True)
class Exit:
    direction: str
    to: str
    door: Optional[str] = None


@dataclass(frozen=True)
class RoomSpec:
    name: str
    exits: tuple[Exit, ...] = ()

    def exit_in(self, direction: str) -> Optional[Exit]:
        for ex in self.exits:
            if ex.direction == direction:
                return ex
        return None


@dataclass(frozen=True)
class DoorSpec:
    name: str
    room_a: str
    direction_from_a: str  # going this way from room_a passes through the door
    room_b: str
    open: bool = False


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    kind: str
    holder: str  # room, fixture, or "player"
    holder_relation: str  # at | in | on
    cut_state: str = "none"
    cook_state: str = "none"
    edible: bool = False

    @property
    def portable(self) -> bool:
        return self.kind in ("ingredient", "distractor", "tool", "cookbook")


@dataclass(frozen=True)
class RecipeEntry:
    ingredient: str
    cut: str = "none"
    cook: str = "none"

    @property
    def requirements(self) -> tuple[str, ...]:
        reqs = []
        if self.cut != "none":
            reqs.append(self.cut)
        if self.cook != "none":
            reqs.append(self.cook)
        return tuple(reqs)


@dataclass(frozen=True)
class GameSpec:
    level: str
    seed: int
    start_room: str
    rooms: tuple[RoomSpec, ...]
    doors: tuple[DoorSpec, ...]
    objects: tuple[ObjectSpec, ...]
    recipe: tuple[RecipeEntry, ...]
    max_score: int
    format_version: int = FORMAT_VERSION

    # Derived views, computed once per game on first use. cached_property
    # stores them in the instance __dict__, outside the dataclass fields, so
    # they take no part in ==, hash or the file format. As the scans they
    # replace did, a by-name lookup returns the first of duplicate names.

    @cached_property
    def _rooms_by_name(self) -> dict[str, RoomSpec]:
        return {room.name: room for room in reversed(self.rooms)}

    @cached_property
    def _objects_by_name(self) -> dict[str, ObjectSpec]:
        return {obj.name: obj for obj in reversed(self.objects)}

    def room(self, name: str) -> RoomSpec:
        return self._rooms_by_name[name]

    def object(self, name: str) -> ObjectSpec:
        return self._objects_by_name[name]

    @cached_property
    def recipe_ingredients(self) -> tuple[str, ...]:
        return tuple(entry.ingredient for entry in self.recipe)

    def recipe_entry(self, ingredient: str) -> RecipeEntry:
        for entry in self.recipe:
            if entry.ingredient == ingredient:
                return entry
        raise KeyError(ingredient)

    @cached_property
    def portable_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.objects if o.portable)

    @cached_property
    def fixtures(self) -> tuple[ObjectSpec, ...]:
        """The objects that never move: furniture and appliances."""
        return tuple(o for o in self.objects if not o.portable)

    @cached_property
    def holder_rooms(self) -> dict[str, str]:
        """Each room, mapped to itself, and each fixture, mapped to the room
        it stands in: the room of whatever it holds. No action moves a
        fixture, and only these and the player hold objects."""
        rooms = {o.name: o.holder for o in self.fixtures if o.holder in self._rooms_by_name}
        rooms.update((room.name, room.name) for room in self.rooms)
        return rooms

    @cached_property
    def openable_names(self) -> tuple[str, ...]:
        """The doors and the container fixtures: what opens and closes."""
        doors = tuple(door.name for door in self.doors)
        return doors + tuple(o.name for o in self.fixtures if o.name in CONTAINER_NAMES)

    @cached_property
    def fittings(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """Per room: the fixtures held by it, and what opens and closes in
        it (its container fixtures, then its doors)."""
        fittings = {}
        for room in self.rooms:
            fixed = tuple(o.name for o in self.fixtures if o.holder == room.name)
            doors = tuple(d.name for d in self.doors if room.name in (d.room_a, d.room_b))
            fittings[room.name] = (fixed, tuple(f for f in fixed if f in CONTAINER_NAMES) + doors)
        return fittings

    # -- observation triplets ---------------------------------------------

    @cached_property
    def _triplets(self) -> dict[tuple[str, str, str], Triplet]:
        return {}

    def triplet(self, subject: str, obj: str, relation: str) -> Triplet:
        """This game's one Triplet for an edge, built and validated on first use."""
        key = (subject, obj, relation)
        found = self._triplets.get(key)
        if found is None:
            found = self._triplets[key] = Triplet(subject, obj, relation)
        return found

    @cached_property
    def static_triplets_of(self) -> dict[str, tuple[Triplet, ...]]:
        """The observation edges no action changes, grouped by subject:
        exits, fixtures, the recipe."""
        grouped: dict[str, list[Triplet]] = {}

        def add(subject: str, obj: str, relation: str) -> None:
            grouped.setdefault(subject, []).append(self.triplet(subject, obj, relation))

        for room in self.rooms:
            for ex in room.exits:
                # "X is <dir> of room" means going <dir> from the room reaches X.
                add(ex.to if ex.door is None else ex.door, room.name, f"{ex.direction}_of")
        for obj in self.fixtures:
            add(obj.name, obj.holder, "at")
        for entry in self.recipe:
            add(entry.ingredient, "cookbook", "part_of")
            for requirement in entry.requirements:
                add(entry.ingredient, requirement, "needs")
        return {subject: tuple(edges) for subject, edges in grouped.items()}


def expected_max_score(recipe: Sequence[RecipeEntry]) -> int:
    """collection points + preparation points + (prepare meal, eat meal)."""
    return len(recipe) + sum(len(e.requirements) for e in recipe) + 2


def validate_spec(spec: GameSpec) -> None:
    names = [named.name for named in (*spec.rooms, *spec.doors, *spec.objects)]
    # the fields that refer to a node are checked first: a spec built in
    # code (a read one has only strings there) may hold an unhashable value
    # where the checks below look a name up in a dict or set
    names.append(spec.start_room)
    names += [f for room in spec.rooms for ex in room.exits for f in (ex.to, ex.door) if f is not None]
    names += [room for door in spec.doors for room in (door.room_a, door.room_b)]
    names += [obj.holder for obj in spec.objects] + [e.ingredient for e in spec.recipe]
    for name in names:
        if not is_entity_token(name):
            # the engine renders every name as a graph node
            raise InvariantViolation("entity-token", repr(name))
    rooms = {r.name: r for r in spec.rooms}
    doors = {d.name: d for d in spec.doors}
    objects = {o.name: o for o in spec.objects}

    if len(rooms) != len(spec.rooms):
        raise InvariantViolation("unique-room-names", "duplicate room name")
    if len(objects) != len(spec.objects):
        raise InvariantViolation("unique-object-names", "duplicate object name")
    if "meal" in objects:
        # the engine adds the meal when the recipe is prepared
        raise InvariantViolation("reserved-name", "an object is named 'meal'")
    if spec.start_room not in rooms:
        raise InvariantViolation("start-room-exists", spec.start_room)
    if not isinstance(spec.level, str) or spec.level not in LEVEL_STRUCTURE:
        raise InvariantViolation("known-level", repr(spec.level))

    for room in spec.rooms:
        seen_dirs = set()
        for ex in room.exits:
            if ex.direction not in DIRECTIONS:
                raise InvariantViolation("exit-direction", f"{room.name}: {ex.direction}")
            if ex.direction in seen_dirs:
                raise InvariantViolation("one-exit-per-direction", f"{room.name}: {ex.direction}")
            seen_dirs.add(ex.direction)
            if ex.to not in rooms:
                raise InvariantViolation("exit-target-exists", f"{room.name} -> {ex.to}")
            back = rooms[ex.to].exit_in(OPPOSITE_DIRECTION[ex.direction])
            if back is None or back.to != room.name or back.door != ex.door:
                raise InvariantViolation(
                    "adjacency-symmetric", f"{room.name} {ex.direction} {ex.to}"
                )
            if ex.door is not None and ex.door not in doors:
                raise InvariantViolation("door-exists", f"{room.name}: {ex.door}")

    for door in spec.doors:
        ex = rooms[door.room_a].exit_in(door.direction_from_a) if door.room_a in rooms else None
        if door.room_a not in rooms or door.room_b not in rooms:
            raise InvariantViolation("door-rooms-exist", door.name)
        if ex is None or ex.to != door.room_b or ex.door != door.name:
            raise InvariantViolation("door-placement", door.name)

    # connectivity over the undirected room graph (doors count as passable)
    frontier = [spec.rooms[0].name]
    reached = {spec.rooms[0].name}
    while frontier:
        here = frontier.pop()
        for ex in rooms[here].exits:
            if ex.to not in reached:
                reached.add(ex.to)
                frontier.append(ex.to)
    if reached != set(rooms):
        missing = sorted(set(rooms) - reached)
        raise InvariantViolation("rooms-connected", f"unreachable: {missing}")

    holders = set(rooms) | set(objects) | {"player"}
    for obj in spec.objects:
        if obj.kind not in OBJECT_KINDS:
            raise InvariantViolation("object-kind", f"{obj.name}: {obj.kind}")
        if obj.cut_state not in CUT_STATES or obj.cook_state not in COOK_STATES:
            raise InvariantViolation("object-state", obj.name)
        if obj.holder not in holders:
            raise InvariantViolation("holder-exists", f"{obj.name} in {obj.holder}")
        if obj.holder_relation not in ("at", "in", "on"):
            raise InvariantViolation("holder-relation", obj.name)
        if obj.holder in objects:
            holder_obj = objects[obj.holder]
            if holder_obj.portable:  # no action could take what it holds
                raise InvariantViolation("holder-is-fixture", f"{obj.name} {obj.holder_relation} {obj.holder}")
            if obj.holder_relation == "on" and holder_obj.name not in SUPPORTER_NAMES:
                raise InvariantViolation("holder-supports", f"{obj.name} on {obj.holder}")
            if obj.holder_relation == "in" and holder_obj.name not in CONTAINER_NAMES:
                raise InvariantViolation("holder-contains", f"{obj.name} in {obj.holder}")
        if obj.holder in rooms and obj.holder_relation != "at":
            raise InvariantViolation("room-holder-relation", obj.name)
        if not obj.portable and obj.holder not in rooms:
            # no action moves a fixture, and only portables are held
            raise InvariantViolation(
                "fixture-in-room", f"{obj.name} {obj.holder_relation} {obj.holder}"
            )

    if "knife" not in objects or objects["knife"].kind != "tool":
        raise InvariantViolation("knife-exists", "no knife tool")
    if "cookbook" not in objects or objects["cookbook"].kind != "cookbook":
        raise InvariantViolation("cookbook-exists", "no cookbook")
    if "kitchen" not in rooms:
        raise InvariantViolation("kitchen-exists", "no kitchen room")

    seen_ingredients = set()
    for entry in spec.recipe:
        if entry.ingredient in seen_ingredients:
            raise InvariantViolation("recipe-distinct", entry.ingredient)
        seen_ingredients.add(entry.ingredient)
        if entry.ingredient not in objects or objects[entry.ingredient].kind != "ingredient":
            raise InvariantViolation("recipe-ingredient-exists", entry.ingredient)
        if entry.cut != "none" and entry.cut not in CUT_REQUIREMENTS:
            raise InvariantViolation("recipe-cut-state", f"{entry.ingredient}: {entry.cut}")
        if entry.cook != "none" and entry.cook not in COOK_REQUIREMENTS:
            raise InvariantViolation("recipe-cook-state", f"{entry.ingredient}: {entry.cook}")

    if spec.max_score != expected_max_score(spec.recipe):
        raise InvariantViolation(
            "max-score-formula",
            f"stored {spec.max_score}, computed {expected_max_score(spec.recipe)}",
        )

    n_rooms, n_ings, reqs_per_ing = LEVEL_STRUCTURE[spec.level]
    if len(spec.rooms) != n_rooms:
        raise InvariantViolation("level-room-count", f"{spec.level}: {len(spec.rooms)}")
    if len(spec.recipe) != n_ings:
        raise InvariantViolation("level-ingredient-count", f"{spec.level}: {len(spec.recipe)}")
    for entry in spec.recipe:
        if len(entry.requirements) != reqs_per_ing:
            raise InvariantViolation(
                "level-requirement-count", f"{spec.level}: {entry.ingredient}"
            )


# ---------------------------------------------------------------------------
# serialization

def spec_from_dict(doc) -> GameSpec:
    """The game a JSON document holds, read by the field types of GameSpec."""
    if isinstance(doc, dict) and doc.get("format_version") != FORMAT_VERSION:
        raise SpecParseError(f"unsupported format_version {doc.get('format_version')!r}")
    spec = read_record(GameSpec, doc, SpecParseError)
    validate_spec(spec)
    return spec


def dumps_spec(spec: GameSpec) -> str:
    return json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n"


def save_game(spec: GameSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_spec(spec))


def load_game(path: str | Path) -> GameSpec:
    """The game in the spec file at path; an error names the file."""
    return load_record(path, spec_from_dict, SpecParseError)
