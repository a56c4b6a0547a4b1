"""POMDP simulation: state, observation rendering, admissible actions, step."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..kg import KGObservation, Triplet
from .spec import (
    APPLIANCE_RESULT,
    CONTAINER_NAMES,
    GameSpec,
    SUPPORTER_NAMES,
)

CUT_VERBS = {"chop": "chopped", "dice": "diced", "slice": "sliced"}

DEFAULT_STEP_LIMIT = 50


class InadmissibleActionError(ValueError):
    """An action outside the admissible set was passed to step()."""


class EngineInconsistencyError(RuntimeError):
    """Internal contract broken (e.g. no admissible actions in a live game)."""


@dataclass
class GameState:
    """Mutable simulation state. step() copies, so old states stay valid."""

    spec: GameSpec
    player_room: str
    # obj -> (relation, holder); None once the object left the world
    locations: dict[str, Optional[tuple[str, str]]]
    open_flags: dict[str, bool]  # containers and doors
    cut: dict[str, str]
    cook: dict[str, str]
    consumed: set[str]
    meal_exists: bool = False
    collect_rewarded: set[str] = field(default_factory=set)
    prep_rewarded: set[str] = field(default_factory=set)  # "<ingredient>|<state>"
    steps: int = 0
    step_limit: int = DEFAULT_STEP_LIMIT
    score: int = 0
    done: bool = False
    lost: bool = False

    def copy(self) -> "GameState":
        return GameState(
            spec=self.spec,
            player_room=self.player_room,
            locations=dict(self.locations),
            open_flags=dict(self.open_flags),
            cut=dict(self.cut),
            cook=dict(self.cook),
            consumed=set(self.consumed),
            meal_exists=self.meal_exists,
            collect_rewarded=set(self.collect_rewarded),
            prep_rewarded=set(self.prep_rewarded),
            steps=self.steps,
            step_limit=self.step_limit,
            score=self.score,
            done=self.done,
            lost=self.lost,
        )

    def signature(self) -> tuple:
        """Hashable identity for search/deduplication."""
        return (
            self.player_room,
            tuple(sorted((k, v) for k, v in self.locations.items())),
            tuple(sorted(self.open_flags.items())),
            tuple(sorted(self.cut.items())),
            tuple(sorted(self.cook.items())),
            tuple(sorted(self.consumed)),
            self.meal_exists,
            tuple(sorted(self.collect_rewarded)),
            tuple(sorted(self.prep_rewarded)),
            self.score,
            self.done,
            self.lost,
        )

    # -- object queries ----------------------------------------------------

    def is_food(self, name: str) -> bool:
        if name == "meal":
            return True
        try:
            return self.spec.object(name).kind == "ingredient"
        except KeyError:
            return False

    def is_edible(self, name: str) -> bool:
        if not self.is_food(name):
            return False
        if self.cook.get(name) in ("fried", "roasted"):
            return True
        if name == "meal":
            return True
        return self.spec.object(name).edible

    def room_of(self, name: str) -> Optional[str]:
        """Room an object resolves to through its holder chain, if any."""
        seen = set()
        current = name
        while True:
            if current in seen:
                return None
            seen.add(current)
            loc = self.locations.get(current)
            if loc is None:
                return None
            _, holder = loc
            if holder == "player":
                return self.player_room
            if holder in self.spec.room_names:
                return holder
            current = holder

    def inventory(self) -> list[str]:
        return sorted(
            name
            for name, loc in self.locations.items()
            if loc is not None and loc[1] == "player"
        )


def reset(spec: GameSpec, step_limit: int = DEFAULT_STEP_LIMIT) -> tuple[GameState, KGObservation]:
    if step_limit < 1:
        # the limit is tested after each step, so a game always plays one
        raise ValueError(f"step_limit must be at least 1, got {step_limit}")
    locations: dict[str, Optional[tuple[str, str]]] = {}
    open_flags: dict[str, bool] = {}
    cut: dict[str, str] = {}
    cook: dict[str, str] = {}
    for obj in spec.objects:
        locations[obj.name] = (obj.holder_relation, obj.holder)
        if obj.name in CONTAINER_NAMES:
            open_flags[obj.name] = False
        if obj.cut_state != "none":
            cut[obj.name] = obj.cut_state
        if obj.cook_state != "none":
            cook[obj.name] = obj.cook_state
    for door in spec.doors:
        open_flags[door.name] = door.open
    state = GameState(
        spec=spec,
        player_room=spec.start_room,
        locations=locations,
        open_flags=open_flags,
        cut=cut,
        cook=cook,
        consumed=set(),
        step_limit=step_limit,
    )
    return state, observation(state)


def observation(state: GameState) -> KGObservation:
    spec = state.spec
    triplets = [Triplet("player", state.player_room, "at")]

    for room in spec.rooms:
        for ex in room.exits:
            # "X is <dir> of room" means going <dir> from the room reaches X.
            if ex.door is None:
                triplets.append(Triplet(ex.to, room.name, f"{ex.direction}_of"))
            else:
                triplets.append(Triplet(ex.door, room.name, f"{ex.direction}_of"))
    for door in spec.doors:
        triplets.append(Triplet(door.name, "open" if state.open_flags[door.name] else "closed", "is"))

    for obj in spec.objects:
        if not obj.portable:
            triplets.append(Triplet(obj.name, obj.holder, "at"))
            if obj.name in CONTAINER_NAMES:
                flag = "open" if state.open_flags[obj.name] else "closed"
                triplets.append(Triplet(obj.name, flag, "is"))

    names = [o.name for o in spec.objects if o.portable]
    if state.meal_exists:
        names.append("meal")
    for name in names:
        loc = state.locations.get(name)
        if loc is not None:
            rel, holder = loc
            triplets.append(Triplet(name, holder, rel))
        if name in state.consumed:
            triplets.append(Triplet(name, "consumed", "is"))
        if state.cut.get(name, "none") != "none":
            triplets.append(Triplet(name, state.cut[name], "is"))
        if state.cook.get(name, "none") != "none":
            triplets.append(Triplet(name, state.cook[name], "is"))

    for entry in spec.recipe:
        triplets.append(Triplet(entry.ingredient, "cookbook", "part_of"))
        for requirement in entry.requirements:
            triplets.append(Triplet(entry.ingredient, requirement, "needs"))

    return KGObservation(triplets)


def _visible_portables(state: GameState, room: str) -> list[tuple[str, Optional[str]]]:
    """(name, holder-phrase) pairs the player could take in this room."""
    result = []
    names = [o.name for o in state.spec.objects if o.portable]
    if state.meal_exists:
        names.append("meal")
    for name in names:
        loc = state.locations.get(name)
        if loc is None:
            continue
        rel, holder = loc
        if holder == "player":
            continue
        if rel == "at" and holder == room:
            result.append((name, None))
        elif rel == "on" and holder in SUPPORTER_NAMES and state.room_of(name) == room:
            result.append((name, holder))
        elif (
            rel == "in"
            and holder in CONTAINER_NAMES
            and state.open_flags.get(holder, False)
            and state.room_of(name) == room
        ):
            result.append((name, holder))
    return result


def _recipe_ready(state: GameState) -> bool:
    for entry in state.spec.recipe:
        loc = state.locations.get(entry.ingredient)
        if loc is None or loc[1] != "player":
            return False
        if entry.cut != "none" and state.cut.get(entry.ingredient) != entry.cut:
            return False
        if entry.cook != "none" and state.cook.get(entry.ingredient) != entry.cook:
            return False
    return True


def _moves(state: GameState) -> dict[str, tuple]:
    """Every admissible command of a live game, mapped to its resolved effect."""
    if state.done:
        raise ValueError("admissible_actions on a finished game")
    spec = state.spec
    room = state.player_room
    moves: dict[str, tuple] = {}

    for ex in spec.room(room).exits:
        if ex.door is None or state.open_flags[ex.door]:
            moves[f"go {ex.direction}"] = ("go", ex.to)

    fixed = [o.name for o in spec.objects if not o.portable and o.holder == room]
    doors = [d.name for d in spec.doors if room in (d.room_a, d.room_b)]
    for name in [f for f in fixed if f in CONTAINER_NAMES] + doors:
        verb = "close" if state.open_flags[name] else "open"
        moves[f"{verb} {name}"] = (verb, name)

    for name, holder in _visible_portables(state, room):
        moves[f"take {name}" if holder is None else f"take {name} from {holder}"] = ("take", name)

    inventory = state.inventory()
    has_knife = "knife" in inventory
    for name in inventory:
        moves[f"drop {name}"] = ("put", name, "at", room)
        for holder in fixed:
            if holder in SUPPORTER_NAMES:
                moves[f"put {name} on {holder}"] = ("put", name, "on", holder)
            elif holder in CONTAINER_NAMES and state.open_flags[holder]:
                moves[f"insert {name} into {holder}"] = ("put", name, "in", holder)
        if not state.is_food(name):
            continue
        if state.is_edible(name):
            moves[f"eat {name}"] = ("eat", name)
        for appliance in fixed:
            if appliance in APPLIANCE_RESULT:
                moves[f"cook {name} with {appliance}"] = ("cook", name, APPLIANCE_RESULT[appliance])
        if has_knife and state.cut.get(name, "none") == "uncut":
            for verb, result in CUT_VERBS.items():
                moves[f"{verb} {name} with knife"] = ("cut", name, result)

    cookbook_loc = state.locations.get("cookbook")
    if cookbook_loc is not None and (
        cookbook_loc[1] == "player" or state.room_of("cookbook") == room
    ):
        moves["examine cookbook"] = ("examine",)

    if (
        room == "kitchen"
        and not state.meal_exists
        and any(
            state.locations.get(i) is not None and state.locations[i][1] == "player"
            for i in spec.recipe_ingredients
        )
    ):
        moves["prepare meal"] = ("prepare",)

    if not moves:
        raise EngineInconsistencyError("no admissible actions in a live game")
    return moves


def admissible_actions(state: GameState) -> list[str]:
    return sorted(_moves(state))


def _prepare(state: GameState, states: dict[str, str], name: str, result: str) -> int:
    """Set a cut or cook state; 1 the first time it meets the recipe."""
    states[name] = result
    key = f"{name}|{result}"
    spec = state.spec
    if (
        name in spec.recipe_ingredients
        and result in spec.recipe_entry(name).requirements
        and key not in state.prep_rewarded
    ):
        state.prep_rewarded.add(key)
        return 1
    return 0


def step(state: GameState, action: str) -> tuple[GameState, KGObservation, int, bool]:
    effect = _moves(state).get(action)
    if effect is None:
        raise InadmissibleActionError(f"{action!r} not admissible here")

    new = state.copy()
    spec = new.spec
    reward = 0
    verb, *args = effect

    if verb == "go":
        new.player_room = args[0]
    elif verb in ("open", "close"):
        new.open_flags[args[0]] = verb == "open"
    elif verb == "take":
        name = args[0]
        new.locations[name] = ("in", "player")
        if name in spec.recipe_ingredients and name not in new.collect_rewarded:
            new.collect_rewarded.add(name)
            reward = 1
    elif verb == "put":
        name, relation, holder = args
        new.locations[name] = (relation, holder)
    elif verb == "cook" and new.cook.get(args[0]) in ("fried", "roasted"):
        # re-cooking burns the food and loses the game
        new.cook[args[0]] = "burned"
        new.done = True
        new.lost = True
    elif verb in ("cut", "cook"):
        name, result = args
        reward = _prepare(new, new.cut if verb == "cut" else new.cook, name, result)
    elif verb == "eat":
        name = args[0]
        new.locations[name] = None
        new.consumed.add(name)
        if name == "meal":
            new.done = True
            reward = 1
        elif name in spec.recipe_ingredients:
            new.done = True
            new.lost = True
    elif verb == "prepare":
        if _recipe_ready(new):
            for ingredient in spec.recipe_ingredients:
                new.locations[ingredient] = None
            new.meal_exists = True
            new.locations["meal"] = ("in", "player")
            new.cook["meal"] = "raw"
            reward = 1
        # premature "prepare meal" is a documented admissible no-op
    # "examine cookbook" is informationless under the full-graph observation

    new.steps += 1
    new.score += reward
    if new.steps >= new.step_limit and not new.done:
        new.done = True
    return new, observation(new), reward, new.done
