"""POMDP simulation: state, observation rendering, admissible actions, step."""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..kg import KGObservation, Triplet, canonical_hash, sort_key, subject_of
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


class _Facts(NamedTuple):
    """What one graph fixes, as an episode memo keeps it (see _facts)."""

    moves: dict[str, tuple]  # each admissible command -> its resolved effect
    actions: tuple[str, ...]  # the commands, sorted and interned
    children: dict[str, KGObservation]  # command -> the graph it led to


@dataclass
class GameState:
    """Simulation state. step() returns a new state that shares each
    container its effect does not write with its parent, and writes only
    fresh copies, so nothing writes a state's containers after step returns
    it and old states stay valid. copy() gives a state with containers of
    its own, which may be mutated until it is first looked at (see copy).
    """

    spec: GameSpec
    player_room: str
    # obj -> (relation, holder); None once the object left the world
    locations: dict[str, Optional[tuple[str, str]]]
    open_flags: dict[str, bool]  # containers and doors
    cut: dict[str, str]
    cook: dict[str, str]
    consumed: set[str]
    collect_rewarded: set[str] = field(default_factory=set)
    steps: int = 0
    step_limit: int = DEFAULT_STEP_LIMIT
    score: int = 0
    done: bool = False
    lost: bool = False
    # this state's graph (from step, or rendered by the first observation
    # call) and its memo entry (kept by the first _facts call): not part of
    # the state's identity, and copy() starts without both
    _observation: Optional[KGObservation] = field(
        default=None, init=False, compare=False, repr=False
    )
    _entry: Optional[_Facts] = field(default=None, init=False, compare=False, repr=False)
    # the episode memo, graph digest -> _Facts: reset starts one, and every
    # state that copy() and step derive from that reset shares it, so it
    # lives as long as the episode's last state. Not part of the identity.
    _episode: dict[int, _Facts] = field(default_factory=dict, compare=False, repr=False)

    def copy(self) -> "GameState":
        """A state with containers of its own, sharing the episode memo. Mutate
        it before its first observation or admissible_actions call, which keeps
        its graph and memo entry; change a state already looked at in a fresh copy()."""
        new = self._share()
        new.locations = dict(self.locations)
        new.open_flags = dict(self.open_flags)
        new.cut = dict(self.cut)
        new.cook = dict(self.cook)
        new.consumed = set(self.consumed)
        new.collect_rewarded = set(self.collect_rewarded)
        return new

    def _share(self) -> "GameState":
        """A state equal to this one that shares its containers and its
        episode memo, without the observation or its entry."""
        return GameState(
            spec=self.spec,
            player_room=self.player_room,
            locations=self.locations,
            open_flags=self.open_flags,
            cut=self.cut,
            cook=self.cook,
            consumed=self.consumed,
            collect_rewarded=self.collect_rewarded,
            steps=self.steps,
            step_limit=self.step_limit,
            score=self.score,
            done=self.done,
            lost=self.lost,
            _episode=self._episode,
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
            tuple(sorted(self.collect_rewarded)),
            self.score,
            self.done,
            self.lost,
        )

    def room_of(self, name: str) -> Optional[str]:
        """The room an object is in, None once it left the world.

        Only a room, a fixture standing in one or the player holds an object
        (validate_spec's holder-is-fixture), so this is one lookup.
        """
        loc = self.locations.get(name)
        if loc is None:
            return None
        if loc[1] == "player":
            return self.player_room
        return self.spec.holder_rooms[loc[1]]


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


def _portables(state: GameState) -> tuple[str, ...]:
    """Names of the portable objects, the meal included once it exists."""
    names = state.spec.portable_names
    return names + ("meal",) if "meal" in state.locations else names


def _subject_edges(state: GameState, name: str) -> list[Triplet]:
    """The edges of one subject, in any order."""
    spec = state.spec
    edge = spec.triplet
    edges = list(spec.static_triplets_of.get(name, ()))
    if name == "player":
        edges.append(edge("player", state.player_room, "at"))
    if name in spec.openable_names:
        edges.append(edge(name, "open" if state.open_flags[name] else "closed", "is"))
    if name == "meal" or name in spec.portable_names:
        loc = state.locations.get(name)
        if loc is not None:
            edges.append(edge(name, loc[1], loc[0]))
        if name in state.consumed:
            edges.append(edge(name, "consumed", "is"))
        if state.cut.get(name, "none") != "none":
            edges.append(edge(name, state.cut[name], "is"))
        if state.cook.get(name, "none") != "none":
            edges.append(edge(name, state.cook[name], "is"))
    return edges


def _patch(
    parent: tuple[Triplet, ...], state: GameState, touched: tuple[str, ...]
) -> list[Triplet]:
    """The parent's edges with each touched subject's run re-rendered.

    The canonical order sorts by subject first, so a subject's edges are one
    run of the parent's triplets, and the rest of them stay as they were.
    Each new run is sorted too, so the whole list is in canonical order.
    With no parent and every subject touched, this renders the whole state.
    """
    triplets: list[Triplet] = []
    start = 0
    for name in sorted(set(touched)):
        lo = bisect_left(parent, name, lo=start, key=subject_of)
        hi = bisect_right(parent, name, lo=lo, key=subject_of)
        triplets += parent[start:lo]
        triplets += sorted(_subject_edges(state, name), key=sort_key)
        start = hi
    triplets += parent[start:]
    return triplets


def observation(state: GameState) -> KGObservation:
    """The state's knowledge graph. step hands each state it returns its
    graph; a state without one (after reset, or a copy()) has every
    subject's edges rendered from nothing by the first call, through the
    checked constructor."""
    if state._observation is None:
        spec = state.spec
        touched = (*spec.static_triplets_of, "player", *spec.openable_names, *_portables(state))
        state._observation = KGObservation(_patch((), state, touched))
    return state._observation


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


def _facts(state: GameState) -> _Facts:
    """A live state's action table, its sorted commands and the next graphs
    its episode has reached from its graph: the graph's episode memo entry,
    built on the graph's first visit and looked up by the state's first call.

    A state's graph fixes all three. _build_moves reads the player's room,
    the open flags of doors and containers, each portable's holder and its
    cut and cook states, and whether the meal exists, and the graph has an
    edge for each. An effect changes only those facts, so each command's
    next graph follows from the graph too. What the graph leaves out (the
    score, collect_rewarded, the step count, done and lost) is never read
    from the memo: step computes it from the state. Keys are 64-bit
    canonical_hash digests, the collision assumption that the Q memo and
    Vocabulary.graph_layouts make as well.
    """
    if state.done:
        raise ValueError("admissible_actions on a finished game")
    facts = state._entry
    if facts is None:
        graph = state._observation
        if graph is None:  # a copy() that nothing rendered yet
            graph = observation(state)
        key = canonical_hash(graph)
        facts = state._episode.get(key)
        if facts is None:
            moves = _build_moves(state)
            facts = state._episode[key] = _Facts(moves, tuple(sorted(map(sys.intern, moves))), {})
        state._entry = facts
    return facts


def _build_moves(state: GameState) -> dict[str, tuple]:
    """Every admissible command of a live game, mapped to its resolved effect."""
    spec = state.spec
    room = state.player_room
    moves: dict[str, tuple] = {}

    for ex in spec.room(room).exits:
        if ex.door is None or state.open_flags[ex.door]:
            moves[f"go {ex.direction}"] = ("go", ex.to)

    fixed, openable = spec.fittings[room]
    for name in openable:
        verb = "close" if state.open_flags[name] else "open"
        moves[f"{verb} {name}"] = (verb, name)

    # one pass over the portables: what the player holds, and what it could
    # take here
    held = []
    for name in _portables(state):
        loc = state.locations[name]
        if loc is None:
            continue
        rel, holder = loc
        if holder == "player":
            held.append(name)
        elif rel == "at":
            if holder == room:
                moves[f"take {name}"] = ("take", name)
        elif (
            holder in SUPPORTER_NAMES
            if rel == "on"
            else holder in CONTAINER_NAMES and state.open_flags.get(holder, False)
        ) and state.room_of(name) == room:
            moves[f"take {name} from {holder}"] = ("take", name)

    has_knife = "knife" in held
    for name in held:
        moves[f"drop {name}"] = ("put", name, "at", room)
        for holder in fixed:
            if holder in SUPPORTER_NAMES:
                moves[f"put {name} on {holder}"] = ("put", name, "on", holder)
            elif holder in CONTAINER_NAMES and state.open_flags[holder]:
                moves[f"insert {name} into {holder}"] = ("put", name, "in", holder)
        if name == "meal":
            edible = True
        else:
            obj = spec.object(name)
            if obj.kind != "ingredient":
                continue
            edible = obj.edible or state.cook.get(name) in ("fried", "roasted")
        if edible:
            moves[f"eat {name}"] = ("eat", name)
        for appliance in fixed:
            if appliance in APPLIANCE_RESULT:
                moves[f"cook {name} with {appliance}"] = ("cook", name, APPLIANCE_RESULT[appliance])
        if has_knife and state.cut.get(name, "none") == "uncut":
            for verb, result in CUT_VERBS.items():
                moves[f"{verb} {name} with knife"] = ("cut", name, result)

    if "cookbook" in held or state.room_of("cookbook") == room:
        moves["examine cookbook"] = ("examine",)

    if (
        room == "kitchen"
        and "meal" not in state.locations
        and any(i in held for i in spec.recipe_ingredients)
    ):
        moves["prepare meal"] = ("prepare",)

    if not moves:
        raise EngineInconsistencyError("no admissible actions in a live game")
    return moves


def admissible_actions(state: GameState) -> list[str]:
    # a fresh list, of one string object per command however many states
    # and replay records hold it
    return list(_facts(state).actions)


def _prepare(spec: GameSpec, states: dict[str, str], name: str, result: str) -> bool:
    """Set a cut or cook state; whether the new state meets the recipe.

    Each (ingredient, requirement) is met this way at most once, so it pays
    once: a cut needs an uncut ingredient, and cooking a cooked ingredient
    burns it and ends the game.
    """
    states[name] = result
    return name in spec.recipe_ingredients and result in spec.recipe_entry(name).requirements


def step(state: GameState, action: str) -> tuple[GameState, KGObservation, int, bool]:
    if state.done:
        raise ValueError("step on a finished game")
    facts = _facts(state)
    effect = facts.moves.get(action)
    if effect is None:
        raise InadmissibleActionError(f"{action!r} not admissible here")

    # copy-on-write: each branch replaces a container it writes with a copy
    new = state._share()
    spec = new.spec
    reward = 0
    verb, *args = effect
    # the subjects whose edges the effect changes: the object it names, if
    # any, unless a branch below says otherwise
    touched = tuple(args[:1])

    if verb == "go":
        new.player_room = args[0]
        touched = ("player",)
    elif verb in ("open", "close"):
        new.open_flags = {**new.open_flags, args[0]: verb == "open"}
    elif verb == "take":
        name = args[0]
        new.locations = {**new.locations, name: ("in", "player")}
        if name in spec.recipe_ingredients and name not in new.collect_rewarded:
            new.collect_rewarded = new.collect_rewarded | {name}
            reward = 1
    elif verb == "put":
        name, relation, holder = args
        new.locations = {**new.locations, name: (relation, holder)}
    elif verb == "cook" and new.cook.get(args[0]) in ("fried", "roasted"):
        # re-cooking burns the food and loses the game
        new.cook = {**new.cook, args[0]: "burned"}
        new.done = True
        new.lost = True
    elif verb == "cut":
        new.cut = dict(new.cut)
        reward = int(_prepare(spec, new.cut, *args))
    elif verb == "cook":
        new.cook = dict(new.cook)
        reward = int(_prepare(spec, new.cook, *args))
    elif verb == "eat":
        name = args[0]
        new.locations = {**new.locations, name: None}
        new.consumed = new.consumed | {name}
        if name == "meal":
            new.done = True
            reward = 1
        elif name in spec.recipe_ingredients:
            new.done = True
            new.lost = True
    elif verb == "prepare":
        if _recipe_ready(new):
            new.locations = dict(new.locations)
            for ingredient in spec.recipe_ingredients:
                new.locations[ingredient] = None
            new.locations["meal"] = ("in", "player")
            new.cook = {**new.cook, "meal": "raw"}
            reward = 1
            touched = spec.recipe_ingredients + ("meal",)
        # premature "prepare meal" is a documented admissible no-op
    # "examine cookbook" is informationless under the full-graph observation

    new.steps += 1
    new.score += reward
    if new.steps >= new.step_limit and not new.done:
        new.done = True
    # the graph this command led to before, or the parent's with the touched
    # runs re-rendered: canonical by construction, so it skips the checks
    graph = facts.children.get(action)
    if graph is None:
        graph = facts.children[action] = KGObservation._spliced(
            _patch(state._observation.triplets, new, touched)
        )
    new._observation = graph
    return new, graph, reward, new.done
