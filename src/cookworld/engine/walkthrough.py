"""Oracle action sequences that finish a game with the maximum score."""

from __future__ import annotations

from .spec import GameSpec
from .state import DEFAULT_STEP_LIMIT, _facts, reset, step


class WalkthroughError(RuntimeError):
    """The solver could not finish the game (generator/engine bug)."""


def _route(spec: GameSpec, src: str, dst: str) -> list[tuple[str, str | None]]:
    """(room, door) hops from src to dst, BFS over the room graph."""
    if src == dst:
        return []
    frontier = [src]
    back: dict[str, tuple[str, str | None]] = {}
    seen = {src}
    while frontier:
        here = frontier.pop(0)
        for ex in spec.room(here).exits:
            if ex.to not in seen:
                seen.add(ex.to)
                back[ex.to] = (here, ex.door)
                frontier.append(ex.to)
    if dst not in back:
        raise WalkthroughError(f"no route {src} -> {dst}")
    hops = []
    cursor = dst
    while cursor != src:
        prev, door = back[cursor]
        hops.append((cursor, door))
        cursor = prev
    hops.reverse()
    return hops


class _Driver:
    def __init__(self, spec: GameSpec, step_limit: int):
        self.spec = spec
        self.state, _ = reset(spec, step_limit=step_limit)
        self.actions: list[str] = []

    def do(self, effect: tuple) -> None:
        """Play the one admissible command with the given effect."""
        moves = _facts(self.state).moves
        matches = [action for action, move in moves.items() if move == effect]
        if len(matches) != 1:
            raise WalkthroughError(f"{len(matches)} commands have effect {effect}")
        self.state, _, _, _ = step(self.state, matches[0])
        self.actions.append(matches[0])

    def goto(self, room: str) -> None:
        for hop, door in _route(self.spec, self.state.player_room, room):
            if door is not None and not self.state.open_flags[door]:
                self.do(("open", door))
            self.do(("go", hop))

    def fetch(self, name: str) -> None:
        rel, holder = self.state.locations[name]
        if holder == "player":
            return
        self.goto(self.state.room_of(name))
        if rel == "in" and not self.state.open_flags[holder]:
            self.do(("open", holder))
        self.do(("take", name))


def walkthrough(spec: GameSpec, step_limit: int = DEFAULT_STEP_LIMIT) -> list[str]:
    driver = _Driver(spec, step_limit)
    # read the recipe first, the way a player would
    driver.goto(driver.state.room_of("cookbook"))
    driver.do(("examine",))
    for entry in spec.recipe:
        driver.fetch(entry.ingredient)
    needs_knife = any(entry.cut != "none" for entry in spec.recipe)
    if needs_knife:
        driver.fetch("knife")
    driver.goto("kitchen")
    for entry in spec.recipe:
        if entry.cut != "none":
            driver.do(("cut", entry.ingredient, entry.cut))
    if needs_knife:
        driver.do(("put", "knife", "at", "kitchen"))
    for entry in spec.recipe:
        if entry.cook != "none":
            driver.do(("cook", entry.ingredient, entry.cook))
    driver.do(("prepare",))
    driver.do(("eat", "meal"))

    state = driver.state
    if not state.done or state.lost or state.score != spec.max_score:
        raise WalkthroughError(
            f"walkthrough ended with score {state.score}/{spec.max_score}, "
            f"done={state.done}, lost={state.lost}"
        )
    return driver.actions
