"""Rule-based goal machinery over KG observations.

The goal set is derived purely from the observation: recipe ingredients come
from part_of edges to the cookbook, collection from player-containment, and
preparation needs from the needs/is edge difference. Goals are textual:
"find <ingredient>", "<requirement> <ingredient>", "prepare and eat meal".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .kg import KGObservation

R_MIN = 0.0
R_MAX = 1.0

EAT_MEAL_TEXT = "prepare and eat meal"


class MalformedObservationError(ValueError):
    """The observation carries no recipe triplets."""


@dataclass(frozen=True, order=True)
class Goal:
    kind: str  # Find | Prepare | EatMeal
    ingredient: str = ""
    requirement: str = ""

    @property
    def text(self) -> str:
        if self.kind == "Find":
            return f"find {self.ingredient}"
        if self.kind == "Prepare":
            return f"{self.requirement} {self.ingredient}"
        return EAT_MEAL_TEXT


FIND = "Find"
PREPARE = "Prepare"
EAT_MEAL = "EatMeal"
_KIND_ORDER = {FIND: 0, PREPARE: 1, EAT_MEAL: 2}


class GoalSet:
    """Deduplicated goals in deterministic order: Find, Prepare, EatMeal."""

    __slots__ = ("goals",)

    def __init__(self, goals: Iterable[Goal]):
        unique = sorted(set(goals), key=lambda g: (_KIND_ORDER[g.kind], g.text))
        self.goals = tuple(unique)

    def __iter__(self):
        return iter(self.goals)

    def __len__(self) -> int:
        return len(self.goals)

    def __contains__(self, goal: Goal) -> bool:
        return goal in self.goals

    def __eq__(self, other) -> bool:
        return isinstance(other, GoalSet) and self.goals == other.goals

    def __hash__(self) -> int:
        return hash(self.goals)

    def __repr__(self) -> str:
        return f"GoalSet({[g.text for g in self.goals]})"

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(g.text for g in self.goals)


def _ingredients(obs: KGObservation) -> list[str]:
    names: dict[str, None] = {}
    for t in obs:
        if t.relation == "part_of" and t.object == "cookbook":
            names.setdefault(t.subject, None)
    return sorted(names)


def _collected(ingredient: str, obs: KGObservation) -> bool:
    return obs.has(ingredient, "player", "in")


def _statuses(ingredient: str, obs: KGObservation) -> set[str]:
    return {t.object for t in obs if t.subject == ingredient and t.relation == "is"}


def _requirements(ingredient: str, obs: KGObservation) -> list[str]:
    return sorted(t.object for t in obs if t.subject == ingredient and t.relation == "needs")


def generate_goal_set(obs: KGObservation) -> GoalSet:
    """Available goals: find each uncollected ingredient, then outstanding
    preparations for collected ones; the meal goal only when nothing else
    remains."""
    ingredients = _ingredients(obs)
    if not ingredients:
        raise MalformedObservationError("observation has no recipe part_of triplets")
    goals: list[Goal] = []
    for ingredient in ingredients:
        if not _collected(ingredient, obs):
            goals.append(Goal(FIND, ingredient=ingredient))
            continue
        statuses = _statuses(ingredient, obs)
        for requirement in _requirements(ingredient, obs):
            if requirement not in statuses:
                goals.append(Goal(PREPARE, ingredient=ingredient, requirement=requirement))
    if not goals:
        goals.append(Goal(EAT_MEAL))
    return GoalSet(goals)


def goal_reward(
    next_obs: KGObservation,
    goal: Goal,
    r_min: float = R_MIN,
    r_max: float = R_MAX,
) -> float:
    if goal.kind == FIND:
        accomplished = _collected(goal.ingredient, next_obs)
    elif goal.kind == PREPARE:
        accomplished = next_obs.has(goal.ingredient, goal.requirement, "is")
    else:
        # any triplet mentioning a meal entity counts, including "consumed"
        accomplished = any(t.subject == "meal" or t.object == "meal" for t in next_obs)
    return r_max if accomplished else r_min


def goal_terminated(next_obs: KGObservation, goal: Goal, episode_done: bool) -> bool:
    if episode_done:
        return True
    return goal_reward(next_obs, goal, 0.0, 1.0) == 1.0
