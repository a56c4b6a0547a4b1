"""Replay records for both policy levels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..goals import Goal, GoalSet
from ..kg import KGObservation


@dataclass(frozen=True)
class SubTransition:
    obs: KGObservation
    goal: Optional[Goal]  # None for the flat (goal-free) variant
    action: str
    r_sub: float
    r_goal: float
    next_obs: KGObservation
    next_admissible: tuple[str, ...]
    done: bool
    level: str

    @property
    def td_reward(self) -> float:
        return self.r_sub

    @property
    def gate_reward(self) -> float:
        return self.r_goal

    @property
    def cond_text(self) -> Optional[str]:
        return self.goal.text if self.goal is not None else None

    @property
    def chosen_text(self) -> str:
        return self.action

    @property
    def next_candidates(self) -> tuple[str, ...]:
        return self.next_admissible


@dataclass(frozen=True)
class MetaTransition:
    obs: KGObservation
    goal: Goal
    r_meta: float
    next_obs: KGObservation
    next_goal_set: GoalSet
    done: bool
    level: str

    @property
    def td_reward(self) -> float:
        return self.r_meta

    @property
    def gate_reward(self) -> float:
        return self.r_meta

    @property
    def cond_text(self) -> Optional[str]:
        return None

    @property
    def chosen_text(self) -> str:
        return self.goal.text

    @property
    def next_candidates(self) -> tuple[str, ...]:
        return self.next_goal_set.texts
