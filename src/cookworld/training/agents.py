"""Greedy rollout agents used for validation, testing, and oracle checks,
and the ε-greedy selection rule that training shares with them."""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Protocol, Sequence, TypeVar

import numpy as np

from ..engine.spec import GameSpec
from ..engine.state import admissible_actions, reset, step
from ..engine.walkthrough import walkthrough
from ..goals import Goal, generate_goal_set, goal_terminated
from ..kg import KGObservation
from ..neural.nets import PolicyNet

T = TypeVar("T")


def epsilon_greedy(
    candidates: Sequence[T],
    q_fn: Optional[Callable[[], np.ndarray]],
    rng: Optional[np.random.Generator] = None,
    eps: float = 0.0,
) -> T:
    """Pick uniformly when q_fn is None or when rng.random() < eps, otherwise
    the argmax of q_fn(), which scores the candidates in order. With an rng
    and a q_fn, random() is drawn even when eps is 0, so that the stream
    does not depend on eps."""
    if q_fn is None or (rng is not None and rng.random() < eps):
        return candidates[int(rng.integers(0, len(candidates)))]
    return candidates[int(np.argmax(q_fn()))]


class Agent(Protocol):
    def start_episode(self, spec: GameSpec, obs: KGObservation) -> None: ...

    def act(self, obs: KGObservation, admissible: list[str]) -> str: ...


class FlatAgent:
    """Greedy action selection from the observation alone."""

    def __init__(self, net: PolicyNet):
        self.net = net

    def start_episode(self, spec: GameSpec, obs: KGObservation) -> None:
        pass

    def act(self, obs: KGObservation, admissible: list[str]) -> str:
        return epsilon_greedy(admissible, partial(self.net.q_values, obs, None, admissible))


class HierarchicalAgent:
    """Greedy goal selection by the meta net, greedy goal-conditioned actions
    by the sub net. The goal persists until accomplished or the episode ends.
    Without a meta net, goal_rng selects goals uniformly at random."""

    def __init__(self, sub_net: PolicyNet, meta_net: Optional[PolicyNet] = None,
                 goal_rng: Optional[np.random.Generator] = None):
        if meta_net is None and goal_rng is None:
            raise ValueError("a HierarchicalAgent needs a meta_net or a goal_rng to choose goals")
        self.sub_net = sub_net
        self.meta_net = meta_net
        self.goal_rng = goal_rng
        self.goal: Optional[Goal] = None

    def start_episode(self, spec: GameSpec, obs: KGObservation) -> None:
        self.goal = None

    def observe(self, next_obs: KGObservation, done: bool) -> None:
        if self.goal is not None and goal_terminated(next_obs, self.goal, done):
            self.goal = None

    def act(self, obs: KGObservation, admissible: list[str]) -> str:
        if self.goal is None:
            goal_set = generate_goal_set(obs)
            goal_q = None
            if self.meta_net is not None:
                goal_q = partial(self.meta_net.q_values, obs, None, goal_set.texts)
            self.goal = epsilon_greedy(goal_set.goals, goal_q, self.goal_rng)
        return epsilon_greedy(admissible, partial(self.sub_net.q_values, obs, self.goal.text, admissible))


class WalkthroughAgent:
    """Replays the oracle solution for each game."""

    def __init__(self):
        self._actions: list[str] = []
        self._cursor = 0

    def start_episode(self, spec: GameSpec, obs: KGObservation) -> None:
        self._actions = walkthrough(spec, step_limit=10_000)
        self._cursor = 0

    def act(self, obs: KGObservation, admissible: list[str]) -> str:
        action = self._actions[self._cursor]
        self._cursor += 1
        return action


def rollout(agent: Agent, spec: GameSpec, step_limit: int) -> tuple[int, int]:
    """Greedy episode; returns (score, steps)."""
    state, obs = reset(spec, step_limit=step_limit)
    agent.start_episode(spec, obs)
    done = False
    while not done:
        action = agent.act(obs, admissible_actions(state))
        state, obs, _, done = step(state, action)
        observe = getattr(agent, "observe", None)
        if observe is not None:
            observe(obs, done)
    return state.score, state.steps


def normalized_rollout(agent: Agent, spec: GameSpec, step_limit: int) -> float:
    score, _ = rollout(agent, spec, step_limit)
    return score / spec.max_score
