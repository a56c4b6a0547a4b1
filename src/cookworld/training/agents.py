"""Greedy rollout agents used for validation, evaluation and oracle checks,
the rule that builds them, and the ε-greedy rule training shares with them."""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Protocol, Sequence, TypeVar

import numpy as np

from ..engine.spec import LEVELS, GameSpec
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
    return candidates[int(q_fn().argmax())]


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

    def act(self, obs: KGObservation, admissible: list[str]) -> str:
        if self.goal is None or goal_terminated(obs, self.goal, False):
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


def greedy_agents(sub_net: PolicyNet, meta_net: Optional[PolicyNet] = None
                  ) -> Callable[[str, int], Agent]:
    """The factory(level, index) that builds the greedy agent for each game.

    A sub net without a goal input acts flat. A goal-conditioned sub net
    takes its goals from meta_net when one is given, otherwise uniformly at
    random from one stream per game keyed by (level, index) alone, so every
    validation of a run and every evaluation of its checkpoints draw the
    same goals on the same game."""
    if sub_net.state_parts == 1:
        return lambda level, index: FlatAgent(sub_net)
    if meta_net is not None:
        return lambda level, index: HierarchicalAgent(sub_net, meta_net)

    def factory(level: str, index: int) -> HierarchicalAgent:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(LEVELS.index(level), index)))
        return HierarchicalAgent(sub_net, goal_rng=rng)

    return factory


def rollout(agent: Agent, spec: GameSpec, step_limit: int) -> tuple[int, int]:
    """Greedy episode; returns (score, steps)."""
    state, obs = reset(spec, step_limit=step_limit)
    agent.start_episode(spec, obs)
    done = False
    while not done:
        action = agent.act(obs, admissible_actions(state))
        state, obs, _, done = step(state, action)
    return state.score, state.steps


def level_scores(agent_factory: Callable[[str, int], Agent], games: dict[str, list[GameSpec]],
                 step_limit: int) -> dict[str, list[float]]:
    """Normalized greedy score of each game, per level in sorted order, with
    a fresh agent_factory(level, index) per game."""
    return {
        level: [rollout(agent_factory(level, i), spec, step_limit)[0] / spec.max_score
                for i, spec in enumerate(games[level])]
        for level in sorted(games)
    }
