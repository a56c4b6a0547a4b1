"""The replay record, prioritized replay with FIFO eviction and
level-aware cache gating."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..kg import KGObservation


@dataclass(frozen=True)
class Transition:
    """One replay record for either policy level.

    The sub level conditions on its span's goal text (None for the flat,
    goal-free variant) and chooses an action; the meta level conditions on
    nothing and chooses a goal. td_reward is the Double DQN regression
    reward and gate_reward the value gated_flush averages: the sub level's
    goal reward before the count bonus, the meta level's span reward.
    next_candidates is empty when the game has ended."""

    obs: KGObservation
    cond_text: Optional[str]
    chosen_text: str
    td_reward: float
    gate_reward: float
    next_obs: KGObservation
    next_candidates: tuple[str, ...]
    done: bool
    level: str


class UnderfullBufferError(RuntimeError):
    pass


class SumTree:
    """Binary indexed tree over leaf priorities for O(log n) sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.tree = np.zeros(2 * capacity - 1)

    def set(self, leaf: int, value: float) -> None:
        idx = leaf + self.capacity - 1
        change = value - self.tree[idx]
        self.tree[idx] = value
        while idx != 0:
            idx = (idx - 1) // 2
            self.tree[idx] += change

    def get(self, leaf: int) -> float:
        return float(self.tree[leaf + self.capacity - 1])

    @property
    def total(self) -> float:
        return float(self.tree[0])

    def find(self, mass: float) -> int:
        idx = 0
        while True:
            left = 2 * idx + 1
            if left >= len(self.tree):
                return idx - (self.capacity - 1)
            if mass <= self.tree[left] or self.tree[left + 1] == 0.0:
                idx = left
            else:
                mass -= self.tree[left]
                idx = left + 1


PER_BETA_START = 0.4  # importance exponent before the trainer anneals it to 1.0


class PrioritizedBuffer:
    """FIFO ring of transitions with proportional prioritized sampling.

    Per-level running means of the gate reward are maintained exactly
    (rewards are small integers or halves, so float sums stay exact).
    """

    def __init__(
        self,
        capacity: int,
        alpha: float = 0.6,
        beta: float = PER_BETA_START,
        epsilon: float = 1e-3,
    ):
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta
        self.epsilon = epsilon
        self.entries: list = [None] * capacity
        self.tree = SumTree(capacity)
        self.size = 0
        self.cursor = 0
        self.max_priority = 1.0
        self._level_sum: dict[str, float] = {}
        self._level_count: dict[str, int] = {}

    def __len__(self) -> int:
        return self.size

    def level_mean(self, level: str) -> Optional[float]:
        count = self._level_count.get(level, 0)
        if count == 0:
            return None
        return self._level_sum[level] / count

    def overall_mean(self) -> Optional[float]:
        total = sum(self._level_count.values())
        if total == 0:
            return None
        return sum(self._level_sum.values()) / total

    def push(self, transition: Transition, priority: Optional[float] = None) -> None:
        if priority is None:
            priority = self.max_priority
        evicted = self.entries[self.cursor]
        if evicted is not None:
            self._level_sum[evicted.level] -= evicted.gate_reward
            self._level_count[evicted.level] -= 1
        self.entries[self.cursor] = transition
        self._level_sum[transition.level] = (
            self._level_sum.get(transition.level, 0.0) + transition.gate_reward
        )
        self._level_count[transition.level] = self._level_count.get(transition.level, 0) + 1
        self.max_priority = max(self.max_priority, priority)
        self.tree.set(self.cursor, priority**self.alpha)
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def probabilities(self) -> np.ndarray:
        """Exact sampling distribution over stored entries (for tests)."""
        leaves = self.tree.tree[self.tree.capacity - 1 : self.tree.capacity - 1 + self.size]
        return leaves / leaves.sum()

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self.size < batch_size:
            raise UnderfullBufferError(f"buffer holds {self.size} < batch {batch_size}")
        total = self.tree.total
        indices = np.empty(batch_size, dtype=np.intp)
        for i in range(batch_size):
            indices[i] = self.tree.find(float(rng.random()) * total)
        probs = np.array([self.tree.get(int(i)) for i in indices]) / total
        weights = (self.size * probs) ** (-self.beta)
        weights = weights / weights.max()
        batch = [self.entries[int(i)] for i in indices]
        return batch, indices, weights

    def update_priorities(self, indices: Sequence[int], td_errors: Sequence[float]) -> None:
        for idx, err in zip(indices, td_errors):
            priority = abs(float(err)) + self.epsilon
            self.max_priority = max(self.max_priority, priority)
            self.tree.set(int(idx), priority**self.alpha)


def gated_flush(
    buffer: PrioritizedBuffer,
    cache: list[Transition],
    level: str,
    tolerance: float,
    level_aware: bool = True,
) -> bool:
    """Push the episode cache if its mean gate reward beats the buffer's.

    An empty buffer (for this level, when level-aware) always accepts so that
    hard levels can bootstrap. The cache is cleared either way.
    """
    if not cache:
        return False
    baseline = buffer.level_mean(level) if level_aware else buffer.overall_mean()
    cache_mean = sum(tr.gate_reward for tr in cache) / len(cache)
    accepted = baseline is None or cache_mean > tolerance * baseline
    if accepted:
        for tr in cache:
            buffer.push(tr)
    cache.clear()
    return accepted
