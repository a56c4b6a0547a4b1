"""Softmax level sampling biased toward under-performing levels."""

from __future__ import annotations

from collections import deque

import numpy as np


class LevelScheduler:
    """Tracks a moving average of normalized score per level and samples
    levels with probability proportional to exp(-v_level)."""

    def __init__(self, levels: tuple[str, ...], window: int = 20):
        self.levels = tuple(levels)
        self._history = {level: deque(maxlen=window) for level in self.levels}

    def performance(self, level: str) -> float:
        history = self._history[level]
        if not history:
            return 0.0
        return sum(history) / len(history)

    def update(self, level: str, normalized_score: float) -> None:
        self._history[level].append(float(normalized_score))

    def probabilities(self) -> np.ndarray:
        return softmax_probabilities([self.performance(level) for level in self.levels])

    def sample(self, rng: np.random.Generator) -> str:
        """One level, by inverse CDF over probabilities() with one rng.random() draw."""
        draw = float(rng.random())
        cumulative = 0.0
        for level, p in zip(self.levels, self.probabilities()):
            cumulative += p
            if draw < cumulative:
                return level
        return self.levels[-1]


def softmax_probabilities(performance: list[float]) -> np.ndarray:
    # softmax is shift-invariant, so the 1 changes no probability in exact
    # arithmetic; it stays because it changes their rounding, and so can
    # change which level a draw picks
    logits = 1.0 - np.asarray(performance, dtype=np.float64)
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()

