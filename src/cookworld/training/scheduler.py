"""Softmax level sampling biased toward under-performing levels."""

from __future__ import annotations

from collections import deque

import numpy as np


class LevelScheduler:
    """Tracks a moving average of normalized score per level and samples
    levels with probability proportional to exp(beta - v_level)."""

    def __init__(self, levels: tuple[str, ...], beta: float = 1.0, window: int = 20):
        self.levels = tuple(levels)
        self.beta = beta
        self._history = {level: deque(maxlen=window) for level in self.levels}

    def performance(self, level: str) -> float:
        history = self._history[level]
        if not history:
            return 0.0
        return sum(history) / len(history)

    def update(self, level: str, normalized_score: float) -> None:
        self._history[level].append(float(normalized_score))

    def probabilities(self) -> np.ndarray:
        return softmax_probabilities(
            [self.performance(level) for level in self.levels], self.beta
        )

    def sample(self, rng: np.random.Generator) -> str:
        """One level, by inverse CDF over probabilities() with one rng.random() draw."""
        draw = float(rng.random())
        cumulative = 0.0
        for level, p in zip(self.levels, self.probabilities()):
            cumulative += p
            if draw < cumulative:
                return level
        return self.levels[-1]


def softmax_probabilities(performance: list[float], beta: float) -> np.ndarray:
    logits = beta - np.asarray(performance, dtype=np.float64)
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()

