"""Prioritized buffer: sampling distribution, FIFO means, gating."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cookworld.rl.replay import PrioritizedBuffer, UnderfullBufferError, gated_flush


@dataclass(frozen=True)
class Rec:
    gate_reward: float
    level: str = "S1"


def filled(entries, capacity=64, alpha=1.0, priorities=None):
    buf = PrioritizedBuffer(capacity, alpha=alpha)
    for i, r in enumerate(entries):
        buf.push(r, None if priorities is None else priorities[i])
    return buf


def distribution(buf):
    """The exact sampling distribution over stored entries: the live
    priorities, which hold each entry's priority ** alpha, normalised."""
    live = buf.priorities[: len(buf)]
    return live / live.sum()


class StubRng:
    """Hands `sample` fixed draws in [0, 1)."""

    def __init__(self, draws):
        self.draws = np.asarray(draws)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws


def test_sample_takes_first_entry_whose_mass_reaches_the_draw():
    buf = filled([Rec(0.0)] * 4, alpha=1.0, priorities=[1.0, 3.0, 2.0, 0.0])
    assert buf.priorities[:4].sum() == 6.0
    masses = np.array([0.5, 1.5, 3.999, 4.5])
    _, idx, _ = buf.sample(4, StubRng(masses / 6.0))
    assert idx.tolist() == [0, 1, 1, 2]
    # the zero-priority last entry holds no mass, even for the largest draw
    _, idx, _ = buf.sample(4, StubRng([0.0, 1 / 6, 4 / 6, np.nextafter(1.0, 0.0)]))
    assert idx.tolist() == [0, 0, 1, 2]


def test_probabilities_two_entries():
    buf = filled([Rec(0.0), Rec(0.0)], alpha=1.0, priorities=[1.0, 3.0])
    assert np.allclose(distribution(buf), [0.25, 0.75])


def test_uniform_priorities_uniform_weights():
    buf = filled([Rec(0.0)] * 8, alpha=0.6)
    rng = np.random.default_rng(0)
    _, _, weights = buf.sample(4, rng)
    assert np.allclose(weights, 1.0)
    assert np.allclose(distribution(buf), 1 / 8)


def test_empirical_frequencies_match():
    buf = filled([Rec(0.0), Rec(0.0)], alpha=1.0, priorities=[1.0, 3.0])
    rng = np.random.default_rng(7)
    counts = np.zeros(2)
    draws = 100_000
    for _ in range(draws // 2):
        _, idx, _ = buf.sample(2, rng)
        for i in idx:
            counts[i] += 1
    freq = counts / draws
    assert abs(freq[0] - 0.25) < 0.02
    assert abs(freq[1] - 0.75) < 0.02


def test_chi_square_eight_entries():
    priorities = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    buf = filled([Rec(0.0)] * 8, alpha=0.6, priorities=priorities)
    expected = distribution(buf)
    rng = np.random.default_rng(123)
    counts = np.zeros(8)
    draws = 100_000
    for _ in range(draws // 8):
        _, idx, _ = buf.sample(8, rng)
        for i in idx:
            counts[i] += 1
    result = scipy_stats.chisquare(counts, expected * draws)
    assert result.pvalue > 0.01


def test_importance_weights_formula():
    buf = filled([Rec(0.0)] * 4, alpha=1.0, priorities=[1.0, 1.0, 2.0, 4.0])
    buf.beta = 0.5
    rng = np.random.default_rng(3)
    batch, idx, weights = buf.sample(4, rng)
    probs = distribution(buf)
    raw = (len(buf) * probs[idx]) ** (-0.5)
    assert np.allclose(weights, raw / raw.max())


def test_underfull_buffer_error():
    buf = filled([Rec(0.0)] * 3)
    with pytest.raises(UnderfullBufferError):
        buf.sample(4, np.random.default_rng(0))


def test_capacity_fifo_and_level_means():
    rng = np.random.default_rng(99)
    for trial in range(50):
        capacity = int(rng.integers(2, 12))
        buf = PrioritizedBuffer(capacity, alpha=0.6)
        pushed = []
        for _ in range(int(rng.integers(1, 60))):
            rec = Rec(float(rng.integers(0, 3)), level=f"L{int(rng.integers(0, 3))}")
            buf.push(rec, float(rng.random()) + 0.01)
            pushed.append(rec)
        assert len(buf) <= capacity
        kept = pushed[-capacity:]
        for level in ("L0", "L1", "L2"):
            rewards = [r.gate_reward for r in kept if r.level == level]
            if rewards:
                assert buf.level_mean(level) == pytest.approx(np.mean(rewards), abs=1e-12)
            else:
                assert buf.level_mean(level) is None


def test_priority_update_changes_distribution():
    buf = filled([Rec(0.0)] * 4, alpha=1.0, priorities=[1.0, 1.0, 1.0, 1.0])
    buf.update_priorities([2], [9.0 - buf.epsilon])
    probs = distribution(buf)
    assert probs[2] == pytest.approx(9.0 / 12.0)


# -- gating --------------------------------------------------------------------

def test_gate_empty_buffer_accepts():
    buf = PrioritizedBuffer(16)
    cache = [Rec(0.0), Rec(0.0)]
    assert gated_flush(buf, cache, "S1", tolerance=1.0)
    assert cache == []
    assert len(buf) == 2


def test_gate_accepts_above_level_mean():
    buf = PrioritizedBuffer(16)
    for _ in range(4):
        buf.push(Rec(0.5))
    cache = [Rec(0.8), Rec(0.8)]
    assert gated_flush(buf, cache, "S1", tolerance=1.0)
    assert len(buf) == 6


def test_gate_rejects_below_level_mean():
    buf = PrioritizedBuffer(16)
    for _ in range(4):
        buf.push(Rec(0.5))
    cache = [Rec(0.4), Rec(0.4)]
    assert not gated_flush(buf, cache, "S1", tolerance=1.0)
    assert cache == []
    assert len(buf) == 4


def test_gate_is_level_aware():
    buf = PrioritizedBuffer(16)
    for _ in range(4):
        buf.push(Rec(0.9, level="S1"))
    # S2 has no entries yet, so an S2 cache is accepted regardless
    assert gated_flush(buf, [Rec(0.1, level="S2")], "S2", tolerance=1.0)
    # with level awareness off, the global mean now applies
    assert not gated_flush(buf, [Rec(0.1, level="S2")], "S2", tolerance=1.0, level_aware=False)


def test_gate_matches_brute_force_randomized():
    rng = np.random.default_rng(4242)
    levels = ("A", "B")
    for _ in range(1000):
        buf = PrioritizedBuffer(32)
        history = []
        for _ in range(int(rng.integers(0, 40))):
            rec = Rec(float(rng.integers(0, 2)), level=levels[int(rng.integers(0, 2))])
            buf.push(rec)
            history.append(rec)
        history = history[-32:]
        level = levels[int(rng.integers(0, 2))]
        cache = [
            Rec(float(rng.integers(0, 2)), level=level)
            for _ in range(int(rng.integers(1, 6)))
        ]
        tolerance = float(rng.choice([0.5, 1.0, 1.5]))
        same_level = [r.gate_reward for r in history if r.level == level]
        if not same_level:
            expected = True
        else:
            expected = np.mean([r.gate_reward for r in cache]) > tolerance * np.mean(same_level)
        assert gated_flush(buf, cache, level, tolerance) == expected


def test_gate_pushes_at_max_priority():
    buf = PrioritizedBuffer(8)
    buf.push(Rec(0.0), priority=0.2)
    buf.update_priorities([0], [5.0])
    gated_flush(buf, [Rec(1.0)], "S1", tolerance=1.0)
    # the new entry entered at the running max priority
    assert buf.priorities[1] == pytest.approx(buf.max_priority**buf.alpha)
