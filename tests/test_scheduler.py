"""Softmax level-sampling probabilities and the moving-average tracker."""

import numpy as np
import pytest

from cookworld.training.scheduler import LevelScheduler, softmax_probabilities


def test_equal_performance_symmetric():
    assert np.allclose(softmax_probabilities([0.5, 0.5]), [0.5, 0.5])


def test_hand_computed_two_levels():
    p = softmax_probabilities([1.0, 0.0])
    z = np.exp(0.0) + np.exp(1.0)
    assert np.allclose(p, [np.exp(0.0) / z, np.exp(1.0) / z], rtol=1e-12)
    assert p[0] == pytest.approx(0.26894142136992605, rel=1e-10)
    assert p[1] == pytest.approx(0.7310585786300048, rel=1e-10)


def test_shift_invariance():
    base = softmax_probabilities([0.2, 0.5, 0.9])
    shifted = softmax_probabilities([0.2 + 3.1, 0.5 + 3.1, 0.9 + 3.1])
    assert np.allclose(base, shifted, atol=1e-12)


def test_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.uniform(0, 1, size=int(rng.integers(1, 9)))
        p = softmax_probabilities(list(v))
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p > 0).all()


def test_monotone_decreasing_in_performance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = sorted(rng.uniform(0, 1, size=4))
        p = softmax_probabilities(list(v))
        for a, b in zip(p, p[1:]):
            assert a >= b
        if v[0] < v[1]:
            assert p[0] > p[1]


def test_moving_average_window():
    sched = LevelScheduler(("S1",), window=3)
    assert sched.performance("S1") == 0.0
    for value in (0.0, 1.0, 1.0, 1.0):
        sched.update("S1", value)
    assert sched.performance("S1") == pytest.approx(1.0)  # the 0.0 fell out


def test_sampling_frequencies():
    sched = LevelScheduler(("S1", "S2"))
    sched.update("S1", 1.0)
    sched.update("S2", 0.0)
    rng = np.random.default_rng(5)
    draws = 100_000
    hits = sum(sched.sample(rng) == "S2" for _ in range(draws))
    assert abs(hits / draws - 0.7310585786300048) < 0.02


def test_uniform_when_equal():
    sched = LevelScheduler(("S1", "S2", "S3", "S4"))
    rng = np.random.default_rng(6)
    draws = 100_000
    counts = {lvl: 0 for lvl in sched.levels}
    for _ in range(draws):
        counts[sched.sample(rng)] += 1
    for lvl in counts:
        assert abs(counts[lvl] / draws - 0.25) < 0.02
