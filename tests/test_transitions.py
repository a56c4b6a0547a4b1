"""The replay record: what each policy level's Transition holds, checked on
records a real training episode writes."""

import dataclasses

import pytest

from cookworld.engine.generate import generate_game
from cookworld.engine.state import admissible_actions
from cookworld.goals import generate_goal_set, goal_reward
from cookworld.rl.replay import Transition
from cookworld.training import loop
from cookworld.training.config import TrainConfig
from cookworld.training.loop import Trainer


def small_trainer(variant, level="S1", **overrides):
    cfg = TrainConfig(
        variant=variant,
        episodes=6,
        warmup_episodes=4,
        levels=(level,),
        seed=5,
        batch_size=8,
        update_freq_meta=20,
        update_freq_sub=20,
        hidden_dim=16,
        ff_dim=16,
        scorer_hidden=16,
        **overrides,
    )
    return Trainer(cfg, {level: [generate_game(level, s) for s in range(3)]})


def spy_episode(monkeypatch, tr):
    """Run one episode; return the flushed caches per level, the engine's
    step results and the count bonuses, in step order."""
    flushed = {"meta": [], "sub": []}
    steps, bonuses = [], []
    flush, step, bonus = loop.gated_flush, loop.step, loop.bebold_reward

    def flush_spy(buffer, cache, *args):
        level = "meta" if tr.meta is not None and buffer is tr.meta.buffer else "sub"
        flushed[level].extend(cache)
        return flush(buffer, cache, *args)

    def step_spy(state, action):
        out = step(state, action)
        steps.append((action,) + tuple(out))
        return out

    def bonus_spy(*args):
        bonuses.append(bonus(*args))
        return bonuses[-1]

    monkeypatch.setattr(loop, "gated_flush", flush_spy)
    monkeypatch.setattr(loop, "step", step_spy)
    monkeypatch.setattr(loop, "bebold_reward", bonus_spy)
    rec = tr.run_episode()
    return rec, flushed, steps, bonuses


def test_sub_adapters(monkeypatch):
    """A goal-conditioned sub record: the span's goal text conditions, the
    action sent to the engine is chosen, the goal reward gates and the goal
    reward plus the weighted count bonus is the regression target; the next
    candidates are the next state's admissible actions."""
    # in a first episode only the swapped count order pays a bonus
    tr = small_trainer("H-KGA", bebold_count_order="swapped")
    cfg = tr.cfg
    rec, flushed, steps, bonuses = spy_episode(monkeypatch, tr)
    sub = flushed["sub"]
    assert len(sub) == len(steps) == len(bonuses) == rec.steps > 0
    assert any(b > 0 for b in bonuses)
    goals = {}  # each span's goal, chosen from the goal set of its first observation
    for span in rec.goal_spans:
        goal = {g.text: g for g in generate_goal_set(sub[span.start].obs)}[span.goal]
        goals.update((i, goal) for i in range(span.start, span.end))
    for i, (trn, (action, state, next_obs, _, done), b) in enumerate(zip(sub, steps, bonuses)):
        assert isinstance(trn, Transition) and trn.level == "S1"
        assert trn.chosen_text == action
        assert trn.next_obs is next_obs
        goal = goals[i]
        assert trn.gate_reward == goal_reward(next_obs, goal, cfg.r_min, cfg.r_max)
        assert trn.td_reward == pytest.approx(trn.gate_reward + cfg.lambda_count * b)
        expected = () if done else tuple(admissible_actions(state))
        assert trn.next_candidates == expected
    for span in rec.goal_spans:
        assert {trn.cond_text for trn in sub[span.start : span.end]} == {span.goal}
        assert sub[span.end - 1].done
    with pytest.raises(dataclasses.FrozenInstanceError):
        sub[0].td_reward = 0.0


def test_flat_sub_has_no_conditioning(monkeypatch):
    """The flat variant's records condition on nothing; without the count
    bonus both rewards are the environment's."""
    tr = small_trainer("GATA", bebold=False)
    rec, flushed, steps, bonuses = spy_episode(monkeypatch, tr)
    assert flushed["meta"] == [] and bonuses == []
    assert len(flushed["sub"]) == len(steps) == rec.steps > 0
    for trn, (action, _, _, r_env, done) in zip(flushed["sub"], steps):
        assert trn.cond_text is None
        assert trn.chosen_text == action
        assert trn.td_reward == trn.gate_reward == float(r_env)
        assert trn.done == done or trn is flushed["sub"][-1]


def test_meta_adapters(monkeypatch):
    """A meta record conditions on nothing, chooses the span's goal text and
    carries the span's summed environment reward as both rewards."""
    tr = small_trainer("H-KGA", level="S4")
    rec, flushed, _, _ = spy_episode(monkeypatch, tr)
    meta = flushed["meta"]
    assert len(meta) == len(rec.goal_spans) > 0
    for trn, span in zip(meta, rec.goal_spans):
        assert trn.cond_text is None
        assert trn.chosen_text == span.goal
        assert trn.td_reward == trn.gate_reward == span.r_meta
        assert trn.level == "S4"
        assert all(isinstance(text, str) for text in trn.next_candidates)
    assert meta[-1].done and meta[-1].next_candidates == ()
    assert all(trn.next_candidates for trn in meta[:-1])
