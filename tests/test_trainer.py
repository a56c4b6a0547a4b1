"""Training-loop orchestration: episode structure, variants, determinism."""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from cookworld.engine.generate import generate_game
from cookworld.goals import generate_goal_set
from cookworld.training.agents import (
    HierarchicalAgent,
    WalkthroughAgent,
    epsilon_greedy,
    greedy_agents,
    level_scores,
    rollout,
)
from cookworld.training import agents, loop
from cookworld.training.config import ConfigError, TrainConfig, config_from_dict
from cookworld.training.loop import Trainer, evaluate_agent


def games_for(level, count, base=0):
    return [generate_game(level, base + s) for s in range(count)]


def small_cfg(**overrides):
    base = dict(
        episodes=40,
        warmup_episodes=4,
        val_freq=20,
        levels=("S1",),
        seed=3,
        batch_size=8,
        update_freq_meta=20,
        update_freq_sub=20,
        hidden_dim=16,
        ff_dim=16,
        scorer_hidden=16,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def s1_games():
    return {"S1": games_for("S1", 4)}


@pytest.fixture(scope="module")
def s1_val():
    return {"S1": games_for("S1", 2, base=50)}


def capture_episodes(monkeypatch, tr):
    """Spy on run_episode: each flushed cache per level, and every action
    sent to the engine."""
    flushed = {"meta": [], "sub": []}
    actions = []
    flush, step = loop.gated_flush, loop.step

    def flush_spy(buffer, cache, *args):
        level = "meta" if tr.meta is not None and buffer is tr.meta.buffer else "sub"
        flushed[level].append(list(cache))
        return flush(buffer, cache, *args)

    def step_spy(state, action):
        actions.append(action)
        return step(state, action)

    monkeypatch.setattr(loop, "gated_flush", flush_spy)
    monkeypatch.setattr(loop, "step", step_spy)
    return flushed, actions


def test_walkthrough_agent_scores_max(s1_spec):
    assert level_scores(lambda level, i: WalkthroughAgent(), {"S1": [s1_spec]}, 50) == {"S1": [1.0]}
    score, steps = rollout(WalkthroughAgent(), s1_spec, 50)
    assert score == 4 and steps == 8


def test_oracle_policy_episode_structure(s1_spec):
    """Greedy rollout with the oracle reaches score 4 in 8 steps on the S1
    fixture, matching the reference play-through."""
    agent = WalkthroughAgent()
    score, steps = rollout(agent, s1_spec, 50)
    assert (score, steps) == (4, 8)


def test_random_policy_on_s1_scores_above_zero():
    rng = np.random.default_rng(0)
    spec = generate_game("S1", 1)
    from cookworld.engine.state import admissible_actions, reset, step

    totals = []
    for _ in range(200):
        state, _ = reset(spec, step_limit=50)
        done = False
        while not done:
            actions = admissible_actions(state)
            state, _, _, done = step(state, actions[int(rng.integers(0, len(actions)))])
        totals.append(state.score / spec.max_score)
    assert np.mean(totals) > 0.0


def test_run_episode_records_smdp_structure(s1_games):
    cfg = small_cfg()
    tr = Trainer(cfg, s1_games)
    for _ in range(10):
        rec = tr.run_episode()
        assert 0 <= rec.score <= rec.max_score
        assert rec.steps <= cfg.step_limit_train
        # goal spans partition the step sequence
        cursor = 0
        for span in rec.goal_spans:
            assert span.start == cursor
            assert span.end > span.start
            cursor = span.end
            assert sum(rec.env_rewards[span.start : span.end]) == pytest.approx(span.r_meta)
        assert cursor == rec.steps


def test_replay_records_carry_goal_sets_goals_and_actions(monkeypatch):
    """On S4, where goal sets hold several goals: each meta record's next
    candidates are the goal set the next span chooses from, computed on the
    very observation that span starts in; the game's end leaves none. Each
    sub record is conditioned on its span's goal and chose the action sent to
    the engine."""
    cfg = small_cfg(levels=("S4",), episodes=6)
    tr = Trainer(cfg, {"S4": games_for("S4", 3)})
    flushed, actions = capture_episodes(monkeypatch, tr)
    choices = 0
    for _ in range(6):
        del actions[:]
        rec = tr.run_episode()
        meta, sub = flushed["meta"][-1], flushed["sub"][-1]
        assert len(meta) == len(rec.goal_spans) and len(sub) == len(actions) == rec.steps
        for prev, nxt in zip(meta, meta[1:]):
            assert not prev.done
            assert prev.next_obs is nxt.obs
            assert prev.next_candidates == generate_goal_set(nxt.obs).texts
            assert nxt.chosen_text in prev.next_candidates
            choices += len(prev.next_candidates) > 1
        # the engine's step limit is the trainer's, so every episode ends the game
        assert meta[-1].done and meta[-1].next_candidates == ()
        for span, trn in zip(rec.goal_spans, meta):
            assert trn.cond_text is None and trn.chosen_text == span.goal
            for i in range(span.start, span.end):
                assert sub[i].cond_text == span.goal
                assert sub[i].chosen_text == actions[i]
    assert choices > 0


def test_step_limit_episode_still_caches_meta(s1_games):
    cfg = small_cfg(step_limit_train=5, episodes=10)
    tr = Trainer(cfg, s1_games)
    rec = tr.run_episode()
    assert rec.steps == 5
    assert rec.done_by_limit
    assert rec.meta_cached >= 1


def test_update_cadence_exact(s1_games):
    cfg = small_cfg(warmup_episodes=0, update_freq_sub=10, update_freq_meta=10**9,
                    batch_size=2, episodes=30)
    tr = Trainer(cfg, s1_games)
    fired = []
    for _ in range(30):
        tr.run_episode()
    # after warmup, one sub update per 10 global steps once the buffer is warm
    expected = tr.k // 10
    slack = 4  # early events before the buffer held a full batch
    assert expected - slack <= tr.updates_sub <= expected


def test_reproducibility_bit_identical(s1_games, s1_val):
    results = []
    for _ in range(2):
        cfg = small_cfg(episodes=25)
        tr = Trainer(cfg, s1_games, s1_val)
        records = [tr.run_episode() for _ in range(25)]
        tr.validate()
        summary = [
            (r.level, r.game_index, r.steps, r.score, tuple(r.env_rewards)) for r in records
        ]
        params = {k: p.data.copy() for k, p in tr.sub.online.params.items()}
        results.append((summary, params, tr.best_val))
    assert results[0][0] == results[1][0]
    assert results[0][2] == results[1][2]
    for k in results[0][1]:
        assert np.array_equal(results[0][1][k], results[1][1][k])


def test_resume_after_crash_does_not_repeat_metrics_rows(s1_games, s1_val, tmp_path):
    class Crash(Exception):
        pass

    cfg = small_cfg(episodes=8, val_freq=4, warmup_episodes=1)
    tr = Trainer(cfg, s1_games, s1_val, out_dir=tmp_path)
    run_episode = tr.run_episode

    def crash_after_episode_6():
        if tr.episode == 6:
            raise Crash
        return run_episode()

    tr.run_episode = crash_after_episode_6
    with pytest.raises(Crash):
        tr.run()
    tr.metrics.close()
    resumed = Trainer(cfg, s1_games, s1_val, out_dir=tmp_path, resume=True)
    assert resumed.episode == 4  # the last checkpoint
    saves = []

    def save_latest(trainer):
        saves.append(trainer.episode)
        Trainer.save_latest(trainer)

    resumed.save_latest = partial(save_latest, resumed)
    resumed.run()
    resumed.metrics.close()
    # latest/ is written once per checkpoint, and a run already at its end writes it once
    finished = Trainer(cfg, s1_games, s1_val, out_dir=tmp_path, resume=True)
    finished.save_latest = partial(save_latest, finished)
    finished.run()
    finished.metrics.close()
    assert saves == [8, 8]
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# generated") and lines[1].startswith("episode,")
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows if r[1] == "train"] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert [(int(r[0]), r[2]) for r in rows if r[1] == "val"] == [(4, "S1"), (4, "all"), (8, "S1"), (8, "all")]


def checkpoint_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_a_save_cut_short_leaves_the_previous_latest_resumable(s1_games, s1_val, tmp_path, monkeypatch):
    class Crash(Exception):
        pass

    cfg = small_cfg(variant="H-KGA", episodes=8, val_freq=4, warmup_episodes=1)
    tr = Trainer(cfg, s1_games, s1_val, out_dir=tmp_path)
    for _ in range(4):
        tr.run_episode()
    tr.save_latest()
    before = checkpoint_bytes(tmp_path / "latest")
    assert set(before) == {"meta.npz", "sub.npz", "run_state.json"}
    tr.run_episode()
    real_save = loop.Learner.save

    def save_then_crash(learner, directory):
        if learner.name == "sub":  # the second learner: meta.npz is already written
            raise Crash
        real_save(learner, directory)

    monkeypatch.setattr(loop.Learner, "save", save_then_crash)
    with pytest.raises(Crash):
        tr.save_latest()
    monkeypatch.setattr(loop.Learner, "save", real_save)
    tr.metrics.close()
    assert checkpoint_bytes(tmp_path / "latest") == before
    resumed = Trainer(cfg, s1_games, s1_val, out_dir=tmp_path, resume=True)
    assert resumed.episode == 4
    resumed.metrics.close()

    # a crash between the swap's two renames: latest/ already retired
    (tmp_path / "latest").rename(tmp_path / "latest.old")
    resumed = Trainer(cfg, s1_games, s1_val, out_dir=tmp_path, resume=True)
    assert resumed.episode == 4
    assert checkpoint_bytes(tmp_path / "latest") == before
    # a save cut after its swap leaves the retired copy beside latest/
    (tmp_path / "latest.old").mkdir()
    (tmp_path / "latest.old" / "sub.npz").write_bytes(b"stale")
    resumed.run_episode()
    resumed.save_latest()
    resumed.metrics.close()
    assert sorted(path.name for path in tmp_path.iterdir() if path.is_dir()) == ["latest"]
    assert json.loads((tmp_path / "latest" / "run_state.json").read_text())["episode"] == 5


def test_epsilon_schedule():
    cfg = small_cfg(episodes=100, eps_anneal_fraction=0.2)
    tr = Trainer(cfg, {"S1": games_for("S1", 1)})
    assert tr.epsilon(1) == pytest.approx(1.0)
    assert tr.epsilon(21) == pytest.approx(0.1)
    assert tr.epsilon(100) == pytest.approx(0.1)
    mid = tr.epsilon(11)
    assert 0.1 < mid < 1.0


def test_validation_rollback_restores_snapshots(s1_games, s1_val):
    cfg = small_cfg(patience=1, episodes=40)
    tr = Trainer(cfg, s1_games, s1_val)
    for _ in range(5):
        tr.run_episode()
    tr.validate()  # establishes the snapshot (>= 0.0 always refreshes)
    snap = tr.sub.best_flat.copy()
    tr.best_val = 2.0  # force every later validation to be "worse"
    tr.sub.online.flat += 0.125
    tr.sub.online.bump_version()
    tr.validate()  # patience 1
    tr.validate()  # patience 2 > P=1 -> rollback
    assert np.array_equal(tr.sub.online.flat, snap)
    assert np.array_equal(tr.sub.target.flat, snap)


def test_walkthrough_validation_is_one(s1_val):
    result = evaluate_agent(lambda level, i: WalkthroughAgent(), s1_val, step_limit=100)
    assert result["per_level"]["S1"] == 1.0
    assert result["avg_all"] == 1.0


def test_random_init_policy_weak_on_s3():
    games = {"S3": games_for("S3", 3)}
    cfg = small_cfg(levels=("S3",))
    tr = Trainer(cfg, games)
    scores = level_scores(greedy_agents(tr.sub.online, tr.meta.online), games, 100)["S3"]
    assert np.mean(scores) < 0.2


def test_hierarchical_agent_needs_a_goal_chooser(s1_games):
    tr = Trainer(small_cfg(), s1_games)
    with pytest.raises(ValueError, match="meta_net or a goal_rng"):
        HierarchicalAgent(tr.sub.online)


def test_evaluate_agent_aggregates():
    games = {
        "S1": games_for("S1", 2),
        "US1": games_for("US1", 2),
    }
    result = evaluate_agent(lambda level, i: WalkthroughAgent(), games, step_limit=100)
    assert result["avg_seen"] == 1.0
    assert result["avg_unseen"] == 1.0
    assert result["avg_all"] == 1.0
    assert set(result["per_level"]) == {"S1", "US1"}


def test_evaluate_empty_set_raises():
    with pytest.raises(ValueError):
        evaluate_agent(lambda level, i: WalkthroughAgent(), {}, step_limit=10)


def test_scores_within_unit_interval(s1_games):
    cfg = small_cfg(episodes=5)
    tr = Trainer(cfg, s1_games)
    for score in level_scores(greedy_agents(tr.sub.online, tr.meta.online), s1_games, 30)["S1"]:
        assert 0.0 <= score <= 1.0


# -- variants -------------------------------------------------------------------

def test_unknown_variant_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"variant": "H-KGA-Turbo"})
    assert "GC-GATA" in str(err.value)


def test_counts_and_cadences_must_be_positive():
    # the engine ends an episode at its step limit, which must be reachable;
    # the other values below their floor crash a run after it starts
    for field in ("step_limit_train", "step_limit_eval", "val_freq", "update_freq_meta",
                  "update_freq_sub", "target_sync_every", "batch_size",
                  "buffer_capacity_meta", "buffer_capacity_sub", "hidden_dim"):
        with pytest.raises(ConfigError, match=field):
            config_from_dict({field: 0})
    # a run of no episodes, or of fewer than none, trains nothing
    for episodes in (0, -3):
        with pytest.raises(ConfigError, match="episodes must be at least 1"):
            config_from_dict({"episodes": episodes})
    # these may be 0, never negative
    for field in ("warmup_episodes", "patience", "lambda_count", "seed"):
        with pytest.raises(ConfigError, match=f"{field} must be at least 0"):
            config_from_dict({field: -2})
        config_from_dict({field: 0})


def test_config_values_must_have_their_field_type():
    for doc in ({"levels": "S1"}, {"levels": ["S1", 2]}, {"episodes": 2.0}, {"tau": "1"},
                {"gamma": False}, {"variant": None}):
        with pytest.raises(ConfigError, match=next(iter(doc))):
            config_from_dict(doc)
    # JSON reads NaN and Infinity as floats, which a config must not hold:
    # save_config could not write them back as JSON
    for bad in ("NaN", "Infinity", "-Infinity", "1e400"):
        doc = json.loads(f'{{"lr": {bad}}}')
        with pytest.raises(ConfigError, match=r"^lr must be a number, got "):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match=r"^lr must be a number, got "):
            dataclasses.replace(TrainConfig(), lr=doc["lr"]).validate()
    cfg = config_from_dict({"levels": ["S1", "S4"], "tau": 1, "bebold": False})
    assert cfg.levels == ("S1", "S4") and cfg.tau == 1 and cfg.bebold is False


def test_gata_has_no_goal_machinery(s1_games, monkeypatch):
    cfg = small_cfg(variant="GATA", episodes=6)
    tr = Trainer(cfg, s1_games)
    assert tr.meta is None
    assert tr.sub.online.state_parts == 1
    flushed, actions = capture_episodes(monkeypatch, tr)
    rec = tr.run_episode()
    assert rec.goal_spans == []
    assert rec.meta_cached == 0
    assert rec.sub_cached == rec.steps
    assert [trn.cond_text for trn in flushed["sub"][0]] == [None] * rec.steps
    assert [trn.chosen_text for trn in flushed["sub"][0]] == actions


def test_gc_gata_has_no_meta_learner(s1_games):
    cfg = small_cfg(variant="GC-GATA", episodes=6)
    tr = Trainer(cfg, s1_games)
    assert tr.meta is None and tr.learners == [tr.sub]
    assert tr.meta_buffer is None and tr.updates_meta == 0
    rec = tr.run_episode()
    assert rec.goal_spans
    assert rec.meta_cached == 0
    assert not rec.meta_accepted
    assert rec.sub_cached == rec.steps


def test_gc_gata_uniform_goal_choice():
    spec = generate_game("S4", 2)
    from cookworld.engine.state import reset

    _, obs = reset(spec)
    goal_set = generate_goal_set(obs)
    assert len(goal_set) == 3
    cfg = small_cfg(variant="GC-GATA", levels=("S4",))
    tr = Trainer(cfg, {"S4": [spec]})
    # GC-GATA has no meta net, so its goals come from the rule's uniform branch
    assert tr.meta is None and not tr._trains_meta(1)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        g = epsilon_greedy(goal_set.goals, None, tr.rng_meta, eps=0.0)
        counts[g.text] = counts.get(g.text, 0) + 1
    for text, count in counts.items():
        assert abs(count / draws - 1 / 3) < 0.02, text


def test_validation_and_eval_draw_the_same_goals(tmp_path, monkeypatch):
    """GC-GATA draws its goals at random. Validation, at any episode, and
    `cookworld eval` of the run's checkpoint pick the same first goal on each
    (level, index), so `best/` is chosen on the goals that eval reports."""
    from cookworld.cli import _agent_factory_from_checkpoint
    from cookworld.engine.state import admissible_actions, reset

    val = {"S1": games_for("S1", 1, base=50), "S4": games_for("S4", 5, base=50)}
    cfg = small_cfg(variant="GC-GATA", levels=("S4",), episodes=2)
    tr = Trainer(cfg, {"S4": games_for("S4", 2)}, val, out_dir=tmp_path)
    first_goals = []

    def first_goal(agent, spec, step_limit):
        state, obs = reset(spec, step_limit=step_limit)
        agent.start_episode(spec, obs)
        agent.act(obs, admissible_actions(state))
        first_goals.append(agent.goal.text)
        return 0, 1

    monkeypatch.setattr(agents, "rollout", first_goal)
    tr.validate()
    tr.run_episode()
    tr.validate()
    tr.save_latest()
    tr.metrics.close()
    evaluate_agent(_agent_factory_from_checkpoint(tmp_path / "latest", tr.vocab), val)
    n = sum(len(specs) for specs in val.values())
    assert len(first_goals) == 3 * n
    assert first_goals[:n] == first_goals[n:2 * n] == first_goals[2 * n:]
    assert len(set(first_goals[1:n])) > 1  # the S4 games do not all share one goal


def test_ind_second_phase_freezes_sub(s1_games):
    cfg = small_cfg(variant="H-KGA-Ind", episodes=20, warmup_episodes=0,
                    update_freq_sub=5, update_freq_meta=5, batch_size=2)
    tr = Trainer(cfg, s1_games)
    for _ in range(10):  # phase 1
        tr.run_episode()
    sub_after_phase1 = {k: p.data.copy() for k, p in tr.sub.online.params.items()}
    updates_phase1 = tr.updates_sub
    assert updates_phase1 > 0
    for _ in range(10):  # phase 2: meta only
        tr.run_episode()
    assert tr.updates_sub == updates_phase1
    for k, p in tr.sub.online.params.items():
        assert np.array_equal(p.data, sub_after_phase1[k])


def test_halfjoint_phase_switch(s1_games):
    cfg = small_cfg(variant="H-KGA-HalfJoint", episodes=20, warmup_episodes=0,
                    update_freq_sub=5, update_freq_meta=5, batch_size=2)
    tr = Trainer(cfg, s1_games)
    assert not tr._trains_meta(10)
    assert tr._trains_meta(11)
    assert tr._trains_sub(10) and tr._trains_sub(11)


def test_without_scheduled_sampling_uniform_levels():
    levels = ("S1", "S2", "S3", "S4")
    games = {lvl: games_for(lvl, 1) for lvl in levels}
    cfg = small_cfg(levels=levels, scheduled_sampling=False, episodes=4)
    tr = Trainer(cfg, games)
    counts = {lvl: 0 for lvl in levels}
    draws = 100_000
    for _ in range(draws):
        if cfg.scheduled_sampling and len(cfg.levels) > 1:
            lvl = tr.scheduler.sample(tr.rng_level)
        else:
            lvl = cfg.levels[int(tr.rng_level.integers(0, len(cfg.levels)))]
        counts[lvl] += 1
    for lvl in levels:
        assert abs(counts[lvl] / draws - 0.25) < 0.02


def test_without_bebold_r_sub_equals_r_goal(s1_games):
    cfg = small_cfg(bebold=False, episodes=4)
    tr = Trainer(cfg, s1_games)
    seen = []
    original = tr.sub_buffer.push

    def spy(transition, priority=None):
        seen.append(transition)
        return original(transition, priority)

    tr.sub_buffer.push = spy
    for _ in range(4):
        tr.run_episode()
    assert seen
    for trn in seen:
        assert trn.td_reward == trn.gate_reward


def test_scheduled_sampling_prefers_weak_levels():
    levels = ("S1", "S2")
    games = {lvl: games_for(lvl, 1) for lvl in levels}
    cfg = small_cfg(levels=levels, episodes=4)
    tr = Trainer(cfg, games)
    for _ in range(10):
        tr.scheduler.update("S1", 1.0)
        tr.scheduler.update("S2", 0.0)
    probs = dict(zip(tr.scheduler.levels, tr.scheduler.probabilities()))
    assert probs["S2"] > probs["S1"]
