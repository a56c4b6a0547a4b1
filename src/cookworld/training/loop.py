"""End-to-end training: scheduled level sampling, hierarchical episode
orchestration, cadenced Double DQN updates, cache gating, validation with
patience rollback, and variant/ablation wiring."""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from ..engine.spec import UNSEEN_LEVELS, GameSpec
from ..engine.state import admissible_actions, reset, step
from ..engine.vocab import Vocabulary, default_vocabulary
from ..goals import Goal, generate_goal_set, goal_reward, goal_terminated
from ..neural.nets import (
    CheckpointError, PolicyNet, clone_net, load_checkpoint, save_checkpoint, sync_target,
)
from ..neural.optim import AdamState
from ..records import load_record, read_record
from ..rl.counts import VisitCounter, accumulate_meta_reward, bebold_reward, compose_sub_reward
from ..rl.dqn import td_update
from ..rl.replay import PER_BETA_START, PrioritizedBuffer, Transition, gated_flush
from .agents import epsilon_greedy, greedy_agents, level_scores
from .config import TrainConfig
from .metrics import MetricsWriter
from .scheduler import LevelScheduler


@dataclass
class GoalSpan:
    goal: str
    start: int
    end: int
    r_meta: float


@dataclass
class EpisodeRecord:
    episode: int
    level: str
    game_index: int
    steps: int
    score: int
    max_score: int
    done_by_limit: bool
    lost: bool
    env_rewards: list[float] = field(default_factory=list)
    goal_spans: list[GoalSpan] = field(default_factory=list)
    meta_cached: int = 0
    sub_cached: int = 0
    meta_accepted: bool = False
    sub_accepted: bool = False

    @property
    def normalized_score(self) -> float:
        return self.score / self.max_score


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, stream)).generate_state(1)[0])


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, stream)))


@dataclass
class RunState:
    """run_state.json: what a resume restores beside the checkpoints. The
    rng states are numpy's bit generator states, which numpy checks."""

    episode: int
    k: int
    updates_meta: int
    updates_sub: int
    best_val: float
    patience_count: int
    scheduler_history: dict[str, tuple[float, ...]]
    rng: dict[str, dict]


class Learner:
    """One policy level's Double DQN learner: online and target nets, Adam
    state, the prioritized replay buffer and the rng that samples it, the
    last loss and the best-validation snapshot. Its checkpoint is
    `<name>.npz` in a run directory."""

    def __init__(self, name: str, cfg: TrainConfig, vocab: Vocabulary, state_parts: int,
                 capacity: int, net_seed: int, rng: np.random.Generator):
        self.name = name
        self.cfg = cfg
        self.online = PolicyNet(
            vocab,
            hidden_dim=cfg.hidden_dim,
            rgcn_layers=cfg.rgcn_layers,
            state_parts=state_parts,
            ff_dim=cfg.ff_dim,
            scorer_hidden=cfg.scorer_hidden,
            seed=net_seed,
        )
        self.target = clone_net(self.online)
        self.adam = AdamState(self.online)
        self.buffer = PrioritizedBuffer(capacity)
        self.rng = rng
        self.last_loss: Optional[float] = None
        self.best_flat: Optional[np.ndarray] = None

    @property
    def updates(self) -> int:
        """TD updates so far: each makes one Adam step."""
        return self.adam.t

    def maybe_update(self, beta: float) -> None:
        """One TD update once the buffer holds a batch; a hard target copy
        every target_sync_every updates."""
        cfg = self.cfg
        if len(self.buffer) < cfg.batch_size:
            return
        self.buffer.beta = beta
        self.last_loss = td_update(
            self.buffer,
            self.online,
            self.target,
            cfg.batch_size,
            cfg.gamma,
            self.rng,
            self.adam,
            lr=cfg.lr,
        )
        if self.updates % cfg.target_sync_every == 0:
            sync_target(self.online, self.target)

    def snapshot(self) -> None:
        self.best_flat = self.online.flat.copy()

    def restore(self) -> None:
        """Roll the online and target nets back to the last snapshot."""
        if self.best_flat is not None:
            np.copyto(self.online.flat, self.best_flat)
            self.online.bump_version()
            sync_target(self.online, self.target)

    def save(self, directory: Path) -> None:
        save_checkpoint(self.online, directory / f"{self.name}.npz", self.adam)

    def load(self, directory: Path, updates: int) -> None:
        """Resume from `<name>.npz`, which must hold a net of this
        learner's config and the Adam state of `updates` TD updates. The
        loaded net and Adam state become the learner's own."""
        path = directory / f"{self.name}.npz"
        net, adam = load_checkpoint(path, self.online.vocab)
        if adam is None:
            raise CheckpointError(f"{path} holds no optimizer state to resume")
        if net.config() != self.online.config():
            raise CheckpointError(f"{path} holds a net of another shape: {net.config()}")
        if adam.t != updates:
            raise CheckpointError(
                f"{path} holds {adam.t} updates, but run_state.json counts {updates}"
            )
        self.online, self.adam = net, adam
        sync_target(self.online, self.target)


class Trainer:
    def __init__(
        self,
        cfg: TrainConfig,
        train_games: dict[str, list[GameSpec]],
        val_games: Optional[dict[str, list[GameSpec]]] = None,
        out_dir: Optional[str | Path] = None,
        resume: bool = False,
    ):
        cfg.validate()
        self.cfg = cfg
        self.train_games = train_games
        self.val_games = val_games or {}
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.vocab = default_vocabulary()

        missing = [lvl for lvl in cfg.levels if not train_games.get(lvl)]
        if missing:
            raise ValueError(f"no training games for levels: {missing}")

        self.uses_goals = cfg.variant != "GATA"
        self.phase2_start = cfg.episodes // 2 + 1  # first episode of the second phase

        seed = cfg.seed
        self.rng_level = _stream_rng(seed, 0)
        self.rng_game = _stream_rng(seed, 1)
        self.rng_meta = _stream_rng(seed, 2)
        self.rng_sub = _stream_rng(seed, 3)
        self.sub = Learner(
            "sub", cfg, self.vocab, 2 if self.uses_goals else 1, cfg.buffer_capacity_sub,
            _child_seed(seed, 11), _stream_rng(seed, 5),
        )
        self.meta: Optional[Learner] = None
        if cfg.variant in ("H-KGA", "H-KGA-HalfJoint", "H-KGA-Ind"):
            self.meta = Learner(
                "meta", cfg, self.vocab, 1, cfg.buffer_capacity_meta,
                _child_seed(seed, 10), _stream_rng(seed, 4),
            )
        # meta first, so that run_state.json lists buf_meta before buf_sub
        self.learners = [learner for learner in (self.meta, self.sub) if learner is not None]

        self.counter = VisitCounter()
        self.scheduler = LevelScheduler(cfg.levels)

        self.episode = 0
        self.k = 0  # global interaction step counter
        self.best_val = 0.0
        self.patience_count = 0

        self.metrics: Optional[MetricsWriter] = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            if resume:
                self._load_run_state()
                if self.episode > cfg.episodes:
                    raise ValueError(f"cannot resume: latest/ holds {self.episode} episodes, "
                                     f"more than the {cfg.episodes} episodes of the run")
            self.metrics = MetricsWriter(
                self.out_dir / "metrics.csv", cfg.levels, resume_from=self.episode if resume else None
            )

    @property
    def sub_buffer(self) -> PrioritizedBuffer:
        return self.sub.buffer

    @property
    def meta_buffer(self) -> Optional[PrioritizedBuffer]:
        return self.meta.buffer if self.meta is not None else None

    @property
    def updates_sub(self) -> int:
        return self.sub.updates

    @property
    def updates_meta(self) -> int:
        return self.meta.updates if self.meta is not None else 0

    # -- exploration schedule -------------------------------------------------

    def epsilon(self, episode: int) -> float:
        cfg = self.cfg
        anneal = max(1, int(cfg.episodes * cfg.eps_anneal_fraction))
        frac = min(1.0, max(0.0, (episode - 1) / anneal))
        return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac

    # -- variant phase wiring --------------------------------------------------

    def _trains_meta(self, episode: int) -> bool:
        """Whether the meta policy trains in this episode. It picks the goals
        exactly when it trains; otherwise goals are drawn uniformly."""
        if self.meta is None:
            return False
        if self.cfg.variant == "H-KGA":
            return True
        return episode >= self.phase2_start

    def _trains_sub(self, episode: int) -> bool:
        if self.cfg.variant == "H-KGA-Ind":
            return episode < self.phase2_start
        return True

    # -- updates -----------------------------------------------------------------

    def _per_beta(self, episode: int) -> float:
        """The PER importance exponent, annealed to 1.0 over the run."""
        frac = min(1.0, episode / max(1, self.cfg.episodes))
        return PER_BETA_START + (1.0 - PER_BETA_START) * frac

    def _maybe_update(self, episode: int) -> None:
        cfg = self.cfg
        if episode <= cfg.warmup_episodes:
            return
        if self.k % cfg.update_freq_meta == 0 and self._trains_meta(episode):
            self.meta.maybe_update(self._per_beta(episode))
        if self.k % cfg.update_freq_sub == 0 and self._trains_sub(episode):
            self.sub.maybe_update(self._per_beta(episode))

    # -- episodes -------------------------------------------------------------------

    def run_episode(self) -> EpisodeRecord:
        cfg = self.cfg
        self.episode += 1
        episode = self.episode
        eps = self.epsilon(episode)

        if cfg.scheduled_sampling and len(cfg.levels) > 1:
            level = self.scheduler.sample(self.rng_level)
        else:
            level = cfg.levels[int(self.rng_level.integers(0, len(cfg.levels)))]
        games = self.train_games[level]
        game_index = int(self.rng_game.integers(0, len(games)))
        spec = games[game_index]

        state, obs = reset(spec, step_limit=cfg.step_limit_train)
        admissible = tuple(admissible_actions(state))
        self.counter.reset_episode()
        self.counter.record_visit(obs)
        cache_meta: list[Transition] = []
        cache_sub: list[Transition] = []
        record = EpisodeRecord(
            episode=episode,
            level=level,
            game_index=game_index,
            steps=0,
            score=0,
            max_score=spec.max_score,
            done_by_limit=False,
            lost=False,
        )

        meta_net = self.meta.online if self._trains_meta(episode) else None
        goal_set = generate_goal_set(obs) if self.uses_goals else None
        done = False
        while not done:
            goal: Optional[Goal] = None
            if self.uses_goals:
                goal_q = None
                if meta_net is not None:
                    goal_q = partial(meta_net.q_values, obs, None, goal_set.texts)
                goal = epsilon_greedy(goal_set.goals, goal_q, self.rng_meta, eps)
            cond = goal.text if goal is not None else None
            span_start = state.steps
            goal_obs = obs
            while True:
                action = epsilon_greedy(
                    admissible, partial(self.sub.online.q_values, obs, cond, admissible), self.rng_sub, eps
                )
                state, next_obs, r_env, done = step(state, action)
                self.counter.record_visit(next_obs)
                if goal is not None:
                    r_goal = goal_reward(next_obs, goal, cfg.r_min, cfg.r_max)
                else:
                    r_goal = float(r_env)
                r_count = 0.0
                if cfg.bebold:
                    r_count = bebold_reward(self.counter, obs, next_obs, cfg.bebold_count_order)
                r_sub = compose_sub_reward(r_goal, r_count, cfg.lambda_count)
                # the goal span is the sub-policy's episode: terminal when the
                # goal is accomplished or the game ends, time-up included
                span_over = done if goal is None else goal_terminated(next_obs, goal, done)
                admissible = () if done else tuple(admissible_actions(state))
                cache_sub.append(
                    Transition(
                        obs=obs,
                        cond_text=cond,
                        chosen_text=action,
                        td_reward=r_sub,
                        gate_reward=r_goal,
                        next_obs=next_obs,
                        next_candidates=admissible,
                        done=span_over,
                        level=level,
                    )
                )
                record.env_rewards.append(float(r_env))
                self.k += 1
                self._maybe_update(episode)
                obs = next_obs
                if span_over:
                    break
            if goal is not None:
                r_meta = accumulate_meta_reward(record.env_rewards[span_start:])
                # the next span chooses from the meta record's next candidates
                goal_set = None if done else generate_goal_set(obs)
                if self.meta is not None:
                    cache_meta.append(
                        Transition(
                            obs=goal_obs,
                            cond_text=None,
                            chosen_text=goal.text,
                            td_reward=r_meta,
                            gate_reward=r_meta,
                            next_obs=obs,
                            next_candidates=() if done else goal_set.texts,
                            done=done,
                            level=level,
                        )
                    )
                record.goal_spans.append(GoalSpan(goal.text, span_start, state.steps, r_meta))

        record.steps = state.steps
        record.score = state.score
        record.lost = state.lost
        record.done_by_limit = state.done and not state.lost and "meal" not in state.consumed
        self.scheduler.update(level, record.normalized_score)

        record.meta_cached = len(cache_meta)
        record.sub_cached = len(cache_sub)
        if self.meta is not None:
            record.meta_accepted = gated_flush(
                self.meta.buffer, cache_meta, level, cfg.tau, cfg.level_aware_buffer
            )
        record.sub_accepted = gated_flush(
            self.sub.buffer, cache_sub, level, cfg.tau, cfg.level_aware_buffer
        )

        if self.metrics is not None:
            probs = dict(zip(self.scheduler.levels, self.scheduler.probabilities()))
            self.metrics.row(
                episode,
                "train",
                level,
                record.normalized_score,
                self.meta.last_loss if self.meta is not None else None,
                self.sub.last_loss,
                eps,
                probs,
            )
        return record

    # -- validation ------------------------------------------------------------------

    def validate(self) -> float:
        meta_net = self.meta.online if self._trains_meta(self.episode) else None
        by_level = level_scores(
            greedy_agents(self.sub.online, meta_net), self.val_games, self.cfg.step_limit_eval
        )
        per_level = {level: float(np.mean(scores)) for level, scores in by_level.items()}
        scores = [score for group in by_level.values() for score in group]
        v_val = float(np.mean(scores)) if scores else 0.0

        if self.metrics is not None:
            for level, value in per_level.items():
                self.metrics.row(self.episode, "val", level, value, None, None, 0.0, None)
            self.metrics.row(self.episode, "val", "all", v_val, None, None, 0.0, None)

        if v_val >= self.best_val:
            self.best_val = v_val
            self.patience_count = 0
            for learner in self.learners:
                learner.snapshot()
            if self.out_dir is not None:
                self._save_policies(self.out_dir / "best")
        else:
            self.patience_count += 1
            if self.patience_count > self.cfg.patience:
                for learner in self.learners:
                    learner.restore()
                self.patience_count = 0
        return v_val

    # -- full run ------------------------------------------------------------------------

    def run(self, progress: bool = False) -> dict:
        cfg = self.cfg
        saved = False  # whether latest/ holds the current episode
        while self.episode < cfg.episodes:
            self.run_episode()
            if self.val_games and self.episode % cfg.val_freq == 0:
                v = self.validate()
                if progress:
                    print(
                        f"episode {self.episode}: val {v:.3f} (best {self.best_val:.3f}, "
                        f"patience {self.patience_count})",
                        flush=True,
                    )
            saved = self.out_dir is not None and self.episode % cfg.val_freq == 0
            if saved:
                self.save_latest()
        if self.out_dir is not None and not saved:
            self.save_latest()
        return {
            "episodes": self.episode,
            "steps": self.k,
            "updates_meta": self.updates_meta,
            "updates_sub": self.updates_sub,
            "best_val": self.best_val,
        }

    # -- persistence ------------------------------------------------------------------------

    def _save_policies(self, directory: Path) -> None:
        """Write the checkpoints and run_state.json into `<name>.tmp/`, each
        file anew, then swap it in by renames: a save cut short leaves the
        previous checkpoint whole, as `directory` or, between the renames, as
        `<name>.old/`."""
        staging, retired = directory.with_suffix(".tmp"), directory.with_suffix(".old")
        staging.mkdir(parents=True, exist_ok=True)
        for learner in self.learners:
            learner.save(staging)
        (staging / "run_state.json").write_text(json.dumps(asdict(self._run_state()), indent=2) + "\n")
        if directory.exists():
            shutil.rmtree(retired, ignore_errors=True)  # left by a save cut after its swap
            os.replace(directory, retired)
        os.replace(staging, directory)
        shutil.rmtree(retired, ignore_errors=True)

    def save_latest(self) -> None:
        self._save_policies(self.out_dir / "latest")

    def _rngs(self) -> dict[str, np.random.Generator]:
        """The run's random streams, by their names in run_state.json."""
        rngs = {"level": self.rng_level, "game": self.rng_game, "meta": self.rng_meta, "sub": self.rng_sub}
        rngs.update((f"buf_{learner.name}", learner.rng) for learner in self.learners)
        return rngs

    def _run_state(self) -> RunState:
        history = {level: tuple(self.scheduler._history[level]) for level in self.scheduler.levels}
        rng = {name: rng.bit_generator.state for name, rng in self._rngs().items()}
        return RunState(self.episode, self.k, self.updates_meta, self.updates_sub, self.best_val,
                        self.patience_count, history, rng)

    def _load_run_state(self) -> None:
        directory, retired = self.out_dir / "latest", self.out_dir / "latest.old"
        if not directory.exists() and retired.exists():  # a save cut between its renames
            os.replace(retired, directory)
        state_path = directory / "run_state.json"
        if not state_path.exists():
            return

        def read(doc) -> RunState:
            state = read_record(RunState, doc, CheckpointError)
            for name in ("episode", "k", "updates_meta", "updates_sub", "patience_count"):
                if getattr(state, name) < 0:
                    raise CheckpointError(f"{name} must be at least 0, got {getattr(state, name)}")
            missing = set(self.scheduler.levels) - state.scheduler_history.keys()
            if missing:
                raise CheckpointError(f"scheduler_history lacks level {min(missing)}")
            return state

        state = load_record(state_path, read, CheckpointError)
        self.episode, self.k = state.episode, state.k
        self.best_val, self.patience_count = state.best_val, state.patience_count
        for level in self.scheduler.levels:
            for value in state.scheduler_history[level]:
                self.scheduler.update(level, value)
        for learner in self.learners:
            # the checkpoint first: it refuses a run of another variant
            learner.load(directory, getattr(state, f"updates_{learner.name}"))
        for name, rng in self._rngs().items():
            try:
                rng.bit_generator.state = state.rng[name]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"{state_path}: rng.{name} is missing or not a bit generator state") from exc


# -- evaluation ---------------------------------------------------------------------

def evaluate_agent(agent_factory, games: dict[str, list[GameSpec]], step_limit: int = 100) -> dict:
    """Greedy rollouts per level; returns per-level means plus seen/unseen/all
    aggregates. agent_factory(level, index) builds a fresh agent per game."""
    if not games or all(not v for v in games.values()):
        raise ValueError("empty evaluation game set")
    per_level = {
        level: float(np.mean(scores))
        for level, scores in level_scores(agent_factory, games, step_limit).items()
    }
    seen = [v for lvl, v in per_level.items() if lvl not in UNSEEN_LEVELS]
    unseen = [v for lvl, v in per_level.items() if lvl in UNSEEN_LEVELS]
    result = {"per_level": per_level}
    result["avg_seen"] = float(np.mean(seen)) if seen else None
    result["avg_unseen"] = float(np.mean(unseen)) if unseen else None
    result["avg_all"] = float(np.mean(list(per_level.values())))
    return result
