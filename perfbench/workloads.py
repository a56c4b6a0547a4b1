"""The three benchmark workloads.

Each workload generates its games from the workload seed into a scratch
directory, loads them as a CLI user would, and then runs iterations of its
closed loop: one training episode (with any validation or checkpoint it
triggers), one collection episode, or one evaluation pass. An iteration
returns the episodes it finished as (seconds, env steps, output ok).

Why these three:
- train-hkga: H-KGA training at the determinism criterion's update cadence,
  the learner-bound path (td_update is about 90% of wall time);
- collect-random: the same games and Trainer with a random policy and a
  warmup covering the whole run, so the engine, kg, goals, counts and
  replay do all the work and no update or Q-network inference runs;
- eval-greedy: greedy H-KGA rollouts over seen and unseen levels from
  seeded checkpoints, forward-only inference served by the per-net caches.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

SEEN = ("S1", "S2", "S3", "S4")
UNSEEN = ("US1", "US2", "US3", "US4")

# The determinism criterion's update cadence (tests/test_acceptance.py), with
# three changes for a 30-second run (see METRICS.md): a short warmup, so that
# the timed episodes are the learner's; the desk episode budget
# (configs/desk.json), whose slow exploration schedule keeps them alike; and
# validation every 15 episodes, so that a run validates and checkpoints twice.
HKGA_CADENCE = dict(
    episodes=5000,
    warmup_episodes=4,
    val_freq=15,
    update_freq_sub=10,
    update_freq_meta=50,
    batch_size=64,
    tau=0.5,
    r_min=-0.05,
    target_sync_every=150,
)
# The workload seed makes the games; the learner's own seed and the eval
# checkpoints' seeds are fixed, as in the determinism criterion, so that runs
# differ only in their inputs.
TRAINER_SEED = 2
EVAL_STEP_LIMIT = 100
EVAL_CHECKPOINTS = 4


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _generate_and_load(work_dir: Path, levels, counts: dict, seed: int) -> dict:
    from cookworld.training import gamesets

    games = work_dir / "games"
    gamesets.generate_game_dir(games, list(levels), counts, seed)
    return gamesets.load_game_dir(games)


class TrainHKGA:
    name = "train-hkga"

    def setup(self, work_dir: Path, seed: int) -> None:
        from cookworld.training.config import TrainConfig
        from cookworld.training.loop import Trainer

        splits = _generate_and_load(work_dir, SEEN, {"train": 10, "val": 5}, seed)
        cfg = TrainConfig(variant="H-KGA", levels=SEEN, seed=TRAINER_SEED, **HKGA_CADENCE)
        self.run_dir = work_dir / "run"
        self.trainer = Trainer(cfg, splits["train"], splits["val"], out_dir=self.run_dir)
        self.bad_episodes: set[int] = set()
        self.validations = 0
        self.checkpoints = 0

    def iterate(self) -> list[tuple[float, int, bool]]:
        # one iteration of Trainer.run's loop
        tr = self.trainer
        k0 = tr.k
        t0 = perf_counter()
        record = tr.run_episode()
        if tr.val_games and tr.episode % tr.cfg.val_freq == 0:
            tr.validate()
            self.validations += 1
        if tr.episode % max(1, tr.cfg.val_freq) == 0:
            tr.save_latest()
            self.checkpoints += 1
        seconds = perf_counter() - t0
        ok = 0 <= record.score <= record.max_score and record.steps >= 1
        if not ok:
            self.bad_episodes.add(record.episode)
        return [(seconds, tr.k - k0, ok)]

    def finish(self) -> dict:
        """Check metrics.csv: one train row per episode, every loss finite."""
        tr = self.trainer
        flagged = len(self.bad_episodes)
        tr.metrics.close()
        lines = (self.run_dir / "metrics.csv").read_text().splitlines()
        if not lines or not lines[0].startswith("# generated"):
            raise RuntimeError("metrics.csv lacks its timestamp header")
        body = lines[1:]
        header = body[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in body[1:]]
        train_rows: dict[int, int] = {}
        for row in rows:
            if row["split"] != "train":
                continue
            episode = int(row["episode"])
            train_rows[episode] = train_rows.get(episode, 0) + 1
            for key in ("loss_meta", "loss_sub"):
                if row[key] and not math.isfinite(float(row[key])):
                    self.bad_episodes.add(episode)
        for episode in range(1, tr.episode + 1):
            if train_rows.get(episode) != 1:
                self.bad_episodes.add(episode)
        self.bad_episodes |= {e for e in train_rows if not 1 <= e <= tr.episode}
        return {
            # failures found here that iterate() did not already report
            "failed_checks": len(self.bad_episodes) - flagged,
            "digest": _digest(body),
            "work": {
                "episodes": tr.episode,
                "steps": tr.k,
                "updates_sub": tr.updates_sub,
                "updates_meta": tr.updates_meta,
                "validations": self.validations,
                "checkpoints": self.checkpoints,
                "passes": 0,
            },
        }

    def replay_size(self) -> int:
        return len(self.trainer.sub_buffer) + len(self.trainer.meta_buffer)


class CollectRandom:
    name = "collect-random"

    def setup(self, work_dir: Path, seed: int) -> None:
        from cookworld.training.config import TrainConfig
        from cookworld.training.loop import Trainer

        splits = _generate_and_load(work_dir, SEEN, {"train": 10, "val": 5}, seed)
        endless = 10**9  # warmup covers the whole run: no update ever runs
        cadence = dict(HKGA_CADENCE, episodes=endless, warmup_episodes=endless)
        cfg = TrainConfig(
            variant="H-KGA", levels=SEEN, seed=TRAINER_SEED, eps_start=1.0, eps_end=1.0,
            # small enough to fill in the first seconds, so that peak RSS
            # measures memory per transition, not how many fit in the run
            buffer_capacity_sub=10_000, buffer_capacity_meta=1_000,
            **cadence,
        )
        self.trainer = Trainer(cfg, splits["train"])
        self.rows: list[str] = []

    def iterate(self) -> list[tuple[float, int, bool]]:
        tr = self.trainer
        k0 = tr.k
        t0 = perf_counter()
        record = tr.run_episode()
        seconds = perf_counter() - t0
        ok = 0 <= record.score <= record.max_score and record.steps == tr.k - k0
        self.rows.append(
            f"{record.level},{record.game_index},{record.steps},{record.score},"
            f"{int(record.meta_accepted)},{int(record.sub_accepted)}"
        )
        return [(seconds, tr.k - k0, ok)]

    def finish(self) -> dict:
        tr = self.trainer
        return {
            "failed_checks": 0,
            "digest": _digest(self.rows),
            "work": {
                "episodes": tr.episode,
                "steps": tr.k,
                "updates_sub": tr.updates_sub,
                "updates_meta": tr.updates_meta,
                "validations": 0,
                "checkpoints": 0,
                "passes": 0,
            },
        }

    def replay_size(self) -> int:
        return len(self.trainer.sub_buffer) + len(self.trainer.meta_buffer)


class EvalGreedy:
    name = "eval-greedy"

    def setup(self, work_dir: Path, seed: int) -> None:
        from cookworld.engine.vocab import default_vocabulary
        from cookworld.neural import nets
        from cookworld.training import agents

        splits = _generate_and_load(
            work_dir, SEEN + UNSEEN, {"test-seen": 5, "test-unseen": 5}, seed
        )
        self.games = {**splits["test-seen"], **splits["test-unseen"]}
        self.vocab = default_vocabulary()
        # seeded, untrained H-KGA policies saved as `cookworld train` saves them
        self.checkpoints = []
        for i in range(EVAL_CHECKPOINTS):
            ckpt = work_dir / f"ckpt{i}"
            entropy = np.random.SeedSequence(entropy=(TRAINER_SEED, i)).generate_state(2)
            sub = nets.PolicyNet(self.vocab, state_parts=2, seed=int(entropy[0]))
            meta = nets.PolicyNet(self.vocab, state_parts=1, seed=int(entropy[1]))
            nets.save_checkpoint(sub, ckpt / "sub.npz")
            nets.save_checkpoint(meta, ckpt / "meta.npz")
            self.checkpoints.append(ckpt)
        self.passes = 0
        self.agent_factory = self._load(self.checkpoints[0])

        # time each rollout where evaluate_agent's rollouts run
        self.rollouts: list[tuple[float, int, int, int]] = []  # seconds, score, steps, max
        rollout = agents.rollout

        def timed_rollout(agent, spec, step_limit):
            t0 = perf_counter()
            score, steps = rollout(agent, spec, step_limit)
            self.rollouts.append((perf_counter() - t0, score, steps, spec.max_score))
            return score, steps

        agents.rollout = timed_rollout
        self.results: list[str] = []

    def _load(self, ckpt: Path):
        # as `cookworld eval --checkpoint <dir>` loads an H-KGA checkpoint
        from cookworld.neural import nets
        from cookworld.training.agents import HierarchicalAgent

        sub, _ = nets.load_checkpoint(ckpt / "sub.npz", self.vocab)
        meta, _ = nets.load_checkpoint(ckpt / "meta.npz", self.vocab)
        return lambda level, index: HierarchicalAgent(sub, meta)

    def iterate(self) -> list[tuple[float, int, bool]]:
        """One pass: one checkpoint, every test game of every level."""
        from cookworld.training import loop

        if self.passes > 0:
            self.agent_factory = self._load(self.checkpoints[self.passes % len(self.checkpoints)])
        self.passes += 1
        first = len(self.rollouts)
        result = loop.evaluate_agent(self.agent_factory, self.games, step_limit=EVAL_STEP_LIMIT)
        values = list(result["per_level"].values()) + [result["avg_seen"], result["avg_unseen"], result["avg_all"]]
        pass_ok = len(result["per_level"]) == len(self.games) and all(0.0 <= v <= 1.0 for v in values)
        self.results.append(json.dumps(result, sort_keys=True))
        out = []
        for seconds, score, steps, max_score in self.rollouts[first:]:
            ok = pass_ok and 0 <= score <= max_score and 1 <= steps <= EVAL_STEP_LIMIT
            out.append((seconds, steps, ok))
            self.results.append(f"{score},{steps}")
        return out

    def finish(self) -> dict:
        return {
            "failed_checks": 0,
            "digest": _digest(self.results),
            "work": {
                "episodes": len(self.rollouts),
                "steps": sum(r[2] for r in self.rollouts),
                "updates_sub": 0,
                "updates_meta": 0,
                "validations": 0,
                "checkpoints": 0,
                "passes": self.passes,
            },
        }

    def replay_size(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (TrainHKGA, CollectRandom, EvalGreedy)}
