"""The benchmark's tracer still sees the training loop's calls.

perfbench/tracing.py measures the program by wrapping the names callers bind
(`cookworld.training.loop.td_update`, `...loop.gated_flush`, and so on). A
refactor that calls around those names would leave the benchmark's per-layer
metrics silently reading zero, so this test traces a tiny H-KGA run and
checks that every hook fired. It runs in a subprocess because installing the
tracer patches the cookworld modules for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

tracer = Tracer()
tracer.install()

from cookworld.engine.generate import generate_game
from cookworld.training.config import TrainConfig
from cookworld.training.loop import Trainer

games = {"S1": [generate_game("S1", s) for s in range(3)]}
val = {"S1": [generate_game("S1", 50)]}
cfg = TrainConfig(
    levels=("S1",), episodes=6, warmup_episodes=0, update_freq_meta=3, update_freq_sub=5,
    batch_size=4, tau=0.5, r_min=-0.05, hidden_dim=8, ff_dim=8, scorer_hidden=8, seed=5,
)
tr = Trainer(cfg, games, val, out_dir=sys.argv[2])
for _ in range(6):
    tr.run_episode()
tr.validate()
tr.save_latest()
# a second validation on cold caches, so that every item it scores is encoded
for learner in tr.learners:
    learner.online.bump_version()
tr.validate()
names = [tracer.names[i] for i in tracer.name_id]
counts = collections.Counter(names)
# resuming loads each learner's checkpoint from latest/
resumed = Trainer(cfg, games, val, out_dir=sys.argv[2], resume=True)
loads = collections.Counter(tracer.names[i] for i in tracer.name_id[len(names):])
# the span around each encoder pass, by the encoder's name
parents = collections.Counter(
    name + " < " + (names[p] if p >= 0 else "-")
    for name, p in zip(names, tracer.parent)
    if name in ("neural.nets.graph_tensor", "neural.nets.text_tensor")
)
# the target net's scoring of each next state inside an update
target_passes = sum(
    1 for name, p in zip(names, tracer.parent)
    if name == "neural.nets.q_values" and p >= 0 and names[p] == "rl.dqn.td_update"
)
print(json.dumps({"spans": counts, "encoder_parents": parents, "val_games": len(val["S1"]),
                  "target_passes": target_passes,
                  "updates_meta": tr.updates_meta, "updates_sub": tr.updates_sub,
                  "resume_spans": loads, "learners": len(resumed.learners),
                  "resumed_updates": [resumed.updates_meta, resumed.updates_sub]}))
"""


def test_tracer_hooks_fire_on_training(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = result["spans"]
    assert result["updates_meta"] > 0 and result["updates_sub"] > 0
    # every update of either level goes through the hooked td_update
    assert spans["rl.dqn.td_update"] == result["updates_meta"] + result["updates_sub"]
    # and makes one Adam step through the hooked apply_update
    assert spans["neural.optim.apply_update"] == result["updates_meta"] + result["updates_sub"]
    # nothing is loaded until a second Trainer resumes the run, which loads
    # each learner's checkpoint once through the hooked load_checkpoint
    assert "neural.nets.load_checkpoint" not in spans
    assert result["resume_spans"]["neural.nets.load_checkpoint"] == result["learners"] == 2
    assert result["resumed_updates"] == [result["updates_meta"], result["updates_sub"]]
    # the first validation writes best/, save_latest writes latest/, and the
    # second, no worse than the first, writes best/ again: sub and meta each
    assert spans["neural.nets.save_checkpoint"] == 6
    assert spans["training.validate"] == 2
    # each validation rolls out every game through agents.rollout, the name
    # that the eval-greedy workload replaces to time its rollouts
    assert spans["training.rollout"] == 2 * result["val_games"]
    # acting and validation score through the hooked q_values; each encoder
    # pass outside an update is a cache miss under graph_vector or
    # text_vector, so the benchmark's hit ratios stay computable
    assert spans["neural.nets.q_values"] > 0
    # the Double DQN target pass scores each next state through the same
    # hooked q_values, under the update, so rl.dqn.target_pass reads it
    assert result["target_passes"] > 0
    parents = result["encoder_parents"]
    assert parents["neural.nets.graph_tensor < neural.nets.graph_vector"] > 0
    assert parents["neural.nets.text_tensor < neural.nets.text_vector"] > 0
    assert set(parents) <= {
        "neural.nets.graph_tensor < neural.nets.graph_vector",
        "neural.nets.text_tensor < neural.nets.text_vector",
        "neural.nets.graph_tensor < rl.dqn.td_update",
        "neural.nets.text_tensor < rl.dqn.td_update",
    }, parents
    for name in ("rl.replay.gated_flush", "engine.step"):
        assert spans.get(name, 0) > 0, name
    # a reset renders its graph from nothing, through the hooked
    # state.observation and the checked KGObservation constructor; a step
    # takes its graph from step itself, spliced or served by its episode's
    # memo, and builds no checked KGObservation
    assert spans["engine.observation"] == spans["engine.reset"] == spans["kg.KGObservation"]
