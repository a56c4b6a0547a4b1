"""Command-line workflows: generation, replay, train/eval, play, inspect."""

import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cookworld.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_writes_files_and_manifest(tmp_path):
    out = tmp_path / "games"
    assert run_cli("gen", "--levels", "S1,S2", "--train", "3", "--val", "2",
                   "--test", "2", "--seed", "5", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["games"]) == 2 * (3 + 2 + 2)
    for entry in manifest["games"]:
        assert (out / entry["file"]).exists()


def test_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1",
                       "--test", "1", "--seed", "9", "--out", out) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_unseen_levels_marked(tmp_path):
    out = tmp_path / "games"
    assert run_cli("gen", "--levels", "US1,US4", "--train", "3", "--val", "2",
                   "--test", "2", "--seed", "5", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["games"]
    assert all(e["split"] == "test-unseen" for e in manifest["games"])


def test_replay_trace_golden_passes(capsys):
    code = run_cli("replay-trace", "--spec", FIXTURES / "s1_game1.spec.json",
                   "--trace", FIXTURES / "s1_game1.trace.json")
    assert code == 0
    assert "pass" in capsys.readouterr().out
    assert run_cli("replay-trace", "--spec", FIXTURES / "s4_game1.spec.json",
                   "--trace", FIXTURES / "s4_game1.trace.json") == 0


def test_replay_trace_perturbed_reward_fails(tmp_path, capsys):
    rows = json.loads((FIXTURES / "s1_game1.trace.json").read_text())
    rows[2]["reward"] = 0
    bad = tmp_path / "bad.trace.json"
    bad.write_text(json.dumps(rows))
    code = run_cli("replay-trace", "--spec", FIXTURES / "s1_game1.spec.json", "--trace", bad)
    assert code == 1
    assert "step 2" in capsys.readouterr().out


def test_replay_trace_missing_file_is_io_error(tmp_path):
    assert run_cli("replay-trace", "--spec", FIXTURES / "s1_game1.spec.json",
                   "--trace", tmp_path / "nope.json") == 3


@pytest.mark.parametrize("damage", ["trace not UTF-8", "spec not UTF-8", "seed not an integer"])
def test_replay_trace_undecodable_input_is_io_error(damage, tmp_path, capsys):
    spec, trace = FIXTURES / "s1_game1.spec.json", FIXTURES / "s1_game1.trace.json"
    bad = tmp_path / "bad.json"
    if damage == "seed not an integer":
        bad.write_text(json.dumps(dict(json.loads(spec.read_text()), seed="x")))
    else:
        bad.write_bytes(b"\xff\xfe[")
    if damage == "trace not UTF-8":
        trace = bad
    else:
        spec = bad
    assert run_cli("replay-trace", "--spec", spec, "--trace", trace) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err


# (damage to the S1 golden trace's rows, the step the error names)
BAD_TRACES = {
    "not an object": (lambda rows: [1], 0),
    "two-field obs row": (lambda rows: [dict(rows[0], obs=[["player", "kitchen"]])] + rows[1:], 0),
    "unknown relation": (
        lambda rows: [dict(rows[0], obs=rows[0]["obs"] + [["player", "kitchen", "under"]])] + rows[1:],
        0,
    ),
    "non-integer reward": (lambda rows: rows[:3] + [dict(rows[3], reward="x")] + rows[4:], 3),
    "string done flag": (lambda rows: [dict(rows[0], done="false")] + rows[1:], 0),
    "action after the end": (lambda rows: rows[:-1] + [rows[-2], rows[-1]], 8),
    "non-string obs field": (
        lambda rows: [dict(rows[0], obs=rows[0]["obs"] + [[1, "kitchen", "at"]])] + rows[1:],
        0,
    ),
    "admissible not a list": (lambda rows: [dict(rows[0], admissible="go north")] + rows[1:], 0),
    "non-string action": (lambda rows: [dict(rows[0], action=["take"])] + rows[1:], 0),
    "fractional reward": (lambda rows: rows[:2] + [dict(rows[2], reward=1.7)] + rows[3:], 2),
    "boolean reward": (lambda rows: rows[:2] + [dict(rows[2], reward=True)] + rows[3:], 2),
    "string score": (lambda rows: rows[:2] + [dict(rows[2], score="1")] + rows[3:], 2),
    "unknown key": (lambda rows: rows[:1] + [dict(rows[1], note="x")] + rows[2:], 1),
    "action step without done": (lambda rows: rows[:4] + [{k: v for k, v in rows[4].items() if k != "done"}]
                                 + rows[5:], 4),
}


@pytest.mark.parametrize("damage", list(BAD_TRACES))
def test_replay_trace_malformed_trace_is_io_error(damage, s1_trace_rows, tmp_path, capsys):
    edit, bad_step = BAD_TRACES[damage]
    bad = tmp_path / "bad.trace.json"
    bad.write_text(json.dumps(edit(s1_trace_rows)))
    assert run_cli("replay-trace", "--spec", FIXTURES / "s1_game1.spec.json", "--trace", bad) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"step {bad_step}: " in err


def _edit_oven(**fields):
    def edit(doc):
        for obj in doc["objects"]:
            if obj["name"] == "oven":
                obj.update(fields)

    return edit


# (damage to the S1 golden spec, what the error names: the invariant broken,
# or the field that is not of its type)
BAD_SPECS = {
    "wrong max score": (lambda doc: doc.update(max_score=99), "max-score-formula"),
    "number as a name": (_edit_oven(name=7), "objects[4].name must be a string, got 7"),
    "capitalised name": (_edit_oven(name="Oven"), "entity-token"),
    "padded name": (_edit_oven(name=" oven"), "entity-token"),
    "fixture held by the player": (
        _edit_oven(holder="player", holder_relation="in"),
        "fixture-in-room",
    ),
    "ingredient at the cookbook": (
        lambda doc: doc["objects"][7].update(holder="cookbook", holder_relation="at"),
        "holder-is-fixture: cilantro at cookbook",
    ),
    "list as level": (lambda doc: doc.update(level=["S1"]), "level must be a string, got ['S1']"),
    "list as start room": (lambda doc: doc.update(start_room=["kitchen"]),
                           "start_room must be a string, got ['kitchen']"),
    "list as holder": (_edit_oven(holder=["kitchen"]),
                       "objects[4].holder must be a string, got ['kitchen']"),
    "list as ingredient": (lambda doc: doc["recipe"][0].update(ingredient=["cilantro"]),
                           "recipe[0].ingredient must be a string, got ['cilantro']"),
    "string as open flag": (
        lambda doc: doc["doors"].append({"name": "door", "room_a": "kitchen", "direction_from_a": "north",
                                         "room_b": "kitchen", "open": "false"}),
        "doors[0].open must be a boolean, got 'false'",
    ),
    "string as edible flag": (lambda doc: doc["objects"][7].update(edible="no"),
                              "objects[7].edible must be a boolean, got 'no'"),
    "fractional seed": (lambda doc: doc.update(seed=3.9), "seed must be an integer, got 3.9"),
    "boolean seed": (lambda doc: doc.update(seed=True), "seed must be an integer, got True"),
    "string max score": (lambda doc: doc.update(max_score="4"), "max_score must be an integer, got '4'"),
    "boolean format version": (lambda doc: doc.update(format_version=True),
                               "format_version must be an integer, got True"),
    "unknown key": (_edit_oven(colour="white"), "objects[4].colour is not a field"),
    "no doors": (lambda doc: doc.pop("doors"), "the document lacks field doors"),
}


@pytest.mark.parametrize("command", ["play", "replay-trace"])
def test_spec_breaking_an_invariant_is_io_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("builtins.input", lambda prompt="": pytest.fail("play took a command"))
    spec = tmp_path / "broken.spec.json"
    if command == "play":
        argv = ["play", spec]
    else:
        argv = ["replay-trace", "--spec", spec, "--trace", FIXTURES / "s1_game1.trace.json"]
    for damage, (edit, expected) in BAD_SPECS.items():
        doc = json.loads((FIXTURES / "s1_game1.spec.json").read_text())
        edit(doc)
        spec.write_text(json.dumps(doc))
        assert run_cli(*argv) == 3, damage
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"broken.spec.json: {expected}" in err, damage


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--levels", "S1", "--out", "/tmp/x", "--frobnicate")
    assert exc.value.code == 2


def test_train_eval_smoke(tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    assert run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1",
                   "--test", "1", "--seed", "3", "--out", games) == 0
    cfg = {
        "episodes": 6,
        "warmup_episodes": 2,
        "val_freq": 3,
        "batch_size": 4,
        "update_freq_meta": 25,
        "update_freq_sub": 25,
        "hidden_dim": 8,
        "ff_dim": 8,
        "scorer_hidden": 8,
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    capsys.readouterr()
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("# generated")
    assert len([l for l in metrics if ",val," in l]) >= cfg["episodes"] // cfg["val_freq"]
    assert (out / "latest" / "sub.npz").exists()
    assert (out / "latest" / "meta.npz").exists()

    assert run_cli("eval", "--checkpoint", out / "latest", "--games", games,
                   "--split", "seen") == 0
    report = capsys.readouterr().out
    assert "S1" in report and "avg_seen" in report


def test_train_resume_continues_not_duplicating(tmp_path):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg = {
        "episodes": 4, "warmup_episodes": 1, "val_freq": 2, "batch_size": 4,
        "update_freq_meta": 25, "update_freq_sub": 25,
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    rows_before = [
        line for line in (out / "metrics.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("episode,")
    ]
    cfg["episodes"] = 7
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 0
    rows_after = [
        line for line in (out / "metrics.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("episode,")
    ]
    assert rows_after[: len(rows_before)] == rows_before
    train_rows = [r for r in rows_after if ",train," in r]
    episodes = [int(r.split(",")[0]) for r in train_rows]
    assert episodes == sorted(set(episodes))  # no duplicated episode rows
    assert max(episodes) == 7


def test_train_resume_to_fewer_episodes_refused(tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 4, "warmup_episodes": 1, "val_freq": 2, "batch_size": 4,
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    capsys.readouterr()
    kept = {path: path.read_bytes() for path in [out / "config.json", out / "metrics.csv",
                                                 *(out / "latest").iterdir()]}
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--episodes", "2", "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4 episodes" in err and "2 episodes" in err
    assert {path: path.read_bytes() for path in kept} == kept
    assert sorted((out / "latest").iterdir()) == sorted(p for p in kept if p.parent.name == "latest")


def test_train_resume_without_meta_checkpoint_refused(tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 2, "warmup_episodes": 1, "val_freq": 1, "variant": "GC-GATA",
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    capsys.readouterr()
    # the run's config.json names another variant
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--variant", "H-KGA", "--resume") == 2
    assert "variant ('GC-GATA' -> 'H-KGA')" in capsys.readouterr().err
    # without a config.json to compare: GC-GATA's sub net fits H-KGA's, but
    # its run has no meta.npz to resume
    (out / "config.json").unlink()
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--variant", "H-KGA", "--resume") == 2
    assert "meta.npz" in capsys.readouterr().err


def test_train_resume_refuses_a_mismatched_update_count(tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 3, "warmup_episodes": 1, "val_freq": 3, "batch_size": 4,
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    capsys.readouterr()
    # as a crash between writing sub.npz and run_state.json leaves it
    state_path = out / "latest" / "run_state.json"
    run_state = json.loads(state_path.read_text())
    run_state["updates_sub"] += 1
    state_path.write_text(json.dumps(run_state))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sub.npz" in err


def _edit_meta(edit):
    def damage(path):
        with np.load(path) as bundle:
            arrays = dict(bundle)
        meta = json.loads(bytes(arrays["meta"]).decode())
        arrays["meta"] = np.frombuffer(json.dumps(edit(meta)).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    return damage


BAD_CHECKPOINT_META = {
    "meta without seed": lambda meta: {k: v for k, v in meta.items() if k != "seed"},
    "unknown config key": lambda meta: dict(meta, config=dict(meta["config"], depth=3)),
    "meta a list": lambda meta: [meta],
    "version 1": lambda meta: dict(meta, checkpoint_version=1),
    "hidden_dim a string": lambda meta: dict(meta, config=dict(meta["config"], hidden_dim="8")),
    "hidden_dim a float": lambda meta: dict(meta, config=dict(meta["config"], hidden_dim=8.0)),
    "ff_dim a bool": lambda meta: dict(meta, config=dict(meta["config"], ff_dim=True)),
    "rgcn_layers negative": lambda meta: dict(meta, config=dict(meta["config"], rgcn_layers=-1)),
    "ff_dim zero": lambda meta: dict(meta, config=dict(meta["config"], ff_dim=0)),
    "scorer_hidden zero": lambda meta: dict(meta, config=dict(meta["config"], scorer_hidden=0)),
    "state_parts three": lambda meta: dict(meta, config=dict(meta["config"], state_parts=3)),
    # a valid config whose net is smaller than the saved vector
    "one R-GCN layer fewer": lambda meta: dict(meta, config=dict(meta["config"], rgcn_layers=1)),
    "seed a string": lambda meta: dict(meta, seed="x"),
    "seed a float": lambda meta: dict(meta, seed=1.5),
    "seed a bool": lambda meta: dict(meta, seed=True),
    "seed null": lambda meta: dict(meta, seed=None),
    "seed negative": lambda meta: dict(meta, seed=-3),
    "vocab_tokens a string": lambda meta: dict(meta, vocab_tokens="abc"),
    "vocab_tokens null": lambda meta: dict(meta, vocab_tokens=None),
}


@pytest.mark.parametrize("damage", list(BAD_CHECKPOINT_META))
def test_malformed_checkpoint_metadata_is_refused(damage, tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 1, "warmup_episodes": 1, "val_freq": 1, "variant": "GATA",
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    _edit_meta(BAD_CHECKPOINT_META[damage])(out / "latest" / "sub.npz")
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", out / "latest", "--games", games) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sub.npz" in err
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sub.npz" in err


def test_train_resume_refuses_a_checkpoint_without_an_adam_moment(tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 1, "warmup_episodes": 1, "val_freq": 1, "variant": "GATA",
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    path = out / "latest" / "sub.npz"
    with np.load(path) as bundle:
        arrays = dict(bundle)
    del arrays["adam.m"]
    np.savez(path, **arrays)
    capsys.readouterr()
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sub.npz" in err and "adam.m" in err


def _without_field(*keys):
    def edit(doc):
        inner = doc
        for key in keys[:-1]:
            inner = inner[key]
        del inner[keys[-1]]
        return json.dumps(doc)

    return edit


BAD_RUN_STATES = {
    "without k": ("k", _without_field("k")),
    "without rng.sub": ("rng.sub", _without_field("rng", "sub")),
    "a JSON list": ("episode", lambda doc: json.dumps([doc])),
    "truncated": ("invalid JSON", lambda doc: json.dumps(doc)[:40]),
    "k a string": ("k", lambda doc: json.dumps(dict(doc, k="7"))),
    "rng.sub not a state": ("rng.sub", lambda doc: json.dumps(dict(doc, rng=dict(doc["rng"], sub={})))),
    "episode negative": ("episode", lambda doc: json.dumps(dict(doc, episode=-3))),
    "k negative": ("k", lambda doc: json.dumps(dict(doc, k=-7))),
    "patience_count negative": ("patience_count", lambda doc: json.dumps(dict(doc, patience_count=-2))),
    "updates_sub negative": ("updates_sub", lambda doc: json.dumps(dict(doc, updates_sub=-1))),
    "best_val NaN": ("best_val", lambda doc: json.dumps(dict(doc, best_val=float("nan")))),
    "scheduler history infinite": ("scheduler_history.", lambda doc: json.dumps(dict(
        doc, scheduler_history={level: [float("inf")] for level in doc["scheduler_history"]}))),
    "without a level's scheduler history": ("scheduler_history", _without_field("scheduler_history", "S1")),
    "unknown key": ("extra", lambda doc: json.dumps(dict(doc, extra=1))),
}


@pytest.mark.parametrize("case", list(BAD_RUN_STATES))
def test_train_resume_refuses_a_malformed_run_state(case, tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 1, "warmup_episodes": 1, "val_freq": 1, "variant": "GATA",
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    field, edit = BAD_RUN_STATES[case]
    state_path = out / "latest" / "run_state.json"
    state_path.write_text(edit(json.loads(state_path.read_text())))
    metrics = (out / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run_state.json" in err and field in err
    assert (out / "metrics.csv").read_bytes() == metrics


@pytest.mark.parametrize("ending", ["finished", "failed"])
def test_train_closes_metrics_csv(ending, tmp_path, monkeypatch, capsys):
    games = tmp_path / "games"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "episodes": 1, "warmup_episodes": 1, "val_freq": 1, "variant": "GATA",
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }))
    if ending == "failed":
        def run(self, progress=False):
            raise OSError("no space left on device")

        monkeypatch.setattr("cookworld.training.loop.Trainer.run", run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = run_cli("train", "--games", games, "--out", tmp_path / "r", "--config", cfg_path)
        gc.collect()  # an unclosed file warns as it is collected
    assert code == (0 if ending == "finished" else 3)
    assert not [w for w in caught if "metrics.csv" in str(w.message)]


def test_train_resume_refuses_a_changed_config(tmp_path, capsys):
    games = tmp_path / "games"
    out = tmp_path / "run"
    run_cli("gen", "--levels", "S1", "--train", "2", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    cfg = {
        "episodes": 2, "warmup_episodes": 1, "val_freq": 1, "batch_size": 4,
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path) == 0
    capsys.readouterr()
    saved = {name: (out / name).read_bytes() for name in ("config.json", "metrics.csv")}

    cfg_path.write_text(json.dumps(dict(cfg, lr=0.002, episodes=3)))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lr (0.001 -> 0.002)" in err and "episodes (" not in err
    # a command-line override is a change too
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--seed", "2", "--resume") == 2
    assert "seed (1 -> 2)" in capsys.readouterr().err
    assert saved == {name: (out / name).read_bytes() for name in saved}

    # a longer run of the same config resumes
    cfg_path.write_text(json.dumps(dict(cfg, episodes=3)))
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--resume") == 0
    assert json.loads((out / "config.json").read_text())["episodes"] == 3
    train_rows = [line for line in (out / "metrics.csv").read_text().splitlines() if ",train," in line]
    assert [int(line.split(",")[0]) for line in train_rows] == [1, 2, 3]


def test_train_invalid_variant_exit_code(tmp_path, capsys):
    games = tmp_path / "games"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    code = run_cli("train", "--games", games, "--out", tmp_path / "r",
                   "--variant", "MEGA-KGA")
    assert code == 2
    assert "GC-GATA" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"val_freq": 0}, {"update_freq_meta": 0}, {"update_freq_sub": 0}, {"target_sync_every": 0},
    {"batch_size": 0}, {"buffer_capacity_meta": 0}, {"buffer_capacity_sub": 0},
    {"lambda_count": -1}, {"hidden_dim": 0},
    {"grad_clip": 5.0},  # a field that no longer exists, as in an older config.json
    {"episodes": "2"}, {"hidden_dim": 2.5}, {"bebold": "no"}, {"lr": True},
    {"rgcn_layers": -1}, {"ff_dim": 0}, {"scorer_hidden": 0},
    {"episodes": 0}, {"episodes": -3}, {"warmup_episodes": -1}, {"patience": -2},
    [], None, 5,  # a document that is not an object
    {"seed": -1},
    {"lr": float("nan")}, {"lr": float("inf")}, {"tau": float("-inf")},  # json.dumps writes these
])
def test_train_bad_config_is_usage_error(doc, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = run_cli("train", "--games", tmp_path / "games", "--out", tmp_path / "r",
                   "--config", cfg_path)
    assert code == 2
    err = capsys.readouterr().err
    named = next(iter(doc)) if isinstance(doc, dict) else "the document must be an object"
    assert err.startswith("error: ") and named in err


def test_train_config_not_utf8_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"episodes": "\xff"}')
    code = run_cli("train", "--games", tmp_path / "games", "--out", tmp_path / "r",
                   "--config", cfg_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and "cfg.json" in err


def test_train_episodes_flag_below_one_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli("train", "--games", tmp_path / "games", "--out", out, "--episodes", "-3") == 2
    assert "episodes must be at least 1, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_train_seed_flag_below_zero_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli("train", "--games", tmp_path / "games", "--out", out, "--seed", "-1") == 2
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_train_out_that_cannot_be_a_run_directory_is_io_error(where, tmp_path, capsys):
    games = tmp_path / "games"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "a file" else blocker / "run"
    capsys.readouterr()
    assert run_cli("train", "--games", games, "--out", out, "--episodes", "1") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_eval_walkthrough_oracle_all_ones(tmp_path, capsys):
    games = tmp_path / "games"
    run_cli("gen", "--levels", "S1,US1", "--train", "1", "--val", "1", "--test", "2",
            "--seed", "3", "--out", games)
    pseudo = tmp_path / "oracle.json"
    pseudo.write_text(json.dumps({"kind": "walkthrough_oracle"}))
    assert run_cli("eval", "--checkpoint", pseudo, "--games", games, "--split", "all",
                   "--out", tmp_path / "report.csv") == 0
    report = (tmp_path / "report.csv").read_text()
    assert "S1,1.0000" in report
    assert "US1,1.0000" in report
    assert "avg_all,1.0000" in report
    lines = [l for l in report.splitlines() if l and not l.startswith("level")]
    assert len(lines) == 2 + 3  # two levels + three aggregates


@pytest.mark.parametrize("body", ["[1]", "null", '"walkthrough_oracle"', "{", '{"kind": "oracle"}',
                                  '{"kind": "walkthrough_oracle", "note": "x"}'])
def test_eval_malformed_pseudo_checkpoint_is_io_error(body, tmp_path, capsys):
    games = tmp_path / "games"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    pseudo = tmp_path / "oracle.json"
    pseudo.write_text(body)
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", pseudo, "--games", games) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "oracle.json" in err


# (damage to a manifest's first entry, the field the error names)
BAD_ENTRIES = {
    "number as file": ({"file": 3}, "games[0].file must be a string, got 3"),
    "list as split": ({"split": ["train"]}, "games[0].split must be a string, got ['train']"),
    "unknown split": ({"split": "training"},
                      "games[0].split must be one of train, val, test-seen, test-unseen, got 'training'"),
}


@pytest.mark.parametrize("damage", ["malformed spec", "manifest without games", "level mismatch",
                                    *BAD_ENTRIES])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_game_dir_is_io_error(command, damage, tmp_path, capsys):
    games = tmp_path / "games"
    run_cli("gen", "--levels", "S1", "--train", "1", "--val", "1", "--test", "1",
            "--seed", "3", "--out", games)
    manifest = json.loads((games / "manifest.json").read_text())
    if damage == "malformed spec":
        (games / "S1_test-seen_000.json").write_text("{")
        (games / "S1_train_000.json").write_text("{")
    elif damage == "manifest without games":
        (games / "manifest.json").write_text(json.dumps({"format_version": 1}))
    elif damage == "level mismatch":
        for entry in manifest["games"]:
            entry["level"] = "S2"
        (games / "manifest.json").write_text(json.dumps(manifest))
    else:
        manifest["games"][0].update(BAD_ENTRIES[damage][0])
        (games / "manifest.json").write_text(json.dumps(manifest))
    pseudo = tmp_path / "oracle.json"
    pseudo.write_text(json.dumps({"kind": "walkthrough_oracle"}))
    if command == "train":
        argv = ["train", "--games", games, "--out", tmp_path / "r"]
    else:
        argv = ["eval", "--checkpoint", pseudo, "--games", games]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load games: ")
    if damage == "malformed spec":
        assert "S1_train_000.json: invalid JSON" in err  # the first broken file
    else:
        assert "manifest.json" in err
    if damage in BAD_ENTRIES:
        assert f"manifest.json: {BAD_ENTRIES[damage][1]}" in err


def test_play_session_transcript_replays(tmp_path, monkeypatch, capsys, s1_spec):
    from cookworld.engine.state import admissible_actions, reset
    from cookworld.engine.walkthrough import walkthrough

    actions = walkthrough(s1_spec)
    state, _ = reset(s1_spec)
    picks = []
    from cookworld.engine.state import step as engine_step

    cursor_state = state
    for action in actions:
        admissible = admissible_actions(cursor_state)
        picks.append(str(admissible.index(action)))
        cursor_state, _, _, _ = engine_step(cursor_state, action)

    feeds = iter(picks + ["bogus"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feeds))
    transcript = tmp_path / "session.trace.json"
    code = run_cli("play", FIXTURES / "s1_game1.spec.json", "--step-limit", "50",
                   "--transcript", transcript)
    assert code == 0
    out = capsys.readouterr().out
    assert "final score 4/4" in out
    assert run_cli("replay-trace", "--spec", FIXTURES / "s1_game1.spec.json",
                   "--trace", transcript, "--step-limit", "50") == 0


def test_play_out_of_range_reprompts(monkeypatch, capsys):
    feeds = iter(["99", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feeds))
    assert run_cli("play", FIXTURES / "s1_game1.spec.json") == 0
    assert "pick a number" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ("play", FIXTURES / "s1_game1.spec.json"),
    ("eval", "--checkpoint", "ckpt", "--games", "games"),
    ("replay-trace", "--spec", FIXTURES / "s1_game1.spec.json",
     "--trace", FIXTURES / "s1_game1.trace.json"),
])
def test_step_limit_below_one_is_usage_error(command, monkeypatch, capsys):
    monkeypatch.setattr("builtins.input", lambda prompt="": pytest.fail("play took a command"))
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--step-limit", "0")
    assert exc.value.code == 2
    assert "--step-limit: must be at least 1, got 0" in capsys.readouterr().err


def test_inspect_spec(capsys):
    assert run_cli("inspect", FIXTURES / "s4_game1.spec.json") == 0
    out = capsys.readouterr().out
    assert "kitchen" in out and "red apple" in out


def test_inspect_checkpoint(tmp_path, capsys):
    from cookworld.engine.vocab import default_vocabulary
    from cookworld.neural.nets import PolicyNet, save_checkpoint

    net = PolicyNet(default_vocabulary(), hidden_dim=8, ff_dim=8, scorer_hidden=8, seed=0)
    save_checkpoint(net, tmp_path / "net.npz")
    assert run_cli("inspect", tmp_path / "net.npz") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == f"total parameters: {net.flat.size}"
    assert "scorer.w1" in out
    # a file whose vector's length disagrees with its config
    _edit_meta(lambda meta: dict(meta, config=dict(meta["config"], ff_dim=16)))(tmp_path / "net.npz")
    assert run_cli("inspect", tmp_path / "net.npz") == 3
    assert "param" in capsys.readouterr().err


def test_inspect_trace(capsys):
    assert run_cli("inspect", FIXTURES / "s1_game1.trace.json") == 0
    out = capsys.readouterr().out
    assert "8 action steps" in out


@pytest.mark.parametrize("damage", ["manifest with an unknown split", "trace with a string score"])
def test_inspect_refuses_what_train_and_replay_refuse(damage, s1_trace_rows, tmp_path, capsys):
    if damage.startswith("manifest"):
        run_cli("gen", "--levels", "S1", "--train", "1", "--val", "0", "--test", "0",
                "--seed", "3", "--out", tmp_path / "games")
        bad = tmp_path / "games" / "manifest.json"
        manifest = json.loads(bad.read_text())
        manifest["games"][0]["split"] = "training"
        bad.write_text(json.dumps(manifest))
    else:
        bad = tmp_path / "bad.trace.json"
        bad.write_text(json.dumps(s1_trace_rows[:2] + [dict(s1_trace_rows[2], score="1")] + s1_trace_rows[3:]))
    capsys.readouterr()
    assert run_cli("inspect", bad) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad.name in err


def test_inspect_truncated_file(tmp_path, capsys):
    bad = tmp_path / "broken.npz"
    bad.write_bytes(b"PK\x03\x04 not actually a checkpoint")
    assert run_cli("inspect", bad) == 3
    assert "corrupt" in capsys.readouterr().err


def test_inspect_missing_file(tmp_path):
    assert run_cli("inspect", tmp_path / "ghost.json") == 3
