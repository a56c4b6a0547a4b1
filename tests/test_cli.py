"""Command-line workflows: generation, replay, train/eval, play, inspect."""

import json
from pathlib import Path

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
    # GC-GATA's sub net fits H-KGA's, but its run has no meta.npz to resume
    assert run_cli("train", "--games", games, "--out", out, "--config", cfg_path,
                   "--variant", "H-KGA", "--resume") == 2
    assert "meta.npz" in capsys.readouterr().err


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
    {"lambda_count": -1},
    {"grad_clip": 5.0},  # a field that no longer exists, as in an older config.json
])
def test_train_bad_config_is_usage_error(doc, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = run_cli("train", "--games", tmp_path / "games", "--out", tmp_path / "r",
                   "--config", cfg_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(doc)) in err


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
    assert "total parameters" in capsys.readouterr().out


def test_inspect_trace(capsys):
    assert run_cli("inspect", FIXTURES / "s1_game1.trace.json") == 0
    out = capsys.readouterr().out
    assert "8 action steps" in out


def test_inspect_truncated_file(tmp_path, capsys):
    bad = tmp_path / "broken.npz"
    bad.write_bytes(b"PK\x03\x04 not actually a checkpoint")
    assert run_cli("inspect", bad) == 3
    assert "corrupt" in capsys.readouterr().err


def test_inspect_missing_file(tmp_path):
    assert run_cli("inspect", tmp_path / "ghost.json") == 3
