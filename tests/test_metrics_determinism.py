"""Metrics files are byte-identical across reruns, excluding the timestamp."""

import json
from pathlib import Path

from cookworld.cli import main
from cookworld.training.metrics import MetricsWriter


def metrics_body(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generated")
    return lines[1:]


def test_rerun_metrics_byte_identical(tmp_path):
    games = tmp_path / "games"
    assert main(["gen", "--levels", "S1", "--train", "2", "--val", "1", "--test", "1",
                 "--seed", "4", "--out", str(games)]) == 0
    cfg = {
        "episodes": 12, "warmup_episodes": 2, "val_freq": 4, "batch_size": 4,
        "update_freq_meta": 20, "update_freq_sub": 20,
        "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["train", "--games", str(games), "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        bodies.append(metrics_body(out / "metrics.csv"))
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) > 12  # header + train rows + validation rows


def test_resume_cuts_rows_after_the_checkpoint_and_an_unfinished_row(tmp_path):
    path = tmp_path / "metrics.csv"
    writer = MetricsWriter(path, ("S1",))
    for episode in (9, 10):
        writer.row(episode, "train", "S1", 0.5, None, 0.25, 0.1, {"S1": 1.0})
    writer.row(10, "val", "all", 0.5, None, None, 0.0)
    writer.close()
    kept = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(b"1")  # a crash while writing episode 11's row
    writer = MetricsWriter(path, ("S1",), resume_from=10)
    writer.close()
    assert path.read_bytes() == kept
    writer = MetricsWriter(path, ("S1",), resume_from=9)
    writer.row(10, "train", "S1", 0.75, None, None, 0.1)
    writer.close()
    lines = path.read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[2:]] == [["9", "train"], ["10", "train"]]
    assert lines[-1].startswith("10,train,S1,0.750000")
