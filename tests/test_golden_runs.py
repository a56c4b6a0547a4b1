"""Golden-run pins: every variant's tiny training run, digested.

Each variant trains a tiny S1+S4 config through `cookworld train`; S4's
goal sets offer several goals, so the meta variants choose among
candidates. The pin
digests the metrics.csv body (everything after the timestamp line), every
array of every checkpoint in latest/ and best/ (name, dtype, shape and
bytes; the .npz container itself carries zip timestamps), and the
run_state.json files. A refactor that must keep behaviour leaves every pin
unchanged; a change that alters numerics on purpose first lists, per
variant, the pins it moves (read-only; exit 1 when any differs), then
regenerates the fixture:

    PYTHONPATH=src python tests/test_golden_runs.py --diff
    PYTHONPATH=src python tests/test_golden_runs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cookworld.cli import main
from cookworld.training.config import VARIANTS

FIXTURE = Path(__file__).parent / "fixtures" / "golden_runs.json"
META_VARIANTS = ("H-KGA", "H-KGA-HalfJoint", "H-KGA-Ind")
CONFIG = {
    "episodes": 8, "warmup_episodes": 1, "val_freq": 4, "batch_size": 4,
    "update_freq_meta": 3, "update_freq_sub": 5, "target_sync_every": 4,
    "tau": 0.5, "r_min": -0.05,  # the meta gate then admits enough spans to train
    "hidden_dim": 8, "ff_dim": 8, "scorer_hidden": 8, "seed": 5,
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _npz_digest(path: Path) -> str:
    with np.load(path) as bundle:
        chunks = []
        for name in sorted(bundle.files):
            arr = bundle[name]
            chunks += [name.encode(), arr.dtype.str.encode(), repr(arr.shape).encode(),
                       np.ascontiguousarray(arr).tobytes()]
    return _sha(chunks)


def _make_games(root: Path) -> Path:
    games = root / "games"
    assert main(["gen", "--levels", "S1,S4", "--train", "3", "--val", "1", "--test", "1",
                 "--seed", "6", "--out", str(games)]) == 0
    return games


def run_digests(games: Path, root: Path, variant: str) -> dict:
    cfg_path = root / f"{variant}.json"
    cfg_path.write_text(json.dumps(dict(CONFIG, variant=variant)))
    out = root / variant
    assert main(["train", "--games", str(games), "--out", str(out),
                 "--config", str(cfg_path)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# generated")
    digests = {"metrics.csv": _sha(line.encode() + b"\n" for line in lines[1:])}
    for sub in ("latest", "best"):
        for path in sorted((out / sub).iterdir()):
            key = f"{sub}/{path.name}"
            if path.suffix == ".npz":
                digests[key] = _npz_digest(path)
            else:
                digests[key] = _sha([path.read_bytes()])
    run_state = json.loads((out / "latest" / "run_state.json").read_text())
    if variant in META_VARIANTS:
        assert run_state["updates_meta"] > 0
    assert run_state["updates_sub"] > 0
    return digests


@pytest.fixture(scope="module")
def golden_games(tmp_path_factory):
    return _make_games(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("variant", VARIANTS)
def test_golden_run_pinned(variant, golden_games, tmp_path):
    expected = json.loads(FIXTURE.read_text())[variant]
    assert run_digests(golden_games, tmp_path, variant) == expected


def changed_pins(expected: dict, pins: dict) -> dict[str, list[str]]:
    """Per variant, the pinned files whose digests differ (or exist on one
    side only)."""
    changed = {}
    for variant in sorted(set(expected) | set(pins)):
        old, new = expected.get(variant, {}), pins.get(variant, {})
        changed[variant] = sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))
    return changed


if __name__ == "__main__":
    import tempfile

    mode = sys.argv[1:]
    if mode not in (["--write"], ["--diff"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_runs.py --write | --diff")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        games = _make_games(root)
        pins = {variant: run_digests(games, root, variant) for variant in VARIANTS}
    if mode == ["--diff"]:
        changed = changed_pins(json.loads(FIXTURE.read_text()), pins)
        for variant, keys in changed.items():
            print(f"{variant}: {', '.join(keys) if keys else 'unchanged'}")
        sys.exit(1 if any(changed.values()) else 0)
    FIXTURE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
