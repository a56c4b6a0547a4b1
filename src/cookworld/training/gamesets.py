"""Game directories: generation manifests and split-aware loading."""

from __future__ import annotations

import json
from pathlib import Path

from ..engine.generate import generate_game
from ..engine.spec import LEVELS, GameSpec, UNSEEN_LEVELS, load_game, save_game

MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "val", "test-seen", "test-unseen")


def split_seed(master_seed: int, split: str, level: str, index: int) -> int:
    # distinct deterministic seed per (split, level, index)
    return hash_seed(master_seed, SPLITS.index(split), LEVELS.index(level), index)


def hash_seed(*parts: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(entropy=tuple(parts)).generate_state(1)[0])


def generate_game_dir(
    out_dir: str | Path,
    levels: list[str],
    counts: dict[str, int],
    master_seed: int,
) -> list[dict]:
    """Write one spec file per game plus a manifest describing the split."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for level in levels:
        unseen = level in UNSEEN_LEVELS
        for split, count in counts.items():
            if count <= 0:
                continue
            if unseen and split != "test-unseen":
                continue
            if not unseen and split == "test-unseen":
                continue
            for index in range(count):
                seed = split_seed(master_seed, split, level, index)
                spec = generate_game(level, seed)
                filename = f"{level}_{split}_{index:03d}.json"
                save_game(spec, out / filename)
                entries.append(
                    {"file": filename, "level": level, "split": split, "seed": seed}
                )
    manifest = {"format_version": 1, "master_seed": master_seed, "games": entries}
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return entries


def load_game_dir(path: str | Path) -> dict[str, dict[str, list[GameSpec]]]:
    """manifest -> {split: {level: [GameSpec, ...]}}"""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {root}")
    manifest = json.loads(manifest_path.read_text())
    out: dict[str, dict[str, list[GameSpec]]] = {}
    for entry in manifest["games"]:
        spec = load_game(root / entry["file"])
        out.setdefault(entry["split"], {}).setdefault(entry["level"], []).append(spec)
    return out
