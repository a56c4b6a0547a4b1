"""Game directories: generation manifests and split-aware loading."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..engine.generate import generate_game
from ..engine.spec import LEVELS, GameSpec, UNSEEN_LEVELS, load_game, save_game
from ..records import load_record, read_record

MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "val", "test-seen", "test-unseen")


@dataclass(frozen=True)
class ManifestEntry:
    file: str  # relative to the game directory
    level: str
    split: str
    seed: int


@dataclass(frozen=True)
class Manifest:
    format_version: int
    master_seed: int
    games: tuple[ManifestEntry, ...]


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
) -> list[ManifestEntry]:
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
                entries.append(ManifestEntry(filename, level, split, seed))
    manifest = asdict(Manifest(1, master_seed, tuple(entries)))
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return entries


def manifest_from_dict(doc) -> Manifest:
    """The manifest a JSON document holds, read by the field types of Manifest."""
    manifest = read_record(Manifest, doc, ValueError)
    for i, entry in enumerate(manifest.games):
        if entry.split not in SPLITS:
            raise ValueError(f"games[{i}].split must be one of {', '.join(SPLITS)}, got {entry.split!r}")
    return manifest


def load_game_dir(path: str | Path) -> dict[str, dict[str, list[GameSpec]]]:
    """manifest -> {split: {level: [GameSpec, ...]}}; a malformed manifest or
    spec file raises ValueError."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    manifest = load_record(manifest_path, manifest_from_dict, ValueError)
    out: dict[str, dict[str, list[GameSpec]]] = {}
    for entry in manifest.games:
        spec = load_game(root / entry.file)
        if spec.level != entry.level:
            raise ValueError(f"{manifest_path} lists {entry.file} as {entry.level}, but it is a {spec.level} game")
        out.setdefault(entry.split, {}).setdefault(entry.level, []).append(spec)
    return out
