"""Training configuration: defaults, JSON files, and CLI overrides."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

VARIANTS = ("GATA", "GC-GATA", "H-KGA", "H-KGA-HalfJoint", "H-KGA-Ind")


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    variant: str = "H-KGA"
    # ablation switches
    bebold: bool = True
    scheduled_sampling: bool = True
    level_aware_buffer: bool = True
    bebold_count_order: str = "printed"  # or "swapped"

    # reward and gate coefficients
    lambda_count: float = 0.1
    tau: float = 1.0
    gamma: float = 0.9
    r_min: float = 0.0
    r_max: float = 1.0

    # episode budget and cadence
    episodes: int = 5000
    step_limit_train: int = 50
    step_limit_eval: int = 100
    update_freq_meta: int = 50
    update_freq_sub: int = 50
    warmup_episodes: int = 100
    batch_size: int = 64
    val_freq: int = 1000
    patience: int = 3

    # replay
    buffer_capacity_meta: int = 50_000
    buffer_capacity_sub: int = 500_000

    # exploration
    eps_start: float = 1.0
    eps_end: float = 0.1
    eps_anneal_fraction: float = 0.2

    # networks
    hidden_dim: int = 64
    rgcn_layers: int = 2
    ff_dim: int = 128
    scorer_hidden: int = 128
    lr: float = 1e-3
    target_sync_every: int = 500  # online updates between hard target copies

    seed: int = 0
    levels: tuple[str, ...] = ("S1", "S2", "S3", "S4")

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
        if self.bebold_count_order not in ("printed", "swapped"):
            raise ConfigError("bebold_count_order must be 'printed' or 'swapped'")
        if not self.levels:
            raise ConfigError("at least one training level required")
        # a zero count or cadence crashes a run after it starts
        for name in (
            "step_limit_train", "step_limit_eval", "val_freq", "update_freq_meta", "update_freq_sub",
            "target_sync_every", "batch_size", "buffer_capacity_meta", "buffer_capacity_sub",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.lambda_count < 0:
            raise ConfigError(f"lambda_count must be at least 0, got {self.lambda_count}")


def config_from_dict(doc: dict) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kwargs = dict(doc)
    if "levels" in kwargs:
        kwargs["levels"] = tuple(kwargs["levels"])
    cfg = TrainConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> TrainConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: TrainConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
