from .config import TrainConfig, load_config, save_config
from .loop import EpisodeRecord, Trainer, evaluate_agent
from .scheduler import LevelScheduler, softmax_probabilities

__all__ = [
    "TrainConfig",
    "load_config",
    "save_config",
    "EpisodeRecord",
    "Trainer",
    "evaluate_agent",
    "LevelScheduler",
    "softmax_probabilities",
]
