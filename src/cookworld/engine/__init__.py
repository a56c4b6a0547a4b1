from .spec import GameSpec, load_game, save_game
from .state import admissible_actions, reset, step

__all__ = [
    "GameSpec",
    "load_game",
    "save_game",
    "admissible_actions",
    "reset",
    "step",
]
