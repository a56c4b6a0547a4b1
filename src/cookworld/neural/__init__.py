from .nets import (
    EmptyCandidatesError,
    EmptyTextError,
    PolicyNet,
    load_checkpoint,
    save_checkpoint,
    sync_target,
)
from .optim import AdamState, apply_update

__all__ = [
    "EmptyCandidatesError",
    "EmptyTextError",
    "PolicyNet",
    "load_checkpoint",
    "save_checkpoint",
    "sync_target",
    "AdamState",
    "apply_update",
]
