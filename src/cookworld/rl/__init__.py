from .counts import VisitCounter, accumulate_meta_reward, bebold_reward, compose_sub_reward
from .dqn import double_dqn_target, td_update
from .replay import PrioritizedBuffer, Transition, UnderfullBufferError, gated_flush

__all__ = [
    "VisitCounter",
    "accumulate_meta_reward",
    "bebold_reward",
    "compose_sub_reward",
    "double_dqn_target",
    "td_update",
    "PrioritizedBuffer",
    "Transition",
    "UnderfullBufferError",
    "gated_flush",
]
