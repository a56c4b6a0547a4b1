"""Transition record adapters."""

from cookworld.goals import Goal, GoalSet
from cookworld.kg import KGObservation, Triplet
from cookworld.rl.transitions import MetaTransition, SubTransition


def an_obs(room):
    return KGObservation(
        [Triplet("player", room, "at"), Triplet("cilantro", "cookbook", "part_of")]
    )


def sample_sub(goal=Goal.from_text("find cilantro")):
    return SubTransition(
        obs=an_obs("kitchen"),
        goal=goal,
        action="open fridge",
        r_sub=1.05,
        r_goal=1.0,
        next_obs=an_obs("pantry"),
        next_admissible=("go north", "take knife"),
        done=False,
        level="S2",
    )


def sample_meta():
    return MetaTransition(
        obs=an_obs("kitchen"),
        goal=Goal.from_text("diced cilantro"),
        r_meta=2.0,
        next_obs=an_obs("pantry"),
        next_goal_set=GoalSet([Goal.from_text("prepare and eat meal")]),
        done=True,
        level="S4",
    )


def test_sub_adapters():
    tr = sample_sub()
    assert tr.td_reward == 1.05
    assert tr.gate_reward == 1.0
    assert tr.cond_text == "find cilantro"
    assert tr.chosen_text == "open fridge"
    assert tr.next_candidates == ("go north", "take knife")


def test_flat_sub_has_no_conditioning():
    tr = sample_sub(goal=None)
    assert tr.cond_text is None


def test_meta_adapters():
    tr = sample_meta()
    assert tr.td_reward == 2.0
    assert tr.gate_reward == 2.0
    assert tr.cond_text is None
    assert tr.chosen_text == "diced cilantro"
    assert tr.next_candidates == ("prepare and eat meal",)
