"""Goal machinery versus trace observations and a brute-force state oracle."""

import pytest

from cookworld.engine.state import admissible_actions, reset, step
from cookworld.goals import (
    EAT_MEAL_TEXT,
    Goal,
    GoalSet,
    MalformedObservationError,
    R_MAX,
    R_MIN,
    generate_goal_set,
    goal_reward,
    goal_terminated,
)
from cookworld.kg import KGObservation


def obs_at(trace, i):
    return trace[i].obs


def test_goal_text_rendering():
    assert Goal("Find", ingredient="red apple").text == "find red apple"
    assert Goal("Prepare", ingredient="red apple", requirement="diced").text == "diced red apple"
    assert Goal("EatMeal").text == EAT_MEAL_TEXT


def test_goal_text_round_trip(s1_trace, s4_trace):
    """A goal's text names it within its goal set, so a stored instruction
    text stands for one goal: on constructed goals and on every goal set of
    the golden traces."""
    sets = [GoalSet([
        Goal("Find", ingredient="red hot pepper"),
        Goal("Prepare", ingredient="red hot pepper", requirement="fried"),
        Goal("Prepare", ingredient="cilantro", requirement="fried"),
        Goal("EatMeal"),
    ])]
    sets += [generate_goal_set(row.obs) for trace in (s1_trace, s4_trace) for row in trace]
    for goals in sets:
        by_text = {g.text: g for g in goals}
        assert len(by_text) == len(goals)
        assert all(by_text[g.text] == g for g in goals)


def test_goal_set_ordering():
    gs = GoalSet(
        [
            Goal("EatMeal"),
            Goal("Prepare", ingredient="a", requirement="diced"),
            Goal("Find", ingredient="z"),
            Goal("Find", ingredient="a"),
        ]
    )
    assert gs.texts == ("find a", "find z", "diced a", EAT_MEAL_TEXT)


def test_goal_set_from_s1_steps(s1_trace):
    assert generate_goal_set(obs_at(s1_trace, 0)).texts == ("find cilantro",)
    assert generate_goal_set(obs_at(s1_trace, 3)).texts == ("diced cilantro",)
    assert generate_goal_set(obs_at(s1_trace, 6)).texts == (EAT_MEAL_TEXT,)


def test_goal_set_from_s4_step0(s4_trace):
    assert generate_goal_set(obs_at(s4_trace, 0)).texts == (
        "find red apple",
        "find red onion",
        "find red potato",
    )


def test_goal_rewards_on_s1_trace(s1_trace):
    find = Goal("Find", ingredient="cilantro")
    diced = Goal("Prepare", ingredient="cilantro", requirement="diced")
    meal = Goal("EatMeal")
    assert goal_reward(obs_at(s1_trace, 3), find) == R_MAX
    assert goal_reward(obs_at(s1_trace, 4), diced) == R_MIN
    assert goal_reward(obs_at(s1_trace, 5), diced) == R_MAX
    assert goal_reward(obs_at(s1_trace, 7), meal) == R_MAX
    assert goal_reward(obs_at(s1_trace, 0), meal) == R_MIN


def test_custom_reward_bounds(s1_trace):
    find = Goal("Find", ingredient="cilantro")
    assert goal_reward(obs_at(s1_trace, 3), find, r_min=-1.0, r_max=2.5) == 2.5
    assert goal_reward(obs_at(s1_trace, 0), find, r_min=-1.0, r_max=2.5) == -1.0


def test_malformed_observation_raises():
    with pytest.raises(MalformedObservationError):
        generate_goal_set(KGObservation.from_lists([["player", "kitchen", "at"]]))


def test_goal_terminated_contract(s1_trace):
    find = Goal("Find", ingredient="cilantro")
    accomplished = obs_at(s1_trace, 3)
    pending = obs_at(s1_trace, 0)
    assert goal_terminated(accomplished, find, False)
    assert not goal_terminated(pending, find, False)
    assert goal_terminated(pending, find, True)  # episode ended (loss)


def test_reward_implies_termination(s1_trace):
    for i in range(len(s1_trace)):
        obs = obs_at(s1_trace, i)
        for goal in generate_goal_set(obs_at(s1_trace, 0)):
            if goal_reward(obs, goal) == R_MAX:
                assert goal_terminated(obs, goal, False)


def test_fallback_exactly_eat_meal(s1_trace):
    gs = generate_goal_set(obs_at(s1_trace, 6))
    assert gs.texts == (EAT_MEAL_TEXT,)


def brute_force_goal_set(state):
    """Recompute the available goals from GameState instead of the KG."""
    goals = []
    for entry in state.spec.recipe:
        loc = state.locations.get(entry.ingredient)
        collected = loc is not None and loc[1] == "player"
        if not collected:
            goals.append(Goal("Find", ingredient=entry.ingredient))
            continue
        statuses = set()
        if state.cut.get(entry.ingredient, "none") != "none":
            statuses.add(state.cut[entry.ingredient])
        if state.cook.get(entry.ingredient, "none") != "none":
            statuses.add(state.cook[entry.ingredient])
        for req in entry.requirements:
            if req not in statuses:
                goals.append(Goal("Prepare", ingredient=entry.ingredient, requirement=req))
    if not goals:
        goals.append(Goal("EatMeal"))
    return GoalSet(goals)


def brute_force_goal_reward(state, goal):
    if goal.kind == "Find":
        loc = state.locations.get(goal.ingredient)
        hit = loc is not None and loc[1] == "player"
    elif goal.kind == "Prepare":
        hit = goal.requirement in (
            state.cut.get(goal.ingredient, "none"),
            state.cook.get(goal.ingredient, "none"),
        )
    else:
        hit = "meal" in state.locations
    return R_MAX if hit else R_MIN


def all_goals_of(spec):
    goals = [Goal("EatMeal")]
    for entry in spec.recipe:
        goals.append(Goal("Find", ingredient=entry.ingredient))
        for req in entry.requirements:
            goals.append(Goal("Prepare", ingredient=entry.ingredient, requirement=req))
    return goals


def test_exhaustive_consistency_bfs(s1_spec):
    """Breadth-first over every reachable S1 state to depth 50: the KG-based
    goal machinery must agree with brute-force recomputation from GameState."""
    from cookworld.engine.state import observation

    goals = all_goals_of(s1_spec)
    start, _ = reset(s1_spec, step_limit=50)
    seen = {start.signature()}
    frontier = [start]
    checked = 0
    while frontier:
        state = frontier.pop()
        obs = observation(state)
        checked += 1
        if not state.done:
            assert generate_goal_set(obs) == brute_force_goal_set(state)
        for goal in goals:
            assert goal_reward(obs, goal) == brute_force_goal_reward(state, goal)
        if state.done:
            continue
        for action in admissible_actions(state):
            nxt, _, _, _ = step(state, action)
            sig = nxt.signature()
            if sig not in seen:
                seen.add(sig)
                frontier.append(nxt)
    assert checked > 500  # the fixture has a real state space
