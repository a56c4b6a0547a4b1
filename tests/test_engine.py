"""Engine semantics against the hand-authored golden fixtures."""

import json

import pytest

from cookworld.engine.spec import (
    InvariantViolation,
    SpecParseError,
    dumps_spec,
    loads_spec,
)
from cookworld.engine.state import (
    InadmissibleActionError,
    admissible_actions,
    reset,
    step,
)
from cookworld.engine.trace import record_trace, replay_trace
from cookworld.engine.walkthrough import solve
from cookworld.kg import Triplet


def test_golden_replay_s1(s1_spec, s1_trace):
    result = replay_trace(s1_spec, s1_trace, strict=True)
    assert result.ok, result.divergence
    assert result.steps_checked == 9  # 8 action steps + final observation


def test_golden_replay_s4(s4_spec, s4_trace):
    result = replay_trace(s4_spec, s4_trace, strict=True)
    assert result.ok, result.divergence
    assert result.steps_checked == 22  # 21 action steps + final observation


def test_reset_s1_observation(s1_spec):
    _, obs = reset(s1_spec)
    assert len(obs) == 13
    assert obs.has("cilantro", "diced", "needs")
    assert obs.has("fridge", "closed", "is")


def test_reset_s4_observation(s4_spec):
    _, obs = reset(s4_spec)
    assert len(obs) == 49
    assert obs.has("red apple", "roasted", "needs")
    assert obs.has("player", "bathroom", "at")


def test_reset_deterministic(s1_spec):
    _, obs1 = reset(s1_spec)
    _, obs2 = reset(s1_spec)
    assert obs1 == obs2


def test_admissible_s1_step0(s1_spec):
    state, _ = reset(s1_spec)
    assert admissible_actions(state) == [
        "examine cookbook",
        "open fridge",
        "take cookbook from counter",
        "take knife from table",
    ]


def test_admissible_s4_step0(s4_spec):
    state, _ = reset(s4_spec)
    assert admissible_actions(state) == ["go east"]


def test_cut_actions_require_knife_and_ingredient(s1_spec):
    state, _ = reset(s1_spec)
    for action in ["open fridge", "take cilantro from fridge", "take knife from table"]:
        state, _, _, _ = step(state, action)
    actions = admissible_actions(state)
    for verb in ("chop", "dice", "slice"):
        assert f"{verb} cilantro with knife" in actions


def test_take_scores_once(s1_spec):
    state, _ = reset(s1_spec)
    state, _, r, _ = step(state, "open fridge")
    assert r == 0
    state, _, r, _ = step(state, "take cilantro from fridge")
    assert r == 1 and state.score == 1
    state, _, r, _ = step(state, "drop cilantro")
    assert r == 0
    state, _, r, _ = step(state, "take cilantro")
    assert r == 0 and state.score == 1


def test_open_fridge_swaps_state_triplet(s1_spec):
    state, obs0 = reset(s1_spec)
    state, obs1, r, done = step(state, "open fridge")
    assert r == 0 and not done
    assert obs0.has("fridge", "closed", "is") and not obs0.has("fridge", "open", "is")
    assert obs1.has("fridge", "open", "is") and not obs1.has("fridge", "closed", "is")


def test_inadmissible_action_raises(s1_spec):
    state, _ = reset(s1_spec)
    with pytest.raises(InadmissibleActionError):
        step(state, "take cilantro from fridge")  # fridge closed
    with pytest.raises(InadmissibleActionError):
        step(state, "go north")


def test_eating_recipe_ingredient_loses(s1_spec):
    state, _ = reset(s1_spec)
    for action in ["open fridge", "take cilantro from fridge"]:
        state, _, _, _ = step(state, action)
    state, obs, r, done = step(state, "eat cilantro")
    assert done and state.lost and r == 0
    assert obs.has("cilantro", "consumed", "is")


def test_recooking_burns_and_loses(s4_spec):
    state, _ = reset(s4_spec)
    for action in ["go east", "go south", "take red apple from counter",
                   "cook red apple with oven"]:
        state, _, _, _ = step(state, action)
    assert state.cook["red apple"] == "roasted"
    state, obs, r, done = step(state, "cook red apple with oven")
    assert done and state.lost and r == 0
    assert obs.has("red apple", "burned", "is")


def test_premature_prepare_meal_is_noop(s1_spec):
    state, obs0 = reset(s1_spec)
    for action in ["open fridge", "take cilantro from fridge"]:
        state, obs0, _, _ = step(state, action)
    before = state.signature()
    state2, obs1, r, done = step(state, "prepare meal")
    assert r == 0 and not done
    assert obs1 == obs0
    assert state2.signature()[0:9] == before[0:9]  # world unchanged, steps differ


def test_step_limit_terminates(s1_spec):
    state, _ = reset(s1_spec, step_limit=3)
    done = False
    for _ in range(3):
        assert not done
        state, _, _, done = step(state, "examine cookbook")
    assert done and not state.lost and state.score == 0


@pytest.mark.parametrize("limit", [0, -3])
def test_step_limit_below_one_rejected(s1_spec, limit):
    with pytest.raises(ValueError, match="step_limit"):
        reset(s1_spec, step_limit=limit)


def test_step_limit_one_plays_one_command(s1_spec):
    state, _ = reset(s1_spec, step_limit=1)
    state, _, _, done = step(state, "examine cookbook")
    assert done and state.steps == 1


def test_score_bounded_and_monotone_random_play(s1_spec, s4_spec):
    import random

    for spec in (s1_spec, s4_spec):
        rng = random.Random(11)
        for _ in range(15):
            state, _ = reset(spec, step_limit=40)
            done = False
            prev = 0
            while not done:
                action = rng.choice(admissible_actions(state))
                state, _, _, done = step(state, action)
                assert prev <= state.score <= spec.max_score
                prev = state.score


NOOP_ALLOWED = {"examine cookbook", "prepare meal"}


def test_admissible_actions_change_state_except_documented_noops(s1_spec, s4_spec):
    import random

    for spec in (s1_spec, s4_spec):
        rng = random.Random(5)
        for _ in range(8):
            state, _ = reset(spec, step_limit=25)
            done = False
            while not done:
                actions = admissible_actions(state)
                for action in actions:
                    nxt, _, reward, _ = step(state, action)
                    changed = nxt.signature()[0:9] != state.signature()[0:9]
                    if not changed and reward == 0:
                        assert action in NOOP_ALLOWED, action
                action = rng.choice(actions)
                state, _, _, done = step(state, action)


def test_walkthrough_reaches_max_score(s1_spec, s4_spec):
    for spec in (s1_spec, s4_spec):
        stats = solve(spec)
        assert stats.final_score == spec.max_score


def test_max_score_values(s1_spec, s4_spec):
    assert s1_spec.max_score == 4
    assert s4_spec.max_score == 11


def test_determinism_bit_identical_runs(s4_spec):
    actions = solve(s4_spec).actions
    t1 = record_trace(s4_spec, actions)
    t2 = record_trace(s4_spec, actions)
    assert [s.obs for s in t1] == [s.obs for s in t2]
    assert [s.reward for s in t1] == [s.reward for s in t2]


def test_spec_round_trip(s4_spec):
    text = dumps_spec(s4_spec)
    assert loads_spec(text) == s4_spec
    assert dumps_spec(loads_spec(text)) == text


def test_empty_document_is_parse_error():
    with pytest.raises(SpecParseError):
        loads_spec("")
    with pytest.raises(SpecParseError):
        loads_spec("{not json")


def test_disconnected_rooms_is_invariant_violation(s4_spec):
    doc = json.loads(dumps_spec(s4_spec))
    for room in doc["rooms"]:
        room["exits"] = []
    doc["doors"] = []
    with pytest.raises(InvariantViolation) as err:
        loads_spec(json.dumps(doc))
    assert "rooms-connected" in str(err.value)


def test_wrong_max_score_is_invariant_violation(s1_spec):
    doc = json.loads(dumps_spec(s1_spec))
    doc["max_score"] = 7
    with pytest.raises(InvariantViolation) as err:
        loads_spec(json.dumps(doc))
    assert "max-score-formula" in str(err.value)


def test_final_obs_keeps_states_after_meal(s1_spec):
    state, obs = reset(s1_spec)
    for action in [
        "open fridge",
        "take cilantro from fridge",
        "take knife from table",
        "dice cilantro with knife",
        "prepare meal",
        "eat meal",
    ]:
        state, obs, _, done = step(state, action)
    assert done and not state.lost and state.score == 4
    assert obs.has("meal", "consumed", "is")
    assert obs.has("meal", "raw", "is")
    assert obs.has("cilantro", "diced", "is")
    assert not obs.has("cilantro", "player", "in")
    assert Triplet("meal", "player", "in") not in obs


# sha256 of the play log below, generated before the action table
# replaced the format-then-parse pair in engine/state.py
RANDOM_PLAY_DIGEST = "37faa048f4f2476fef6e7279ef36c7a3a81825095cd23820974b112ad894d195"


def _random_play_log():
    import random

    from cookworld.engine.generate import LEVEL_PARAMS, generate_game
    from cookworld.kg import canonical_hash

    for level in LEVEL_PARAMS:
        for seed in range(4):
            spec = generate_game(level, seed)
            rng = random.Random(1000 * seed + len(level))
            # three random episodes, then the winning walkthrough
            for episode in range(4):
                plan = iter(solve(spec).actions if episode == 3 else ())
                state, obs = reset(spec, step_limit=50)
                yield f"{level} {seed} {episode} reset {canonical_hash(obs)}"
                done = False
                while not done:
                    actions = admissible_actions(state)
                    action = next(plan, None) or rng.choice(actions)
                    for bad in (action + "x", "", "go nowhere"):
                        with pytest.raises(InadmissibleActionError):
                            step(state, bad)
                    state, obs, reward, done = step(state, action)
                    yield (
                        f"{json.dumps(actions)} {action!r} {reward} {state.score} "
                        f"{done} {state.lost} {canonical_hash(obs)}"
                    )
                with pytest.raises(ValueError):
                    admissible_actions(state)


def test_random_play_pinned_on_every_level():
    import hashlib

    h = hashlib.sha256()
    for line in _random_play_log():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == RANDOM_PLAY_DIGEST
