"""Engine semantics against the hand-authored golden fixtures."""

import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cookworld.engine.generate import LEVEL_PARAMS, generate_game
from cookworld.engine.spec import (
    InvariantViolation,
    SpecParseError,
    dumps_spec,
    load_game,
    spec_from_dict,
)
from cookworld.engine.state import (
    CUT_VERBS,
    GameState,
    InadmissibleActionError,
    _build_moves,
    _facts,
    admissible_actions,
    observation,
    reset,
    step,
)
from cookworld.engine.trace import record_trace, replay_trace
from cookworld.engine.walkthrough import walkthrough
from cookworld.kg import InvalidTripletError, Triplet, canonical_hash

from conftest import world


def test_golden_replay_s1(s1_spec, s1_trace):
    result = replay_trace(s1_spec, s1_trace, strict=True)
    assert result.ok, result.divergence
    assert result.steps_checked == 9  # 8 action steps + final observation


def test_golden_replay_s4(s4_spec, s4_trace):
    result = replay_trace(s4_spec, s4_trace, strict=True)
    assert result.ok, result.divergence
    assert result.steps_checked == 22  # 21 action steps + final observation


def test_each_state_looks_its_facts_up_once(s4_spec, s4_trace, monkeypatch):
    # admissible_actions and step share the state's one memo lookup, and
    # step hands the child its graph without looking the parent up again
    digests = []
    real = canonical_hash

    def counting(graph):
        digests.append(graph)
        return real(graph)

    monkeypatch.setattr("cookworld.engine.state.canonical_hash", counting)
    assert replay_trace(s4_spec, s4_trace, strict=True).ok
    assert len(digests) == sum(st.action is not None for st in s4_trace) == 21


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


def test_a_copy_mutated_before_it_is_looked_at_shows_the_mutation(s1_spec):
    state, _ = reset(s1_spec)
    assert "open fridge" in admissible_actions(state)
    mutated = state.copy()
    mutated.open_flags["fridge"] = True
    assert observation(mutated).has("fridge", "open", "is")
    assert "close fridge" in admissible_actions(mutated)
    assert "open fridge" not in admissible_actions(mutated)
    # the source keeps its own containers, graph and actions
    assert not state.open_flags["fridge"] and "open fridge" in admissible_actions(state)
    assert observation(state).has("fridge", "closed", "is")
    # a copy of a state that was looked at starts without its graph and entry
    looked_at = state.copy()
    assert "open fridge" in admissible_actions(looked_at)
    again = looked_at.copy()
    again.open_flags["fridge"] = True
    assert "close fridge" in admissible_actions(again)
    assert observation(again).has("fridge", "open", "is")


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
    before = world(state)
    state2, obs1, r, done = step(state, "prepare meal")
    assert r == 0 and not done
    assert obs1 == obs0
    assert world(state2) == before  # world unchanged, steps differ


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
    for spec in (s1_spec, s4_spec):
        rng = random.Random(5)
        for _ in range(8):
            state, _ = reset(spec, step_limit=25)
            done = False
            while not done:
                actions = admissible_actions(state)
                for action in actions:
                    nxt, _, reward, _ = step(state, action)
                    changed = world(nxt) != world(state)
                    if not changed and reward == 0:
                        assert action in NOOP_ALLOWED, action
                action = rng.choice(actions)
                state, _, _, done = step(state, action)


def test_walkthrough_reaches_max_score(s1_spec, s4_spec):
    for spec in (s1_spec, s4_spec):
        assert record_trace(spec, walkthrough(spec))[-2].score == spec.max_score


def test_max_score_values(s1_spec, s4_spec):
    assert s1_spec.max_score == 4
    assert s4_spec.max_score == 11


def test_determinism_bit_identical_runs(s4_spec):
    actions = walkthrough(s4_spec)
    t1 = record_trace(s4_spec, actions)
    t2 = record_trace(s4_spec, actions)
    assert [s.obs for s in t1] == [s.obs for s in t2]
    assert [s.reward for s in t1] == [s.reward for s in t2]


def test_spec_round_trip(s4_spec, tmp_path):
    text = dumps_spec(s4_spec)
    path = tmp_path / "s4.json"
    path.write_text(text)
    assert load_game(path) == s4_spec
    assert dumps_spec(load_game(path)) == text


def test_empty_document_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("", "{not json"):
        path.write_text(text)
        with pytest.raises(SpecParseError):
            load_game(path)


def test_disconnected_rooms_is_invariant_violation(s4_spec):
    doc = json.loads(dumps_spec(s4_spec))
    for room in doc["rooms"]:
        room["exits"] = []
    doc["doors"] = []
    with pytest.raises(InvariantViolation) as err:
        spec_from_dict(doc)
    assert "rooms-connected" in str(err.value)


def test_wrong_max_score_is_invariant_violation(s1_spec):
    doc = json.loads(dumps_spec(s1_spec))
    doc["max_score"] = 7
    with pytest.raises(InvariantViolation) as err:
        spec_from_dict(doc)
    assert "max-score-formula" in str(err.value)


def test_object_named_meal_is_invariant_violation(s1_spec):
    doc = json.loads(dumps_spec(s1_spec))
    doc["objects"].append(
        {"name": "meal", "kind": "distractor", "holder": "kitchen", "holder_relation": "at"}
    )
    with pytest.raises(InvariantViolation) as err:
        spec_from_dict(doc)
    assert err.value.invariant == "reserved-name"


def test_room_references_must_be_entity_tokens(s4_spec):
    # a reference that is not a string is refused as it is read, naming its field
    edits = {
        "rooms[0].exits[0].to": lambda doc: doc["rooms"][0]["exits"][0].update(to=["corridor"]),
        "rooms[0].exits[0].door": lambda doc: doc["rooms"][0]["exits"][0].update(door=["bathroom door"]),
        "doors[0].room_a": lambda doc: doc["doors"][0].update(room_a=["kitchen"]),
        "doors[0].room_b": lambda doc: doc["doors"][0].update(room_b=["pantry"]),
    }
    for field, edit in edits.items():
        doc = json.loads(dumps_spec(s4_spec))
        edit(doc)
        with pytest.raises(SpecParseError, match=re.escape(f"{field} must be a string")):
            spec_from_dict(doc)


def test_load_game_names_the_file(s1_spec, tmp_path):
    doc = json.loads(dumps_spec(s1_spec))
    doc["max_score"] = 99
    path = tmp_path / "broken.spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation) as err:
        load_game(path)
    assert err.value.invariant == "max-score-formula"
    assert str(err.value).startswith(f"{path}: max-score-formula: ")
    path.write_text("{")
    with pytest.raises(SpecParseError, match="broken.spec.json: invalid JSON"):
        load_game(path)


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


@pytest.mark.parametrize("old, bad", [("stove", "Stove"), ("knife", "knife ")])
def test_bad_entity_token_raises_on_reset(s1_spec, old, bad):
    # built directly, past validate_spec: the engine's own triplets still
    # validate every edge, a fixed one (stove) and a moving one (knife) alike
    objects = tuple(
        dataclasses.replace(o, name=bad) if o.name == old else o for o in s1_spec.objects
    )
    spec = dataclasses.replace(s1_spec, objects=objects)
    for _ in range(2):  # a failed first render leaves nothing behind
        with pytest.raises(InvalidTripletError, match="bad entity token"):
            reset(spec)


def _replay(spec, actions):
    state, _ = reset(spec)
    for action in actions:
        state, _, _, _ = step(state, action)
    return state


def test_action_table_stays_with_its_state(s1_spec):
    prefix = ["open fridge"]
    state = _replay(s1_spec, prefix)
    before = admissible_actions(state)
    assert {"take cilantro from fridge", "close fridge"} <= set(before)
    for action in ("take cilantro from fridge", "close fridge"):
        new, obs, reward, done = step(state, action)
        fresh, fresh_obs, fresh_reward, fresh_done = step(_replay(s1_spec, prefix), action)
        assert (new, obs, reward, done) == (fresh, fresh_obs, fresh_reward, fresh_done)
        assert admissible_actions(new) == admissible_actions(_replay(s1_spec, prefix + [action]))
        assert admissible_actions(new) != before
    assert admissible_actions(state) == before

    # a copy shares the episode memo but starts without the observation:
    # changing it changes its actions and renders its own facts, since the
    # memo is keyed by the graph
    assert observation(state) is observation(state)
    closed = state.copy()
    assert closed._episode is state._episode and closed._observation is None
    closed.open_flags["fridge"] = False
    assert admissible_actions(closed) == admissible_actions(_replay(s1_spec, []))
    assert observation(closed) == reset(s1_spec)[1] != observation(state)
    assert observation(closed).has("fridge", "closed", "is")
    assert observation(state).has("fridge", "open", "is")

    # the table is no part of the state's identity
    untouched = _replay(s1_spec, prefix)
    assert state == untouched and repr(state) == repr(untouched)
    assert state.signature() == untouched.signature()


def test_copy_carries_every_field(s1_spec):
    live = _replay(s1_spec, ["open fridge"])
    admissible_actions(live)  # builds its graph's entry in the episode memo
    assert canonical_hash(live._observation) in live._episode
    assert live.copy()._episode is live._episode
    # step rendered its observation; a copy renders its own
    assert live._observation is not None and live.copy()._observation is None

    state, _ = reset(s1_spec, step_limit=40)
    for action in ["open fridge", "take cilantro from fridge",
                   "cook cilantro with stove", "cook cilantro with stove"]:
        state, _, _, _ = step(state, action)
    copied = state.copy()
    for f in dataclasses.fields(GameState):
        if not f.compare:
            continue
        value = getattr(state, f.name)
        # a field at its default would compare equal even if copy() left it out
        if f.default is not dataclasses.MISSING:
            assert value != f.default, f.name
        if f.default_factory is not dataclasses.MISSING:
            assert value != f.default_factory(), f.name
        assert getattr(copied, f.name) == value, f.name
        if isinstance(value, (dict, set)):
            assert getattr(copied, f.name) is not value, f.name


RECIPE_VERBS = ("take", "cook", "prepare", *CUT_VERBS)


@settings(max_examples=150, deadline=None)
@given(
    level=st.sampled_from(list(LEVEL_PARAMS)),
    game_seed=st.integers(0, 2**16),
    play_seed=st.integers(0, 2**16),
)
def test_random_play_pays_each_recipe_step_once(level, game_seed, play_seed):
    spec = generate_game(level, game_seed)
    rng = random.Random(play_seed)
    state, _ = reset(spec, step_limit=100)
    paid = set()
    done = False
    while not done:
        actions = admissible_actions(state)
        # lean towards the recipe's commands, so that repeats of them get tried
        recipe_steps = [a for a in actions if a.split()[0] in RECIPE_VERBS]
        action = rng.choice(recipe_steps if recipe_steps and rng.random() < 0.8 else actions)
        new, _, reward, done = step(state, action)
        assert new.score == state.score + reward <= spec.max_score
        meal_appears = "meal" in new.locations and "meal" not in state.locations
        assert meal_appears == (action == "prepare meal" and reward == 1)
        if action.split()[0] in ("cook", *CUT_VERBS) and reward:
            prepared = {
                (name, value)
                for after, before in ((new.cut, state.cut), (new.cook, state.cook))
                for name, value in after.items()
                if before.get(name) != value
            }
            assert len(prepared) == 1 and prepared.isdisjoint(paid), (action, paid)
            ((name, value),) = prepared
            assert value in spec.recipe_entry(name).requirements
            paid |= prepared
        state = new


def _effect_kind(before, after, action, reward):
    verb, _, rest = action.partition(" ")
    name = rest.split(" with ")[0]
    if verb in ("open", "close"):
        return f"{verb} {'container' if name in before.locations else 'door'}"
    if verb == "cook" and after.cook.get(name) == "burned":
        return "burn"
    if verb == "prepare":
        return "prepare" if reward else "premature prepare"
    if action == "eat meal":
        return action
    return "cut" if verb in CUT_VERBS else verb


EFFECT_KINDS = {
    "go", "open door", "close door", "open container", "close container", "take", "drop",
    "put", "insert", "eat", "eat meal", "cut", "cook", "burn", "prepare", "premature prepare",
    "examine",
}


def _play_patched(spec, rng, plan=()):
    """One episode, leaning towards the recipe's commands after any planned
    ones, that checks each step's observation, patched from its parent's,
    against the same state rendered from nothing, which touches every
    subject, each live state's action table and commands, served from
    the episode memo, against a table built from nothing, and that step
    leaves the state it stepped from, whose containers the new state may
    share, untouched. Returns the effects played."""
    plan = iter(plan)
    state, obs = reset(spec, step_limit=100)
    kinds = set()
    done = False
    while not done:
        actions = admissible_actions(state)
        recipe_steps = [a for a in actions if a.split()[0] in RECIPE_VERBS]
        action = next(plan, None) or rng.choice(
            recipe_steps if recipe_steps and rng.random() < 0.8 else actions
        )
        assert state._observation is obs  # the parent's graph, for step to patch
        before = state.signature()
        new, obs, reward, done = step(state, action)
        assert state.signature() == before, action
        full = observation(new.copy())  # a copy has no graph and no parent
        assert obs.triplets == full.triplets, action
        assert canonical_hash(obs) == canonical_hash(full), action
        if not done:
            table = _build_moves(new.copy())
            assert _facts(new).moves == table, action
            assert admissible_actions(new) == sorted(table), action
        kinds.add(_effect_kind(state, new, action, reward))
        state = new
    return kinds


def _play_game_patched(spec, play_seed):
    """Two random episodes and the walkthrough, checked as above."""
    rng = random.Random(play_seed)
    return _play_patched(spec, rng) | _play_patched(spec, rng) | _play_patched(
        spec, rng, walkthrough(spec)
    )


@settings(max_examples=60, deadline=None)
@given(
    level=st.sampled_from(list(LEVEL_PARAMS)),
    game_seed=st.integers(0, 2**16),
    play_seed=st.integers(0, 2**16),
)
def test_patched_observation_equals_full_render(level, game_seed, play_seed):
    _play_game_patched(generate_game(level, game_seed), play_seed)


def test_patched_observation_play_reaches_every_effect():
    # the play of the test above, on fixed games: it exercises every effect
    # that step patches the observation for
    kinds = set()
    for level in LEVEL_PARAMS:
        for seed in range(6):
            kinds |= _play_game_patched(generate_game(level, seed), seed)
    assert kinds == EFFECT_KINDS


# S1's cilantro starts in the closed fridge: taking it and putting it back
# returns to the reset graph with a point scored and cilantro collected
BACK_TO_START = ["open fridge", "take cilantro from fridge", "insert cilantro into fridge",
                 "close fridge"]


def test_memo_serves_a_graph_reached_with_another_score(s1_spec):
    start, start_obs = reset(s1_spec)
    state = start
    for action in BACK_TO_START:
        state, obs, _, _ = step(state, action)
    assert obs == start_obs and obs is not start_obs
    assert (state.score, state.collect_rewarded) == (1, {"cilantro"})
    assert (start.score, start.collect_rewarded) == (0, set())
    # the graph's table is the first visit's, the reward the state's own
    assert _facts(state) is _facts(start)
    opened, opened_obs, _, _ = step(state, "open fridge")
    assert opened_obs is step(start, "open fridge")[1]
    _, _, reward, _ = step(opened, "take cilantro from fridge")
    assert reward == 0
    # the path and a random play after it pass the per-step checks
    for seed in range(5):
        _play_patched(s1_spec, random.Random(seed), BACK_TO_START)


def test_a_repeated_take_replays_its_graph_and_pays_nothing(s1_spec):
    state, _ = reset(s1_spec)
    opened, opened_obs, _, _ = step(state, "open fridge")
    held, held_obs, reward, _ = step(opened, "take cilantro from fridge")
    assert (reward, held.score) == (1, 1)
    back, back_obs, _, _ = step(held, "insert cilantro into fridge")
    assert back_obs == opened_obs
    again, again_obs, reward, _ = step(back, "take cilantro from fridge")
    assert again_obs is held_obs
    assert (reward, again.score) == (0, 1)

    # take -> drop -> take on the floor replays both graphs
    floor, floor_obs, _, _ = step(again, "drop cilantro")
    retaken, retaken_obs, _, _ = step(floor, "take cilantro")
    dropped, dropped_obs, _, _ = step(retaken, "drop cilantro")
    assert dropped_obs is floor_obs
    last, last_obs, reward, _ = step(dropped, "take cilantro")
    assert last_obs is retaken_obs
    assert (reward, last.score) == (0, 1)


def test_step_limit_on_a_memoized_graph_ends_the_game(s1_spec):
    state, _ = reset(s1_spec, step_limit=3)
    for action in ("open fridge", "close fridge", "open fridge"):
        state, obs, _, done = step(state, action)
    assert done and canonical_hash(obs) in state._episode
    with pytest.raises(ValueError, match="finished game"):
        admissible_actions(state)
    with pytest.raises(ValueError, match="^step on a finished game$"):
        step(state, "close fridge")


def test_admissible_actions_returns_a_fresh_list(s1_spec):
    state, _ = reset(s1_spec)
    actions = admissible_actions(state)
    expected = list(actions)
    actions.remove("open fridge")
    actions.append("go nowhere")
    assert admissible_actions(state) == expected
    with pytest.raises(InadmissibleActionError):
        step(state, "go nowhere")


def test_each_reset_starts_its_own_memo(s1_spec):
    first, _ = reset(s1_spec)
    second, _ = reset(s1_spec)
    assert first._episode is not second._episode
    _, opened, _, _ = step(first, "open fridge")
    assert second._episode == {}
    _, again, _, _ = step(second, "open fridge")
    assert again == opened and again is not opened


# sha256 of the play log below, generated before the action table
# replaced the format-then-parse pair in engine/state.py
RANDOM_PLAY_DIGEST = "37faa048f4f2476fef6e7279ef36c7a3a81825095cd23820974b112ad894d195"


def _random_play_log():
    from cookworld.kg import canonical_hash

    for level in LEVEL_PARAMS:
        for seed in range(4):
            spec = generate_game(level, seed)
            rng = random.Random(1000 * seed + len(level))
            # three random episodes, then the winning walkthrough
            for episode in range(4):
                plan = iter(walkthrough(spec) if episode == 3 else ())
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
