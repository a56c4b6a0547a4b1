"""Episode trace files and strict replay verification.

A trace is a JSON list. Each action step holds the pre-action observation
(as [subject, object, relation] rows), the admissible list, the chosen
action, and the resulting reward/score/done. The final entry holds only the
post-episode observation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from ..kg import KGObservation
from ..records import load_record, read_record
from .spec import GameSpec
from .state import DEFAULT_STEP_LIMIT, admissible_actions, reset, step


class TraceFormatError(ValueError):
    pass


@dataclass
class TraceStep:
    obs: KGObservation
    admissible: Optional[list[str]] = None
    action: Optional[str] = None
    reward: Optional[int] = None
    score: Optional[int] = None
    done: Optional[bool] = None


@dataclass
class ReplayResult:
    ok: bool
    steps_checked: int
    divergence: Optional[str] = None  # human-readable, names the first bad step


@dataclass(frozen=True)
class TraceRow:
    """One entry of a trace file: an action step, or the final observation."""

    obs: tuple[tuple[str, ...], ...]
    admissible: Optional[tuple[str, ...]] = None
    action: Optional[str] = None
    reward: Optional[int] = None
    score: Optional[int] = None
    done: Optional[bool] = None


def load_trace(path: str | Path) -> list[TraceStep]:
    return load_record(path, trace_from_jsonable, TraceFormatError)


def trace_from_jsonable(rows) -> list[TraceStep]:
    if not isinstance(rows, list) or not rows:
        raise TraceFormatError("trace must be a non-empty JSON list")
    steps: list[TraceStep] = []
    for i, doc in enumerate(rows):
        try:
            row = read_record(TraceRow, doc, TraceFormatError)
            obs = KGObservation.from_lists(row.obs)
            if row.action is None:
                if i != len(rows) - 1:
                    raise TraceFormatError("action-less entry before the end")
                steps.append(TraceStep(obs=obs))
                continue
            if steps and steps[-1].done:
                raise TraceFormatError("action after the game ended")
            if None in (row.admissible, row.reward, row.score, row.done):
                raise TraceFormatError("an action step needs admissible, reward, score and done")
            steps.append(TraceStep(obs, list(row.admissible), row.action, row.reward, row.score, row.done))
        except ValueError as exc:
            raise TraceFormatError(f"step {i}: {exc}") from exc
    return steps


def save_trace(steps: list[TraceStep], path: str | Path) -> None:
    """Write each step as its TraceRow, leaving out the fields it holds as null."""
    rows = [asdict(TraceRow(st.obs.as_lists(), st.admissible, st.action, st.reward, st.score, st.done))
            for st in steps]
    rows = [{key: value for key, value in row.items() if value is not None} for row in rows]
    Path(path).write_text(json.dumps(rows, indent=1) + "\n")


def record_trace(spec: GameSpec, actions: list[str], step_limit: int = DEFAULT_STEP_LIMIT) -> list[TraceStep]:
    """Run the actions through the engine, producing a trace."""
    state, obs = reset(spec, step_limit=step_limit)
    steps = []
    for action in actions:
        admissible = admissible_actions(state)
        state, next_obs, reward, done = step(state, action)
        steps.append(
            TraceStep(
                obs=obs,
                admissible=admissible,
                action=action,
                reward=reward,
                score=state.score,
                done=done,
            )
        )
        obs = next_obs
    steps.append(TraceStep(obs=obs))
    return steps


def replay_trace(
    spec: GameSpec,
    trace: list[TraceStep],
    strict: bool = True,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ReplayResult:
    """Step the engine with the trace's actions and compare step by step.

    Strict mode compares observations and admissible lists in addition to
    rewards, scores and done flags.
    """
    state, obs = reset(spec, step_limit=step_limit)
    for i, st in enumerate(trace):
        if strict and obs != st.obs:
            missing = sorted(set(st.obs.triplets) - set(obs.triplets))
            extra = sorted(set(obs.triplets) - set(st.obs.triplets))
            return ReplayResult(
                False, i, f"step {i}: observation differs (missing={missing}, extra={extra})"
            )
        if st.action is None:
            break
        admissible = admissible_actions(state)
        if strict and admissible != st.admissible:
            return ReplayResult(
                False,
                i,
                f"step {i}: admissible differs (engine={admissible}, trace={st.admissible})",
            )
        if st.action not in admissible:
            return ReplayResult(False, i, f"step {i}: action {st.action!r} not admissible")
        state, obs, reward, done = step(state, st.action)
        if reward != st.reward:
            return ReplayResult(False, i, f"step {i}: reward {reward} != {st.reward}")
        if state.score != st.score:
            return ReplayResult(False, i, f"step {i}: score {state.score} != {st.score}")
        if done != st.done:
            return ReplayResult(False, i, f"step {i}: done {done} != {st.done}")
    return ReplayResult(True, len(trace))
