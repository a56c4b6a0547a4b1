"""Episode trace files and strict replay verification.

A trace is a JSON list. Each action step holds the pre-action observation
(as [subject, object, relation] rows), the admissible list, the chosen
action, and the resulting reward/score/done. The final entry holds only the
post-episode observation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..kg import KGObservation
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


def load_trace(path: str | Path) -> list[TraceStep]:
    try:
        rows = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise TraceFormatError(f"cannot load trace {path}: {exc}") from exc
    return trace_from_jsonable(rows)


def trace_from_jsonable(rows) -> list[TraceStep]:
    if not isinstance(rows, list) or not rows:
        raise TraceFormatError("trace must be a non-empty JSON list")
    steps: list[TraceStep] = []
    for i, row in enumerate(rows):
        try:
            steps.append(_trace_step(row, steps[-1] if steps else None, i == len(rows) - 1))
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"step {i}: {exc}") from exc
    return steps


def _trace_step(row, previous: Optional[TraceStep], last: bool) -> TraceStep:
    if not isinstance(row, dict):
        raise TraceFormatError("not a JSON object")
    if "obs" not in row:
        raise TraceFormatError("missing obs")
    obs = KGObservation.from_lists(row["obs"])
    if row.get("action") is None:
        if not last:
            raise TraceFormatError("action-less entry before the end")
        return TraceStep(obs=obs)
    if previous is not None and previous.done:
        raise TraceFormatError("action after the game ended")
    for key in ("admissible", "reward", "score", "done"):
        if key not in row:
            raise TraceFormatError(f"missing {key}")
    if not isinstance(row["done"], bool):
        raise TraceFormatError(f"done must be true or false, got {row['done']!r}")
    if not isinstance(row["action"], str):
        raise TraceFormatError(f"action must be a string, got {row['action']!r}")
    admissible = row["admissible"]
    if not isinstance(admissible, list) or not all(isinstance(a, str) for a in admissible):
        raise TraceFormatError(f"admissible must be a list of strings, got {admissible!r}")
    for key in ("reward", "score"):
        if not isinstance(row[key], int) or isinstance(row[key], bool):
            raise TraceFormatError(f"{key} must be an integer, got {row[key]!r}")
    return TraceStep(
        obs=obs,
        admissible=list(admissible),
        action=row["action"],
        reward=row["reward"],
        score=row["score"],
        done=row["done"],
    )


def trace_to_jsonable(steps: list[TraceStep]) -> list[dict]:
    rows = []
    for st in steps:
        row: dict = {"obs": st.obs.as_lists()}
        if st.action is not None:
            row["admissible"] = st.admissible
            row["action"] = st.action
            row["reward"] = st.reward
            row["score"] = st.score
            row["done"] = st.done
        rows.append(row)
    return rows


def save_trace(steps: list[TraceStep], path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_jsonable(steps), indent=1) + "\n")


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
