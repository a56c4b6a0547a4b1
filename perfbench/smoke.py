"""Smoke test for the benchmark harness; it checks no timing.

  python3 perfbench/smoke.py

Runs every workload for a few episodes, untraced and traced, and checks
that each run prints every metric BENCHMARK.json names, with its unit, that
its output checks pass, and that the traced rerun of the same work gave the
same digests. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# train-hkga warms up for 4 episodes; two more run the learner
EPISODES = {"train-hkga": 6, "collect-random": 5, "eval-greedy": 40}


def check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--episodes", str(EPISODES[workload]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks failed: correct={result.get('correct')} failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metric names differ: missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or isinstance(entry.get("value"), bool):
            problems.append(f"{name}: value {entry.get('value')!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} --trace {trace}" + "".join(f"\n  {p}" for p in problems), flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
