"""cookworld benchmark: closed-loop, single-process workloads over the
cookworld package in this checkout's src/.

  python3 perfbench/run.py --workload train-hkga --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh worker process (worker.py). With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json: a timed
worker plus further set-up-only workers, whose set-up times give the median
setup_s. With --trace 1 it reports the per-layer metrics: an untraced
worker runs for --seconds, then a traced worker repeats exactly the same
work, so trace.overhead compares equal work and the two output digests must
match (a standing byte-identical-rerun check).

--episodes N replaces the time budget by a fixed number of episodes
(rollouts for eval-greedy); smoke.py uses it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it, prefixed "perfbench ",
records the machine, work counts and digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7  # set-up is timed in this many fresh processes; setup_s is their median
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"  # never more than nproc; one thread avoids contention on small hosts


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, work_root: Path, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--work-root", str(work_root), *extra,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        top, rev = git.stdout.split()
        revision = rev if Path(top).resolve() == ROOT else "not a git checkout"
    except (OSError, ValueError, subprocess.SubprocessError):
        revision = "not a git checkout"
    env = worker_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": revision,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episodes", type=int, help="fixed episode count instead of --seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cookworld" / "__init__.py").is_file():
        print(f"error: no cookworld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    budget = ["--episodes", str(args.episodes)] if args.episodes else ["--seconds", str(args.seconds)]
    work_root = ROOT / ".bench_work" / str(os.getpid())
    work_root.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            plain = run_worker(args, work_root, *budget)
            traced = run_worker(args, work_root, "--episodes", str(plain["attempted"]), "--trace")
            runs = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead"] = plain["steps_per_s"] / traced["steps_per_s"]
            for key, count in traced["work"].items():
                values[f"work.{key}"] = count
            # the same seed and the same work must give the same outputs
            consistent = plain["digest"] == traced["digest"] and plain["work"] == traced["work"]
        else:
            setups = [run_worker(args, work_root, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            timed = run_worker(args, work_root, *budget)
            runs = [timed]
            setups.append(timed["setup_s"])
            values = {
                "setup_s": statistics.median(setups),
                "steps_per_s": timed["steps_per_s"],
                "episode_ms_p50": timed["episode_ms_p50"],
                "episode_ms_p90": timed["episode_ms_p90"],
                "peak_rss_mb": timed["peak_rss_mb"],
                "ok_frac": 1.0 - timed["failed"] / timed["attempted"],
            }
            consistent = True
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in wanted if m["name"] not in values]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "runs": [
            {k: r[k] for k in ("work", "digest", "attempted", "failed", "timed_s", "setup_s", "above_p90", "wall", "error")}
            for r in runs
        ],
        "digests_consistent": consistent,
        "missing_metrics": missing,
    }
    if not args.trace:
        details["setup_samples_s"] = setups
    print("perfbench " + json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0 and consistent and not missing and all(r["error"] is None for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
