"""One benchmark run in a fresh process, so module-global and per-net caches
start cold as they do for a CLI user. Started by run.py; prints one JSON
object as its last line.

  worker.py --workload W --seed N --spawned-at T (--seconds S | --episodes N | --setup-only) [--trace]

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start and imports as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


# Host speed on a shared machine drifts by up to 2x within seconds (other
# tenants' load). After set-up, and between iterations, the worker times a
# fixed loop (probe_s) and rescales each window's wall time to a host on
# which that loop takes REFERENCE_PROBE_S, so that timings compare across
# moments and runs. Unscaled figures are reported as well, under "wall".
PROBE_LOOPS = 4000
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 0.8e-3


def probe_s() -> float:
    """Median time of a fixed loop of dict updates and small matrix products,
    the mix the workloads run: the host's current slowness."""
    left = np.full((8, 32), 0.5)
    right = np.full((32, 32), 0.01)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(PROBE_LOOPS):
            key = i & 63
            table[key] = table.get(key, 0) + i
            if key == 0:
                left = np.tanh(left @ right)
        times.append(time.perf_counter() - t0)
    return sorted(times)[PROBE_REPEATS // 2]


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics. Unlike a single order statistic, it does not jump
    between the few discrete levels that episode times cluster at (an
    episode's time is mostly its count of learner updates)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, len(cdf)), cdf)
    return float(np.diff(edges) @ x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--episodes", type=int)
    budget.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work-root", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_root))
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(work_dir, args.seed)
        setup_wall = time.monotonic() - args.spawned_at
        setup_s = setup_wall * REFERENCE_PROBE_S / probe_s()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        episode_s: list[float] = []  # wall seconds per episode
        scaled_s: list[float] = []  # the same at the reference host speed
        pending: list[float] = []  # episodes of the open probe window
        steps = failed = 0
        wall = scaled_wall = 0.0
        error = None
        t_start = time.perf_counter()
        deadline = t_start + args.seconds if args.seconds is not None else None
        probe_before = probe_s()
        window_start = time.perf_counter()
        while True:
            try:
                finished = workload.iterate()
            except Exception as exc:  # an episode that raises counts as failed; stop the run
                error = f"{type(exc).__name__}: {exc}"
                finished = [(time.perf_counter() - window_start - sum(pending), 0, False)]
            for seconds, n_steps, ok in finished:
                pending.append(seconds)
                steps += n_steps
                failed += not ok
            now = time.perf_counter()
            stop = (
                error is not None
                or (deadline is not None and now >= deadline)
                or (args.episodes is not None and len(episode_s) + len(pending) >= args.episodes)
            )
            if stop or now - window_start >= PROBE_EVERY_S:
                probe_after = probe_s()
                scale = REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)
                wall += now - window_start
                scaled_wall += (now - window_start) * scale
                episode_s += pending
                scaled_s += [seconds * scale for seconds in pending]
                pending = []
                probe_before = probe_after
                window_start = time.perf_counter()
            if stop:
                break
        t_end = time.perf_counter()
        summary = workload.finish()
        failed += summary["failed_checks"]
        result = {
            "setup_s": setup_s,
            "timed_s": t_end - t_start,
            "steps": steps,
            "attempted": len(episode_s),
            "failed": min(failed, len(episode_s)),
            "steps_per_s": steps / scaled_wall,
            "episode_ms_p50": quantile(scaled_s, 0.5) * 1e3,
            "episode_ms_p90": quantile(scaled_s, 0.9) * 1e3,
            "above_p90": int((np.array(scaled_s) > quantile(scaled_s, 0.9)).sum()),
            "wall": {
                "setup_s": setup_wall,
                "steps_per_s": steps / wall,
                "episode_ms_p50": quantile(episode_s, 0.5) * 1e3,
                "episode_ms_p90": quantile(episode_s, 0.9) * 1e3,
                "host_speed": scaled_wall / wall,
            },
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": summary["digest"],
            "work": summary["work"],
            "error": error,
        }
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(t_start, t_end, workload.replay_size())
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
