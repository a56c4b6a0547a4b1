"""The benchmark harness still runs every workload on this checkout.

perfbench/smoke.py runs each workload for a few episodes, untraced and
traced, and checks the metric names, units, output checks and digests; it
checks no timing. A refactor that breaks a workload, or a name the tracer
wraps, fails here instead of in the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
