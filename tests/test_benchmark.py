"""Smoke test of the benchmark entry point on the deterministic workload.

``perfbench/run.py`` exits non-zero with no result line when its worker
process dies, which happens when a package name the worker calls is
renamed or removed, or when set-up raises; only query-time exceptions are
counted as failed operations.  One short run catches all of these.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bounds_workload_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
