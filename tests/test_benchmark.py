"""Smoke tests of the benchmark entry point.

``perfbench/run.py`` exits non-zero with no result line when its worker
process dies, which happens when a package name the worker calls is
renamed or removed, or when set-up raises; only query-time exceptions are
counted as failed operations.  One short run per workload below catches
all of these: the deterministic ``bounds``, and ``preset-mc-par`` traced,
the only workload that runs the process pool, so that a function the pool
cannot pickle or a missing ``--workers`` flag fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_runs_clean(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_bounds_workload_runs_clean():
    _assert_runs_clean("--workload", "bounds")


def test_traced_pool_workload_runs_clean():
    _assert_runs_clean("--workload", "preset-mc-par", "--trace", "1")
