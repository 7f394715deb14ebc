"""The benchmark's own self-check, run against this checkout's library, so
that a library change that breaks what the benchmark uses (the tracer's
hooks, ``paper_suite``, the experiment-spec rules) fails the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
