"""The benchmark's own self-test, run as part of the test suite, so that a
change to the library that breaks a benchmark check fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # one pass of every workload, each check confirmed to pass on the real
    # outputs and to reject planted wrong values; about 3 s
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "self-test passed" in proc.stdout
