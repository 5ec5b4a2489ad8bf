"""The benchmark's self-test, run as a fresh process.

``bench/selftest.py`` traces the package's public functions by their
layer-qualified names and checks every workload's reference checks; a
renamed or rerouted function in ``src/`` shows up here as a failed check.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    tail = "\n".join(proc.stdout.splitlines()[-20:])
    assert proc.returncode == 0, f"{tail}\n{proc.stderr[-2000:]}"
