"""The benchmark harness still runs against the current public API."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
