"""The benchmark's own test: every workload's code path on tiny inputs.

Run from the repository root:  python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().endswith("smoke: ok")
