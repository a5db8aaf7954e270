"""The benchmark's own test: every workload at minimal size, both modes.

Run with `python3 -m pytest bench/test_smoke.py` (about a minute on 2 cores).
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_metric_and_passes_every_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
