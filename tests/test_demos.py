import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_build_a_high_staircase.py",
    "02_cylinder_algebra.py",
    "03_mixing_decay_scan.py",
    "04_weak_limits_and_averages.py",
    "05_spectra_and_poisson_multiplicities.py",
    "06_concatenated_schedules.py",
])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
