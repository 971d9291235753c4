import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout.  Demos print exact Fraction and int text
# only, so the bytes are the same on every supported Python.
DEMO_STDOUT_SHA256 = {
    "01_build_a_high_staircase.py":
        "ad1676010dd81dc2c469f58626f9e73d861af4540f25e271f27fe43b79fdd920",
    "02_cylinder_algebra.py":
        "7df142b9fe10c6cd7dc4a0caf072604be443e5a2260fd1d817be0c65173845bb",
    "03_mixing_decay_scan.py":
        "6da3e4ecb7ffc7580d9939dee5d885fb0513e9ac0b520eabf30bcf01e05047a3",
    "04_weak_limits_and_averages.py":
        "902e730c6bc37b2f144b7273338d3846640613e649e053c961ab20e2f3ee2e11",
    "05_spectra_and_poisson_multiplicities.py":
        "2b3f7cd82cc10b5885f8892d7517079e21d390f58146f016ece524c15d28b2b6",
    "06_concatenated_schedules.py":
        "df293845bfd7115da7da25cd3b7897a6d9c4a82e7a6e2bc7c9c57e751257ab09",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
