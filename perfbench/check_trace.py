"""Checks of the benchmark itself; run with

    python3 -m pytest -q perfbench/check_trace.py

(the file name keeps it out of the library's test collection: the traced
runs take about a minute).  Two traced runs of every workload must report
identical work counts, the tracer must restore every name it patched, and
the benchmark must refuse to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cfrank  # noqa: E402
import cfrank.cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "cfrank" or name.startswith("cfrank.")
            for attr, value in vars(mod).items()} | {
        ("IntervalSet", attr): value for attr, value in vars(cfrank.IntervalSet).items()}


def test_tracer_patches_import_time_bindings_and_restores_them():
    before = _bindings()
    original = cfrank.mixing.scan_mixing_intervals
    with Tracer():
        assert cfrank.cli.scan_mixing_intervals is not original
        assert cfrank.cli.scan_mixing_intervals is cfrank.mixing.scan_mixing_intervals
        assert cfrank.mixing.correlation_bounds is cfrank.cylinders.correlation_bounds
        assert cfrank.correlation_bounds is cfrank.cylinders.correlation_bounds
    assert _bindings() == before


def test_self_times_add_up_to_the_enclosing_span():
    tr = Tracer()
    with tr:
        with tr.span("outer"):
            levels = cfrank.build_levels(
                cfrank.Schedule("t", 1, cfrank.const(3), cfrank.const(1)), 6)
            A = cfrank.CylinderSet.from_points(1, [0, 4])
            cfrank.correlation_bounds(40, A, A, levels, 6)
    (outer,) = [s for s in tr.spans if s[1] == "outer"]
    assert sum(tr.self_s.values()) == pytest.approx(outer[3] - outer[2])
    assert [s[4] for s in tr.spans if s is not outer] == [outer[0]]
    assert tr.calls["cylinders.correlation_bounds"] == 1
    assert tr.calls["cylinders.apply_power"] == 1


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"
            and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload):
    first = _traced_run(workload, 3)
    assert first == _traced_run(workload, 3)
    assert any(first.values())


def test_refuses_to_run_without_library_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-deep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
