"""Benchmark for cfrank: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-deep --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; cfrank is imported from its
``src`` directory.  The run repeats cold work items of the workload until
``--seconds`` is spent, gates every output against the frozen goldens, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: the median wall and
CPU seconds of one item, the median set-up time of fresh processes, and the
peak resident memory.  With ``--trace 1`` the run times item 0 untraced,
then repeats it under the layer tracer and reports per-layer calls, self
seconds and work counts, which must repeat exactly between repetitions.
A record with samples, machine, commit and workload config goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9

# one process, one thread: scan_mixing_intervals reads CFRANK_THREADS, numpy
# must not start a BLAS pool
PINNED_ENV = {"CFRANK_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy

    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its first timed call, SETUP_PROBES times."""
    samples = []
    env = dict(os.environ, **PINNED_ENV)
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_item(workload, i, errors, tracer=None):
    """Prepare, time and gate item i; returns (wall s, cpu s, ok)."""
    if tracer is None:
        item = workload.prepare(i)
    else:
        with tracer.span("bench.prepare"):
            item = workload.prepare(i)
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(item)
        else:
            with tracer.span("bench.item"):
                output = workload.run(item)
    except Exception:  # an item that raises counts as failed; the run goes on
        output = None
        failures = [f"item {i} raised:\n{traceback.format_exc()}"]
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if output is not None:
        failures = workload.check(item, output)
    errors.extend(failures)
    return wall, cpu, not failures


def untraced(workload, seconds, errors, item_index=None):
    """Run items until `seconds` would be exceeded (at least one)."""
    walls, cpus, failed = [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        wall, cpu, ok = run_item(workload, i if item_index is None else item_index, errors)
        walls.append(wall)
        cpus.append(cpu)
        failed += not ok
        i += 1
        if time.perf_counter() - start + wall > seconds:
            return walls, cpus, failed


def traced(workload, seconds, errors):
    """Item 0 untraced, then under the tracer; per-layer metrics."""
    from tracer import LAYERS, Tracer

    base_walls, _, failed = untraced(workload, seconds / 2, errors, item_index=0)
    walls, counts, self_s, spans = [], [], [], None
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + walls[-1] <= seconds / 2:
        with Tracer() as tr:
            wall, _, ok = run_item(workload, 0, errors, tracer=tr)
        failed += not ok
        walls.append(wall)
        counts.append(layer_counts(tr, LAYERS))
        self_s.append(tr.self_s)
        if spans is None:  # the repetitions differ only in their timings
            spans = tr.spans
    if any(c != counts[0] for c in counts):
        errors.append("work counts differ between traced repetitions of item 0")
    metrics = {f"{name}.self_s": (statistics.median(s.get(name, 0.0) for s in self_s), "s")
               for name, *_ in LAYERS}
    for key, value in counts[0].items():
        metrics[key] = (value, "ratio" if key.endswith(("_ratio", "_share")) else "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(base_walls), "ratio")
    samples = {"untraced_item_s": base_walls, "traced_item_s": walls}
    return metrics, len(base_walls) + len(walls), failed, samples, spans


def layer_counts(tr, layers) -> dict:
    """Deterministic work counts of one traced item."""
    counts = {f"{name}.calls": tr.calls.get(name, 0) for name, *_ in layers}
    for name, _, _, _, counters in layers:
        for key in counters:
            counts[f"{name}.{key}"] = tr.counts.get(f"{name}.{key}", 0)
    points = counts["oracle.expand_points.points_out"]
    counts["oracle.expand_points.bytes_computed"] = 8 * points  # int64 points, computed
    counts["cylinders.cache_entries"] = sum(len(lv._cache) for lv in tr.levels)
    corr = counts["cylinders.correlation.calls"]
    counts["cylinders.correlation.miss_ratio"] = (
        counts["cylinders.apply_power.calls"] / corr if corr else 0.0)
    bounds = counts["cylinders.correlation_bounds.calls"]
    residual = counts.pop("cylinders.correlation_bounds.residual")
    counts["cylinders.residual_share"] = residual / bounds if bounds else 0.0
    return counts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfrank" / "__init__.py").is_file():
        print(f"perfbench: no cfrank sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import cfrank

    if Path(cfrank.__file__).resolve().parent != SRC / "cfrank":
        print(f"perfbench: imported cfrank from {cfrank.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        workload.prepare(0)
        print(time.monotonic())
        return 0

    errors: list[str] = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": workload.config(), "machine": machine(),
              "commit": commit()}
    if args.trace:
        metrics, attempted, failed, record["samples"], spans = traced(
            workload, args.seconds, errors)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    else:
        walls, cpus, failed = untraced(workload, args.seconds, errors)
        setups = measure_setup(args)
        attempted = len(walls)
        metrics = {
            "run_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        record["samples"] = {"run_s": walls, "cpu_s": cpus, "setup_s": setups}
    record["quartiles"] = {k: quartiles(v) for k, v in record["samples"].items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result, errors=errors)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    for name, (q1, q2, q3) in record["quartiles"].items():
        n = len(record["samples"][name])
        print(f"{name}: median {q2:.4f} s, quartiles {q1:.4f}..{q3:.4f}, n={n}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
