"""Call tracer for the cfrank layers, installed from outside the library.

The tracer wraps the public functions of each module listed in LAYERS and
also replaces every name another cfrank module bound to the same function
at import time (``cfrank.cli.scan_mixing_intervals`` is the function
object of ``cfrank.mixing.scan_mixing_intervals``).  Leaving the ``with``
block restores every patched name.

Coarse calls keep one span each, ``(id, name, start, end, parent id)``.
Hot calls keep per-function aggregates only: the deep scan makes millions
of ``clip`` / ``intersection_cardinality`` / ``shift`` calls per item, and
one span per call would not fit in memory.  A call's self time is its
duration minus the time spent in traced calls beneath it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
from collections import defaultdict
from time import perf_counter


def _walked(args, result):
    return len(args[0].intervals) + len(args[1].intervals)


def _intervals_out(args, result):
    return len(result.intervals)


def _pieces_out(args, result):
    return len(result.pieces)


def _points_out(args, result):
    return len(result)


def _residual(args, result):
    return int(result[0] != result[1])


def _bytes_out(args, result):
    return len(result.encode("utf-8"))


# (layer name, module, attribute, keeps spans, {count name: counter})
LAYERS = (
    ("intervals.intersection_cardinality", "cfrank.intervals",
     "IntervalSet.intersection_cardinality", False, {"intervals_walked": _walked}),
    ("intervals.clip", "cfrank.intervals", "IntervalSet.clip", False, {}),
    ("intervals.shift", "cfrank.intervals", "IntervalSet.shift", False, {}),
    ("intervals.translate_by_offsets", "cfrank.intervals",
     "IntervalSet.translate_by_offsets", False, {"intervals_out": _intervals_out}),
    ("intervals.difference", "cfrank.intervals", "IntervalSet.difference", False, {}),
    ("cylinders.intersect_measure", "cfrank.cylinders", "intersect_measure", False, {}),
    ("cylinders.correlation", "cfrank.cylinders", "correlation", False, {}),
    ("cylinders.correlation_bounds", "cfrank.cylinders", "correlation_bounds", False,
     {"residual": _residual}),
    ("cylinders.apply_power", "cfrank.cylinders", "apply_power", False,
     {"pieces_out": _pieces_out}),
    ("oracle.oracle_correlation_bounds", "cfrank.oracle", "oracle_correlation_bounds",
     False, {}),
    ("oracle.expand_points", "cfrank.oracle", "expand_points", False,
     {"points_out": _points_out}),
    ("mixing.scan_mixing_intervals", "cfrank.mixing", "scan_mixing_intervals", True, {}),
    ("mixing.cesaro_norm", "cfrank.mixing", "cesaro_norm", False, {}),
    ("mixing.check_averaging_inequality", "cfrank.mixing", "check_averaging_inequality",
     True, {}),
    ("mixing.sqrt_enclosure", "cfrank.mixing", "sqrt_enclosure", False, {}),
    ("reports.canonical_json", "cfrank.reports", "canonical_json", True,
     {"bytes_out": _bytes_out}),
    ("reports.decay_report_json", "cfrank.reports", "decay_report_json", True, {}),
    ("cli.main", "cfrank.cli", "main", True, {}),
    ("towers.build_levels", "cfrank.towers", "build_levels", True, {}),
    ("schedule.schedule_from_json", "cfrank.schedule", "schedule_from_json", True, {}),
)


class Tracer:
    """Collects calls, self time, work counts and coarse spans while active."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.levels: list = []  # every TowerLevels built while tracing
        self._stack: list[list] = []  # per open call: [child seconds]
        self._open: list[int] = []  # ids of open spans, innermost last
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _enter(self, coarse):
        frame = [0.0]
        self._stack.append(frame)
        if coarse:
            self._open.append(next(self._ids))
        return frame

    def _exit(self, name, coarse, frame, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if coarse:
            span_id = self._open.pop()
            parent = self._open[-1] if self._open else None
            self.spans.append((span_id, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name):
        """Record one coarse span from the benchmark itself."""
        frame = self._enter(True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, True, frame, start, perf_counter())

    def _wrap(self, name, fn, coarse, counters):
        enter, exit_ = self._enter, self._exit
        counts = self.counts
        counters = tuple((f"{name}.{key}", f) for key, f in counters.items())
        keep = self.levels if name == "towers.build_levels" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(coarse)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, coarse, frame, start, perf_counter())
            for key, counter in counters:
                counts[key] += counter(args, result)
            if keep is not None:
                keep.append(result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def __enter__(self):
        for module_name in {layer[1] for layer in LAYERS}:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cfrank" or n.startswith("cfrank."))]
        try:
            for name, module_name, attr, coarse, counters in LAYERS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method, self._wrap(name, original, coarse, counters))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, coarse, counters)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, bound, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
