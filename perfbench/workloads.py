"""The three benchmark workloads: inputs from a seed, work items, output gates.

Every workload is a stream of work items.  ``prepare(i)`` makes the inputs
of item i from the seed, on a freshly built ``TowerLevels`` so that no item
reuses another's memo (a command-line user pays a cold cache on every
call); ``run`` is the timed part; ``check`` compares the output with the
frozen goldens and returns the list of failures.  Seed 0 reproduces the
acceptance-test inputs of criteria 3, 4 and 5.  RATIONALE.md says why each
workload was chosen.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

# library functions are called as cfrank.<name> so that the tracer's
# patches of the package namespace see the benchmark's own calls
import cfrank
import cfrank.cli
from cfrank import CylinderSet, Schedule, affine, const, explicit

import frozen

C5_SCHEDULE = {
    "name": "c5",
    "h0": "1",
    "r": {"kind": "affine", "base": "3", "step": "1"},
    "z": {"kind": "const", "value": "1"},
}


def _frac(pair) -> tuple[Fraction, Fraction]:
    return Fraction(pair[0]), Fraction(pair[1])


def _c5_levels():
    return cfrank.build_levels(cfrank.schedule_from_json(C5_SCHEDULE), 8)


class ScanDeep:
    """Criterion-5 decay scan through ``cfrank scan-mixing``, one CLI call per item.

    The canonical test set of the c5 schedule is all 81 pairs of stage-1
    singletons.  Item i scans one row of it -- the 9 pairs sharing their
    first cylinder -- over stages 2..5 at depth 8, so nine items make the
    whole canonical scan; the seed fixes the order of the rows.
    """

    name = "scan-deep"
    rows = 9

    def __init__(self, seed: int, out_dir: Path):
        self.schedule_path = out_dir / "scan-deep-schedule.json"
        text = json.dumps(C5_SCHEDULE)
        # rewriting an unchanged file can cost more than the rest of set-up
        if not self.schedule_path.is_file() or self.schedule_path.read_text() != text:
            self.schedule_path.write_text(text, encoding="utf-8")
        self.order = random.Random(seed).sample(range(self.rows), self.rows)
        self._check_goldens()

    @staticmethod
    def _check_goldens():
        # the frozen per-row maxima must combine to the criterion-5 goldens
        for stage, golden in frozen.C5_GOLDENS.items():
            lo = max(Fraction(frozen.SCAN_ROWS[row]["maxima"][stage][0])
                     for row in range(ScanDeep.rows))
            hi = max(Fraction(frozen.SCAN_ROWS[row]["maxima"][stage][1])
                     for row in range(ScanDeep.rows))
            if (lo, hi) != _frac(golden):
                raise AssertionError(f"frozen scan rows disagree with golden stage {stage}")

    def config(self) -> dict:
        return {"schedule": C5_SCHEDULE, "depth": 8, "max_depth": 8, "stages": "2:6",
                "samples": 8, "tests": "one row of the canonical set per item",
                "row_order": self.order}

    def argv(self, row: int) -> list[str]:
        tests = [[{"level": 1, "intervals": [[row, row + 1]]},
                  {"level": 1, "intervals": [[b, b + 1]]}] for b in range(self.rows)]
        return ["scan-mixing", "--schedule", str(self.schedule_path), "--depth", "8",
                "--max-depth", "8", "--stages", "2:6", "--samples", "8",
                "--tests", json.dumps(tests, separators=(",", ":"))]

    def prepare(self, i: int):
        row = self.order[i % self.rows]
        return row, self.argv(row)

    def run(self, item):
        _, argv = item
        out = io.StringIO()
        with redirect_stdout(out):
            code = cfrank.cli.main(argv)
        return code, out.getvalue()

    def check(self, item, output) -> list[str]:
        row, _ = item
        code, text = output
        if code != 0:
            return [f"row {row}: exit code {code}"]
        errors = []
        want = frozen.SCAN_ROWS[row]
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != want["sha256"]:
            errors.append(f"row {row}: report sha256 differs from the frozen digest")
        for stage in json.loads(text)["stages"]:
            got = tuple(Fraction(int(stage[k]["numerator"]), int(stage[k]["denominator"]))
                        for k in ("max_lower", "max_upper"))
            if got != _frac(want["maxima"][stage["stage"]]):
                errors.append(f"row {row}: stage {stage['stage']} maxima {got}")
        return errors


def _c3_family() -> list[Schedule]:
    family = []
    for h0 in (1, 2):
        for r in (2, 3, 4):
            for z in (0, 1, 3):
                if (h0, r, z) == (2, 4, 3):
                    continue
                family.append(Schedule(f"c3-{h0}r{r}z{z}", h0, const(r), const(z)))
    family.append(Schedule("c3-aff", 1, affine(2, 1), const(1)))
    family.append(Schedule("c3-geo", 1, const(2), affine(0, 2)))
    family.append(Schedule("c3-part", 4, const(3), const(2),
                           d=explicit([1], tail=const(0))))
    return family


class OracleSweep:
    """Main path against the point-orbit oracle, in rounds.

    A round holds part (a): for each of the 20 criterion-3 schedules, the
    next 10 cylinder pairs of that schedule's stream, compared at every m in
    [-h_2, h_2] at depth 5; and part (b): one of the stratified stage-2 times
    of the criterion-5 scan, the oracle over all 81 canonical pairs at depth
    8.  At seed 0, rounds 0-4 hold the 50 acceptance pairs per schedule and
    rounds 0-5 cover all six stage-2 times.
    """

    name = "oracle-sweep"
    pairs_per_round = 10

    def __init__(self, seed: int, out_dir: Path):
        self.family = _c3_family()
        self.heights = [cfrank.build_levels(s, 5).h for s in self.family]
        self.rngs = [random.Random(sum(map(ord, s.name)) + seed) for s in self.family]
        self.rounds: list[list] = []
        lv = _c5_levels()
        self.tests = [(A.level, list(A.levels_set.points()), B.level,
                       list(B.levels_set.points()))
                      for A, B in cfrank.canonical_test_set(lv)]
        times = cfrank.stratified_times(lv, 2, 8)
        self.times = random.Random(seed).sample(times, len(times))
        want = (Fraction(0), Fraction(0))
        for value in frozen.ORACLE_STAGE2.values():
            value = _frac(value)
            want = (max(want[0], value[0]), max(want[1], value[1]))
        if want != _frac(frozen.C5_GOLDENS[2]):
            raise AssertionError("frozen stage-2 oracle maxima disagree with the golden")

    def config(self) -> dict:
        return {"part_a": {"schedules": [s.name for s in self.family], "depth": 5,
                           "pairs_per_schedule_per_round": self.pairs_per_round,
                           "m": "all of [-h_2, h_2]"},
                "part_b": {"schedule": C5_SCHEDULE, "depth": 8, "stage": 2,
                           "time_order": self.times}}

    def _pairs(self, i: int) -> list:
        while len(self.rounds) <= i:
            chunk = []
            for h, rng in zip(self.heights, self.rngs):
                pairs = []
                for _ in range(self.pairs_per_round):
                    la, lb = rng.randint(0, 2), rng.randint(0, 2)
                    a = rng.sample(range(h[la]), k=min(3, h[la]))
                    b = rng.sample(range(h[lb]), k=min(3, h[lb]))
                    pairs.append((CylinderSet.from_points(la, a), sorted(a),
                                  CylinderSet.from_points(lb, b), sorted(b)))
                chunk.append(pairs)
            self.rounds.append(chunk)
        return self.rounds[i]

    def prepare(self, i: int):
        levels = [cfrank.build_levels(s, 5) for s in self.family]
        return levels, self._pairs(i), _c5_levels(), self.times[i % len(self.times)]

    def run(self, item):
        levels, pairs, c5, m_b = item
        compared = mismatched = 0
        for lv, chunk in zip(levels, pairs):
            h2 = lv.h[2]
            for A, a_pts, B, b_pts in chunk:
                for m in range(-h2, h2 + 1):
                    main = cfrank.correlation_bounds(m, A, B, lv, 5)
                    orc = cfrank.oracle_correlation_bounds(m, A.level, a_pts, B.level,
                                                           b_pts, lv, 5)
                    compared += 1
                    mismatched += main != orc
        lo_max = hi_max = Fraction(0)
        for a_level, a_pts, b_level, b_pts in self.tests:
            lo, hi = cfrank.oracle_correlation_bounds(m_b, a_level, a_pts, b_level, b_pts,
                                                      c5, 8)
            lo_max, hi_max = max(lo_max, lo), max(hi_max, hi)
        return compared, mismatched, (lo_max, hi_max)

    def check(self, item, output) -> list[str]:
        m_b = item[3]
        compared, mismatched, maxima = output
        errors = []
        if mismatched:
            errors.append(f"main path differs from the oracle on {mismatched} of "
                          f"{compared} comparisons")
        if maxima != _frac(frozen.ORACLE_STAGE2[m_b]):
            errors.append(f"stage-2 oracle maxima at m={m_b}: {maxima}")
        return errors


class AveragingGrid:
    """Criterion-4 averaging-inequality grid, one cylinder per item.

    Item i checks R in 2..64, L in 1..8, r in 1..8 for the i-th cylinder of
    the seed's stream on the depth-24 r3z1 tower.  At seed 0 the first ten
    cylinders are the acceptance-test cylinders (``random.Random(42)``).
    """

    name = "averaging-grid"
    depth = 24

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.schedule = Schedule("c4", 1, const(3), const(1))
        self.heights = cfrank.build_levels(self.schedule, 2).h
        self.rng = random.Random(42 + seed)
        self.cylinders: list[CylinderSet] = []

    def config(self) -> dict:
        return {"schedule": "c4: h0=1, r=const(3), z=const(1)", "depth": self.depth,
                "R": "2..64", "L": "1..8", "r": "1..8",
                "cylinders": "level 1-2, 1-4 points, random.Random(42 + seed)"}

    def prepare(self, i: int):
        while len(self.cylinders) <= i:
            level = self.rng.randint(1, 2)
            k = self.rng.randint(1, 4)
            self.cylinders.append(CylinderSet.from_points(
                level, self.rng.sample(range(self.heights[level]), k=k)))
        return i, self.cylinders[i], cfrank.build_levels(self.schedule, self.depth)

    def run(self, item):
        _, B, lv = item
        out = []
        for R in range(2, 65):
            for L in range(1, 9):
                for r in range(1, 9):
                    rep = cfrank.check_averaging_inequality(R, L, r, B, lv, self.depth)
                    out.append((rep.holds, rep.lhs_sq, rep.rhs_norm_sq))
        return out

    @staticmethod
    def digest(output) -> str:
        text = "".join(f"{lhs} {rhs}\n" for _, lhs, rhs in output)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def check(self, item, output) -> list[str]:
        i = item[0]
        errors = []
        failed = sum(not holds for holds, _, _ in output)
        if failed:
            errors.append(f"cylinder {i}: {failed} verdicts do not hold")
        if self.seed == 0 and i < len(frozen.GRID_SEED0):
            if self.digest(output) != frozen.GRID_SEED0[i]:
                errors.append(f"cylinder {i}: (lhs_sq, rhs_norm_sq) digest differs")
        return errors


WORKLOADS = {w.name: w for w in (ScanDeep, OracleSweep, AveragingGrid)}
