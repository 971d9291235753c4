"""Materialized tower data and the finite-prefix growth/measure diagnostics.

The stage recurrence for the high staircase is

    h_{n+1} = r_n (h_n + z_n) + r_n (r_n - 1) / 2
    c_{n+1}(0) = 0,  c_{n+1}(i+1) = c_{n+1}(i) + h_n + z_n + i

and for the partially-high variant the first d_n offsets are free (default
c(i) = i (H_n + 1)) while the tail follows

    c_{n+1}(i+1) = c_{n+1}(i) + h_n + z_n + i - d_n   for i >= d_n.

All arithmetic is exact; heights exceed machine words within a handful of
stages, so everything is plain Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthUnavailable, InvalidSchedule, OffsetOverlap
from .schedule import Schedule


class TowerLevels:
    """Immutable per-stage data: heights h_n, H_n = h_n + z_n, offset sets C_n.

    cuts_product[n] is r_0 * ... * r_{n-1}; a single level of the stage-n
    tower has measure 1 / cuts_product[n] under the normalization that every
    level of the initial tower has measure 1 (so mu(X_0) = h_0).

    Construction data never changes after build.  The private _cache only
    memoizes pure results of the correlation kernel (cylinders.py):
    ("corr", m, A, B, max_depth) holds a finished enclosure, which the
    averaging grid asks for again and again, and ("diff", A, B) holds a
    pair's difference counts E(n, t), which depend on neither m nor the
    depth budget and so serve a whole scan over m.  Neither is bounded;
    both live as long as the TowerLevels.
    """

    __slots__ = ("schedule", "depth", "h", "bigH", "offsets", "cuts_product",
                 "r", "z", "d", "_cache")

    def __init__(self, schedule, depth, h, bigH, offsets, cuts_product, r, z, d):
        self.schedule = schedule
        self.depth = depth
        self.h = tuple(h)
        self.bigH = tuple(bigH)
        self.offsets = tuple(tuple(c) for c in offsets)
        self.cuts_product = tuple(cuts_product)
        self.r = tuple(r)
        self.z = tuple(z)
        self.d = tuple(d)
        self._cache = {}

    def require_depth(self, level: int):
        if level < 0:
            raise ValueError(f"stage {level} is negative")
        if level > self.depth:
            raise DepthUnavailable(
                f"level {level} requested but only {self.depth} stages materialized"
            )

    def level_measure(self, level: int) -> Fraction:
        """Measure of one tower level at the given stage."""
        self.require_depth(level)
        return Fraction(1, self.cuts_product[level])

    def __repr__(self):
        return f"TowerLevels({self.schedule.name!r}, depth={self.depth})"


def _stage_offsets(schedule: Schedule, n: int, h: int, z: int, r: int, d: int) -> list[int]:
    H = h + z
    free = min(d, r - 1)
    user = schedule.prefix_offsets.get(n)
    if user is not None:
        if d == 0:
            raise InvalidSchedule(f"stage {n}: prefix offsets given but d_n = 0")
        if len(user) != free:
            raise InvalidSchedule(
                f"stage {n}: expected {free} prefix offsets c(1..{free}), got {len(user)}"
            )
        prefix = list(user)
    else:
        prefix = [i * (H + 1) for i in range(1, free + 1)]
    c = [0] + prefix
    for i in range(free, r - 1):
        c.append(c[-1] + H + (i - d))
    for i in range(1, len(c)):
        if c[i] - c[i - 1] < h:
            raise OffsetOverlap(
                f"stage {n}: offsets {c[i-1]} and {c[i]} leave copies of height {h} overlapping"
            )
    return c


def build_levels(schedule: Schedule, depth: int) -> TowerLevels:
    """Materialize heights and offset sets for the first `depth` stages."""
    if depth < 0:
        raise InvalidSchedule(f"depth must be >= 0, got {depth}")
    h = [schedule.h0]
    bigH: list[int] = []
    offsets: list[list[int]] = []
    cuts_product = [1]
    rs: list[int] = []
    zs: list[int] = []
    ds: list[int] = []
    for n in range(depth):
        r = schedule.r.at(n)
        z = schedule.z.at(n)
        d = schedule.d_at(n)
        if r < 2:
            raise InvalidSchedule(f"stage {n}: need r_n >= 2 (got {r})")
        if z < 0:
            raise InvalidSchedule(f"stage {n}: need z_n >= 0 (got {z})")
        if not 0 <= d <= r:
            raise InvalidSchedule(f"stage {n}: need 0 <= d_n <= r_n (got d={d}, r={r})")
        c = _stage_offsets(schedule, n, h[n], z, r, d)
        top_spacer = z + max(r - 1 - d, 0)
        h_next = c[-1] + h[n] + top_spacer
        assert c[-1] + h[n] <= h_next
        bigH.append(h[n] + z)
        offsets.append(c)
        h.append(h_next)
        cuts_product.append(cuts_product[-1] * r)
        rs.append(r)
        zs.append(z)
        ds.append(d)
    # one extra r so growth diagnostics can quote g_n up to n = depth
    rs.append(schedule.r.at(depth))
    return TowerLevels(schedule, depth, h, bigH, offsets, cuts_product, rs, zs, ds)


@dataclass(frozen=True)
class GrowthReport:
    """Finite-prefix view of the restricted growth condition.

    g[n] (for n = 1..depth) is r_n^2 / (r_0 ... r_{n-1}); ratio_h[n]
    (n = 0..depth-1) is r_n^2 / h_n.  The limit itself is not decidable
    from a prefix, which `note` spells out; the verdict only reports how
    the materialized prefix behaves against the threshold.
    """

    stages: tuple[int, ...]
    g: tuple[Fraction, ...]
    ratio_h_stages: tuple[int, ...]
    ratio_h: tuple[Fraction, ...]
    threshold: Fraction
    verdict: str
    note: str = (
        "finite-prefix diagnostic only: the asymptotic limit is not decidable "
        "from materialized stages"
    )


def check_restricted_growth(levels: TowerLevels, threshold=1) -> GrowthReport:
    """Report g_n = r_n^2 / (r_0...r_{n-1}) and r_n^2 / h_n over the prefix.

    PASS: g is strictly decreasing over its tail and ends at or below the
    threshold.  FAIL: g is still growing at the end of the prefix.
    Anything else is INCONCLUSIVE.
    """
    if levels.depth < 2:
        raise DepthUnavailable("growth diagnostics need depth >= 2")
    threshold = Fraction(threshold)
    stages = tuple(range(1, levels.depth + 1))
    g = tuple(
        Fraction(levels.r[n] ** 2, levels.cuts_product[n]) for n in stages
    )
    rh_stages = tuple(range(levels.depth))
    ratio_h = tuple(Fraction(levels.r[n] ** 2, levels.h[n]) for n in rh_stages)
    if g[-1] > g[-2]:
        verdict = "FAIL"
    else:
        tail_start = 0
        for i in range(len(g) - 1, 0, -1):
            if g[i - 1] <= g[i]:
                tail_start = i
                break
        decreasing_tail = len(g) - tail_start >= 2
        if decreasing_tail and g[-1] <= threshold:
            verdict = "PASS"
        else:
            verdict = "INCONCLUSIVE"
    return GrowthReport(stages, g, rh_stages, ratio_h, threshold, verdict)


@dataclass(frozen=True)
class MeasureReport:
    """mu(X_n) per stage plus the Lemma-2.4 style divergence diagnostic.

    partial_sums[n] = sum_{k<n} z_k / h_k; the construction preserves an
    infinite measure exactly when that series diverges.  level_measure[n]
    is the measure of a single stage-n level, i.e. the renormalization
    factor between the mu(X_0) = h_0 convention used here and per-fragment
    conventions that set a single level to a product of inverse cut counts.
    """

    mu: tuple[Fraction, ...]
    level_measure: tuple[Fraction, ...]
    partial_sums: tuple[Fraction, ...]
    increments: tuple[Fraction, ...]
    verdict: str


def measure_report(levels: TowerLevels) -> MeasureReport:
    mu = tuple(
        Fraction(levels.h[n], levels.cuts_product[n]) for n in range(levels.depth + 1)
    )
    level_measure = tuple(
        Fraction(1, levels.cuts_product[n]) for n in range(levels.depth + 1)
    )
    increments = tuple(
        Fraction(levels.z[n], levels.h[n]) for n in range(levels.depth)
    )
    sums = [Fraction(0)]
    for inc in increments:
        sums.append(sums[-1] + inc)
    if not increments or all(i == 0 for i in increments):
        verdict = "ZERO_INCREMENTS (finite-measure regime on this prefix)"
    elif min(increments) >= increments[-1] > 0:
        verdict = "BOUNDED_BELOW (partial sums grow at least linearly on this prefix)"
    else:
        verdict = "INCONCLUSIVE (increments decay on this prefix)"
    return MeasureReport(mu, level_measure, tuple(sums), increments, verdict)
