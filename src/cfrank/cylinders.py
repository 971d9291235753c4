"""Exact set algebra on cylinders.

A cylinder is a stage index n plus a subset of the tower levels [0, h_n),
stored as disjoint intervals.  The three working identities are

    [A]_n = union over c in C_{n+1} of [A + c]_{n+1}        (refinement)
    [A]_n cap [B]_n = [A cap B]_n                            (intersection)
    T^m [A]_n = [m + A]_n            whenever m + A lies in [0, h_n)

apply_power is the decomposition view: the part of a shifted cylinder that
leaves its stage window is refined one stage deeper and retried, down to a
caller-chosen max depth.  Correlations never build those pieces: at depth
N they count level pairs (x, y) of the stage-N refinements with y - x = m
by a memoized recursion over the offset sets (difference counts), and the
points of A whose image leaves [0, h_N) by a rank query.  Either way what
is still unresolved at the max depth is reported as an explicit residual
measure, never silently dropped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import DepthUnavailable, Enclosure
from .intervals import IntervalSet
from .towers import TowerLevels


@dataclass(frozen=True)
class CylinderSet:
    level: int
    levels_set: IntervalSet

    @staticmethod
    def from_points(level: int, points) -> "CylinderSet":
        return CylinderSet(level, IntervalSet.from_points(points))

    @staticmethod
    def from_pairs(level: int, pairs) -> "CylinderSet":
        return CylinderSet(level, IntervalSet.from_pairs(pairs))

    def measure(self, levels: TowerLevels) -> Fraction:
        levels.require_depth(self.level)
        return Fraction(self.levels_set.cardinality, levels.cuts_product[self.level])

    def validate(self, levels: TowerLevels) -> "CylinderSet":
        levels.require_depth(self.level)
        if self.levels_set and not self.levels_set.within(0, levels.h[self.level]):
            raise ValueError(
                f"cylinder levels {self.levels_set.intervals} not inside "
                f"[0, {levels.h[self.level]}) at stage {self.level}"
            )
        return self


@dataclass(frozen=True)
class PieceDecomposition:
    """Disjoint cylinders at mixed stages plus an unresolved residual.

    Pieces are ordered shallowest stage first, then by interval start, so
    decompositions are bit-reproducible.  residual is the exact measure of
    the portion that still spilled at the deepest allowed stage.
    """

    pieces: tuple[CylinderSet, ...]
    residual: Fraction = Fraction(0)
    residual_level: int | None = None

    def __post_init__(self):
        by_level: dict[int, IntervalSet] = {}
        for p in self.pieces:
            seen = by_level.get(p.level)
            if seen is not None and seen.intersection_cardinality(p.levels_set):
                raise ValueError(f"overlapping pieces at stage {p.level}")
            by_level[p.level] = p.levels_set if seen is None else seen.union(p.levels_set)

    def total_measure(self, levels: TowerLevels) -> Fraction:
        return sum((p.measure(levels) for p in self.pieces), Fraction(0)) + self.residual


def _canonical_pieces(pieces) -> tuple[CylinderSet, ...]:
    return tuple(
        sorted(pieces, key=lambda p: (p.level, p.levels_set.intervals))
    )


def refine(cyl: CylinderSet, to_level: int, levels: TowerLevels) -> CylinderSet:
    """Re-express a cylinder at a deeper stage; the measure is unchanged."""
    levels.require_depth(to_level)
    if to_level < cyl.level:
        raise ValueError(f"cannot refine stage {cyl.level} up to shallower stage {to_level}")
    cyl.validate(levels)
    out = cyl.levels_set
    for n in range(cyl.level, to_level):
        out = out.translate_by_offsets(levels.offsets[n])
    return CylinderSet(to_level, out)


def _require_room(cyl: CylinderSet, levels: TowerLevels, max_depth: int):
    levels.require_depth(max_depth)
    if max_depth <= cyl.level:
        raise DepthUnavailable(
            f"max_depth {max_depth} must exceed the cylinder stage {cyl.level}"
        )
    cyl.validate(levels)


def apply_power(m: int, cyl: CylinderSet, levels: TowerLevels,
                max_depth: int) -> PieceDecomposition:
    """Decompose T^m applied to a cylinder into in-range pieces.

    At each stage the subset of A that stays inside [0, h_n) after adding m
    is emitted as a cylinder; the rest is refined one stage deeper and
    retried.  Whatever still spills at max_depth becomes the residual.
    Works for either sign of m (negative shifts spill below 0 and are
    refined the same way).
    """
    _require_room(cyl, levels, max_depth)
    pieces = []
    level = cyl.level
    current = cyl.levels_set
    residual = Fraction(0)
    residual_level = None
    while current:
        h = levels.h[level]
        inside = current.clip(-m, h - m)
        if inside:
            pieces.append(CylinderSet(level, inside.shift(m)))
        rest = current.difference(inside)
        if not rest:
            break
        if level == max_depth:
            residual = Fraction(rest.cardinality, levels.cuts_product[level])
            residual_level = level
            break
        current = rest.translate_by_offsets(levels.offsets[level])
        level += 1
    return PieceDecomposition(_canonical_pieces(pieces), residual, residual_level)


class _Refinement:
    """A cylinder seen at every deeper stage, without materializing it.

    The stage-n refinement is the disjoint union of copies p + c, c in
    C_{n-1}, each inside its window [c, c + h_{n-1}).  A cut point x falls in
    at most one window, so counting the refined points below x descends one
    partial copy per stage: O((n - level) log r) per query.
    """

    __slots__ = ("level", "intervals", "starts", "before", "size")

    def __init__(self, cyl: CylinderSet):
        self.level = cyl.level
        self.intervals = cyl.levels_set.intervals
        self.starts = [a for a, _ in self.intervals]
        # before[i]: number of points in the intervals ahead of interval i
        self.before = list(accumulate((b - a for a, b in self.intervals), initial=0))
        self.size = self.before[-1]

    def size_at(self, levels: TowerLevels, n: int) -> int:
        return self.size * (levels.cuts_product[n] // levels.cuts_product[self.level])

    def rank(self, levels: TowerLevels, n: int, x: int) -> int:
        """#{p in refine(cyl -> n) : p < x}."""
        total = 0
        while n > self.level:
            if x <= 0:
                return total
            if x >= levels.h[n]:
                return total + self.size_at(levels, n)
            offsets = levels.offsets[n - 1]
            i = bisect_right(offsets, x) - 1
            n -= 1
            total += i * self.size_at(levels, n)
            x -= offsets[i]
        i = bisect_right(self.starts, x) - 1
        if i < 0:
            return total
        a, b = self.intervals[i]
        return total + self.before[i] + min(x, b) - a

    def count_in(self, levels: TowerLevels, n: int, intervals, shift: int) -> int:
        """#{p in refine(cyl -> n) : p - shift in one of the intervals}."""
        return sum(self.rank(levels, n, hi + shift) - self.rank(levels, n, lo + shift)
                   for lo, hi in intervals)


def _cross_count(levels: TowerLevels, a: _Refinement, b: _Refinement, n: int,
                 t: int) -> int:
    """#{(x, y) in A^n x B^n : y - x = t}, where A or B sits at stage n.

    Walks the intervals of a side at stage n (the shorter list when both
    are) and rank-queries the other, refined to stage n.
    """
    if b.level == n and (a.level < n or len(b.intervals) <= len(a.intervals)):
        return a.count_in(levels, n, b.intervals, -t)
    return b.count_in(levels, n, a.intervals, t)


class _DifferenceCounts:
    """E(n, t) = #{(x, y) in A^n x B^n : y - x = t} for one pair of cylinders.

    A^{n+1} = A^n + C_n as a disjoint union, so

        E(n+1, t) = sum over c, c' in C_n of E(n, t + c - c'),

    and E(n, s) = 0 unless |s| < h_n, which leaves at most two c' per c
    (consecutive offsets are at least h_n apart).  The recursion stops at
    the deeper of the two cylinder stages with the exact cross count.
    E does not depend on m or on the depth budget, so one memo serves every
    correlation of the pair.
    """

    __slots__ = ("a", "b", "base", "memo")

    def __init__(self, A: CylinderSet, B: CylinderSet):
        self.a = _Refinement(A)
        self.b = _Refinement(B)
        self.base = max(A.level, B.level)
        self.memo: dict[tuple[int, int], int] = {}

    def count(self, levels: TowerLevels, n: int, t: int) -> int:
        if not -levels.h[n] < t < levels.h[n]:
            return 0
        key = (n, t)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if n == self.base:
            total = _cross_count(levels, self.a, self.b, n, t)
        else:
            offsets, h = levels.offsets[n - 1], levels.h[n - 1]
            total = 0
            for c in offsets:
                s = t + c
                for c2 in offsets[bisect_right(offsets, s - h):bisect_left(offsets, s + h)]:
                    total += self.count(levels, n - 1, s - c2)
        self.memo[key] = total
        return total


def _shadows(levels: TowerLevels, cyl: CylinderSet, n: int) -> list[tuple[int, int]]:
    """The cylinder clipped to each stage-n copy it meets, in stage-n coordinates."""
    pieces = list(cyl.levels_set.intervals)
    for j in range(cyl.level - 1, n - 1, -1):
        offsets, h = levels.offsets[j], levels.h[j]
        out = []
        for lo, hi in pieces:
            first = max(bisect_right(offsets, lo) - 1, 0)
            for c in offsets[first:bisect_left(offsets, hi)]:
                a, b = max(lo, c), min(hi, c + h)
                if a < b:
                    out.append((a - c, b - c))
        pieces = out
    return pieces


def intersect_measure(a: PieceDecomposition | CylinderSet, b: CylinderSet,
                      levels: TowerLevels) -> Fraction:
    """Exact measure of the intersection with cylinder b.

    Each piece is counted against b at the deeper of the two stages (the
    correlation kernel's cross count at shift 0); the residual (if any) is
    ignored here, callers decide how to account it.
    """
    b.validate(levels)
    if isinstance(a, CylinderSet):
        a = PieceDecomposition((a,))
    b_side = _Refinement(b)
    total = Fraction(0)
    for piece in a.pieces:
        stage = max(piece.level, b.level)
        count = _cross_count(levels, _Refinement(piece), b_side, stage, 0)
        if count:
            total += Fraction(count, levels.cuts_product[stage])
    return total


def correlation_bounds(m: int, A: CylinderSet, B: CylinderSet, levels: TowerLevels,
                       max_depth: int) -> Enclosure:
    """mu(T^m A cap B) as an exact enclosure; degenerate when fully resolved.

    This is the matrix coefficient <U^m 1_A, 1_B> whose decay over mixing
    intervals is the quantity of interest.  With N = max_depth, the lower
    end counts the pairs (x, y) in A^N x B^N with y = x + m (difference
    counts E(N, m)); the upper end adds the residual, the points of A^N
    whose image x + m leaves [0, h_N).  A cylinder B deeper than N is
    clipped to the stage-N copies it meets and counted copy by copy.  The
    result equals intersect_measure(apply_power(m, A, ...), B, ...) plus
    that decomposition's residual.
    """
    key = ("corr", m, A, B, max_depth)
    hit = levels._cache.get(key)
    if hit is None:
        _require_room(A, levels, max_depth)
        B.validate(levels)
        pair_key = ("diff", A, B)
        kernel = levels._cache.get(pair_key)
        if kernel is None:
            kernel = levels._cache[pair_key] = _DifferenceCounts(A, B)
        n, a = max_depth, kernel.a
        if B.level <= n:
            hits, stage = kernel.count(levels, n, m), n
        else:
            hits, stage = a.count_in(levels, n, _shadows(levels, B, n), -m), B.level
        lost = a.size_at(levels, n) - a.count_in(levels, n, ((0, levels.h[n]),), -m)
        value = Fraction(hits, levels.cuts_product[stage])
        residual = Fraction(lost, levels.cuts_product[n])
        hit = levels._cache[key] = Enclosure(value, value + residual)
    return hit


def correlation(m: int, A: CylinderSet, B: CylinderSet, levels: TowerLevels,
                max_depth: int) -> Fraction:
    """mu(T^m A cap B), exact, or DepthExhausted carrying the enclosure."""
    return correlation_bounds(m, A, B, levels, max_depth).exact()


def product_correlation(powers: Sequence[int], m: int, As: Sequence[CylinderSet],
                        Bs: Sequence[CylinderSet], levels: TowerLevels,
                        max_depth: int) -> Fraction:
    """Correlation of T^{n_1} x ... x T^{n_d} on product cylinders.

    The product construction is the Cartesian power of the (C, F) data, so
    the product measure factorizes over coordinates and the value is
    prod_i mu(T^{n_i m} A_i cap B_i).
    """
    if not (len(powers) == len(As) == len(Bs)) or not powers:
        raise ValueError("powers, As, Bs must be non-empty lists of equal length")
    value = Enclosure(Fraction(1), Fraction(1))
    for n_i, A_i, B_i in zip(powers, As, Bs):
        value = value * correlation_bounds(n_i * m, A_i, B_i, levels, max_depth)
    return value.exact()


def decomposition_interval_set(dec: PieceDecomposition, level: int,
                               levels: TowerLevels) -> IntervalSet:
    """Union of all pieces re-expressed at one common stage (for comparisons)."""
    out = IntervalSet()
    for p in dec.pieces:
        out = out.union(refine(p, level, levels).levels_set)
    return out
