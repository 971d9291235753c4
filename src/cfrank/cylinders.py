"""Exact set algebra on cylinders.

A cylinder is a stage index n plus a subset of the tower levels [0, h_n),
stored as disjoint intervals.  The three working identities are

    [A]_n = union over c in C_{n+1} of [A + c]_{n+1}        (refinement)
    [A]_n cap [B]_n = [A cap B]_n                            (intersection)
    T^m [A]_n = [m + A]_n            whenever m + A lies in [0, h_n)

apply_power is the decomposition view: the part of a shifted cylinder that
leaves its stage window is refined one stage deeper and retried, down to a
caller-chosen max depth.  Correlations never build those pieces.  Each is
a forward shift, mu(T^m A cap B) = mu(T^-m B cap A): the side that moves is
A for m >= 0, B for m < 0.  At stage N = max(max_depth, B's stage) they
count level pairs (x, y) of the stage-N refinements with y - x = m by a
memoized recursion over each stage's table of offset differences, read
only inside the reach -top(A^n) <= t <= top(B^n), and the points of the
moving side that pass h_N by a rank query.  Counts stay Python ints until
a caller builds a Fraction.  Refinement adds offsets, so (A + u)^N =
A^N + u and a pair's difference counts are those of its translation class
(both cylinders moved down to start at level 0) read at m minus the
distance between their lowest levels: one memo per class.  What is still
unresolved at the max depth is an explicit residual measure, never
dropped.  A pair is resolved once per tower (_resolve_pair); a single-time
correlation then pays a room check, one kernel read at the shallowest
stage where the moving side does not spill (one bisect; else a read and a
rank query at n, or a bisect in the moving side's own intervals when only
its top copy chain crosses the edge) and two reads of interned fractions.
A class of equal representatives memoizes E(n, t) by |t|.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import inf
from typing import Sequence

from .errors import DepthUnavailable, Enclosure
from .intervals import IntervalSet
from .towers import TowerLevels


@dataclass(frozen=True)
class CylinderSet:
    level: int
    levels_set: IntervalSet

    def __hash__(self) -> int:
        """The generated dataclass hash, computed once and kept outside the fields."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.level, self.levels_set))
            object.__setattr__(self, "_hash", h)
            return h

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
    cyl.validate(levels)
    pieces = []
    level = cyl.level
    current = cyl.levels_set
    residual = Fraction(0)
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
            break
        current = rest.translate_by_offsets(levels.offsets[level])
        level += 1
    return PieceDecomposition(_canonical_pieces(pieces), residual)


class _Refinement:
    """A cylinder seen at every deeper stage, without materializing it.

    The stage-n refinement is the disjoint union of copies p + c, c in
    C_{n-1}, each inside its window [c, c + h_{n-1}).  A cut point x falls in
    at most one window, so counting the refined points below x descends one
    partial copy per stage: O((n - level) log r) per query.
    """

    __slots__ = ("level", "intervals", "starts", "before", "size", "top")

    def __init__(self, cyl: CylinderSet):
        self.level = cyl.level
        self.intervals = cyl.levels_set.intervals
        self.starts = [a for a, _ in self.intervals]
        # before[i]: number of points in the intervals ahead of interval i
        self.before = list(accumulate((b - a for a, b in self.intervals), initial=0))
        self.size = self.before[-1]
        self.top = self.intervals[-1][1] - 1 if self.intervals else 0  # max(cyl), 0 if empty

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


def _difference_table(levels: TowerLevels, n: int) -> tuple[list[int], list[int]]:
    """The distinct differences c' - c of C_n, ascending, and their multiplicities.

    Kept on the tower as ("deltas", n) and shared by every kernel of it
    (each kernel lists the tables it reads when it is built); delta 0 has
    multiplicity r_n and the multiplicities sum to r_n ** 2.
    """
    key = ("deltas", n)
    table = levels._cache.get(key)
    if table is None:
        offsets = levels.offsets[n]
        mult = Counter(c2 - c for c in offsets for c2 in offsets)
        deltas = sorted(mult)
        table = levels._cache[key] = (deltas, [mult[d] for d in deltas])
    return table


class _DifferenceCounts:
    """E(n, t) = #{(x, y) in A^n x B^n : y - x = t} for one translation class.

    A and B are the class representatives, each starting at level 0; a
    pair (A + ua, B + ub) reads E(n, t - (ub - ua)) (see _ResolvedPair).

    A^{n+1} = A^n + C_n as a disjoint union, so

        E(n+1, t) = sum over c, c' in C_n of E(n, t + c - c')
                  = sum over delta of mult(delta) E(n, t - delta),

    with delta over the distinct differences c' - c of C_n and mult(delta)
    the number of pairs giving it.  tables[n] holds stage n's sorted
    differences and multiplicities (_difference_table), one list per kernel
    from its base stage on.  Offsets ascend from 0, so X^n spans
    [0, top(X^n)] with top(X^n) = max(X) + the sum of C_j[-1] over the
    stages j from X's stage to n - 1, and E(n, s) = 0 outside the reach
    -top(A^n) <= s <= top(B^n), a window inside (-h_n, h_n).  The children
    that count are one slice of the sorted deltas, found by two bisects.
    The recursion stops at the deeper of the two cylinder stages with the
    exact cross count; an empty cylinder has an empty reach and counts 0.
    E does not depend on m or on the depth budget, so one memo per stage,
    keyed by t, serves every correlation of every pair in the class.  When
    A == B (fold), E(n, -t) = E(n, t) over a symmetric reach: keyed by |t|.
    """

    __slots__ = ("a", "b", "base", "tables", "gaps", "fold", "reach", "memo")

    def __init__(self, A: CylinderSet, B: CylinderSet, levels: TowerLevels):
        self.a = _Refinement(A)
        self.b = _Refinement(B)
        self.base = base = max(A.level, B.level)
        depth = levels.depth
        self.tables = [_difference_table(levels, n) if n >= base else None
                       for n in range(depth)]
        # reach[n] = (-top(A^n), top(B^n)); (1, 0) is the empty window, kept
        # below the base stage and for an empty side.  gaps = (A's, B's):
        # gaps[X][n] = h_n - top(X^n), non-decreasing from X's stage on, so
        # X^n + u stays below h_n iff u < gaps[X][n]; no shift reaches the
        # gaps of a pair with an empty side, which meets and loses nothing
        self.reach = [(1, 0)] * (depth + 1)
        self.gaps = ([inf] * (depth + 1),) * 2
        if A.levels_set and B.levels_set:
            top_a, top_b = ([0] * c.level + list(accumulate(  # top_x[n] = top(X^n), n >= X.level
                (levels.offsets[j][-1] for j in range(c.level, depth)), initial=c.levels_set.max()))
                for c in (A, B))
            self.gaps = tuple([h - top for h, top in zip(levels.h, tops)] for tops in (top_a, top_b))
            self.reach[base:] = [(-a, b) for a, b in zip(top_a[base:], top_b[base:])]
        self.fold = A == B
        self.memo: list[dict[int, int]] = [{} for _ in range(depth + 1)]

    def count(self, levels: TowerLevels, n: int, t: int) -> int:
        if t < 0 and self.fold:
            t = -t
        lo, hi = self.reach[n]
        if not lo <= t <= hi:
            return 0
        hit = self.memo[n].get(t)
        return self._count(levels, n, t) if hit is None else hit

    def _count(self, levels: TowerLevels, n: int, t: int) -> int:
        """E(n, t) for a t inside stage n's reach that is not memoized yet."""
        if n == self.base:
            total = _cross_count(levels, self.a, self.b, n, t)
        else:
            # every child t - delta lies in the child's reach: read memo hits inline
            child = n - 1
            deltas, mults = self.tables[child]
            lo, hi = self.reach[child]
            memo = self.memo[child]
            fold = self.fold
            total = 0
            for i in range(bisect_left(deltas, t - hi), bisect_right(deltas, t - lo)):
                u = t - deltas[i]
                if u < 0 and fold:
                    u = -u
                e = memo.get(u)
                total += mults[i] * (self._count(levels, child, u) if e is None else e)
        self.memo[n][t] = total
        return total


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


class _ResolvedPair:
    """A pair (A, B) resolved once for every correlation of it.

    With A0 = A - ua, B0 = B - ub and shift = ub - ua, E_{A,B}(n, t) =
    E_{A0,B0}(n, t - shift), so every pair with the same stages and
    interval shapes shares one kernel, kept on the tower as ("diff", A0,
    B0); it depends on neither m nor the depth budget.  Every correlation
    is a forward shift: mu(T^m A cap B) = mu(T^-m B cap A), so the side
    that moves is A for m >= 0 and B for m < 0, and sides[m < 0] holds its
    kernel refinement X0, its lowest level u and its kernel gaps.
    Both cylinders are validated here, once per pair: the tower is
    immutable and nothing is cached for a pair that fails.
    """

    __slots__ = ("kernel", "shift", "sides")

    def __init__(self, A: CylinderSet, B: CylinderSet, levels: TowerLevels):
        A.validate(levels)
        B.validate(levels)
        ua, ub = (c.levels_set.min() if c.levels_set else 0 for c in (A, B))
        A0, B0 = (CylinderSet(c.level, c.levels_set.shift(-u)) for c, u in ((A, ua), (B, ub)))
        class_key = ("diff", A0, B0)
        kernel = levels._cache.get(class_key)
        if kernel is None:
            kernel = levels._cache[class_key] = _DifferenceCounts(A0, B0, levels)
        self.kernel, self.shift = kernel, ub - ua
        self.sides = ((kernel.a, ua, kernel.gaps[0]), (kernel.b, ub, kernel.gaps[1]))

    def lost(self, levels: TowerLevels, n: int, m: int) -> int:
        """#{x in X^n : x + |m| >= h_n}, X the side that moves.  X^n lies in
        [u, h_n), so only its top edge is crossed: 0 when X^n + |m| stays
        below h_n.  Else, when the edge cuts only X's top copy chain (X0 plus
        the last offset of every stage), one bisect in X0's intervals, and
        otherwise one rank walk of X0 at h_n - |m| - u."""
        x, u, gaps = self.sides[m < 0]
        k = abs(m) + u
        gap = gaps[n]
        if k < gap:
            return 0
        y = gap + x.top - k  # h_n - k less the top chain's offsets
        if y >= 0:
            return x.size - x.rank(levels, x.level, y)
        return x.size_at(levels, n) - x.rank(levels, n, levels.h[n] - k)

    def counts(self, levels: TowerLevels, n: int, m: int) -> tuple[int, int]:
        """(hits, lost) at stage n.  If X^s + |m| stays in [0, h_s) at a stage
        s in [base, n], T^|m| X = [X^s + |m|]_s (the third identity): nothing
        is lost and hits = E(s, m - shift) scaled to stage n.  The first such
        s is one bisect over X's gaps; past n, hits and lost are counted at n."""
        kernel = self.kernel
        _, u, gaps = self.sides[m < 0]
        s = bisect_right(gaps, abs(m) + u, kernel.base, n + 1)
        if s > n:
            return kernel.count(levels, n, m - self.shift), self.lost(levels, n, m)
        cuts = levels.cuts_product
        return kernel.count(levels, s, m - self.shift) * (cuts[n] // cuts[s]), 0


def _resolve_pair(A: CylinderSet, B: CylinderSet, levels: TowerLevels,
                  max_depth: int) -> _ResolvedPair:
    """The room check for A at max_depth, then the pair's handle, built on
    first use and kept on the tower as ("pair", A, B)."""
    if not 0 <= max_depth <= levels.depth or max_depth <= A.level:
        _require_room(A, levels, max_depth)
    key = ("pair", A, B)
    pair = levels._cache.get(key)
    if pair is None:
        pair = levels._cache[key] = _ResolvedPair(A, B, levels)
    return pair


def correlation_bounds(m: int, A: CylinderSet, B: CylinderSet, levels: TowerLevels,
                       max_depth: int) -> Enclosure:
    """mu(T^m A cap B) as an exact enclosure; degenerate when fully resolved.

    This is the matrix coefficient <U^m 1_A, 1_B> whose decay over mixing
    intervals is the quantity of interest.  All is counted at one stage
    n = max(max_depth, B.level) (_ResolvedPair.counts reads a shallower one
    when nothing spills there): the lower end counts the pairs (x, y) in
    A^n x B^n with y = x + m (difference counts E(n, m)); the upper end adds
    the residual, the points of the side that
    moves, X = A for m >= 0 or B for m < 0, that pass h_n under T^|m|.  The
    result equals intersect_measure(apply_power(|m|, X, ..., n), the other
    side, ...) plus that decomposition's residual, and a pair with an empty
    side reads 0.  Its ends are interned (TowerLevels.level_fractions).
    """
    n = max(max_depth, B.level)
    hits, lost = _resolve_pair(A, B, levels, max_depth).counts(levels, n, m)
    ends = levels.level_fractions(n)
    lower = ends[hits]
    return tuple.__new__(Enclosure, (lower, ends[hits + lost] if lost else lower))


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

