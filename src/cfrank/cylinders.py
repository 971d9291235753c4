"""Exact set algebra on cylinders.

A cylinder is a stage index n plus a subset of the tower levels [0, h_n),
stored as disjoint intervals.  The three working identities are

    [A]_n = union over c in C_{n+1} of [A + c]_{n+1}        (refinement)
    [A]_n cap [B]_n = [A cap B]_n                            (intersection)
    T^m [A]_n = [m + A]_n            whenever m + A lies in [0, h_n)

and everything else is bookkeeping: the part of a shifted cylinder that
leaves its stage window is refined one stage deeper and retried, down to a
caller-chosen max depth.  What is still unresolved there is reported as an
explicit residual measure, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DepthUnavailable, Enclosure
from .intervals import IntervalSet
from .towers import TowerLevels

# materialized refinements are cached on the TowerLevels up to this many intervals
_REFINE_CAP = 1 << 16


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
    residual_set: IntervalSet | None = field(default=None, repr=False)

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
    return CylinderSet(to_level, _refined_set(levels, cyl.levels_set, cyl.level, to_level))


def _refined_set(levels: TowerLevels, base: IntervalSet, base_level: int,
                 to_level: int) -> IntervalSet:
    """Materialized refinement base + C_{n+1} + ... + C_L, cached on levels."""
    if to_level == base_level or not base:
        return base
    key = ("refine", base, base_level, to_level)
    hit = levels._cache.get(key)
    if hit is not None:
        return hit
    cur = _refined_set(levels, base, base_level, to_level - 1)
    cur = cur.translate_by_offsets(levels.offsets[to_level - 1])
    if len(cur.intervals) <= _REFINE_CAP:
        levels._cache[key] = cur
    return cur


def _refined_count(levels: TowerLevels, base: IntervalSet, base_level: int,
                   window: IntervalSet, window_level: int) -> int:
    """|window cap refine(base -> window_level)| without materializing.

    Descends the refinement tree of `base`, clipping the window to each
    translated copy; only copies the window actually touches are visited,
    so narrow windows stay cheap even when a full refinement would not fit.
    """
    if not window or not base:
        return 0
    if window_level == base_level:
        return base.intersection_cardinality(window)
    j = window_level
    h_prev = levels.h[j - 1]
    total = 0
    for c in levels.offsets[j - 1]:
        w = window.clip(c, c + h_prev)
        if w:
            total += _refined_count(levels, base, base_level, w.shift(-c), j - 1)
    return total


def _pair_count(levels: TowerLevels, a: IntervalSet, a_level: int,
                b: IntervalSet, b_level: int) -> tuple[int, int]:
    """(matching level count, stage) for two cylinders at possibly different stages."""
    if a_level == b_level:
        return a.intersection_cardinality(b), a_level
    if a_level > b_level:
        deep_set, deep_level, base, base_level = a, a_level, b, b_level
    else:
        deep_set, deep_level, base, base_level = b, b_level, a, a_level
    span = levels.cuts_product[deep_level] // levels.cuts_product[base_level]
    if len(base.intervals) * span <= _REFINE_CAP:
        refined = _refined_set(levels, base, base_level, deep_level)
        return refined.intersection_cardinality(deep_set), deep_level
    return _refined_count(levels, base, base_level, deep_set, deep_level), deep_level


def apply_power(m: int, cyl: CylinderSet, levels: TowerLevels,
                max_depth: int) -> PieceDecomposition:
    """Decompose T^m applied to a cylinder into in-range pieces.

    At each stage the subset of A that stays inside [0, h_n) after adding m
    is emitted as a cylinder; the rest is refined one stage deeper and
    retried.  Whatever still spills at max_depth becomes the residual.
    Works for either sign of m (negative shifts spill below 0 and are
    refined the same way).
    """
    levels.require_depth(max_depth)
    if max_depth <= cyl.level:
        raise DepthUnavailable(
            f"max_depth {max_depth} must exceed the cylinder stage {cyl.level}"
        )
    cyl.validate(levels)
    key = ("pow", m, cyl, max_depth)
    hit = levels._cache.get(key)
    if hit is not None:
        return hit
    dec = _apply_power_uncached(m, cyl, levels, max_depth)
    if len(levels._cache) > 8192:
        levels._cache.clear()
    levels._cache[key] = dec
    return dec


def _apply_power_uncached(m: int, cyl: CylinderSet, levels: TowerLevels,
                          max_depth: int) -> PieceDecomposition:
    pieces = []
    level = cyl.level
    current = cyl.levels_set
    residual = Fraction(0)
    residual_level = None
    residual_set = None
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
            residual_set = rest
            break
        current = rest.translate_by_offsets(levels.offsets[level])
        level += 1
    return PieceDecomposition(_canonical_pieces(pieces), residual, residual_level, residual_set)


def intersect_measure(a: PieceDecomposition | CylinderSet, b: CylinderSet,
                      levels: TowerLevels) -> Fraction:
    """Exact measure of the intersection with cylinder b.

    Each piece is matched against b at the deeper of the two stages; the
    residual (if any) is ignored here, callers decide how to account it.
    """
    b.validate(levels)
    if isinstance(a, CylinderSet):
        a = PieceDecomposition((a,))
    total = Fraction(0)
    for piece in a.pieces:
        count, stage = _pair_count(levels, piece.levels_set, piece.level,
                                   b.levels_set, b.level)
        if count:
            total += Fraction(count, levels.cuts_product[stage])
    return total


def correlation_bounds(m: int, A: CylinderSet, B: CylinderSet, levels: TowerLevels,
                       max_depth: int) -> Enclosure:
    """mu(T^m A cap B) as an exact enclosure; degenerate when fully resolved.

    This is the matrix coefficient <U^m 1_A, 1_B> whose decay over mixing
    intervals is the quantity of interest.  The lower end is the part of
    T^m A resolved by max_depth; the upper end adds the unresolved residual.
    """
    key = ("corr", m, A, B, max_depth)
    hit = levels._cache.get(key)
    if hit is None:
        dec = apply_power(m, A, levels, max_depth)
        value = intersect_measure(dec, B, levels)
        hit = levels._cache[key] = Enclosure(value, value + dec.residual)
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
        out = out.union(_refined_set(levels, p.levels_set, p.level, level))
    return out
