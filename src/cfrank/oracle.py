"""Brute-force point-orbit oracle.

The oracle enumerates every unit level of a deep tower as an explicit
integer and moves points by plain addition, with none of the interval or
decomposition machinery of the main path: a cylinder is expanded into a
sorted array of level indices stage by stage, and T^m of a point p is
p + m while that stays inside the tower.  Points that step outside the
enumerated tower are exactly the mass the main path calls residual at the
same depth, so the two sides are comparable one-to-one: both either produce
the same exact value or the same [lower, upper] interval.

Neither step needs a full sort.  Expanding one stage places a copy of the
array at every offset of C_n, offset-major; the copies of a stage never
overlap (build_levels rejects offsets closer than h_n), so the result comes
out strictly increasing, which expand_points checks before returning.
Collisions of T^m A with B are counted by merging the two sorted, duplicate
free arrays (a stable sort of two sorted runs is one merge) and counting
adjacent equal entries.  Expansions are recomputed on every call and never
cached: a per-(cylinder, depth) cache grows peak memory by more than it
saves, and callers ask for one m at a time.

Deliberately numpy-based and independent: do not reuse IntervalSet here.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DepthUnavailable, Enclosure, OffsetOverlap
from .towers import TowerLevels

_MAX_SAFE = 1 << 60  # keep well inside int64


def _check_depth(levels: TowerLevels, depth: int):
    levels.require_depth(depth)
    if levels.h[depth] >= _MAX_SAFE:
        raise ValueError(
            f"oracle requires h_depth < 2**60, got h_{depth} = {levels.h[depth]}"
        )


def expand_points(cyl_level: int, points, to_level: int, levels: TowerLevels) -> np.ndarray:
    """All unit levels of the depth-`to_level` tower inside the cylinder.

    Repeated points count once; points outside [0, h_cyl_level) raise
    ValueError.  The result is a strictly increasing int64 array.
    """
    _check_depth(levels, to_level)
    if to_level < cyl_level:
        raise DepthUnavailable(
            f"cannot expand a stage-{cyl_level} cylinder at shallower stage {to_level}"
        )
    pts = sorted({int(p) for p in points})
    h = levels.h[cyl_level]
    if pts and (pts[0] < 0 or pts[-1] >= h):
        raise ValueError(f"cylinder levels {pts} not inside [0, {h}) at stage {cyl_level}")
    arr = np.asarray(pts, dtype=np.int64)
    for n in range(cyl_level, to_level):
        cs = np.asarray(levels.offsets[n], dtype=np.int64)
        arr = (cs[:, None] + arr[None, :]).ravel()
    if not (arr[1:] > arr[:-1]).all():
        raise OffsetOverlap(
            f"expanded stage-{to_level} levels are not strictly increasing: "
            "tower copies overlap"
        )
    return arr


def oracle_correlation_bounds(m: int, a_level: int, a_points, b_level: int, b_points,
                              levels: TowerLevels, depth: int) -> Enclosure:
    """mu(T^m A cap B) by counting point collisions at one fixed depth.

    Orbit points that leave the enumerated tower widen the result into the
    same [lower, upper] enclosure the main path reports at that depth.
    """
    sa = expand_points(a_level, a_points, depth, levels)
    sb = expand_points(b_level, b_points, depth, levels)
    h = levels.h[depth]
    denom = levels.cuts_product[depth]
    m = int(m)
    if abs(m) >= h:  # every point leaves the tower; also keeps m out of int64
        return Enclosure(Fraction(0), Fraction(sa.size, denom))
    inside = sa[np.searchsorted(sa, -m):np.searchsorted(sa, h - m)] + m
    merged = np.concatenate((inside, sb))
    merged.sort(kind="stable")
    hits = int(np.count_nonzero(merged[1:] == merged[:-1]))
    lost = sa.size - inside.size
    return Enclosure(Fraction(hits, denom), Fraction(hits + lost, denom))


def oracle_correlation(m: int, a_level: int, a_points, b_level: int, b_points,
                       levels: TowerLevels, depth: int) -> Fraction:
    """Exact oracle value, or DepthExhausted carrying the enclosure."""
    return oracle_correlation_bounds(m, a_level, a_points, b_level, b_points,
                                     levels, depth).exact()
