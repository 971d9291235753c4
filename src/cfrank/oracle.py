"""Brute-force point-orbit oracle.

The oracle enumerates every unit level of a deep tower as an explicit
integer and moves points by plain addition, with none of the interval or
decomposition machinery of the main path: a cylinder is expanded into a
sorted array of level indices by naive looping over offset sets, and
T^m of a point p is p + m while that stays inside the tower.  Points that
step outside the enumerated tower are exactly the mass the main path calls
residual at the same depth, so the two sides are comparable one-to-one:
both either produce the same exact value or the same [lower, upper]
interval.

Deliberately numpy-based and independent: do not reuse IntervalSet here.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DepthUnavailable, Enclosure
from .towers import TowerLevels

_MAX_SAFE = 1 << 60  # keep well inside int64


def _check_depth(levels: TowerLevels, depth: int):
    levels.require_depth(depth)
    if levels.h[depth] >= _MAX_SAFE:
        raise ValueError(
            f"oracle requires h_depth < 2**60, got h_{depth} = {levels.h[depth]}"
        )


def expand_points(cyl_level: int, points, to_level: int, levels: TowerLevels) -> np.ndarray:
    """All unit levels of the depth-`to_level` tower inside the cylinder."""
    _check_depth(levels, to_level)
    if to_level < cyl_level:
        raise DepthUnavailable(
            f"cannot expand a stage-{cyl_level} cylinder at shallower stage {to_level}"
        )
    pts = sorted(int(p) for p in points)
    arr = np.asarray(pts, dtype=np.int64)
    for n in range(cyl_level, to_level):
        cs = np.asarray(levels.offsets[n], dtype=np.int64)
        arr = (arr[:, None] + cs[None, :]).ravel()
        arr.sort()
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
    shifted = sa + int(m)
    in_range = (shifted >= 0) & (shifted < h)
    hits = int(np.isin(shifted[in_range], sb, assume_unique=True).sum())
    lost = int((~in_range).sum())
    denom = levels.cuts_product[depth]
    return Enclosure(Fraction(hits, denom), Fraction(hits + lost, denom))


def oracle_correlation(m: int, a_level: int, a_points, b_level: int, b_points,
                       levels: TowerLevels, depth: int) -> Fraction:
    """Exact oracle value, or DepthExhausted carrying the enclosure."""
    return oracle_correlation_bounds(m, a_level, a_points, b_level, b_points,
                                     levels, depth).exact()
