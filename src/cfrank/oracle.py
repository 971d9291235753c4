"""Brute-force point-orbit oracle.

The oracle enumerates every unit level of a deep tower as an explicit
integer and moves points by plain addition, with none of the interval or
decomposition machinery of the main path: a cylinder is expanded into a
sorted array of level indices, and T^m of a point p is p + m while that
stays inside the tower.  Points that step outside the enumerated tower are
exactly the mass the main path calls residual at the same depth, so the two
sides are comparable one-to-one: both either produce the same exact value
or the same [lower, upper] interval.

A stage-k cylinder with points A_k is A^N = S + A_k at depth N, where the
sumset S = C_k + ... + C_{N-1} is built once per (k, N), kept in the
tower's cache and checked once to have gaps of at least h_k, so S + A_k is
a disjoint, strictly increasing sum for every point set in [0, h_k).  With
the shallower cylinder refined to stage k, collisions of T^m A with B are

    sum over p in A_k, q in B_k of R(m + p - q),  R(d) = #{s in S : s + d in S},

each R(|d|) counted once per (k, N) by merging S + d with S, _CHUNK
points of S + d at a time.  A pair keeps its refined points and distinct
differences p - q with multiplicities, so a call costs one lag read per
difference, two searches for the residual (_kept) and interned ends.

Deliberately numpy-based and independent: do not reuse IntervalSet here.
numpy is imported only when the oracle is first used, so `import cfrank`
and the command-line front end, which never calls the oracle, do not load
it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import TYPE_CHECKING

from .errors import DepthUnavailable, Enclosure, OffsetOverlap
from .towers import TowerLevels

if TYPE_CHECKING:
    import numpy as np

_MAX_SAFE = 1 << 60  # keep well inside int64
_CHUNK = 1 << 16  # points of s + d merged with s at a time


class _Lags(dict):
    """R(d) = #{x in s : x + d in s} by lag d >= 0, merge-counted on first use."""

    def __init__(self, s: np.ndarray, h: int):
        super().__init__()
        self.s, self.h = s, h

    def __missing__(self, d: int) -> int:
        import numpy as np

        s = self.s
        n = int(np.searchsorted(s, self.h - d))  # s + d stays inside the tower
        count = 0
        for i in range(0, n, _CHUNK):  # each run of s + d against the slice of s it spans
            j = min(i + _CHUNK, n)
            lo, hi = (0, s.size) if s.size <= _CHUNK else (  # a short s: merged whole
                np.searchsorted(s, s[i] + d), np.searchsorted(s, s[j - 1] + d, "right"))
            merged = np.concatenate((s[i:j] + d, s[lo:hi]))
            merged.sort(kind="stable")  # two sorted runs: one merge
            count += int(np.count_nonzero(merged[1:] == merged[:-1]))
        self[d] = count
        return count


def _base(levels: TowerLevels, k: int, depth: int) -> _Lags:
    """The sumset C_k + ... + C_{depth-1} with its lag counts so far.

    Kept on the tower as ("oracle", k, depth), sized by the sumset:
    r_k * ... * r_{depth-1} int64 points.
    """
    key = ("oracle", k, depth)
    if key not in levels._cache:
        import numpy as np

        levels.require_depth(depth)
        if levels.h[depth] >= _MAX_SAFE:
            raise ValueError(
                f"oracle requires h_depth < 2**60, got h_{depth} = {levels.h[depth]}")
        if depth < k:
            raise DepthUnavailable(
                f"cannot expand a stage-{k} cylinder at shallower stage {depth}")
        s = np.zeros(1, dtype=np.int64)
        for n in range(k, depth):
            s = (np.asarray(levels.offsets[n], dtype=np.int64)[:, None] + s[None, :]).ravel()
        if not (s[1:] - s[:-1] >= levels.h[k]).all():
            raise OffsetOverlap(f"stage-{depth} copies of the stage-{k} tower overlap")
        levels._cache[key] = _Lags(s, levels.h[depth])
    return levels._cache[key]


def expand_points(cyl_level: int, points, to_level: int, levels: TowerLevels) -> np.ndarray:
    """All unit levels of the depth-`to_level` tower inside the cylinder.

    Repeated points count once; points outside [0, h_cyl_level) raise
    ValueError.  The result is a strictly increasing int64 array.
    """
    import numpy as np

    levels.require_depth(cyl_level)
    pts = sorted({int(p) for p in points})
    h = levels.h[cyl_level]
    if pts and (pts[0] < 0 or pts[-1] >= h):
        raise ValueError(f"cylinder levels {pts} not inside [0, {h}) at stage {cyl_level}")
    s = _base(levels, cyl_level, to_level).s
    return (s[:, None] + np.asarray(pts, dtype=np.int64)[None, :]).ravel()


def _kept(s: np.ndarray, pa: list[int], x: int) -> int:
    """#{(v, p) in S x A_k : v + p < x}.  S has gaps >= h_k (_base checks) and A_k
    lies sorted in [0, h_k): each v below x - max(A_k) keeps all of A_k, the
    next keeps the p below x - v, and every later v lies past x."""
    if not pa:
        return 0
    j = int(s.searchsorted(x - pa[-1]))
    return len(pa) * j + (bisect_left(pa, x - int(s[j])) if j < s.size else 0)


def oracle_correlation_bounds(m: int, a_level: int, a_points, b_level: int, b_points,
                              levels: TowerLevels, depth: int) -> Enclosure:
    """mu(T^m A cap B) by counting point collisions at one fixed depth.

    Orbit points that leave the enumerated tower widen the result into the
    same [lower, upper] enclosure the main path reports at that depth.

    ("oracle-pair", a_level, a_pts, b_level, b_pts, depth) keeps one pair
    on the tower: A's points refined to stage k = max(a_level, b_level),
    sorted, the distinct differences p - q with multiplicities, the (k,
    depth) lag counts of the ("oracle", k, depth) entry and the interned
    ends.  Its points are validated once, when it is built.
    """
    a_pts, b_pts = tuple(a_points), tuple(b_points)
    key = ("oracle-pair", a_level, a_pts, b_level, b_pts, depth)
    entry = levels._cache.get(key)
    if entry is None:
        k = max(a_level, b_level)
        pa = expand_points(a_level, a_pts, k, levels).tolist()
        pb = expand_points(b_level, b_pts, k, levels).tolist()
        diffs = list(Counter(p - q for p in pa for q in pb).items())
        entry = levels._cache[key] = (pa, diffs, _base(levels, k, depth),
                                      levels.level_fractions(depth))
    pa, diffs, lags, ends = entry
    s, h = lags.s, lags.h
    size = len(pa) * s.size
    m = int(m)
    if abs(m) >= h:  # every point leaves the tower; also keeps m out of int64
        return Enclosure(ends[0], ends[size])
    hits = 0
    for d, c in diffs:
        hits += c * lags[abs(d + m)]
    lost = size - _kept(s, pa, h - m) if m >= 0 else _kept(s, pa, -m)
    lower = ends[hits]
    return Enclosure(lower, ends[hits + lost] if lost else lower)
