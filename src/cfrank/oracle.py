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
a disjoint, strictly increasing sum for every point set in [0, h_k).  S is
held in the narrowest signed dtype that holds h_N (int32 below 2**31, else
int64), written in place and gap-checked _CHUNK points at a time, so its
build needs S plus one slice.  With the shallower cylinder refined to
stage k, collisions of T^m A with B are

    sum over p in A_k, q in B_k of R(m + p - q),  R(d) = #{s in S : s + d in S},

each R(|d|) counted once per (k, N) by merging S + d with S, _CHUNK
points of S + d at a time; a lag 0 < |d| < g, g the least gap of S, or
past the tower, is 0 without a merge.  A pair keeps its refined points and
its distinct differences p - q, sorted, with their multiplicities, so a
warm call is plain Python: R(0) times the multiplicity of -m, the lags of
the two runs of differences with |p - q + m| >= g, two bisects for the
residual (_kept) and interned ends.  Every search bisects a memoryview of
S, whose items are Python ints whatever S's dtype; only the merge slices
are numpy, and they keep S's dtype.  expand_points returns int64 points
whatever the dtype of S.

Deliberately numpy-based and independent: do not reuse IntervalSet here.
numpy is imported only when the oracle is first used, so `import cfrank`
and the command-line front end, which never calls the oracle, do not load
it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from math import prod
from typing import TYPE_CHECKING

from .errors import DepthUnavailable, Enclosure, OffsetOverlap
from .towers import TowerLevels

if TYPE_CHECKING:
    import numpy as np

_MAX_SAFE = 1 << 60  # keep well inside int64
_CHUNK = 1 << 15  # points of s + d merged with s, or of s gap-checked, at a time


class _Lags(dict):
    """R(d) = #{x in s : x + d in s} by lag d >= 0, merge-counted on first use.

    gap is the least distance between consecutive points of s (h when s has
    one point): every lag 0 < d < gap, and every d >= h, is 0 without a
    merge.  view is a memoryview of s: it copies nothing and its items are
    Python ints, so every search is a bisect in plain Python, whatever s's
    dtype.  Only the merge slices are numpy, and they keep s's dtype, so an
    int32 s is never cast to a wider one.
    """

    def __init__(self, s: np.ndarray, h: int, gap: int):
        super().__init__()
        self.s, self.h, self.gap, self.view = s, h, gap, memoryview(s)

    def __missing__(self, d: int) -> int:
        import numpy as np

        s, view = self.s, self.view
        count = 0
        if d == 0 or self.gap <= d < self.h:  # else no two points are d apart in the tower
            n = bisect_left(view, self.h - d)  # s + d stays inside the tower
            step = s.dtype.type(d)
            for i in range(0, n, _CHUNK):  # each run of s + d against the slice of s it spans
                j = min(i + _CHUNK, n)
                lo, hi = (0, len(view)) if len(view) <= _CHUNK else (  # a short s: merged whole
                    bisect_left(view, view[i] + d), bisect_right(view, view[j - 1] + d))
                merged = np.concatenate((s[i:j] + step, s[lo:hi]))
                merged.sort(kind="stable")  # two sorted runs: one merge
                count += int(np.count_nonzero(merged[1:] == merged[:-1]))
        self[d] = count
        return count


def _base(levels: TowerLevels, k: int, depth: int) -> _Lags:
    """The sumset C_k + ... + C_{depth-1} with its lag counts so far.

    Kept on the tower as ("oracle", k, depth), sized by the sumset:
    r_k * ... * r_{depth-1} points, int32 when h_depth < 2**31, else int64.
    S is built in place, stage by stage (block j of a stage is the sumset so
    far plus c_j, written from the last block down to block 0, which it
    reads), and its gaps are checked _CHUNK at a time, so no temporary is
    as large as S.
    """
    key = ("oracle", k, depth)
    if key not in levels._cache:
        import numpy as np

        levels.require_depth(depth)
        h = levels.h[depth]
        if h >= _MAX_SAFE:
            raise ValueError(f"oracle requires h_depth < 2**60, got h_{depth} = {h}")
        if depth < k:
            raise DepthUnavailable(
                f"cannot expand a stage-{k} cylinder at shallower stage {depth}")
        offsets = levels.offsets[k:depth]
        s = np.zeros(prod(map(len, offsets)), dtype=np.int32 if h < 1 << 31 else np.int64)
        t, size = s.dtype.type, 1
        for stage in offsets:
            for j in reversed(range(len(stage))):
                np.add(s[:size], t(stage[j]), out=s[j * size:(j + 1) * size])
            size *= len(stage)
        gap = h
        for i in range(1, s.size, _CHUNK):  # the pairs (p - 1, p), p in [i, j)
            j = min(i + _CHUNK, s.size)
            gap = min(gap, int((s[i:j] - s[i - 1:j - 1]).min()))
        if gap < levels.h[k]:
            raise OffsetOverlap(f"stage-{depth} copies of the stage-{k} tower overlap")
        levels._cache[key] = _Lags(s, h, gap)
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


def _kept(view: memoryview, pa: list[int], x: int) -> int:
    """#{(v, p) in S x A_k : v + p < x}, with view a memoryview of S.  S has
    gaps >= h_k (_base checks) and A_k lies sorted in [0, h_k): each v below
    x - max(A_k) keeps all of A_k, the next keeps the p below x - v, and
    every later v lies past x.  Both searches bisect Python ints."""
    if not pa:
        return 0
    j = bisect_left(view, x - pa[-1])
    return len(pa) * j + (bisect_left(pa, x - view[j]) if j < len(view) else 0)


def oracle_correlation_bounds(m: int, a_level: int, a_points, b_level: int, b_points,
                              levels: TowerLevels, depth: int) -> Enclosure:
    """mu(T^m A cap B) by counting point collisions at one fixed depth.

    Orbit points that leave the enumerated tower widen the result into the
    same [lower, upper] enclosure the main path reports at that depth.

    ("oracle-pair", a_level, a_pts, b_level, b_pts, depth) keeps one pair
    on the tower: A's points refined to stage k = max(a_level, b_level),
    sorted, the distinct differences p - q, sorted, with a dict of their
    multiplicities, the (k, depth) lag counts of the ("oracle", k, depth)
    entry and the interned ends.  Its points are validated once, when it
    is built.
    """
    a_pts, b_pts = tuple(a_points), tuple(b_points)
    key = ("oracle-pair", a_level, a_pts, b_level, b_pts, depth)
    entry = levels._cache.get(key)
    if entry is None:
        k = max(a_level, b_level)
        pa = expand_points(a_level, a_pts, k, levels).tolist()
        pb = expand_points(b_level, b_pts, k, levels).tolist()
        mult = Counter(p - q for p in pa for q in pb)
        entry = levels._cache[key] = (pa, sorted(mult), dict(mult), _base(levels, k, depth),
                                      levels.level_fractions(depth))
    pa, diffs, mult, lags, ends = entry
    view, h, g = lags.view, lags.h, lags.gap
    size = len(pa) * len(view)
    m = int(m)
    if abs(m) >= h:  # every point leaves the tower
        return tuple.__new__(Enclosure, (ends[0], ends[size]))
    hits = mult.get(-m, 0) * len(view)  # R(0) = |S|
    i = bisect_right(diffs, -g - m)
    for d in diffs[:i]:  # d + m <= -g
        hits += mult[d] * lags[-d - m]
    for d in diffs[bisect_left(diffs, g - m, i):]:  # d + m >= g
        hits += mult[d] * lags[d + m]
    lost = size - _kept(view, pa, h - m) if m >= 0 else _kept(view, pa, -m)
    lower = ends[hits]
    return tuple.__new__(Enclosure, (lower, ends[hits + lost] if lost else lower))
