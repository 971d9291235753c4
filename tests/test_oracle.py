import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank import (
    CylinderSet,
    Enclosure,
    Schedule,
    affine,
    build_levels,
    const,
    correlation_bounds,
    explicit,
    refine,
)
from cfrank import oracle
from cfrank.cylinders import _resolve_pair
from cfrank.errors import DepthExhausted, DepthUnavailable, OffsetOverlap
from cfrank.oracle import _base, expand_points, oracle_correlation_bounds
from cfrank.towers import TowerLevels


def test_expand_matches_refine(levels_r3_zramp):
    lv = levels_r3_zramp
    got = expand_points(0, [0], 2, lv)
    want = sorted(refine(CylinderSet.from_points(0, [0]), 2, lv).levels_set.points())
    assert got.tolist() == want
    assert got.dtype == np.int64


def test_oracle_known_values(levels_r3_zramp):
    lv = levels_r3_zramp
    assert oracle_correlation_bounds(1, 0, [0], 0, [0], lv, 3).exact() == 0
    assert oracle_correlation_bounds(2, 0, [0], 0, [0], lv, 3).exact() == Fraction(1, 3)


def test_oracle_residual_matches_main_path(levels_r3_zramp):
    lv = levels_r3_zramp
    with pytest.raises(DepthExhausted) as exc:
        oracle_correlation_bounds(8, 0, [0], 0, [0], lv, 2).exact()
    assert exc.value.interval == correlation_bounds(
        8, CylinderSet.from_points(0, [0]), CylinderSet.from_points(0, [0]), lv, 2
    )


def test_oracle_equivalence_smoke(levels_r3_zramp):
    lv = levels_r3_zramp
    A = CylinderSet.from_points(1, [0, 4, 7])
    B = CylinderSet.from_points(2, [3, 10, 30])
    for m in range(-20, 21):
        main = correlation_bounds(m, A, B, lv, 4)
        orc = oracle_correlation_bounds(m, 1, [0, 4, 7], 2, [3, 10, 30], lv, 4)
        assert main == orc, m


def test_warm_oracle_call_makes_no_numpy_call(levels_r3_zramp):
    # once a pair and its lags are cached, a call is plain Python: no numpy
    # function, ndarray or numpy-scalar method and no Python code in numpy
    lv = levels_r3_zramp
    shifts = range(-lv.h[4] - 1, lv.h[4] + 2)
    for m in shifts:  # builds the pair entry and every lag it reads
        oracle_correlation_bounds(m, 1, [0, 4, 7], 2, [3, 10, 30], lv, 4)
    numpy_dir = os.path.dirname(np.__file__)
    seen = []

    def watch(frame, event, arg):
        if event == "c_call":
            if (getattr(arg, "__module__", None) or "").startswith("numpy") \
                    or isinstance(getattr(arg, "__self__", None), (np.ndarray, np.generic)):
                seen.append(arg)
        elif event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            seen.append(frame.f_code)

    sys.setprofile(watch)
    try:
        for m in shifts:
            oracle_correlation_bounds(m, 1, [0, 4, 7], 2, [3, 10, 30], lv, 4)
    finally:
        sys.setprofile(None)
    assert seen == []


def test_oracle_depth_guard():
    lv = build_levels(Schedule("big", 10**17, const(2), const(0)), 10)
    with pytest.raises(ValueError):
        expand_points(0, [0], 10, lv)


def test_oracle_rejects_depth_shallower_than_a_cylinder():
    # expanding "down" to a shallower stage used to return the stage-3
    # points as if they were stage-1 points: [1/3, 2/3] instead of 1/27
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    with pytest.raises(DepthUnavailable):
        expand_points(3, [5], 1, lv)
    with pytest.raises(DepthUnavailable):
        oracle_correlation_bounds(5, 0, [0], 3, [5], lv, 1)
    assert oracle_correlation_bounds(5, 0, [0], 3, [5], lv, 3).exact() == Fraction(1, 27)


def test_oracle_counts_repeated_points_once():
    # a repeated point used to be expanded twice and double-count: 2/3
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    assert expand_points(1, [4, 0, 4], 2, lv).tolist() == [0, 4, 10, 14, 21, 25]
    main = correlation_bounds(0, CylinderSet.from_points(1, [0, 0]),
                              CylinderSet.from_points(1, [0]), lv, 3)
    assert oracle_correlation_bounds(0, 1, [0, 0], 1, [0], lv, 3) == main
    assert main == (Fraction(1, 3), Fraction(1, 3))


@pytest.mark.parametrize("points", [[20], [-1], [9], [0, 9]])
def test_oracle_rejects_points_outside_the_tower(points):
    # h_1 = 9: these used to come back as an enclosure instead of an error
    # they raise on every call, also once a pair sharing the valid side is
    # cached, and leave no per-pair entry behind
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    with pytest.raises(ValueError):
        CylinderSet.from_points(1, points).validate(lv)
    oracle_correlation_bounds(0, 1, [0], 1, [0], lv, 3)
    for _ in range(2):
        with pytest.raises(ValueError):
            oracle_correlation_bounds(0, 1, points, 1, [0], lv, 3)
        with pytest.raises(ValueError):
            oracle_correlation_bounds(0, 1, [0], 1, iter(points), lv, 3)
    assert sum(key[0] == "oracle-pair" for key in lv._cache) == 1


@pytest.mark.parametrize("m", [2**63, -2**63, 2**63 - 1, 10**40])
def test_oracle_huge_m_matches_main_path(m):
    # |m| >= 2**63 used to raise OverflowError in the int64 shift
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    A, B = CylinderSet.from_points(1, [0, 4]), CylinderSet.from_points(2, [3, 30])
    want = correlation_bounds(m, A, B, lv, 3)
    assert want == (0, (A if m >= 0 else B).measure(lv))  # the side that moves leaves
    assert oracle_correlation_bounds(m, 1, [0, 4], 2, [3, 30], lv, 3) == want


@st.composite
def oracle_towers(draw):
    """A random tower (partially-high stages, some with explicit prefix
    offsets) of depth 1-4."""
    h0, stages = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rs, zs, ds, prefix = [], [], [], {}

    def schedule():
        return Schedule("prop", h0, explicit(rs, tail=const(2)), explicit(zs, tail=const(0)),
                        d=explicit(ds, tail=const(0)), prefix_offsets=prefix)

    for n in range(stages):
        r = draw(st.integers(2, 4))
        rs.append(r)
        zs.append(draw(st.integers(0, 3)))
        ds.append(draw(st.integers(0, r)))
        if ds[-1] and draw(st.booleans()):
            h, c, offs = build_levels(schedule(), n).h[n], 0, []
            for _ in range(min(ds[-1], r - 1)):
                c += h + draw(st.integers(0, 3))
                offs.append(c)
            prefix[n] = tuple(offs)
    return build_levels(schedule(), stages)


@st.composite
def oracle_queries(draw, levels, shifts=None):
    """Two cylinders of the tower given as point lists that may repeat
    points, a depth that reaches both, and a shift m of either sign, drawn
    from `shifts` when given."""
    def cylinder():
        level = draw(st.integers(0, levels.depth))
        points = draw(st.lists(st.integers(0, levels.h[level] - 1), max_size=5))
        return level, points

    (a_level, a_pts), (b_level, b_pts) = cylinder(), cylinder()
    depth = draw(st.integers(max(a_level, b_level), levels.depth))
    if shifts is None:
        shifts = st.integers(-2 * levels.h[depth], 2 * levels.h[depth])
    m = draw(shifts)
    return m, a_level, a_pts, b_level, b_pts, depth


@st.composite
def oracle_cases(draw):
    levels = draw(oracle_towers())
    return (levels, *draw(oracle_queries(levels)))


def _set_count_references(shifts, a_level, a_pts, b_level, b_pts, levels, depth):
    """The oracle's count at each shift, redone with Python sets of Python ints:
    the side that moves is A for m >= 0 and B for m < 0, since mu(T^m A cap B)
    = mu(T^-m B cap A), and a pair with an empty side meets nothing."""
    def expand(level, points):
        out = set(points)
        for n in range(level, depth):
            out = {p + c for p in out for c in levels.offsets[n]}
        return out

    a_set, b_set = expand(a_level, a_pts), expand(b_level, b_pts)
    h, denom = levels.h[depth], levels.cuts_product[depth]
    out = []
    if not (a_set and b_set):
        a_set = b_set = set()
    for m in shifts:
        moving, other = (a_set, b_set) if m >= 0 else (b_set, a_set)
        moved = {p + abs(m) for p in moving}
        hits = len(moved & other)
        lost = sum(1 for p in moved if not 0 <= p < h)
        out.append(Enclosure(Fraction(hits, denom), Fraction(hits + lost, denom)))
    return out


def _set_count_reference(m, a_level, a_pts, b_level, b_pts, levels, depth):
    return _set_count_references([m], a_level, a_pts, b_level, b_pts, levels, depth)[0]


@settings(max_examples=150)
@given(oracle_cases())
def test_expand_points_is_sorted_and_matches_refine(case):
    levels, _, a_level, a_pts, _, _, depth = case
    got = expand_points(a_level, a_pts, depth, levels)
    assert got.dtype == np.int64
    assert bool(np.all(got[1:] > got[:-1]))
    want = refine(CylinderSet.from_points(a_level, a_pts), depth, levels).levels_set.points()
    assert got.tolist() == list(want)


@settings(max_examples=150)
@given(oracle_cases())
def test_oracle_matches_set_count_reference(case):
    levels, m, a_level, a_pts, b_level, b_pts, depth = case
    assert oracle_correlation_bounds(m, a_level, a_pts, b_level, b_pts, levels, depth) \
        == _set_count_reference(m, a_level, a_pts, b_level, b_pts, levels, depth)


@settings(max_examples=40)
@given(st.data())
def test_oracle_matches_set_count_reference_at_every_shift(data):
    # every m in [-h_N - 1, h_N + 1] reaches the edges of the two runs of
    # differences a call reads (|d + m| = g - 1, g, with g the least gap of
    # S, and d = -m), which one drawn m per example seldom hits
    levels = data.draw(oracle_towers())
    _, a_level, a_pts, b_level, b_pts, depth = data.draw(oracle_queries(levels))
    h = levels.h[depth]
    shifts = range(-h - 1, h + 2)
    want = _set_count_references(shifts, a_level, a_pts, b_level, b_pts, levels, depth)
    got = [oracle_correlation_bounds(m, a_level, a_pts, b_level, b_pts, levels, depth)
           for m in shifts]
    assert got == want


@settings(max_examples=60)
@given(st.data())
def test_shared_oracle_memo_matches_fresh_reference(data):
    # one TowerLevels answers every query, each asked twice at every depth
    # that reaches it, in random order, so later queries read sumsets and
    # lag counts memoized by earlier ones; a few shared shifts make the lags
    # m + p - q of different pairs and stages coincide
    levels = data.draw(oracle_towers())
    h = levels.h[levels.depth]
    shifts = st.sampled_from(data.draw(st.lists(st.integers(-h, h), min_size=1, max_size=3)))
    pairs = data.draw(st.lists(oracle_queries(levels, shifts), min_size=1, max_size=6))
    queries = [(m, a_level, a_pts, b_level, b_pts, depth)
               for m, a_level, a_pts, b_level, b_pts, _ in pairs
               for depth in range(max(a_level, b_level), levels.depth + 1)]
    for m, a_level, a_pts, b_level, b_pts, depth in data.draw(st.permutations(queries * 2)):
        fresh = build_levels(levels.schedule, levels.depth)
        assert oracle_correlation_bounds(m, a_level, a_pts, b_level, b_pts, levels, depth) \
            == _set_count_reference(m, a_level, a_pts, b_level, b_pts, fresh, depth)


@settings(max_examples=60)
@given(st.data())
def test_oracle_pair_entry_ignores_how_the_points_are_given(data):
    # each spelling of one pair (list, tuple, generator, unsorted, repeated
    # points) has its own per-pair entry; all read the reference enclosure
    # at two shifts, whichever spelling is asked first
    levels = data.draw(oracle_towers())
    m, a_level, a_pts, b_level, b_pts, depth = data.draw(oracle_queries(levels))
    m2 = data.draw(st.integers(-2 * levels.h[depth], 2 * levels.h[depth]))
    spellings = [list, tuple, lambda p: (x for x in p), lambda p: sorted(p, reverse=True),
                 lambda p: list(p) * 2]
    order = data.draw(st.permutations([(f, g) for f in spellings for g in spellings]))
    for shift in (m, m2):
        want = _set_count_reference(shift, a_level, a_pts, b_level, b_pts, levels, depth)
        for fa, fb in order:
            assert oracle_correlation_bounds(shift, a_level, fa(a_pts), b_level, fb(b_pts),
                                             levels, depth) == want


@settings(max_examples=40)
@given(st.data())
def test_one_sided_residuals_match_a_brute_force_count(data):
    # A^N lies in [0, h_N) and every shift moves a side up, so only the top
    # edge can be crossed; every m in [-h_N - 1, h_N + 1] is checked, 0 and
    # +-(h_N - 1) among them
    levels = data.draw(oracle_towers())
    level = data.draw(st.integers(0, levels.depth - 1))
    pts = data.draw(st.lists(st.integers(0, levels.h[level] - 1), max_size=5))
    depth = data.draw(st.integers(level + 1, levels.depth))
    h, denom = levels.h[depth], levels.cuts_product[depth]
    A = CylinderSet.from_points(level, pts)
    pair = _resolve_pair(A, A, levels, depth)
    points = expand_points(level, pts, depth, levels)
    for m in range(-h - 1, h + 2):
        want = int(np.count_nonzero(points + abs(m) >= h))
        assert pair.lost(levels, depth, m) == want
        lo, hi = oracle_correlation_bounds(m, level, pts, level, pts, levels, depth)
        assert hi - lo == Fraction(want, denom)
        # a pair with an empty side meets nothing and loses nothing
        assert oracle_correlation_bounds(m, level, pts, level, [], levels, depth) == (0, 0)


@settings(max_examples=60)
@given(st.data())
def test_one_search_residual_matches_per_point_searches(data):
    # #{(v, p) : v + p < x} over S x A_k by one search in S, against one
    # numpy search per point p; an empty A_k counts nothing
    levels = data.draw(oracle_towers())
    k = data.draw(st.integers(0, levels.depth))
    depth = data.draw(st.integers(k, levels.depth))
    pa = sorted(data.draw(st.sets(st.integers(0, levels.h[k] - 1), max_size=4)))
    lags, h = _base(levels, k, depth), levels.h[depth]
    for x in range(-1, h + 2):
        want = int(np.searchsorted(lags.s, x - np.asarray(pa, dtype=np.int64)).sum())
        assert oracle._kept(lags.view, pa, x) == want, x
    for m in range(-h, h + 1):
        assert oracle_correlation_bounds(m, k, [], k, pa, levels, depth) == (0, 0)


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@settings(max_examples=25)
@given(st.data())
def test_lag_counts_match_set_intersections_in_any_chunk(chunk, data):
    levels = data.draw(oracle_towers())
    k = data.draw(st.integers(0, levels.depth))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(oracle, "_CHUNK", chunk)
        lags = _base(levels, k, levels.depth)
        points = lags.s.tolist()
        # the least gap is read over every consecutive pair, also those that
        # straddle two chunks; the lags below it are answered without a merge
        assert lags.gap == min((b - a for a, b in zip(points, points[1:])),
                               default=levels.h[levels.depth])
        s = set(points)
        for d in range(levels.h[levels.depth] + 1):
            assert lags[d] == len(s & {x + d for x in s})


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_expand_points_rejects_overlapping_copies(sched_r3z1, chunk, monkeypatch):
    # build_levels never makes these offsets; the oracle's sortedness and
    # its collision count rest on that, so it checks the offsets of every
    # sumset it builds, even where one point's copies [0, 2] do not collide
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    lv = TowerLevels(sched_r3z1, 1, h=[3, 6], bigH=[3], offsets=[[0, 2]],
                     cuts_product=[1, 2], r=[2, 2], z=[0], d=[0])
    with pytest.raises(OffsetOverlap):
        expand_points(0, [0, 1, 2], 1, lv)
    with pytest.raises(OffsetOverlap):
        expand_points(0, [0], 1, lv)
    with pytest.raises(OffsetOverlap):
        oracle_correlation_bounds(0, 0, [0], 0, [0], lv, 1)
    # only stage 2 overlaps (copies of height 12 at 0 and 11): its sumset
    # [0, 3, 6, 9, 11, 14, 17, 20] has the one short gap 9 -> 11, which
    # opens a slice of the gap check when chunk is 1 or 3
    lv = TowerLevels(sched_r3z1, 3, h=[3, 6, 12, 24], bigH=[3, 6, 12],
                     offsets=[[0, 3], [0, 6], [0, 11]], cuts_product=[1, 2, 4, 8],
                     r=[2, 2, 2, 2], z=[0, 0, 0], d=[0, 0, 0])
    assert expand_points(0, [0], 2, lv).tolist() == [0, 3, 6, 9]
    with pytest.raises(OffsetOverlap, match="stage-3 copies of the stage-0 tower overlap"):
        expand_points(0, [0], 3, lv)
    with pytest.raises(OffsetOverlap, match="stage-3 copies of the stage-1 tower overlap"):
        oracle_correlation_bounds(0, 1, [0], 1, [0], lv, 3)


_DTYPE_TOWERS = pytest.mark.parametrize("h0, r, dtype", [
    (2**29 - 1, 2, np.int32),  # h_2 = 2**31 - 1, the largest int32 tower top
    (2**30, 3, np.int64),  # h_1 = 3 * 2**30 + 3 and h_2 = 9 * 2**30 + 12, past int32
])


@_DTYPE_TOWERS
def test_sumset_dtype_holds_the_tower_top(h0, r, dtype):
    # S is int32 while every point and every needle fits, else int64; the
    # lags and residuals near the top, where int32 would overflow first,
    # match Python-int set counts and the main path
    lv = build_levels(Schedule("top", h0, const(r), const(0)), 2)
    h = lv.h[2]
    for k in (0, 1):
        lags = _base(lv, k, 2)
        assert lags.s.dtype == dtype
        s = lags.s.tolist()
        lag_set = {b - a + e for a in s for b in s if b > a for e in (-1, 0, 1)}
        for d in sorted(lag_set | {0, 1, h - 1, h, h + 1}):
            assert lags[d] == len(set(s) & {x + d for x in s}), (k, d)
    assert expand_points(0, [h0 - 1], 2, lv).dtype == np.int64
    a_pts, b_pts = [0, 1, h0 - 1], [0, h0 - 2, lv.h[1] - 1]
    A = CylinderSet.from_points(0, a_pts)
    for b_level in (0, 1):
        B = CylinderSet.from_points(b_level, b_pts[:2] if b_level == 0 else b_pts)
        b_points = list(B.levels_set.points())
        for m in (0, 1, -1, h0 - 1, h0, -h0, lv.h[1], -lv.h[1], h - h0, h0 - h,
                  h - 2, 2 - h, h - 1, 1 - h, h, -h):
            want = _set_count_reference(m, 0, a_pts, b_level, b_points, lv, 2)
            assert oracle_correlation_bounds(m, 0, a_pts, b_level, b_points, lv, 2) == want, m
            assert correlation_bounds(m, A, B, lv, 2) == want, m


@_DTYPE_TOWERS
def test_residual_search_reads_both_dtypes_near_the_ends(h0, r, dtype):
    # the residual bisects a memoryview of S, whose items are Python ints on
    # int32 and int64 alike; near 0 and near h_N it matches one numpy search
    # per point of A_k, made on an int64 copy of S
    lv = build_levels(Schedule("top", h0, const(r), const(0)), 2)
    h = lv.h[2]
    for k in (0, 1):
        lags, hk = _base(lv, k, 2), lv.h[k]
        assert lags.s.dtype == dtype
        s = lags.s.astype(np.int64)
        for pa in ([0], [hk - 1], [0, 1, hk - 2, hk - 1]):
            for x in [*range(-2, 3), *range(hk - 2, hk + 3), *range(h - hk - 2, h - hk + 3),
                      *range(h - 2, h + 3)]:
                want = int(np.searchsorted(s, x - np.asarray(pa, dtype=np.int64)).sum())
                assert oracle._kept(lags.view, pa, x) == want, (k, pa, x)


def test_sumset_build_and_gap_check_hold_one_chunk_beside_the_sumset():
    # criterion 5's tower at depth 8: S = C_1 + ... + C_7 has 604,800 int32
    # points (h_8 = 7,538,545).  S is written in place and its gaps are read
    # a slice at a time, so the build's peak is S plus about one slice; a
    # lag below the least gap (h_1 + 1 = 10) is 0 without a merge
    lv = build_levels(Schedule("c5", 1, affine(3, 1), const(1)), 8)
    slice_bytes = oracle._CHUNK * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        lags = _base(lv, 1, 8)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert [lags[d] for d in range(1, lags.gap)] == [0] * (lags.gap - 1)
        read = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (lags.s.dtype, lags.s.size, lags.gap) == (np.int32, 604_800, 10)
    assert built <= lags.s.nbytes + 2 * slice_bytes
    assert read < slice_bytes


def test_expand_points_rejects_negative_stage(levels_r3z1):
    # h[-1] / offsets[-1] would index from the deep end of the tower
    with pytest.raises(ValueError, match="negative"):
        expand_points(-1, [0], 0, levels_r3z1)
