from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank import (
    CylinderSet,
    Enclosure,
    Schedule,
    build_levels,
    const,
    correlation_bounds,
    explicit,
    refine,
)
from cfrank.errors import DepthExhausted, DepthUnavailable, OffsetOverlap
from cfrank.oracle import expand_points, oracle_correlation, oracle_correlation_bounds
from cfrank.towers import TowerLevels


def test_expand_matches_refine(levels_r3_zramp):
    lv = levels_r3_zramp
    got = expand_points(0, [0], 2, lv)
    want = sorted(refine(CylinderSet.from_points(0, [0]), 2, lv).levels_set.points())
    assert got.tolist() == want
    assert got.dtype == np.int64


def test_oracle_known_values(levels_r3_zramp):
    lv = levels_r3_zramp
    assert oracle_correlation(1, 0, [0], 0, [0], lv, 3) == 0
    assert oracle_correlation(2, 0, [0], 0, [0], lv, 3) == Fraction(1, 3)


def test_oracle_residual_matches_main_path(levels_r3_zramp):
    lv = levels_r3_zramp
    with pytest.raises(DepthExhausted) as exc:
        oracle_correlation(8, 0, [0], 0, [0], lv, 2)
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
    assert oracle_correlation(5, 0, [0], 3, [5], lv, 3) == Fraction(1, 27)


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
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    with pytest.raises(ValueError):
        CylinderSet.from_points(1, points).validate(lv)
    with pytest.raises(ValueError):
        oracle_correlation_bounds(0, 1, points, 1, [0], lv, 3)
    with pytest.raises(ValueError):
        oracle_correlation_bounds(0, 1, [0], 1, points, lv, 3)


@pytest.mark.parametrize("m", [2**63, -2**63, 2**63 - 1, 10**40])
def test_oracle_huge_m_matches_main_path(m):
    # |m| >= 2**63 used to raise OverflowError in the int64 shift
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    A, B = CylinderSet.from_points(1, [0, 4]), CylinderSet.from_points(2, [3, 30])
    want = correlation_bounds(m, A, B, lv, 3)
    assert want == (0, A.measure(lv))
    assert oracle_correlation_bounds(m, 1, [0, 4], 2, [3, 30], lv, 3) == want


@st.composite
def oracle_cases(draw):
    """A random tower (partially-high stages, some with explicit prefix
    offsets) of depth 1-4 and two cylinders given as point lists that may
    repeat points."""
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
    levels = build_levels(schedule(), stages)

    def cylinder():
        level = draw(st.integers(0, stages))
        points = draw(st.lists(st.integers(0, levels.h[level] - 1), max_size=5))
        return level, points

    (a_level, a_pts), (b_level, b_pts) = cylinder(), cylinder()
    depth = draw(st.integers(max(a_level, b_level), stages))
    m = draw(st.integers(-2 * levels.h[depth], 2 * levels.h[depth]))
    return levels, m, a_level, a_pts, b_level, b_pts, depth


def _set_count_reference(m, a_level, a_pts, b_level, b_pts, levels, depth):
    """The oracle's count redone with Python sets of Python ints."""
    def expand(level, points):
        out = set(points)
        for n in range(level, depth):
            out = {p + c for p in out for c in levels.offsets[n]}
        return out

    moved = {p + m for p in expand(a_level, a_pts)}
    hits = len(moved & expand(b_level, b_pts))
    lost = sum(1 for p in moved if not 0 <= p < levels.h[depth])
    denom = levels.cuts_product[depth]
    return Enclosure(Fraction(hits, denom), Fraction(hits + lost, denom))


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


def test_expand_points_rejects_overlapping_copies(sched_r3z1):
    # build_levels never makes these offsets; the oracle's sortedness rests
    # on that, so it checks its output instead of trusting it
    lv = TowerLevels(sched_r3z1, 1, h=[3, 6], bigH=[3], offsets=[[0, 2]],
                     cuts_product=[1, 2], r=[2, 2], z=[0], d=[0])
    with pytest.raises(OffsetOverlap):
        expand_points(0, [0, 1, 2], 1, lv)


def test_expand_points_rejects_negative_stage(levels_r3z1):
    # h[-1] / offsets[-1] would index from the deep end of the tower
    with pytest.raises(ValueError, match="negative"):
        expand_points(-1, [0], 0, levels_r3z1)
