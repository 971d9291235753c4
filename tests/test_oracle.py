from fractions import Fraction

import numpy as np
import pytest

from cfrank import CylinderSet, Schedule, build_levels, const, correlation_bounds, refine
from cfrank.errors import DepthExhausted, DepthUnavailable
from cfrank.oracle import expand_points, oracle_correlation, oracle_correlation_bounds


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
