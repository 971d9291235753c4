import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank import (
    CylinderSet,
    Schedule,
    apply_power,
    build_levels,
    const,
    correlation,
    correlation_bounds,
    decomposition_interval_set,
    intersect_measure,
    product_correlation,
    refine,
)
from cfrank.errors import DepthExhausted, DepthUnavailable
from cfrank.intervals import IntervalSet
from cfrank.oracle import oracle_correlation_bounds


def pts(level, *points):
    return CylinderSet.from_points(level, points)


# ---------------------------------------------------------------- refine

def test_refine_examples(levels_r3_zramp):
    lv = levels_r3_zramp
    out = refine(pts(0, 0), 1, lv)
    assert sorted(out.levels_set.points()) == [0, 2, 5]
    assert out.measure(lv) == Fraction(1)

    same = refine(pts(0, 0), 0, lv)
    assert same == pts(0, 0)

    deep = refine(pts(1, 0, 2, 5), 2, lv)
    assert sorted(deep.levels_set.points()) == [0, 2, 5, 11, 13, 16, 23, 25, 28]
    assert deep.measure(lv) == Fraction(1)


def test_refine_is_measure_exact_and_idempotent(levels_r3_zramp):
    lv = levels_r3_zramp
    rng = random.Random(7)
    for _ in range(20):
        level = rng.randint(0, 2)
        points = rng.sample(range(lv.h[level]), k=min(4, lv.h[level]))
        cyl = pts(level, *points)
        once = refine(cyl, level + 1, lv)
        twice = refine(once, level + 2, lv)
        direct = refine(cyl, level + 2, lv)
        assert twice == direct
        assert direct.measure(lv) == cyl.measure(lv)


def test_refine_depth_guard(levels_r3_zramp):
    with pytest.raises(DepthUnavailable):
        refine(pts(0, 0), 99, levels_r3_zramp)


# ------------------------------------------------------------ apply_power

def test_apply_power_identity(levels_r3_zramp):
    dec = apply_power(0, pts(0, 0), levels_r3_zramp, 2)
    assert len(dec.pieces) == 1
    assert dec.pieces[0] == pts(0, 0)
    assert dec.residual == 0


def test_apply_power_m1(levels_r3_zramp):
    dec = apply_power(1, pts(0, 0), levels_r3_zramp, 3)
    assert [(p.level, sorted(p.levels_set.points())) for p in dec.pieces] == [
        (1, [1, 3, 6])
    ]
    assert dec.total_measure(levels_r3_zramp) == Fraction(1)


def test_apply_power_m8_spillover(levels_r3_zramp):
    lv = levels_r3_zramp
    dec = apply_power(8, pts(0, 0), lv, 2)
    assert [(p.level, sorted(p.levels_set.points())) for p in dec.pieces] == [
        (1, [8]),
        (2, [10, 13, 21, 24, 33]),
    ]
    assert dec.residual == Fraction(1, 9)
    assert dec.residual_level == 2
    assert dec.total_measure(lv) == Fraction(1)
    # one stage deeper resolves more of it
    deeper = apply_power(8, pts(0, 0), lv, 3)
    assert deeper.residual < Fraction(1, 9)
    assert deeper.total_measure(lv) == Fraction(1)


def test_apply_power_requires_room(levels_r3_zramp):
    with pytest.raises(DepthUnavailable):
        apply_power(1, pts(0, 0), levels_r3_zramp, 0)


def test_measure_preservation_randomized(levels_r3_zramp):
    lv = levels_r3_zramp
    rng = random.Random(99)
    for _ in range(60):
        level = rng.randint(0, 2)
        k = rng.randint(1, min(5, lv.h[level]))
        cyl = pts(level, *rng.sample(range(lv.h[level]), k=k))
        m = rng.randint(-lv.h[2], lv.h[2])
        dec = apply_power(m, cyl, lv, rng.randint(3, 4))
        assert dec.total_measure(lv) == cyl.measure(lv)


def test_group_law_on_resolvable_inputs(levels_r3_zramp):
    lv = levels_r3_zramp
    rng = random.Random(5)
    checked = {0: 0, 1: 0}
    for i in range(25):
        if i % 2 == 0:
            a = pts(0, *rng.sample(range(lv.h[0]), k=1))
        else:
            a = pts(1, *rng.sample(range(lv.h[1]), k=3))
        m1 = rng.randint(-6, 6)
        m2 = rng.randint(-6, 6)
        direct = apply_power(m1 + m2, a, lv, 4)
        step1 = apply_power(m1, a, lv, 4)
        if direct.residual or step1.residual:
            continue
        union = IntervalSet()
        ok = True
        for piece in step1.pieces:
            d2 = apply_power(m2, piece, lv, 4)
            if d2.residual:
                ok = False
                break
            union = union.union(decomposition_interval_set(d2, 4, lv))
        if not ok:
            continue
        assert union == decomposition_interval_set(direct, 4, lv)
        checked[a.level] += 1
    assert checked[0] and checked[1], checked


# ------------------------------------------------- intersection / correlation

def test_intersect_self_is_measure(levels_r3_zramp):
    lv = levels_r3_zramp
    b = pts(0, 0)
    dec = apply_power(0, b, lv, 2)
    assert intersect_measure(dec, b, lv) == b.measure(lv)
    deep = refine(b, 2, lv)
    assert intersect_measure(deep, b, lv) == b.measure(lv)


def test_intersect_disjoint_is_zero(levels_r3_zramp):
    lv = levels_r3_zramp
    assert intersect_measure(pts(1, 0, 2), pts(1, 1, 3), lv) == 0


def test_intersect_shifted_example(levels_r3_zramp):
    lv = levels_r3_zramp
    dec = apply_power(2, pts(0, 0), lv, 3)
    assert intersect_measure(dec, pts(0, 0), lv) == Fraction(1, 3)


def test_correlation_examples(levels_r3_zramp):
    lv = levels_r3_zramp
    a = pts(0, 0)
    assert correlation(0, a, a, lv, 3) == a.measure(lv)
    assert correlation(1, a, a, lv, 3) == 0
    assert correlation(2, a, a, lv, 3) == Fraction(1, 3)


def test_correlation_depth_exhausted_interval(levels_r3_zramp):
    lv = levels_r3_zramp
    with pytest.raises(DepthExhausted) as exc:
        correlation(8, pts(0, 0), pts(0, 0), lv, 2)
    assert exc.value.residual == Fraction(1, 9)
    assert exc.value.lower + exc.value.residual == exc.value.upper
    lo, hi = correlation_bounds(8, pts(0, 0), pts(0, 0), lv, 2)
    assert (lo, hi) == exc.value.interval
    # the exact value at higher depth sits inside the interval
    exact = correlation(8, pts(0, 0), pts(0, 0), lv, 4)
    assert lo <= exact <= hi


def test_inversion_symmetry(levels_r3_zramp):
    # mu(T^m A cap B) = mu(T^-m B cap A); resolution depth may differ between
    # the two directions, so enclosures must agree whenever both are exact
    # and must always bracket a common value.
    lv = levels_r3_zramp
    rng = random.Random(31)
    exact_cases = 0
    for _ in range(30):
        a = pts(1, *rng.sample(range(lv.h[1]), k=2))
        b = pts(1, *rng.sample(range(lv.h[1]), k=2))
        m = rng.randint(-9, 9)
        fwd = correlation_bounds(m, a, b, lv, 4)
        bwd = correlation_bounds(-m, b, a, lv, 4)
        assert fwd[0] <= bwd[1] and bwd[0] <= fwd[1]
        if fwd[0] == fwd[1] and bwd[0] == bwd[1]:
            assert fwd == bwd
            exact_cases += 1
    assert exact_cases >= 5
    # pairs staying in range both ways resolve exactly in both directions
    a, b = pts(1, 3, 5), pts(1, 4, 8)
    for m in (1, 2, 3):
        assert correlation(m, a, b, lv, 4) == correlation(-m, b, a, lv, 4)


@settings(max_examples=40)
@given(
    st.sets(st.integers(0, 8), min_size=1),
    st.sets(st.integers(0, 8), min_size=1),
    st.integers(-10, 10),
)
def test_correlation_bounded_by_measures(a_pts, b_pts, m):
    lv = build_levels(Schedule("h", 1, const(3), const(1)), 4)
    a = pts(1, *a_pts)
    b = pts(1, *b_pts)
    lo, hi = correlation_bounds(m, a, b, lv, 4)
    assert 0 <= lo <= min(a.measure(lv), b.measure(lv)) + (hi - lo)


# ------------------------------------------------------ correlation kernel

@st.composite
def kernel_cases(draw):
    """Cylinders at mixed stages with up to three intervals each, a budget
    that may be shallower than B, and shifts of either sign."""
    sched = Schedule("k", draw(st.integers(1, 3)), const(draw(st.integers(2, 3))),
                     const(draw(st.integers(0, 2))))
    levels = build_levels(sched, 6)

    def cylinder():
        level = draw(st.integers(0, 4))
        h = levels.h[level]
        spans = draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(1, h)),
                              min_size=1, max_size=3))
        return CylinderSet.from_pairs(level, [(a, min(h, a + w)) for a, w in spans])

    A, B = cylinder(), cylinder()
    max_depth = draw(st.integers(A.level + 1, 5))
    m = draw(st.integers(-2 * levels.h[max_depth], 2 * levels.h[max_depth]))
    return levels, A, B, m, max_depth


@settings(max_examples=150)
@given(kernel_cases())
def test_kernel_matches_piece_decomposition(case):
    levels, A, B, m, max_depth = case
    dec = apply_power(m, A, levels, max_depth)
    value = intersect_measure(dec, B, levels)
    assert correlation_bounds(m, A, B, levels, max_depth) == (value, value + dec.residual)


@settings(max_examples=100)
@given(kernel_cases())
def test_enclosure_contains_oracle_one_stage_deeper(case):
    levels, A, B, m, max_depth = case
    depth = max(max_depth + 1, B.level)
    lo, hi = correlation_bounds(m, A, B, levels, max_depth)
    o_lo, o_hi = oracle_correlation_bounds(m, A.level, list(A.levels_set.points()),
                                           B.level, list(B.levels_set.points()),
                                           levels, depth)
    assert lo <= o_lo <= o_hi <= hi


def test_kernel_cylinder_deeper_than_max_depth():
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    A, B = pts(0, 0), pts(3, 5)
    assert correlation_bounds(5, A, B, lv, 1) == (Fraction(1, 27), Fraction(10, 27))
    assert correlation(5, A, B, lv, 2) == Fraction(1, 27)


def test_product_correlation(levels_r3_zramp):
    lv = levels_r3_zramp
    a = pts(0, 0)
    assert product_correlation([1], 2, [a], [a], lv, 3) == Fraction(1, 3)
    mu = a.measure(lv)
    assert product_correlation([1, 2], 0, [a, a], [a, a], lv, 3) == mu * mu
    # powers (1, 2) at m = 1: corr(1) * corr(2) = 0 * 1/3 = 0
    assert product_correlation([1, 2], 1, [a, a], [a, a], lv, 3) == 0
    with pytest.raises(ValueError):
        product_correlation([], 0, [], [], lv, 3)


def test_validation_rejects_out_of_range(levels_r3_zramp):
    with pytest.raises(ValueError):
        pts(0, 5).validate(levels_r3_zramp)


def test_negative_stage_rejected(levels_r3z1):
    lv = levels_r3z1
    neg = pts(-1, 0)
    with pytest.raises(ValueError, match="negative"):
        correlation_bounds(0, neg, pts(0, 0), lv, 2)
    with pytest.raises(ValueError, match="negative"):
        correlation_bounds(0, pts(0, 0), neg, lv, 2)
    with pytest.raises(ValueError, match="negative"):
        refine(neg, 0, lv)
    with pytest.raises(ValueError, match="negative"):
        refine(pts(0, 0), -1, lv)
    with pytest.raises(ValueError, match="negative"):
        neg.measure(lv)
