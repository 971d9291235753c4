from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank import (
    CylinderSet,
    Enclosure,
    Schedule,
    WeakLimitTarget,
    build_levels,
    const,
    correlation_bounds,
    weak_limit_discrepancy_bounds,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# a point of [lower, upper] as lower + t (upper - lower)
weights = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def enclosures_with_point(draw):
    lo, hi = sorted((draw(rationals), draw(rationals)))
    return Enclosure(lo, hi), lo + draw(weights) * (hi - lo)


def contains(e: Enclosure, x: Fraction) -> bool:
    return e.lower <= x <= e.upper


@given(enclosures_with_point(), enclosures_with_point(), rationals)
def test_arithmetic_contains_pointwise_results(ex, ey, k):
    (x_enc, x), (y_enc, y) = ex, ey
    assert contains(x_enc + y_enc, x + y)
    assert contains(x_enc - y_enc, x - y)
    assert contains(x_enc * y_enc, x * y)
    assert contains(abs(x_enc), abs(x))
    assert contains(x_enc.max(y_enc), max(x, y))
    assert contains(k * x_enc, k * x)
    assert contains(x_enc * k, x * k)


# towers of at most a few thousand levels at depth 5
schedules = st.builds(
    lambda h0, r, z: Schedule("p", h0, const(r), const(z)),
    st.integers(1, 3), st.integers(2, 3), st.integers(0, 2),
)


@st.composite
def correlation_cases(draw):
    levels = build_levels(draw(schedules), 5)

    def cylinder():  # up to stage 2, so some budgets lie below B's stage
        level = draw(st.integers(0, 2))
        pts = draw(st.sets(st.integers(0, levels.h[level] - 1), min_size=1, max_size=3))
        return CylinderSet.from_points(level, pts)

    A, B = cylinder(), cylinder()
    m = draw(st.integers(-3 * levels.h[2], 3 * levels.h[2]))
    return levels, A, B, m


def nested(inner: Enclosure, outer: Enclosure) -> bool:
    return outer.lower <= inner.lower <= inner.upper <= outer.upper


@settings(max_examples=60)
@given(correlation_cases())
def test_correlation_bounds_nest_as_depth_grows(case):
    levels, A, B, m = case
    first = A.level + 1
    encs = [correlation_bounds(m, A, B, levels, d) for d in range(first, 6)]
    for outer, inner in zip(encs, encs[1:]):
        assert nested(inner, outer)


@settings(max_examples=40)
@given(correlation_cases(),
       st.dictionaries(st.integers(-30, 30),
                       st.fractions(min_value=-2, max_value=2, max_denominator=4),
                       max_size=3))
def test_weak_limit_bounds_nest_as_depth_grows(case, coefficients):
    levels, A, B, m = case
    target = WeakLimitTarget(coefficients)
    first = A.level + 1
    encs = [weak_limit_discrepancy_bounds([m], target, [(A, B)], levels, d)[0]
            for d in range(first, 6)]
    for outer, inner in zip(encs, encs[1:]):
        assert nested(inner, outer)
