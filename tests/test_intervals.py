"""IntervalSet algebra against a plain set-of-integers model."""

from hypothesis import example, given
from hypothesis import strategies as st

from cfrank.intervals import IntervalSet

pair = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: (min(t), max(t)))
pairs = st.lists(pair, max_size=8)
points = st.lists(st.integers(0, 80), max_size=30)


def as_set(iset):
    return {p for a, b in iset.intervals for p in range(a, b)}


def canonical(iset):
    """The point set of iset, after checking it is sorted, disjoint and non-adjacent."""
    for (a, b), (c, d) in zip(iset.intervals, iset.intervals[1:]):
        assert a < b < c < d
    assert all(a < b for a, b in iset.intervals)
    return as_set(iset)


def test_normalize_merges_adjacent():
    s = IntervalSet.from_pairs([(0, 2), (2, 4), (6, 7), (5, 6)])
    assert s.intervals == ((0, 4), (5, 7))


def test_from_points_and_cardinality():
    s = IntervalSet.from_points([3, 1, 2, 9, 9])
    assert s.intervals == ((1, 4), (9, 10))
    assert s.cardinality == 4


@given(pairs)
def test_canonical_form(ps):
    s = IntervalSet.from_pairs(ps)
    assert s.cardinality == len(canonical(s))


@given(pairs, pairs)
def test_intersection_union_difference_model(xs, ys):
    a, b = IntervalSet.from_pairs(xs), IntervalSet.from_pairs(ys)
    assert canonical(a.union(b)) == as_set(a) | as_set(b)
    assert canonical(a.difference(b)) == as_set(a) - as_set(b)
    assert a.intersection_cardinality(b) == len(as_set(a) & as_set(b))


@given(pairs, st.integers(-40, 40))
def test_shift_model(xs, k):
    a = IntervalSet.from_pairs(xs)
    assert canonical(a.shift(k)) == {p + k for p in as_set(a)}


@given(pairs, st.integers(0, 50), st.integers(0, 50))
def test_clip_model(xs, lo, width):
    a = IntervalSet.from_pairs(xs)
    hi = lo + width
    assert canonical(a.clip(lo, hi)) == {p for p in as_set(a) if lo <= p < hi}


@given(pairs, st.lists(st.integers(0, 30), min_size=1, max_size=5))
@example([(0, 3)], [0, 3, 6])  # no spacer (z_n = 0): the copies abut and must merge
def test_translate_by_offsets_model(xs, offsets):
    a = IntervalSet.from_pairs(xs)
    expected = {p + c for p in as_set(a) for c in offsets}
    assert canonical(a.translate_by_offsets(offsets)) == expected


@given(pairs, st.integers(-5, 65), st.integers(0, 70))
def test_subset_and_within(xs, lo, width):
    a = IntervalSet.from_pairs(xs)
    assert a.within(lo, lo + width) == (as_set(a) <= set(range(lo, lo + width)))
    if a:
        assert a.within(a.min(), a.max() + 1)
