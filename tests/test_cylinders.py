import copy
import dataclasses
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfrank import (
    CylinderSet,
    Schedule,
    apply_power,
    build_levels,
    const,
    correlation,
    correlation_bounds,
    explicit,
    intersect_measure,
    product_correlation,
    refine,
)
from cfrank.cylinders import _difference_table, _ResolvedPair
from cfrank.errors import DepthExhausted, DepthUnavailable
from cfrank.intervals import IntervalSet
from cfrank.oracle import oracle_correlation_bounds


def pts(level, *points):
    return CylinderSet.from_points(level, points)


def union_at(dec, level, lv):
    """Union of a decomposition's pieces, each refined to one common stage."""
    out = IntervalSet()
    for p in dec.pieces:
        out = out.union(refine(p, level, lv).levels_set)
    return out


@given(st.integers(0, 5), st.lists(st.integers(0, 80), max_size=20), st.integers(-40, 40))
def test_cylinder_hash_is_the_dataclass_hash_kept_per_instance(level, ps, k):
    """hash(c) is the generated value hash((level, levels_set)), computed once
    and kept on the instance; written through the set's own generated value
    hash((intervals,)), it reads no kept hash at all."""
    c = CylinderSet.from_points(level, ps)

    def generated(cyl):
        return hash((cyl.level, (cyl.levels_set.intervals,)))

    want = generated(c)
    assert hash(c) == want
    memo = {("cesaro", 1, c, 24): "c"}
    assert hash(c) == want
    for twin in (CylinderSet.from_pairs(level, [(p, p + 1) for p in ps]),
                 CylinderSet(level, c.levels_set.shift(k).shift(-k)),
                 CylinderSet(level, IntervalSet(c.levels_set.intervals))):
        assert twin == c and hash(twin) == want and memo[("cesaro", 1, twin, 24)] == "c"
    moved = CylinderSet(level, c.levels_set.shift(k))
    deeper = dataclasses.replace(c, level=level + 1)
    for other in (moved, deeper, dataclasses.replace(c, levels_set=moved.levels_set)):
        assert hash(other) == generated(other)
    assert deeper != c
    for round_trip in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c),
                       pickle.loads(pickle.dumps(CylinderSet.from_points(level, ps)))):
        assert round_trip == c and hash(round_trip) == want
    assert [f.name for f in dataclasses.fields(c)] == ["level", "levels_set"]
    assert "_hash" not in repr(c)
    assert repr(c) == repr(CylinderSet.from_points(level, ps))


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
            union = union.union(union_at(d2, 4, lv))
        if not ok:
            continue
        assert union == union_at(direct, 4, lv)
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
    lo, hi = correlation_bounds(8, pts(0, 0), pts(0, 0), lv, 2)
    assert (lo, hi) == exc.value.interval
    assert hi - lo == Fraction(1, 9)
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
    that may be shallower than B, and several shifts of either sign, on a
    high staircase or on partially-high stages (default or explicit prefix
    offsets)."""
    if draw(st.booleans()):
        sched = Schedule("k", draw(st.integers(1, 3)), const(draw(st.integers(2, 3))),
                         const(draw(st.integers(0, 2))))
        levels = build_levels(sched, 6)
    else:
        levels = draw(small_towers(st.just(6)))

    def cylinder():
        level = draw(st.integers(0, 4))
        h = levels.h[level]
        spans = draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(1, h)),
                              min_size=1, max_size=3))
        return CylinderSet.from_pairs(level, [(a, min(h, a + w)) for a, w in spans])

    A, B = cylinder(), cylinder()
    max_depth = draw(st.integers(A.level + 1, 5))
    h, near = levels.h[max_depth], levels.h[A.level + 1]
    ms = draw(st.lists(st.integers(-2 * h, 2 * h) | st.integers(-near, near),
                       min_size=2, max_size=5))
    return levels, A, B, ms, max_depth


@settings(max_examples=150)
@given(kernel_cases())
def test_kernel_matches_piece_decomposition(case):
    # every query goes to one TowerLevels, budgets ascending: the memo is
    # warm after the first, and a budget's top entries are read back as
    # children by the next budget's recursion
    levels, A, B, ms, top = case
    for max_depth in range(A.level + 1, top + 1):
        for m in ms:  # a budget below B's stage counts at B's stage
            dec = apply_power(m, A, levels, max(max_depth, B.level))
            value = intersect_measure(dec, B, levels)
            assert correlation_bounds(m, A, B, levels, max_depth) \
                == (value, value + dec.residual)


@settings(max_examples=60)
@given(st.data(), st.sampled_from(["both", "empty A", "empty B", "B past the budget",
                                   "B is a translate of A"]))
def test_every_shift_matches_the_decomposition(data, kind):
    # the resolved pair's no-spill stage, its residual and the interned
    # ends, at every m of [-h_n, h_n]: an empty B has an empty kernel reach,
    # while A can still leave the tower; a translate of A has the class of
    # equal representatives, whose memo is keyed by |t|
    levels = data.draw(small_towers(st.integers(2, 3)))

    def cylinder(level, empty):
        h = levels.h[level]
        spans = data.draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(1, h)),
                                   min_size=0 if empty else 1, max_size=0 if empty else 2))
        return CylinderSet.from_pairs(level, [(a, min(h, a + w)) for a, w in spans])

    A = cylinder(data.draw(st.integers(0, levels.depth - 2)), kind == "empty A")
    max_depth = data.draw(st.integers(A.level + 1, levels.depth - (kind == "B past the budget")))
    if kind == "B is a translate of A":
        lo, hi = A.levels_set.min(), A.levels_set.max()
        u = data.draw(st.integers(-lo, levels.h[A.level] - 1 - hi))
        B = CylinderSet(A.level, A.levels_set.shift(u))
    else:
        b_level = data.draw(st.integers(max_depth + 1, levels.depth)
                            if kind == "B past the budget" else st.integers(0, levels.depth))
        B = cylinder(b_level, kind == "empty B")
    n = max(max_depth, B.level)
    ends, q = levels.level_fractions(n), levels.cuts_product[n]
    for m in range(-levels.h[n], levels.h[n] + 1):
        dec = apply_power(m, A, levels, n)
        value = intersect_measure(dec, B, levels)
        got = correlation_bounds(m, A, B, levels, max_depth)
        assert got == (value, value + dec.residual), m
        for end in got:
            k = end * q
            assert k.denominator == 1 and end is ends[int(k)] == Fraction(int(k), q)


@settings(max_examples=100)
@given(kernel_cases())
def test_enclosure_contains_oracle_one_stage_deeper(case):
    levels, A, B, ms, max_depth = case
    depth = max(max_depth + 1, B.level)
    for m in ms:
        lo, hi = correlation_bounds(m, A, B, levels, max_depth)
        o_lo, o_hi = oracle_correlation_bounds(m, A.level, list(A.levels_set.points()),
                                               B.level, list(B.levels_set.points()),
                                               levels, depth)
        assert lo <= o_lo <= o_hi <= hi


@settings(max_examples=100)
@given(kernel_cases())
def test_budgets_below_b_stage_count_at_b_stage(case):
    # every budget from A.level + 1 up to B's stage gives the budget-B.level
    # enclosure, and that is the oracle's at depth B.level
    levels, A, B, ms, _ = case
    assume(A.level < B.level)
    for m in ms:
        want = oracle_correlation_bounds(m, A.level, list(A.levels_set.points()),
                                         B.level, list(B.levels_set.points()),
                                         levels, B.level)
        for max_depth in range(A.level + 1, B.level + 1):
            assert correlation_bounds(m, A, B, levels, max_depth) == want


@st.composite
def small_towers(draw, depths=st.integers(2, 4)):
    """A tower of depth 2-4 (drawn from depths) with partially-high stages,
    some of them with explicit prefix offsets."""
    h0, stages = draw(st.integers(1, 3)), draw(depths)
    rs, zs, ds, prefix = [], [], [], {}

    def schedule():
        return Schedule("shared", h0, explicit(rs, tail=const(2)), explicit(zs, tail=const(0)),
                        d=explicit(ds, tail=const(0)), prefix_offsets=prefix)

    for n in range(stages):
        rs.append(draw(st.integers(2, 3)))
        zs.append(draw(st.integers(0, 2)))
        ds.append(draw(st.integers(0, rs[-1])))
        if ds[-1] and draw(st.booleans()):
            h, c, offs = build_levels(schedule(), n).h[n], 0, []
            for _ in range(min(ds[-1], rs[-1] - 1)):
                c += h + draw(st.integers(0, 2))
                offs.append(c)
            prefix[n] = tuple(offs)
    return build_levels(schedule(), stages)


@st.composite
def translate_classes(draw, levels):
    """Pairs (A + u, B + v): an interval shape for each side placed at
    several in-range offsets, all of one translation class, then again at
    a second, no shallower pair of stages (the same shapes, so another
    class unless both stages repeat)."""
    def shape(level):
        h = levels.h[level]
        spans = draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(1, 3)),
                              min_size=1, max_size=3))
        s = IntervalSet.from_pairs((a, min(h, a + w)) for a, w in spans)
        return s.shift(-s.min())

    def translates(level, s):
        top = levels.h[level] - 1 - s.max()
        return [CylinderSet(level, s.shift(u))
                for u in draw(st.lists(st.integers(0, top), min_size=1, max_size=3))]

    la, lb = draw(st.integers(0, levels.depth - 1)), draw(st.integers(0, levels.depth))
    sa, sb = shape(la), shape(lb)
    stage_pairs = [(la, lb), (draw(st.integers(la, levels.depth - 1)),
                              draw(st.integers(lb, levels.depth)))]
    return [(A, B) for ka, kb in stage_pairs
            for A in translates(ka, sa) for B in translates(kb, sb)]


@settings(max_examples=60)
@given(st.data())
def test_translated_pairs_share_one_kernel(data):
    # every query goes to one TowerLevels, in random order and at every
    # budget, so pairs of one translation class read difference counts
    # memoized by their translates; the same shapes at other stages must not
    levels = data.draw(small_towers())
    pairs = data.draw(translate_classes(levels))
    queries = []
    for A, B in pairs:
        for max_depth in range(A.level + 1, levels.depth + 1):
            h = levels.h[max_depth]
            for m in data.draw(st.lists(st.integers(-h, h), min_size=1, max_size=3)):
                queries.append((m, A, B, max_depth))
    for m, A, B, max_depth in data.draw(st.permutations(queries)):
        got = correlation_bounds(m, A, B, levels, max_depth)
        fresh = build_levels(levels.schedule, levels.depth)
        assert got == correlation_bounds(m, A, B, fresh, max_depth)
        # a budget below B's stage counts at B's stage, as the oracle does
        assert got == oracle_correlation_bounds(m, A.level, list(A.levels_set.points()),
                                                B.level, list(B.levels_set.points()),
                                                fresh, max(max_depth, B.level))


def test_kernel_with_repeated_differences():
    # C_0 = (0, 1, 3, 6) gives delta = 3 twice off the diagonal (3 - 0 and
    # 6 - 3) on a plain high staircase; the counts to match are Python-set
    # counts over the refined level sets, which use no difference table
    lv = build_levels(Schedule("rep", 1, const(4), const(0)), 3)
    assert lv.offsets[0] == (0, 1, 3, 6)
    deltas, mults = _difference_table(lv, 0)
    assert sum(mults) == lv.r[0] ** 2 == 16
    assert dict(zip(deltas, mults))[3] == 2
    # the kernel counts the class representatives, which start at level 0
    singletons = [pts(0, 0), pts(1, 0), pts(2, 0)]
    two_points = [pts(1, 0, 3), pts(1, 0, 7), pts(2, 0, 25)]
    for A in singletons + two_points:
        for B in singletons + two_points:
            kernel = _ResolvedPair(A, B, lv).kernel
            for n in range(max(A.level, B.level, 1), lv.depth + 1):
                xs = set(refine(A, n, lv).levels_set.points())
                ys = set(refine(B, n, lv).levels_set.points())
                for t in range(-lv.h[n] + 1, lv.h[n]):
                    assert kernel.count(lv, n, t) == sum(x + t in ys for x in xs), (A, B, n, t)


@settings(max_examples=150)
@given(st.data())
def test_kernel_counts_inside_and_past_the_reach(data):
    # E(n, t) is zero outside -top(A0^n) <= t <= top(B0^n) and the kernel
    # reads no child there; at every t of (-h_n, h_n) it must still match
    # the pair count of the refined level sets, empty cylinders included
    levels = data.draw(small_towers())

    def cylinder():
        level = data.draw(st.integers(0, levels.depth))
        h = levels.h[level]
        spans = data.draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(1, 2)),
                                   max_size=2))
        return CylinderSet.from_pairs(level, [(a, min(h, a + w)) for a, w in spans])

    A, B = cylinder(), cylinder()
    pair = _ResolvedPair(A, B, levels)
    kernel, ua, ub = pair.kernel, pair.ua, pair.ua + pair.shift
    A0, B0 = (CylinderSet(c.level, c.levels_set.shift(-u)) for c, u in ((A, ua), (B, ub)))
    for n in range(max(A.level, B.level), levels.depth + 1):
        xs = list(refine(A0, n, levels).levels_set.points())
        ys = list(refine(B0, n, levels).levels_set.points())
        want = Counter(y - x for x in xs for y in ys)
        h = levels.h[n]
        for t in range(-h + 1, h):
            assert kernel.count(levels, n, t) == want[t], (n, t)
        if xs and ys:  # both edges count, one step past either does not
            lo, hi = -max(xs), max(ys)
            assert kernel.reach[n] == (lo, hi)
            assert kernel.count(levels, n, lo) and kernel.count(levels, n, hi)
            assert kernel.count(levels, n, lo - 1) == kernel.count(levels, n, hi + 1) == 0
        else:  # an empty side: every t is outside the reach and takes no entry
            assert not kernel.memo[n]


def test_kernel_cylinder_deeper_than_max_depth():
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 5)
    A, B = pts(0, 0), pts(3, 5)
    # counted at B's stage 3, where nothing of A^3 + 5 leaves [0, h_3)
    assert correlation_bounds(5, A, B, lv, 1) == (Fraction(1, 27), Fraction(1, 27))
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


def test_cached_pairs_still_validate_every_call():
    # cylinders are validated once per pair entry; a bad cylinder must still
    # raise on every call once a valid pair sharing the other side is cached
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 4)
    good = pts(1, 0, 4)
    want = correlation_bounds(2, good, good, lv, 3)
    bad = [(CylinderSet.from_pairs(1, [(lv.h[1] - 1, lv.h[1] + 1)]), ValueError),
           (pts(lv.depth + 1, 0), DepthUnavailable),
           (pts(-1, 0), ValueError)]
    for _ in range(2):
        for cyl, error in bad:
            with pytest.raises(error):
                correlation_bounds(2, good, cyl, lv, 3)
            with pytest.raises(error):
                correlation_bounds(2, cyl, good, lv, 3)
            with pytest.raises(error):
                apply_power(2, cyl, lv, 3)
        for max_depth in (1, 0):  # the pair is cached at budget 3
            with pytest.raises(DepthUnavailable, match="must exceed"):
                correlation_bounds(2, good, good, lv, max_depth)
    assert correlation_bounds(2, good, good, lv, 3) == want
    assert [key for key in lv._cache if key[0] == "pair"] == [("pair", good, good)]


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
