import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfrank import (
    CylinderSet,
    InequalityReport,
    Schedule,
    WeakLimitTarget,
    affine,
    build_levels,
    canonical_test_set,
    cesaro_norm,
    check_averaging_inequality,
    const,
    correlation,
    correlation_bounds,
    scan_mixing_intervals,
    sqrt_enclosure,
    stage_term_decomposition,
    stratified_times,
)
from cfrank.errors import DepthExhausted, DepthUnavailable, Enclosure
from cfrank.mixing import (
    COARSE_BITS,
    MAX_SAMPLE_TIMES,
    _cesaro_series,
    outside_proof_window,
    weak_limit_discrepancy_bounds,
)
from cfrank.oracle import oracle_correlation_bounds
from cfrank.reports import canonical_json, decay_report_json


def pts(level, *points):
    return CylinderSet.from_points(level, points)


# ------------------------------------------------------------ sqrt enclosure

def test_sqrt_enclosure_exact_squares():
    assert sqrt_enclosure(Fraction(0)) == (0, 0)
    assert sqrt_enclosure(Fraction(9, 4)) == (Fraction(3, 2), Fraction(3, 2))


def test_sqrt_enclosure_width_and_order():
    for x in (Fraction(2), Fraction(17, 54), Fraction(1, 3), Fraction(10**12, 7)):
        lo, hi = sqrt_enclosure(x)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 2**64)


def test_sqrt_enclosure_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_enclosure(Fraction(-1))


# ------------------------------------------------------------ time sampling

def test_stratified_times_small_interval(levels_r3_zramp):
    # stage 0: [h_0, 2 H_0) = [1, 4) is fully enumerated
    assert stratified_times(levels_r3_zramp, 0, 8) == [1, 2, 3]


def test_stratified_times_rejects_negative_stage(levels_r3_zramp):
    # h[-1] would be the deepest stage's height
    with pytest.raises(ValueError, match="negative"):
        stratified_times(levels_r3_zramp, -1, 4)


def test_stratified_times_caps_the_sample(sched_r3_zramp, levels_r3_zramp, monkeypatch):
    # stage 12's interval [h_12, 2 H_12) holds 2,524,349 times; the cap is
    # checked before any time is built, so asking past it allocates nothing
    deep = build_levels(sched_r3_zramp, 13)
    for count, size in ((MAX_SAMPLE_TIMES + 1, MAX_SAMPLE_TIMES + 1), (10**9, 2524349)):
        message = f"^{size} sample times at stage 12 pass the cap of {MAX_SAMPLE_TIMES}$"
        with pytest.raises(ValueError, match=message):
            stratified_times(deep, 12, count)
        with pytest.raises(ValueError, match=message):
            scan_mixing_intervals(deep, [], [0, 12], count, 1, 13)
    # a short interval keeps working whatever the count: [1, 4) holds 3 times
    assert stratified_times(deep, 0, 10**9) == [1, 2, 3]
    # the bound itself, on a cap small enough to reach: stage 2's interval
    # [36, 78) holds 42 times
    monkeypatch.setattr("cfrank.mixing.MAX_SAMPLE_TIMES", 10)
    assert len(stratified_times(levels_r3_zramp, 2, 10)) <= 10
    with pytest.raises(ValueError, match="^11 sample times at stage 2 pass the cap of 10$"):
        stratified_times(levels_r3_zramp, 2, 11)
    assert stratified_times(levels_r3_zramp, 0, 10**9) == [1, 2, 3]


def test_stratified_times_anchors_and_determinism(levels_r3_zramp):
    lv = levels_r3_zramp
    times = stratified_times(lv, 2, 8)
    assert times == stratified_times(lv, 2, 8)
    assert times[0] == lv.h[2]
    assert times[-1] == 2 * lv.bigH[2] - 1
    assert lv.bigH[2] in times
    assert all(lv.h[2] <= t < 2 * lv.bigH[2] for t in times)
    assert len(times) <= 8


# -------------------------------------------------------------------- scans

def test_scan_stage_zero_values(levels_r3_zramp):
    lv = levels_r3_zramp
    b = pts(0, 0)
    rep = scan_mixing_intervals(lv, [(b, b)], [0], 8, 1, 4)
    sd = rep.stages[0]
    assert sd.times == (1, 2, 3)
    assert [lo for lo, hi in sd.values] == [0, Fraction(1, 3), Fraction(1, 3)]
    assert sd.exact
    assert sd.max_lower == sd.max_upper == Fraction(1, 3)


def test_scan_empty_test_set_is_zero(levels_r3_zramp):
    rep = scan_mixing_intervals(levels_r3_zramp, [], [0], 4, 1, 4)
    assert rep.stages[0].values == ((0, 0),) * len(rep.stages[0].times)


def test_scan_empty_cylinder_all_zero(levels_r3_zramp):
    lv = levels_r3_zramp
    empty = CylinderSet.from_points(0, [])
    rep = scan_mixing_intervals(lv, [(empty, pts(0, 0))], [0, 1], 6, 1, 4)
    for sd in rep.stages:
        assert sd.max_upper == 0


def pairwise_sup(m, tests, levels, max_depth):
    sup = Enclosure(Fraction(0), Fraction(0))
    for A, B in tests:
        sup = sup.max(correlation_bounds(m, A, B, levels, max_depth))
    return sup


@pytest.mark.parametrize("case", ["deep-b", "empty-cylinder", "empty-set"])
@pytest.mark.parametrize("power", [1, -2])
def test_scan_integer_sups_match_pairwise_enclosures(levels_r3_zramp, case, power):
    # each sup is taken on counts scaled to one level of the deepest stage
    # counted at that time; per pair it is the Enclosure.max of correlation_bounds
    lv = levels_r3_zramp
    tests = {
        # B at stage 3, past the budget 2: counted at stage 3, the rest at 2
        "deep-b": [(pts(0, 0), pts(1, 0, 4)), (pts(1, 2, 5), pts(3, 7, 40, 41)),
                   (pts(1, 6), pts(2, 0, 13))],
        # each empty pair comes first among the pairs sharing its moving side,
        # whose residual it must not stand for
        "empty-cylinder": [(CylinderSet.from_points(1, []), pts(1, 3)),
                           (pts(1, 2), CylinderSet.from_points(2, [])), (pts(1, 1), pts(2, 5)),
                           (pts(1, 2), pts(1, 3)), (pts(1, 8), pts(1, 3))],
        "empty-set": [],
    }[case]
    rep = scan_mixing_intervals(lv, tests, [1, 2, 3], 6, power, 2)
    seen = set()
    for sd in rep.stages:
        for m, value in zip(sd.times, sd.values):
            want = pairwise_sup(power * m, tests, lv, 2)
            assert value == want and [type(v) for v in value] == [Fraction, Fraction]
            seen.add((value.lower > 0, value.lower < value.upper))
    if case == "deep-b":  # some sups are unresolved, some held by the stage-3 pair
        assert (True, True) in seen
        assert any(27 in (v.lower.denominator, v.upper.denominator)
                   for sd in rep.stages for v in sd.values)


def test_scan_samples_every_stage_before_counting(levels_r3_zramp, monkeypatch):
    def never(*args):
        raise AssertionError("a pair was resolved before every stage was sampled")

    monkeypatch.setattr("cfrank.mixing._resolve_pair", never)
    with pytest.raises(DepthUnavailable, match="level 6 requested"):
        scan_mixing_intervals(levels_r3_zramp, [(pts(0, 0), pts(0, 0))], [1, 2, 5], 4, 1, 4)


@pytest.mark.parametrize("bad, max_depth", [
    ((pts(1, 3), pts(1, 9)), 3),  # B's point 9 lies outside stage 1, [0, 9)
    ((pts(3, 5), pts(1, 0)), 3),  # the budget 3 leaves no room below A's stage 3
])
def test_scan_raises_the_error_of_its_first_bad_pair(levels_r3_zramp, bad, max_depth):
    # the second pair is the first bad one; the third fails another way
    lv = levels_r3_zramp
    tests = [(pts(1, 0), pts(1, 4)), bad, (pts(0, 0), pts(0, 1))]
    with pytest.raises((ValueError, DepthUnavailable)) as want:
        correlation_bounds(lv.h[1], *bad, lv, max_depth)
    with pytest.raises(want.type) as got:
        scan_mixing_intervals(lv, tests, [1], 4, 1, max_depth)
    assert str(got.value) == str(want.value)
    # a stage past the tower is refused before any pair is resolved
    with pytest.raises(DepthUnavailable, match="level 6 requested"):
        scan_mixing_intervals(lv, tests, [1, 5], 4, 1, max_depth)


@st.composite
def scan_rows(draw, levels):
    """(tests, power, max_depth): rows of pairs sharing their A, like a
    scan-deep item, and columns sharing their B (the side that moves for a
    negative power), shuffled together, with a B past the budget."""
    max_depth = draw(st.sampled_from([2, 3]))

    def cylinder(level):
        size = levels.h[level]
        return CylinderSet.from_points(level, draw(st.lists(st.integers(0, size - 1),
                                                            min_size=1, max_size=3)))

    tests = []
    for _ in range(draw(st.integers(1, 3))):
        A = cylinder(draw(st.integers(0, 1)))
        tests += [(A, cylinder(draw(st.integers(0, 2)))) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        B = cylinder(draw(st.integers(0, 2)))
        tests += [(cylinder(draw(st.integers(0, 1))), B) for _ in range(draw(st.integers(1, 3)))]
    tests.append((tests[0][0], cylinder(max_depth + 1)))
    tests = draw(st.permutations(tests))
    return tests, draw(st.sampled_from([1, -1, 2, -2])), max_depth


@settings(max_examples=40)
@given(st.data())
def test_scan_sups_of_shared_rows_match_pairwise_enclosures(levels_r3_zramp, data):
    lv = levels_r3_zramp
    tests, power, max_depth = data.draw(scan_rows(lv))
    rep = scan_mixing_intervals(lv, tests, [1, 2], 5, power, max_depth)
    for sd in rep.stages:
        for m, value in zip(sd.times, sd.values):
            assert value == pairwise_sup(power * m, tests, lv, max_depth)


def test_scan_rejects_zero_power(levels_r3_zramp):
    with pytest.raises(ValueError):
        scan_mixing_intervals(levels_r3_zramp, [], [0], 4, 0, 4)


@pytest.mark.parametrize("samples", [0, -3])
def test_scan_rejects_no_samples(levels_r3_zramp, samples):
    # a stage with no sampled times used to report max_lower = max_upper = 0
    with pytest.raises(ValueError, match="samples per stage must be >= 1"):
        scan_mixing_intervals(levels_r3_zramp, [], [0], samples, 1, 4)


def test_scan_transpose_symmetry(levels_r3_zramp):
    # j and -j with transposed test sets count the same forward shifts
    lv = levels_r3_zramp
    a, b = pts(1, 3, 5), pts(1, 4, 8)
    fwd = scan_mixing_intervals(lv, [(a, b)], [0], 8, 2, 5)
    bwd = scan_mixing_intervals(lv, [(b, a)], [0], 8, -2, 5)
    assert fwd.stages == bwd.stages


def test_scan_repeated_runs_give_identical_report(sched_r3_zramp):
    reports = []
    for _ in range(2):
        lv = build_levels(sched_r3_zramp, 5)
        reports.append(scan_mixing_intervals(lv, canonical_test_set(lv)[:12],
                                             [0, 1], 6, 1, 4))
    one, two = reports
    assert one == two
    assert canonical_json(decay_report_json(one)) == canonical_json(decay_report_json(two))


def test_adams_regime_trend_oracle():
    # finite-measure pure staircase with growing cuts: the stage maxima
    # over the sampled mixing interval decrease from stage n-2 to stage n
    lv = build_levels(Schedule("adams", 1, affine(2, 1), const(0)), 9)
    tests = canonical_test_set(lv)
    maxima = {}
    for stage in (2, 3, 4, 5, 6):
        lo_max, hi_max = Fraction(0), Fraction(0)
        for m in stratified_times(lv, stage, 8):
            for A, B in tests:
                lo, hi = oracle_correlation_bounds(
                    m, A.level, list(A.levels_set.points()),
                    B.level, list(B.levels_set.points()), lv, 8,
                )
                lo_max, hi_max = max(lo_max, lo), max(hi_max, hi)
        maxima[stage] = (lo_max, hi_max)
    for n in (4, 5, 6):
        assert maxima[n][1] < maxima[n - 2][0]
    # main path agrees with the oracle where cross-checked
    rep = scan_mixing_intervals(lv, tests, [2, 3, 4], 8, 1, 8)
    for sd in rep.stages:
        assert (sd.max_lower, sd.max_upper) == maxima[sd.stage]


# ------------------------------------------------------------- cesaro norms

def test_cesaro_norm_single_term_is_measure(levels_r3_zramp):
    b = pts(0, 0)
    assert cesaro_norm(5, 1, b, levels_r3_zramp, 4) == b.measure(levels_r3_zramp)


def test_cesaro_norm_examples(levels_r3_zramp):
    lv = levels_r3_zramp
    b = pts(0, 0)
    assert cesaro_norm(1, 2, b, lv, 4) == Fraction(1, 2)
    assert cesaro_norm(2, 2, b, lv, 4) == Fraction(2, 3)


def test_cesaro_norm_brute_force_cross_check(levels_r3_zramp):
    # || (1/l) sum U^{-ik} 1_B ||^2 expanded literally over all (i, j)
    lv = levels_r3_zramp
    # elements sit high enough that every shift (i - j) k resolves exactly
    b = pts(1, 6, 8)
    for k, l in [(1, 3), (2, 4), (3, 2)]:
        direct = Fraction(0)
        for i in range(l):
            for j in range(l):
                direct += correlation((i - j) * k, b, b, lv, 5)
        direct /= l * l
        assert cesaro_norm(k, l, b, lv, 5) == direct


def literal_cesaro_norm(k, l, B, levels, max_depth):
    """(1/l^2) sum_{i, j < l} mu(T^{(i-j)k} B cap B), term by term.

    Each term is read at the shift |(i - j) k|, the same measure by
    mu(T^{-m} B cap B) = mu(T^m B cap B).  Row i = 0 meets every |i - j|
    in increasing order, so an unresolved sum raises at its smallest
    unresolved shift.
    """
    total = sum(correlation(abs((i - j) * k), B, B, levels, max_depth)
                for i in range(l) for j in range(l))
    return Fraction(total, l * l)


@st.composite
def cesaro_cases(draw):
    """A small tower, a cylinder B of up to two intervals (so that many
    correlations are non-zero), a step k in +-1..4, a budget that may leave
    long averages unresolved, and lengths in random order."""
    sched = Schedule("c", draw(st.integers(1, 3)), const(draw(st.integers(2, 3))),
                     const(draw(st.integers(0, 4))))
    levels = build_levels(sched, 6)
    level = draw(st.integers(0, 2))
    cuts = sorted(draw(st.sets(st.integers(0, levels.h[level]), max_size=4)))
    B = CylinderSet.from_pairs(level, list(zip(cuts[::2], cuts[1::2])))
    k = draw(st.integers(1, 4)) * draw(st.sampled_from((1, -1)))
    max_depth = draw(st.integers(level + 1, 6))
    lengths = draw(st.lists(st.integers(1, 16), min_size=1, max_size=5))
    return sched, levels, B, k, max_depth, lengths


def cesaro_outcome(norm, *args):
    try:
        return "value", norm(*args)
    except DepthExhausted as exc:
        return "exhausted", exc.interval


@settings(max_examples=150)
@given(cesaro_cases())
def test_cesaro_norm_matches_literal_double_sum(case):
    sched, levels, B, k, max_depth, lengths = case
    fresh = build_levels(sched, levels.depth)
    expected = {l: cesaro_outcome(literal_cesaro_norm, k, l, B, fresh, max_depth)
                for l in lengths}
    # one shared TowerLevels; the descending pass asks for shorter averages
    # after a longer one may have run out of depth
    for l in lengths + sorted(lengths, reverse=True):
        assert cesaro_outcome(cesaro_norm, k, l, B, levels, max_depth) == expected[l]


def test_cesaro_norm_of_a_negative_step_is_that_of_abs_k(sched_r3_zramp):
    # mu(T^{-p} B cap B) = mu(T^p B cap B), so the norm depends on |k| only,
    # also for a B on the tower base, whose mass spills below it under every
    # T^{-p} at any budget; each norm is read on a fresh tower
    B = pts(1, 0, 1)
    for k in (1, 2, 3):
        for l in (1, 2, 5, 8):
            want = cesaro_norm(k, l, B, build_levels(sched_r3_zramp, 5), 5)
            assert cesaro_norm(-k, l, B, build_levels(sched_r3_zramp, 5), 5) == want


def test_cesaro_rejects_bad_length(levels_r3_zramp):
    with pytest.raises(ValueError):
        cesaro_norm(1, 0, pts(0, 0), levels_r3_zramp, 4)


# ---------------------------------------------------- averaging inequality

def test_inequality_same_average_holds(levels_r3_zramp):
    rep = check_averaging_inequality(4, 4, 1, pts(0, 0), levels_r3_zramp, 4)
    assert rep.holds
    assert rep.lhs_sq == rep.rhs_norm_sq


def test_inequality_worked_example(levels_r3_zramp):
    rep = check_averaging_inequality(6, 2, 2, pts(0, 0), levels_r3_zramp, 4)
    assert rep.lhs_sq == Fraction(17, 54)
    assert rep.rhs_norm_sq == Fraction(2, 3)
    assert rep.holds


def test_inequality_empty_set(levels_r3_zramp):
    empty = CylinderSet.from_points(0, [])
    rep = check_averaging_inequality(5, 2, 3, empty, levels_r3_zramp, 4)
    assert rep.holds
    assert rep.mu_b == 0 and rep.lhs == (0, 0)
    # 0 <= 0 on the enclosure ends: decided without the exact fallback
    assert rep.rhs == (0, 0)
    assert rep.decided_by == "enclosure"


def test_inequality_report_is_an_immutable_tuple(levels_r3_zramp):
    rep = check_averaging_inequality(6, 2, 2, pts(0, 0), levels_r3_zramp, 4)
    assert isinstance(rep, tuple)
    assert InequalityReport._fields == ("R", "L", "r", "mu_b", "lhs_sq", "rhs_norm_sq",
                                        "holds", "decided_by")
    for name in InequalityReport._fields + ("lhs", "rhs", "extra"):
        with pytest.raises(AttributeError):
            setattr(rep, name, rep.R)
    assert rep.rhs == (sqrt_enclosure(rep.rhs_norm_sq)
                       + Fraction(2 * 2, 6) * sqrt_enclosure(rep.mu_b))


def test_root_records_hold_a_norm_and_five_integers(sched_r3z1):
    # a root record keeps no enclosure: a report builds one when it is read
    levels = build_levels(sched_r3z1, 24)
    B = pts(2, 3, 7, 20)
    check_averaging_inequality(40, 3, 5, B, levels, 24)
    family = levels._cache["cesaro", B, 24]
    assert sorted(family) == [1, 5]
    for series in family.values():
        assert series.roots
        for record in series.roots.values():
            assert [type(x) for x in record] == [Fraction] + [int] * 5


@pytest.mark.parametrize("lhs_gap, rhs_gap, holds", [(42, 41, True), (41, 42, False)])
def test_fine_root_ends_decide_where_the_coarse_ends_overlap(sched_r3z1, lhs_gap, rhs_gap,
                                                             holds):
    # seeded norms put the roots at lhs = 3/4 + 2**-lhs_gap and rhs = root_1
    # + (2 / 4) root_1(mu) = (1/2 + 2**-rhs_gap) + 1/4: within 2**-30 of each
    # other, so the coarse ends overlap, but 2**-42 apart, far past the
    # 2**-64 width of the fine ends, which decide without the exact test
    levels, B = build_levels(sched_r3z1, 2), pts(0, 0)
    lhs = Fraction(3, 4) + Fraction(1, 2**lhs_gap)
    root_l = Fraction(1, 2) + Fraction(1, 2**rhs_gap)
    _cesaro_series(1, B, levels, 2).norms = [Fraction(1, 4), 0, 0, lhs * lhs]
    _cesaro_series(2, B, levels, 2).norms = [root_l * root_l]
    rep = check_averaging_inequality(4, 1, 2, B, levels, 2)
    rhs = root_l + Fraction(1, 4)
    assert (rep.lhs, rep.rhs) == ((lhs, lhs), (rhs, rhs))
    hi_c = _cesaro_series(1, B, levels, 2).roots[4][5]
    lo_lc, lo_1c = (_cesaro_series(k, B, levels, 2).roots[1][4] for k in (2, 1))
    assert hi_c * 4 > lo_lc * 4 + 2 * lo_1c  # the coarse ends do not decide
    assert (rep.holds, rep.decided_by) == (holds, "enclosure")


def test_inequality_random_grid(levels_r3_zramp):
    lv = levels_r3_zramp
    rng = random.Random(12)
    for _ in range(25):
        R, L, r = rng.randint(1, 12), rng.randint(1, 4), rng.randint(1, 4)
        b = pts(rng.randint(0, 1), *rng.sample(range(lv.h[1]), k=2))
        b = CylinderSet(1, b.levels_set)
        rep = check_averaging_inequality(R, L, r, b, lv, 5)
        assert rep.holds, (R, L, r)


@st.composite
def inequality_cases(draw):
    """A small tower whose spacers grow by one per stage (so most averages
    resolve), a cylinder B of up to two intervals, empty B included, a
    budget, and R, L, r."""
    sched = Schedule("c", draw(st.integers(1, 3)), const(draw(st.integers(2, 3))),
                     affine(draw(st.integers(0, 2)), 1))
    levels = build_levels(sched, 6)
    level = draw(st.integers(0, 2))
    size = min(draw(st.sampled_from((2, 3, 4, 0))), levels.h[level] + 1)
    cuts = sorted(draw(st.sets(st.integers(0, levels.h[level]), min_size=size,
                               max_size=size)))
    B = CylinderSet.from_pairs(level, list(zip(cuts[::2], cuts[1::2])))
    max_depth = draw(st.integers(level + 1, 6))
    R, L, r = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return levels, B, max_depth, R, L, r


@settings(max_examples=150)
@given(inequality_cases())
def test_inequality_rhs_is_root_l_plus_scaled_root_1(case):
    """rhs (computed when read) and lhs are the square-root enclosures of
    the report's own norms, and the integer verdict is the comparison of
    their Fraction ends."""
    levels, B, max_depth, R, L, r = case
    try:
        rep = check_averaging_inequality(R, L, r, B, levels, max_depth)
    except DepthExhausted:
        assume(False)
    assert (rep.mu_b, rep.lhs_sq, rep.rhs_norm_sq) == (
        B.measure(levels), cesaro_norm(1, R, B, levels, max_depth),
        cesaro_norm(r, L, B, levels, max_depth))
    s = Fraction(r * L, R)
    assert rep.rhs == sqrt_enclosure(rep.rhs_norm_sq) + s * sqrt_enclosure(rep.mu_b)
    assert rep.lhs == sqrt_enclosure(rep.lhs_sq)
    # the verdict as decided on Fraction ends of the two enclosures
    if rep.lhs.upper <= rep.rhs.lower:
        want = True, "enclosure"
    elif rep.lhs.lower > rep.rhs.upper:
        want = False, "enclosure"
    else:
        t = rep.lhs_sq - rep.rhs_norm_sq - s * s * rep.mu_b
        want = t <= 0 or t * t <= 4 * s * s * rep.rhs_norm_sq * rep.mu_b, "exact"
    assert (rep.holds, rep.decided_by) == want
    # the coarse ends the verdict reads first are the root ends rounded
    # outward to multiples of 2**-COARSE_BITS, as tight as that allows
    one = 1 << COARSE_BITS
    for k, l in ((1, R), (r, L), (1, 1)):
        _, lo, hi, d, lo_c, hi_c = _cesaro_series(k, B, levels, max_depth).root(levels, l)
        assert Fraction(lo_c, one) <= Fraction(lo, d) < Fraction(lo_c + 1, one)
        assert Fraction(hi_c - 1, one) < Fraction(hi, d) <= Fraction(hi_c, one)


def test_shuffled_grid_reads_the_ordered_reports(sched_r3z1):
    # criterion 4's grid for one cylinder on two fresh towers: in a shuffled
    # order any cell may be the first to use a series or a length
    B = pts(2, 3, 7, 20)
    cells = [(R, L, r) for R in range(2, 65) for L in range(1, 9) for r in range(1, 9)]
    levels = build_levels(sched_r3z1, 24)
    want = {cell: check_averaging_inequality(*cell, B, levels, 24) for cell in cells}
    random.Random(4).shuffle(cells)
    levels = build_levels(sched_r3z1, 24)
    for cell in cells:
        assert check_averaging_inequality(*cell, B, levels, 24) == want[cell], cell


def test_exhausted_cells_leave_later_cells_and_norms_unchanged(sched_r3_zramp):
    # at budget 2 the step-1 series of B resolves lengths up to 13 and the
    # step-4 series up to 4, so many cells raise DepthExhausted (exit 4);
    # in a shuffled order, each cell and then each Cesaro norm must read as
    # on a fresh tower
    B = pts(1, 0)
    cells = [(R, L, r) for R in range(1, 17) for L in range(1, 7) for r in range(1, 5)]
    want = {cell: cesaro_outcome(check_averaging_inequality, *cell, B,
                                 build_levels(sched_r3_zramp, 2), 2) for cell in cells}
    assert 0 < sum(kind == "value" for kind, _ in want.values()) < len(cells)
    levels = build_levels(sched_r3_zramp, 2)
    random.Random(5).shuffle(cells)
    for cell in cells:
        assert cesaro_outcome(check_averaging_inequality, *cell, B, levels, 2) == want[cell]
    for k in range(1, 5):
        for l in range(1, 17):
            assert (cesaro_outcome(cesaro_norm, k, l, B, levels, 2)
                    == cesaro_outcome(cesaro_norm, k, l, B, build_levels(sched_r3_zramp, 2), 2))


# ------------------------------------------------------------- weak limits

def test_weak_limit_identity_target(levels_r3_zramp):
    b = pts(0, 0)
    (disc,) = weak_limit_discrepancy_bounds([0], WeakLimitTarget.identity(),
                                            [(b, b)], levels_r3_zramp, 4)
    assert disc.exact() == 0


def test_weak_limit_empty_target_is_plain_correlation(levels_r3_zramp):
    lv = levels_r3_zramp
    b = pts(0, 0)
    disc = weak_limit_discrepancy_bounds([1, 2, 3], WeakLimitTarget({}), [(b, b)], lv, 4)
    assert [e.exact() for e in disc] == [abs(correlation(m, b, b, lv, 4)) for m in (1, 2, 3)]


def test_weak_limit_propagates_depth_exhausted(levels_r3_zramp):
    b = pts(0, 0)
    (disc,) = weak_limit_discrepancy_bounds([8], WeakLimitTarget.identity(),
                                            [(b, b)], levels_r3_zramp, 2)
    with pytest.raises(DepthExhausted):
        disc.exact()


def test_weak_limit_bounds_negative_coefficient(sched_r3z1):
    """|corr(-10) + corr(25)| with corr(-10) = 1/9 (counted forward, as
    corr(10)) and corr(25) in [0, 2/9] at max depth 2: the enclosure is
    [1/9, 1/3] and holds the depth-6 enclosure of the same quantity."""
    lv = build_levels(sched_r3z1, 6)
    a = pts(1, 0)
    target = WeakLimitTarget({-25: -1})
    (shallow,) = weak_limit_discrepancy_bounds([-10], target, [(a, a)], lv, 2)
    assert shallow == (Fraction(1, 9), Fraction(1, 3))
    (deep,) = weak_limit_discrepancy_bounds([-10], target, [(a, a)], lv, 6)
    assert shallow.lower <= deep.lower <= deep.upper <= shallow.upper


def test_partially_high_weak_limit_coefficient(levels_partial):
    """d_0/r_0 = 1/3 prefix: at m = H_0 the discrepancy against (1/3) U^-1
    equals the exactly assembled remainder, bounded by its average."""
    lv = levels_partial
    h0 = lv.h[0]
    tests = [(pts(0, a), pts(0, b)) for a in range(h0) for b in range(h0)]
    target = WeakLimitTarget({1: Fraction(1, 3)})
    H0 = lv.bigH[0]
    bounds = weak_limit_discrepancy_bounds([H0], target, tests, lv, 5)
    sup_lo, sup_hi = bounds[0]
    # reconstruct the same sup from the exact stage decomposition
    expected = Fraction(0)
    for A, B in tests:
        dec = stage_term_decomposition(0, A, B, lv, 5)
        clean_prefix = dec.prefix_term
        # discrepancy per pair: |lhs - (1/3) corr(-1)|; corr(-1) differs from
        # the clean prefix term only by the wraparound below the base
        remainder = dec.lhs - clean_prefix
        assert remainder == sum(dec.tail_terms, Fraction(0)) + dec.top_term
    assert sup_lo <= sup_hi
    # the remainder average bounds the discrepancy for pairs away from the base
    for a in range(1, h0):
        for b in range(h0):
            A, B = pts(0, a), pts(0, b)
            dec = stage_term_decomposition(0, A, B, lv, 5)
            disc = abs(dec.lhs - Fraction(1, 3) * correlation(-1, A, B, lv, 5))
            assert disc == abs(sum(dec.tail_terms, Fraction(0)) + dec.top_term)


def test_pure_staircase_cesaro_target_shrinks():
    """Constant-cut pure staircase: discrepancy against the flat polynomial
    at m = H_n drops from stage 1 and stays strictly below it after."""
    lv = build_levels(Schedule("pure4", 1, const(4), const(0)), 9)
    tests = canonical_test_set(lv)
    target = WeakLimitTarget.cesaro_polynomial(3)
    times = [lv.h[1], lv.h[2], lv.h[3]]
    bounds = weak_limit_discrepancy_bounds(times, target, tests, lv, 8)
    first_lo, first_hi = bounds[0]
    for lo, hi in bounds[1:]:
        assert hi < first_lo
    # oracle cross-check of the stage-1 entry
    sup_lo = Fraction(0)
    sup_hi = Fraction(0)
    for A, B in tests:
        lo, hi = oracle_correlation_bounds(lv.h[1], A.level, list(A.levels_set.points()),
                                           B.level, list(B.levels_set.points()), lv, 8)
        for j, a_j in target.items():
            t_lo, t_hi = oracle_correlation_bounds(-j, A.level, list(A.levels_set.points()),
                                                   B.level, list(B.levels_set.points()), lv, 8)
            lo, hi = lo - a_j * t_hi, hi - a_j * t_lo
        mag_hi = max(abs(lo), abs(hi))
        mag_lo = Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))
        sup_lo, sup_hi = max(sup_lo, mag_lo), max(sup_hi, mag_hi)
    assert sup_lo <= first_hi and first_lo <= sup_hi


def test_outside_proof_window_flag(levels_r3_zramp):
    lv = levels_r3_zramp
    inside = (pts(1, 4, 5), pts(1, 6))
    touching = (pts(1, 0), pts(1, 4))
    assert not outside_proof_window(inside, lv)
    assert outside_proof_window(touching, lv)


# ------------------------------------------------- stage-term decomposition

def test_stage_term_decomposition_all_pairs(levels_partial):
    lv = levels_partial
    h0 = lv.h[0]
    for a in range(h0):
        for b in range(h0):
            dec = stage_term_decomposition(0, pts(0, a), pts(0, b), lv, 5)
            assert dec.lhs == dec.rhs
            assert sum(dec.piece_terms, Fraction(0)) == dec.lhs
            assert dec.piece_terms[0] == dec.prefix_term  # d = 1 prefix subtower
            assert dec.piece_terms[1] == dec.tail_terms[0]
            assert dec.piece_terms[2] == dec.top_term


def test_stage_term_decomposition_clips_a_where_columns_carry_no_spacers():
    # z = 0: column 0 carries no spacers, so T^-j moves the levels below j of
    # copy 1 onto the top of copy 0, where B's copies lie; the plain adjoint
    # terms then differ from the clipped ones, and only the clipped ones
    # close the identity
    lv = build_levels(Schedule("z0", 2, const(5), const(0)), 7)
    r = lv.r[0]
    for a in range(lv.h[0]):
        for b in range(lv.h[0]):
            A, B = pts(0, a), pts(0, b)
            dec = stage_term_decomposition(0, A, B, lv, 7)
            assert dec.lhs == dec.rhs == sum(dec.piece_terms, Fraction(0))
            plain = [Fraction(1, r) * correlation(-j, A, B, lv, 7) for j in range(r - 1)]
            assert list(dec.tail_terms) != plain


def test_stage_term_decomposition_depth_exhausted():
    lv = build_levels(Schedule("t", 1, const(3), const(1)), 6)
    A, B = pts(1, 5), pts(1, 1)
    with pytest.raises(DepthExhausted) as exc:
        stage_term_decomposition(1, A, B, lv, 3)
    lo, hi = exc.value.interval
    assert (lo, hi) == (Fraction(1, 27), Fraction(2, 27))
    dec = stage_term_decomposition(1, A, B, lv, 6)
    assert dec.lhs == Fraction(1, 27)
    assert lo <= dec.lhs <= hi


def test_stage_term_decomposition_high_staircase(levels_r3_zramp):
    # d = 0: no prefix term, tail shifts 0..r-2
    lv = levels_r3_zramp
    dec = stage_term_decomposition(1, pts(1, 4), pts(1, 2), lv, 5)
    assert dec.prefix_term == 0
    assert len(dec.tail_terms) == lv.r[1] - 1
    assert dec.lhs == dec.rhs
