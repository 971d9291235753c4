import random
from fractions import Fraction

import pytest

from cfrank import (
    CylinderSet,
    Schedule,
    WeakLimitTarget,
    affine,
    build_levels,
    canonical_test_set,
    cesaro_norm,
    check_averaging_inequality,
    const,
    correlation,
    scan_mixing_intervals,
    sqrt_enclosure,
    stage_term_decomposition,
    stratified_times,
    weak_limit_discrepancy,
)
from cfrank.errors import DepthExhausted
from cfrank.mixing import outside_proof_window, weak_limit_discrepancy_bounds
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


def test_scan_rejects_zero_power(levels_r3_zramp):
    with pytest.raises(ValueError):
        scan_mixing_intervals(levels_r3_zramp, [], [0], 4, 0, 4)


def test_scan_transpose_symmetry(levels_r3_zramp):
    # exact entries for j and -j with transposed test sets agree
    lv = levels_r3_zramp
    a, b = pts(1, 3, 5), pts(1, 4, 8)
    fwd = scan_mixing_intervals(lv, [(a, b)], [0], 8, 2, 5)
    bwd = scan_mixing_intervals(lv, [(b, a)], [0], 8, -2, 5)
    for (flo, fhi), (blo, bhi) in zip(fwd.stages[0].values, bwd.stages[0].values):
        assert flo <= bhi and blo <= fhi
        if flo == fhi and blo == bhi:
            assert flo == blo


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


def test_inequality_random_grid(levels_r3_zramp):
    lv = levels_r3_zramp
    rng = random.Random(12)
    for _ in range(25):
        R, L, r = rng.randint(1, 12), rng.randint(1, 4), rng.randint(1, 4)
        b = pts(rng.randint(0, 1), *rng.sample(range(lv.h[1]), k=2))
        b = CylinderSet(1, b.levels_set)
        rep = check_averaging_inequality(R, L, r, b, lv, 5)
        assert rep.holds, (R, L, r)


# ------------------------------------------------------------- weak limits

def test_weak_limit_identity_target(levels_r3_zramp):
    b = pts(0, 0)
    assert weak_limit_discrepancy([0], WeakLimitTarget.identity(),
                                  [(b, b)], levels_r3_zramp, 4) == [0]


def test_weak_limit_empty_target_is_plain_correlation(levels_r3_zramp):
    lv = levels_r3_zramp
    b = pts(0, 0)
    disc = weak_limit_discrepancy([1, 2, 3], WeakLimitTarget({}), [(b, b)], lv, 4)
    assert disc == [abs(correlation(m, b, b, lv, 4)) for m in (1, 2, 3)]


def test_weak_limit_propagates_depth_exhausted(levels_r3_zramp):
    b = pts(0, 0)
    with pytest.raises(DepthExhausted):
        weak_limit_discrepancy([8], WeakLimitTarget.identity(),
                               [(b, b)], levels_r3_zramp, 2)


def test_weak_limit_bounds_negative_coefficient(sched_r3z1):
    """|corr(-10) + corr(25)| with corr(-10) in [1/9, 2/9] and corr(25) in
    [0, 2/9] at max depth 2: the enclosure is [1/9, 4/9] and holds the
    depth-6 enclosure of the same quantity."""
    lv = build_levels(sched_r3z1, 6)
    a = pts(1, 0)
    target = WeakLimitTarget({-25: -1})
    (shallow,) = weak_limit_discrepancy_bounds([-10], target, [(a, a)], lv, 2)
    assert shallow == (Fraction(1, 9), Fraction(4, 9))
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


def test_stage_term_decomposition_high_staircase(levels_r3_zramp):
    # d = 0: no prefix term, tail shifts 0..r-2
    lv = levels_r3_zramp
    dec = stage_term_decomposition(1, pts(1, 4), pts(1, 2), lv, 5)
    assert dec.prefix_term == 0
    assert len(dec.tail_terms) == lv.r[1] - 1
    assert dec.lhs == dec.rhs
