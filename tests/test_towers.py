import random
from fractions import Fraction

import pytest

from cfrank import (
    Schedule,
    affine,
    build_levels,
    check_restricted_growth,
    concatenate,
    const,
    explicit,
    geometric,
    measure_report,
)
from cfrank.errors import (
    DepthUnavailable,
    InvalidSchedule,
    OffsetOverlap,
)
from cfrank.schedule import MAX_STOPPING_TIME
from cfrank.towers import MAX_TOWER_BITS


def test_high_staircase_recurrence_small():
    lv = build_levels(Schedule("a", 2, const(2), const(0)), 1)
    assert lv.h[1] == 5
    assert lv.offsets[0] == (0, 2)


def test_high_staircase_recurrence_with_spacers():
    lv = build_levels(Schedule("b", 1, const(3), const(1)), 1)
    assert lv.h[1] == 9
    assert lv.offsets[0] == (0, 2, 5)
    # top-of-tower consistency: c(2) + h_0 + z_0 + 2 = 9
    assert lv.offsets[0][2] + 1 + 1 + 2 == 9


def test_two_stage_recurrence():
    lv = build_levels(Schedule("c", 1, const(3), affine(1, 1)), 2)
    assert lv.h == (1, 9, 36)
    assert lv.offsets[1] == (0, 11, 23)
    assert lv.bigH == (2, 11)


def test_invalid_schedules():
    with pytest.raises(InvalidSchedule):
        build_levels(Schedule("bad", 1, const(1), const(0)), 1)
    with pytest.raises(InvalidSchedule):
        build_levels(Schedule("bad", 1, const(2), const(-1)), 1)
    with pytest.raises(InvalidSchedule):
        Schedule("bad", 0, const(2), const(0))
    with pytest.raises(InvalidSchedule):
        build_levels(Schedule("bad", 1, const(2), const(0), d=const(3)), 1)


def test_offset_overlap_rejected():
    # c(1) = 3 < h_0 = 6 would overlap the base copy
    sched = Schedule("ov", 6, const(3), const(4), d=explicit([1], tail=const(0)),
                     prefix_offsets={0: (3,)})
    with pytest.raises(OffsetOverlap):
        build_levels(sched, 1)


def test_explicit_prefix_offsets_accepted():
    sched = Schedule("ok", 6, const(3), const(4), d=explicit([1], tail=const(0)),
                     prefix_offsets={0: (11,)})
    lv = build_levels(sched, 1)
    assert lv.offsets[0] == (0, 11, 21)


def test_top_offset_identity_randomized():
    # high staircases: c(r-1) + h + z + (r-1) = h_next at every stage
    rng = random.Random(1729)
    for trial in range(20):
        h0 = rng.randint(1, 6)
        kind = rng.choice(["const", "affine", "geometric"])
        if kind == "const":
            r = const(rng.randint(2, 6))
        elif kind == "affine":
            r = affine(rng.randint(2, 5), rng.randint(0, 2))
        else:
            r = geometric(rng.randint(2, 3), rng.randint(1, 2))
        z = const(rng.randint(0, 4))
        lv = build_levels(Schedule(f"rand{trial}", h0, r, z), 4)
        for n in range(4):
            c_top = lv.offsets[n][-1]
            assert c_top + lv.h[n] + lv.z[n] + (lv.r[n] - 1) == lv.h[n + 1]


def test_copies_disjoint_and_contained():
    lv = build_levels(Schedule("c", 1, affine(3, 1), const(2)), 5)
    for n in range(5):
        c = lv.offsets[n]
        for x, y in zip(c, c[1:]):
            assert y - x >= lv.h[n]
        assert c[-1] + lv.h[n] <= lv.h[n + 1]


def test_growth_verdicts():
    passing = build_levels(Schedule("p", 1, affine(2, 1), const(1)), 4)
    rep = check_restricted_growth(passing, threshold=1)
    assert rep.g == (Fraction(9, 2), Fraction(8, 3), Fraction(25, 24), Fraction(3, 10))
    assert rep.verdict == "PASS"

    const_r = build_levels(Schedule("q", 1, const(2), const(0)), 5)
    rep2 = check_restricted_growth(const_r, threshold=1)
    assert rep2.g == tuple(Fraction(4, 2**n) for n in range(1, 6))
    assert rep2.verdict == "PASS"

    # r_n = 2^(2^n): doubly exponential cuts outrun the cut product
    doubling = build_levels(
        Schedule("x", 1, explicit([2, 4, 16, 256, 65536]), const(0)), 4
    )
    rep3 = check_restricted_growth(doubling)
    assert all(a < b for a, b in zip(rep3.g, rep3.g[1:]))
    assert rep3.verdict == "FAIL"


def test_growth_verdict_reads_the_last_step():
    # a flat last step is not a decreasing tail, even at the threshold
    flat = build_levels(Schedule("f", 1, explicit([2, 4, 8]), const(0)), 2)
    rep = check_restricted_growth(flat, threshold=8)
    assert rep.g == (Fraction(8), Fraction(8))
    assert rep.verdict == "INCONCLUSIVE"
    # one falling step after the flat one is enough
    falls = build_levels(Schedule("f", 1, explicit([2, 4, 8, 3]), const(0)), 3)
    rep2 = check_restricted_growth(falls, threshold=1)
    assert rep2.g == (Fraction(8), Fraction(8), Fraction(9, 64))
    assert rep2.verdict == "PASS"


def test_build_levels_caps_tower_size():
    # r = 3 passes the cap a few thousand stages in, long before a depth
    # of a million would exhaust memory
    with pytest.raises(ValueError, match=f"past the cap of {MAX_TOWER_BITS}"):
        build_levels(Schedule("r3", 1, const(3), const(1)), 10**6)
    # a huge r_n is refused before its offsets are built
    with pytest.raises(ValueError, match="by stage 0"):
        build_levels(Schedule("wide", 1, const(2**40), const(0)), 1)


def test_growth_needs_depth_two():
    lv = build_levels(Schedule("s", 1, const(2), const(0)), 1)
    with pytest.raises(DepthUnavailable):
        check_restricted_growth(lv)


def test_measure_report_values():
    lv = build_levels(Schedule("c", 1, const(3), affine(1, 1)), 2)
    rep = measure_report(lv)
    assert rep.mu == (Fraction(1), Fraction(3), Fraction(4))
    assert rep.level_measure == (Fraction(1), Fraction(1, 3), Fraction(1, 9))

    pure = measure_report(build_levels(Schedule("p", 2, const(2), const(0)), 1))
    assert pure.mu == (Fraction(2), Fraction(5, 2))
    assert all(s == 0 for s in pure.partial_sums)
    assert "finite-measure" in pure.verdict


def test_measure_normalization_depth_zero():
    lv = build_levels(Schedule("n", 7, const(2), const(0)), 0)
    assert measure_report(lv).mu == (Fraction(7),)


def test_measure_nondecreasing_and_high_staircase_increment():
    lv = build_levels(Schedule("m", 3, affine(2, 1), affine(0, 2)), 5)
    rep = measure_report(lv)
    for n in range(5):
        got = rep.mu[n + 1] - rep.mu[n]
        want = Fraction(lv.z[n] + Fraction(lv.r[n] - 1, 2), lv.cuts_product[n])
        assert got == want
        assert got >= 0


def test_reports_are_pure():
    lv = build_levels(Schedule("c", 1, affine(3, 1), const(1)), 4)
    assert check_restricted_growth(lv) == check_restricted_growth(lv)
    assert measure_report(lv) == measure_report(lv)


# ------------------------------------------------------------- concatenate

def test_concatenate_single_fragment_identity():
    frag = Schedule("f", 1, const(3), const(1))
    out = concatenate([(frag, 2)])
    for n in range(6):
        assert out.r.at(n) == frag.r.at(n)
        assert out.z.at(n) == frag.z.at(n)
    assert build_levels(out, 4).h == build_levels(frag, 4).h


def test_concatenate_two_fragments_feeds_heights():
    f1 = Schedule("f1", 2, const(2), const(0))
    f2 = Schedule("f2", 99, const(3), const(1))  # declared h0 ignored
    out = concatenate([(f1, 1), (f2, 1)])
    lv = build_levels(out, 3)
    # stage 0 from f1: h_1 = 2*(2+0) + 1 = 5; stage 1 from f2: h_2 = 3*(5+1) + 3 = 21
    assert lv.h[1] == 5
    assert lv.h[2] == 21
    assert lv.r[:3] == (2, 3, 3)
    assert out.h0 == 2
    # beyond both stopping times the last fragment's parameters continue
    assert out.r.at(5) == 3 and out.z.at(5) == 1


def test_concatenate_shifts_varying_tail():
    f1 = Schedule("f1", 1, const(2), const(0))
    f2 = Schedule("f2", 1, affine(3, 1), affine(0, 2))
    out = concatenate([(f1, 2), (f2, 3)])
    # global stage 2+k uses f2 stage k; beyond k=2 the affine law continues shifted
    for k in range(6):
        assert out.r.at(2 + k) == 3 + k
        assert out.z.at(2 + k) == 2 * k


def test_concatenate_empty_rejected():
    with pytest.raises(InvalidSchedule, match="need at least one"):
        concatenate([])
    with pytest.raises(InvalidSchedule):
        concatenate([(Schedule("f", 1, const(2), const(0)), 0)])


def test_stopping_time_cap_refuses_no_buildable_depth():
    # h_n >= 2**n and r_n >= 2 on every schedule, so this one passes
    # MAX_TOWER_BITS last: no schedule builds deeper than 5,792 stages
    slowest = Schedule("min", 1, const(2), const(0))
    assert build_levels(slowest, 5792).depth == 5792
    with pytest.raises(ValueError, match="past the cap"):
        build_levels(slowest, 5793)
    assert MAX_STOPPING_TIME >= 5792
    out = concatenate([(slowest, MAX_STOPPING_TIME - 1), (slowest, 1)])
    assert out.r.values == (2,) * MAX_STOPPING_TIME
    with pytest.raises(InvalidSchedule, match=f"add up to {MAX_STOPPING_TIME + 1}, past"):
        concatenate([(slowest, MAX_STOPPING_TIME), (slowest, 1)])
