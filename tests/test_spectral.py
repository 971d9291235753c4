import sys
from fractions import Fraction

import pytest

from cfrank import (
    CylinderSet,
    exp_multiplicities_identity_product,
    exp_multiplicities_symmetric_square,
    spectral_sequence,
)
from cfrank.errors import IntegerTooLong


def test_spectral_sequence_values(levels_r3_zramp):
    f = CylinderSet.from_points(0, [0])
    seq = spectral_sequence(f, 2, levels_r3_zramp, 4)
    assert seq.at(0) == f.measure(levels_r3_zramp) == 1
    assert (seq.at(0), seq.at(1), seq.at(2)) == (1, 0, Fraction(1, 3))


def test_spectral_sequence_symmetry(levels_r3_zramp):
    f = CylinderSet.from_points(1, [2, 5])
    seq = spectral_sequence(f, 5, levels_r3_zramp, 5)
    for m in range(6):
        assert seq.at(-m) == seq.at(m)
    assert seq.at(0) == f.measure(levels_r3_zramp)


def test_spectral_sequence_empty_set(levels_r3_zramp):
    f = CylinderSet.from_points(0, [])
    seq = spectral_sequence(f, 3, levels_r3_zramp, 4)
    assert all(v == 0 for v in seq.values.values())


def test_symmetric_square_multiplicities():
    assert exp_multiplicities_symmetric_square(1) == (1,)
    assert exp_multiplicities_symmetric_square(3) == (1, 3, 15)
    assert exp_multiplicities_symmetric_square(5) == (1, 3, 15, 105, 945)


def test_symmetric_square_recurrence_and_closed_form():
    from math import factorial

    vals = exp_multiplicities_symmetric_square(8)
    for n, v in enumerate(vals, start=1):
        assert v == factorial(2 * n) // (2**n * factorial(n))
    for n in range(1, 8):
        assert vals[n] == vals[n - 1] * (2 * n + 1)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_identity_product_multiplicities():
    assert exp_multiplicities_identity_product(2, 3) == (2, 4, 8)
    assert exp_multiplicities_identity_product(3, 1) == (3,)
    assert exp_multiplicities_identity_product(10, 2) == (10, 100)
    vals = exp_multiplicities_identity_product(5, 6)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_identity_product_rejects_small_p():
    with pytest.raises(ValueError, match="need p > 1, got 1"):
        exp_multiplicities_identity_product(1, 3)
    with pytest.raises(ValueError):
        exp_multiplicities_identity_product(2, 0)


@pytest.fixture()
def set_digit_limit():
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def test_multiplicities_stop_at_the_digit_limit(set_digit_limit):
    set_digit_limit(640)
    # 10^639 has 640 digits and is printable; 10^640 is the first value refused
    assert exp_multiplicities_identity_product(10, 639)[-1] == 10**639
    with pytest.raises(IntegerTooLong, match="limit of 640 digits"):
        exp_multiplicities_identity_product(10, 640)
    # refused before the next value is computed: a billion values would not finish
    for make in (exp_multiplicities_symmetric_square,
                 lambda n: exp_multiplicities_identity_product(2, n)):
        with pytest.raises(IntegerTooLong, match="limit of 640 digits"):
            make(10**9)
    set_digit_limit(0)  # no limit: nothing is refused
    assert len(exp_multiplicities_identity_product(10, 700)) == 700
    assert len(str(exp_multiplicities_symmetric_square(400)[-1])) > 640
