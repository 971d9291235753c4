"""Spectral-sequence diagnostics and exp-operator multiplicity combinatorics.

The autocorrelation sequence m -> <U^m 1_f, 1_f> is the Fourier transform
of the spectral measure of the indicator; zero type means it tends to 0.
The two multiplicity operations are exact combinatorial consequences of a
simple-spectrum hypothesis on the exp operator; that hypothesis is not
certified here (it is not computable from finite data).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Mapping

from .cylinders import CylinderSet, correlation
from .sequences import printable
from .towers import TowerLevels


@dataclass(frozen=True)
class SpectralSequence:
    f: CylinderSet
    values: Mapping[int, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def at(self, m: int) -> Fraction:
        return self.values[m]


def spectral_sequence(f: CylinderSet, M: int, levels: TowerLevels,
                      max_depth: int) -> SpectralSequence:
    """Exact autocorrelations for |m| <= M.

    Only m >= 0 is computed; the sequence is real and symmetric because
    mu(T^m f cap f) = mu(f cap T^-m f).
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    values: dict[int, Fraction] = {}
    for m in range(M + 1):
        v = correlation(m, f, f, levels, max_depth) if m else f.measure(levels)
        values[m] = v
        values[-m] = v
    return SpectralSequence(f, values)


def exp_multiplicities_symmetric_square(n_max: int) -> tuple[int, ...]:
    """{(2n)! / (2^n n!) : 1 <= n <= n_max} = {1, 3, 15, 105, ...}.

    These are the multiplicity values contributed by the symmetric tensor
    powers of a symmetric square; conditional on the exp operator of the
    base transformation having a simple spectrum.  Raises IntegerTooLong
    at the first value past sys.get_int_max_str_digits() digits.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return tuple(printable(accumulate(range(3, 2 * n_max, 2), mul, initial=1)))


def exp_multiplicities_identity_product(p: int, n_max: int) -> tuple[int, ...]:
    """{p^k : 1 <= k <= n_max}, the semigroup realized by crossing with a
    p-point identity; conditional on the same simple-spectrum hypothesis.
    Raises IntegerTooLong at the first value past the same digit limit."""
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return tuple(printable(accumulate(repeat(p, n_max), mul)))
