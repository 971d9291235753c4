"""Exception types shared across the library.

Each type falls in exactly one family, and the family alone decides the CLI
exit code: ValueError 2, InvalidSchedule 3, DepthExhausted 4.  CFRankError
is a base class only; nothing raises it bare.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class CFRankError(Exception):
    """Base class for all library errors."""


class InvalidSchedule(CFRankError):
    """A schedule parameter breaks a construction invariant (e.g. r_n < 2)."""


class OffsetOverlap(InvalidSchedule):
    """Explicit prefix offsets would make translated tower copies overlap."""


class DepthUnavailable(CFRankError, ValueError):
    """An operation needs tower levels deeper than what was materialized."""


class IntegerTooLong(ValueError):
    """An integer has more digits than the interpreter converts to or from str.

    The limit is sys.get_int_max_str_digits(); cfrank reports it and never
    lifts it.
    """


class DepthExhausted(CFRankError):
    """Spillover could not be fully resolved within the allowed depth.

    Carries the exact enclosure [resolved lower bound, lower + residual]
    of the true value as `interval`.
    """

    def __init__(self, interval: Enclosure):
        self.interval = interval
        lo, hi = interval
        super().__init__(f"unresolved residual {hi - lo} (resolved lower bound {lo})")


class Enclosure(NamedTuple):
    """Exact rational interval [lower, upper] holding an unknown true value.

    A resolved value is the degenerate interval (v, v).  The arithmetic is
    exact interval arithmetic, so every result contains every value the
    operands could take.  Being a tuple, it unpacks as `lo, hi = e` and
    compares equal to `(lo, hi)`; note that the built-in max() orders
    tuples lexicographically, so sups go through Enclosure.max.
    """

    lower: Fraction
    upper: Fraction

    def __add__(self, other: Enclosure) -> Enclosure:
        return Enclosure(self.lower + other.lower, self.upper + other.upper)

    def __sub__(self, other: Enclosure) -> Enclosure:
        return Enclosure(self.lower - other.upper, self.upper - other.lower)

    def __mul__(self, other) -> Enclosure:
        """Product with another enclosure, or scaling by a rational."""
        if isinstance(other, Enclosure):
            ends = [a * b for a in self for b in other]
            return Enclosure(min(ends), max(ends))
        if other < 0:
            return Enclosure(other * self.upper, other * self.lower)
        return Enclosure(other * self.lower, other * self.upper)

    __rmul__ = __mul__

    def __abs__(self) -> Enclosure:
        lo, hi = self
        if lo >= 0:
            return self
        if hi <= 0:
            return Enclosure(-hi, -lo)
        return Enclosure(Fraction(0), max(-lo, hi))

    def max(self, other: Enclosure) -> Enclosure:
        """Enclosure of max(x, y) for x in self and y in other."""
        return Enclosure(max(self.lower, other.lower), max(self.upper, other.upper))

    def exact(self) -> Fraction:
        """The value if resolved, else DepthExhausted carrying this interval."""
        if self.lower == self.upper:
            return self.lower
        raise DepthExhausted(self)
