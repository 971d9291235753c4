"""Sorted disjoint half-open integer intervals with exact endpoints.

Subsets of a tower stage are unions of level ranges; translation,
refinement by offset sets, clipping and difference all preserve that
structure, so intervals (not bitsets) are the working representation.
Endpoints are Python ints and may be arbitrarily large.

Every result that can come out overlapping or adjacent (from_pairs,
from_points, union, translate_by_offsets) goes through one normalizer,
_normalize.  Its sort merges already-sorted runs in linear time, and the
operands of a union and the copies of a set at increasing offsets are
such runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def _normalize(pairs) -> tuple[tuple[int, int], ...]:
    pairs = sorted((int(a), int(b)) for a, b in pairs if a < b)
    out: list[tuple[int, int]] = []
    for a, b in pairs:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


@dataclass(frozen=True)
class IntervalSet:
    """Canonical form: sorted, pairwise disjoint, non-adjacent [a, b) pairs."""

    intervals: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "IntervalSet":
        return IntervalSet(_normalize(pairs))

    @staticmethod
    def from_points(points: Iterable[int]) -> "IntervalSet":
        return IntervalSet(_normalize((p, p + 1) for p in points))

    @property
    def cardinality(self) -> int:
        return sum(b - a for a, b in self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.intervals)

    def min(self) -> int:
        return self.intervals[0][0]

    def max(self) -> int:
        """Largest element (inclusive)."""
        return self.intervals[-1][1] - 1

    def points(self) -> Iterator[int]:
        for a, b in self.intervals:
            yield from range(a, b)

    def shift(self, k: int) -> "IntervalSet":
        if k == 0 or not self.intervals:
            return self
        return IntervalSet(tuple((a + k, b + k) for a, b in self.intervals))

    def clip(self, lo: int, hi: int) -> "IntervalSet":
        """Subset within [lo, hi)."""
        if lo >= hi or not self.intervals:
            return IntervalSet()
        out = []
        for a, b in self.intervals:
            if b <= lo:
                continue
            if a >= hi:
                break
            out.append((max(a, lo), min(b, hi)))
        return IntervalSet(tuple(p for p in out if p[0] < p[1]))

    def intersection_cardinality(self, other: "IntervalSet") -> int:
        xs, ys = self.intervals, other.intervals
        i = j = 0
        total = 0
        while i < len(xs) and j < len(ys):
            a = max(xs[i][0], ys[j][0])
            b = min(xs[i][1], ys[j][1])
            if a < b:
                total += b - a
            if xs[i][1] <= ys[j][1]:
                i += 1
            else:
                j += 1
        return total

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(_normalize(self.intervals + other.intervals))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        if not other.intervals or not self.intervals:
            return self
        out = []
        j = 0
        ys = other.intervals
        for a, b in self.intervals:
            cur = a
            while j < len(ys) and ys[j][1] <= cur:
                j += 1
            k = j
            while k < len(ys) and ys[k][0] < b:
                c, d = ys[k]
                if c > cur:
                    out.append((cur, c))
                cur = max(cur, d)
                if d >= b:
                    break
                k += 1
            if cur < b:
                out.append((cur, b))
        return IntervalSet(tuple(p for p in out if p[0] < p[1]))

    def translate_by_offsets(self, offsets: Iterable[int]) -> "IntervalSet":
        """Union of self + c over all offsets c (the refinement step)."""
        return IntervalSet(_normalize((a + c, b + c) for c in offsets
                                      for a, b in self.intervals))

    def within(self, lo: int, hi: int) -> bool:
        return not self.intervals or (self.min() >= lo and self.max() < hi)
