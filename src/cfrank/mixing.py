"""Mixing diagnostics: decay scans, Cesaro averages, the averaging
inequality, and weak operator limits.

Mixing itself is an asymptotic statement, so nothing here claims a limit:
scans report exact correlation values (or exact intervals when resolution
ran out of depth) over the candidate mixing intervals [h_n, 2 H_n), and
trend acceptance is left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Mapping, Sequence

from .cylinders import (
    CylinderSet,
    apply_power,
    correlation,
    correlation_bounds,
    intersect_measure,
)
from .errors import DepthExhausted, Enclosure
from .towers import TowerLevels

Pair = tuple[CylinderSet, CylinderSet]


def sqrt_enclosure(x: Fraction, precision_bits: int = 64) -> Enclosure:
    """Exact rational [lo, hi] with lo <= sqrt(x) <= hi, hi - lo <= 2**-precision_bits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    if x == 0:
        return Enclosure(Fraction(0), Fraction(0))
    p, q = x.numerator, x.denominator
    k = max(precision_bits, 0)
    n = (p * q) << (2 * k)
    s = isqrt(n)
    lo = Fraction(s, q << k)
    if s * s == n:
        return Enclosure(lo, lo)
    return Enclosure(lo, Fraction(s + 1, q << k))


def canonical_test_set(levels: TowerLevels) -> list[Pair]:
    """All singleton stage-1 cylinders paired with each other."""
    levels.require_depth(1)
    singles = [CylinderSet.from_points(1, [f]) for f in range(levels.h[1])]
    return [(a, b) for a in singles for b in singles]


def stratified_times(levels: TowerLevels, stage: int, count: int) -> list[int]:
    """Deterministic sample of the candidate mixing interval [h_n, 2 H_n).

    Mirrors the k H_n + t split used to analyze these times: the interval
    endpoints and H_n are always included, and the remaining quota is an
    even grid over the two strata [h_n, H_n) and [H_n, 2 H_n).
    """
    levels.require_depth(stage)
    levels.require_depth(stage + 1)
    lo = levels.h[stage]
    H = levels.bigH[stage]
    hi = 2 * H
    if count <= 0:
        return []
    if hi - lo <= count:
        return list(range(lo, hi))
    pts = {lo, hi - 1}
    if lo <= H < hi:
        pts.add(H)
    quota = max(count - len(pts), 0)
    q0 = quota // 2
    q1 = quota - q0
    for j in range(1, q0 + 1):
        pts.add(lo + j * (H - lo) // (q0 + 1))
    for j in range(1, q1 + 1):
        pts.add(H + j * H // (q1 + 1))
    return sorted(p for p in pts if lo <= p < hi)


@dataclass(frozen=True)
class StageDecay:
    stage: int
    interval: tuple[int, int]
    times: tuple[int, ...]
    # per time: sup over the test set, degenerate when fully resolved
    values: tuple[Enclosure, ...]

    @property
    def max_lower(self) -> Fraction:
        return max((v[0] for v in self.values), default=Fraction(0))

    @property
    def max_upper(self) -> Fraction:
        return max((v[1] for v in self.values), default=Fraction(0))

    @property
    def exact(self) -> bool:
        return all(lo == hi for lo, hi in self.values)


@dataclass(frozen=True)
class DecayReport:
    power: int
    test_set: str
    samples_per_stage: int
    stages: tuple[StageDecay, ...]


def scan_mixing_intervals(levels: TowerLevels, test_sets: Sequence[Pair],
                          stages: Sequence[int], samples_per_stage: int,
                          power: int, max_depth: int,
                          test_set_label: str = "custom") -> DecayReport:
    """Max correlation of T^(power * m) over sampled m in [h_n, 2 H_n).

    The per-time value is the sup over the test set; unresolved entries
    become honest [lower, upper] intervals instead of failing the scan.
    """
    if power == 0:
        raise ValueError("power must be non-zero")
    test_sets = list(test_sets)
    records = []
    for stage in stages:
        times = stratified_times(levels, stage, samples_per_stage)
        values = []
        for m in times:
            sup = Enclosure(Fraction(0), Fraction(0))
            for A, B in test_sets:
                sup = sup.max(correlation_bounds(power * m, A, B, levels, max_depth))
            values.append(sup)
        records.append(StageDecay(
            stage, (levels.h[stage], 2 * levels.bigH[stage]), tuple(times), tuple(values)
        ))
    return DecayReport(power, test_set_label, samples_per_stage, tuple(records))


def cesaro_norm(k: int, l: int, B: CylinderSet, levels: TowerLevels,
                max_depth: int) -> Fraction:
    """Exact squared norm of the Cesaro average (1/l) sum_{i<l} U^{-ik} 1_B.

    Expands to mu(B)/l + (1/l^2) sum_{i != j} mu(T^{(i-j)k} B cap B); the
    negative differences are folded in by the symmetry
    mu(T^{-p} B cap B) = mu(T^{p} B cap B).
    """
    if l < 1:
        raise ValueError("average length l must be >= 1")
    mu_b = B.measure(levels)
    total = Fraction(mu_b, l)
    if l == 1:
        return total
    cross = Fraction(0)
    for p in range(1, l):
        cross += 2 * (l - p) * correlation(p * k, B, B, levels, max_depth)
    return total + Fraction(cross, l * l)


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of the averaging inequality with exact enclosures.

    lhs is the norm of the step-1 average of length R; rhs is the norm of
    the step-r average of length L plus (r L / R) sqrt(mu(B)).  `holds` is
    decided from the safe sides of the enclosures, falling back to an exact
    algebraic comparison when the enclosures alone cannot separate sides.
    """

    R: int
    L: int
    r: int
    mu_b: Fraction
    lhs_sq: Fraction
    rhs_norm_sq: Fraction
    lhs: Enclosure
    rhs: Enclosure
    holds: bool
    decided_by: str


def check_averaging_inequality(R: int, L: int, r: int, B: CylinderSet,
                               levels: TowerLevels, max_depth: int,
                               precision_bits: int = 64) -> InequalityReport:
    if min(R, L, r) < 1:
        raise ValueError("R, L, r must all be >= 1")
    mu_b = B.measure(levels)
    lhs_sq = cesaro_norm(1, R, B, levels, max_depth)
    rhs_norm_sq = cesaro_norm(r, L, B, levels, max_depth)
    s = Fraction(r * L, R)
    lhs = sqrt_enclosure(lhs_sq, precision_bits)
    rhs = (sqrt_enclosure(rhs_norm_sq, precision_bits)
           + s * sqrt_enclosure(mu_b, precision_bits))
    if lhs.upper <= rhs.lower:
        holds, decided = True, "enclosure"
    elif lhs.lower > rhs.upper:
        holds, decided = False, "enclosure"
    else:
        # decide sqrt(lhs_sq) <= sqrt(rhs_norm_sq) + s sqrt(mu_b) exactly:
        # square once, isolate the remaining root, square again
        t = lhs_sq - rhs_norm_sq - s * s * mu_b
        holds = t <= 0 or t * t <= 4 * s * s * rhs_norm_sq * mu_b
        decided = "exact"
    return InequalityReport(R, L, r, mu_b, lhs_sq, rhs_norm_sq, lhs, rhs, holds, decided)


@dataclass(frozen=True)
class WeakLimitTarget:
    """Finite operator polynomial sum_j alpha_j U^{-j} (j = -1 allowed)."""

    coefficients: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        frozen = {int(j): Fraction(a) for j, a in dict(self.coefficients).items() if a}
        object.__setattr__(self, "coefficients", frozen)

    @staticmethod
    def identity() -> "WeakLimitTarget":
        return WeakLimitTarget({0: Fraction(1)})

    @staticmethod
    def cesaro_polynomial(q: int) -> "WeakLimitTarget":
        """(1/(q+1)) (I + U^-1 + ... + U^-q)."""
        if q < 0:
            raise ValueError("q must be >= 0")
        w = Fraction(1, q + 1)
        return WeakLimitTarget({j: w for j in range(q + 1)})

    def items(self):
        return sorted(self.coefficients.items())


def weak_limit_discrepancy(times: Sequence[int], target: WeakLimitTarget,
                           test_sets: Sequence[Pair], levels: TowerLevels,
                           max_depth: int) -> list[Fraction]:
    """Exact values of weak_limit_discrepancy_bounds, or DepthExhausted."""
    return [e.exact() for e in
            weak_limit_discrepancy_bounds(times, target, test_sets, levels, max_depth)]


def weak_limit_discrepancy_bounds(times: Sequence[int], target: WeakLimitTarget,
                                  test_sets: Sequence[Pair], levels: TowerLevels,
                                  max_depth: int) -> list[Enclosure]:
    """Per time m: sup over test pairs of |<U^m 1_A,1_B> - sum_j a_j <U^-j 1_A,1_B>|,
    as an exact enclosure widened by any unresolved correlation."""
    out = []
    for m in times:
        sup = Enclosure(Fraction(0), Fraction(0))
        for A, B in test_sets:
            value = correlation_bounds(m, A, B, levels, max_depth)
            for j, a_j in target.items():
                value = value - a_j * correlation_bounds(-j, A, B, levels, max_depth)
            sup = sup.max(abs(value))
        out.append(sup)
    return out


def outside_proof_window(pair: Pair, levels: TowerLevels) -> bool:
    """Flag test cylinders that touch the levels excluded in the finite-stage
    weak-limit analysis (the window [r_k, h_k) at the cylinder's stage)."""
    for cyl in pair:
        k = cyl.level
        if k >= levels.depth:
            return True
        if cyl.levels_set and cyl.levels_set.min() < levels.r[k]:
            return True
    return False


@dataclass(frozen=True)
class StageTermDecomposition:
    """Exact finite-stage form of the weak-limit identity at one stage.

    For the stage-k cut into r subtowers (first d carrying the flat prefix
    c(i) = i (H+1)), T^{H_k} maps subtower i onto the next slot shifted by
    -1 (prefix) or -(i - d) (tail), while the top subtower spills deeper.
    Exactly:

        corr(H_k, A, B) = (d/r) corr(-1, A cap [1, h_k), B)
                        + (1/r) sum_{j=0}^{r-d-2} corr(-j, A cap [j, h_k), B)
                        + top_term.

    Clipping A to [j, h_k) removes the wraparound below the tower base,
    which no single subtower realizes; on cylinders that avoid the bottom
    levels the clipped terms coincide with the plain correlations and the
    identity reads exactly like the limit statement, coefficient d/r on the
    adjoint term included.  The clipped terms and the exactly resolved top
    spill are the finite-stage content of the vanishing error term.
    """

    stage: int
    r: int
    d: int
    prefix_term: Fraction      # (d/r) corr(-1, A cap [1, h), B)
    tail_terms: tuple[Fraction, ...]   # (1/r) corr(-j, A cap [j, h), B), j = 0..r-d-2
    top_term: Fraction
    piece_terms: tuple[Fraction, ...]  # independently computed per-subtower measures
    lhs: Fraction

    @property
    def rhs(self) -> Fraction:
        return self.prefix_term + sum(self.tail_terms, Fraction(0)) + self.top_term


def stage_term_decomposition(stage: int, A: CylinderSet, B: CylinderSet,
                             levels: TowerLevels, max_depth: int) -> StageTermDecomposition:
    """Compute both sides of the finite-stage weak-limit identity exactly.

    The per-subtower pieces are computed independently (apply_power on each
    translated copy one stage deeper), so agreement with the closed-form
    terms is a genuine cross-check, not a tautology.
    """
    if A.level != stage or B.level != stage:
        raise ValueError("A and B must live at the decomposed stage")
    r = levels.r[stage]
    d = levels.d[stage]
    H = levels.bigH[stage]
    h = levels.h[stage]
    offs = levels.offsets[stage]
    if d >= r:
        raise ValueError("decomposition needs d < r (a non-empty staircase tail)")
    for i in range(1, d + 1):
        if offs[i] != i * (H + 1):
            raise ValueError(
                "closed-form terms assume the default prefix offsets c(i) = i (H+1)"
            )
    set_a = A.levels_set

    def clean(j):
        """corr(-j, A cap [j, h), B): in range at this stage, always exact."""
        clipped = set_a.clip(j, h)
        if not clipped:
            return Fraction(0)
        return correlation(-j, CylinderSet(stage, clipped), B, levels, max_depth)

    prefix_term = Fraction(d, r) * clean(1) if d else Fraction(0)
    tail_terms = tuple(Fraction(1, r) * clean(j) for j in range(0, r - d - 1))
    pieces = []
    for i in range(r):
        copy = CylinderSet(stage + 1, set_a.shift(offs[i]))
        dec = apply_power(H, copy, levels, max_depth)
        piece = intersect_measure(dec, B, levels)
        if dec.residual:
            raise DepthExhausted(piece, dec.residual)
        pieces.append(piece)
    top_term = pieces[-1]
    dec_full = apply_power(H, A, levels, max_depth)
    if dec_full.residual:
        raise DepthExhausted(intersect_measure(dec_full, B, levels), dec_full.residual)
    lhs = intersect_measure(dec_full, B, levels)
    return StageTermDecomposition(stage, r, d, prefix_term, tail_terms, top_term,
                                  tuple(pieces), lhs)
