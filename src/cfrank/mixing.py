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
from typing import Mapping, NamedTuple, Sequence

from .cylinders import (
    CylinderSet,
    _correlation_counts,
    _resolve_pair,
    apply_power,
    correlation,
    correlation_bounds,
    intersect_measure,
)
from .errors import DepthExhausted, Enclosure
from .towers import TowerLevels

Pair = tuple[CylinderSet, CylinderSet]

SQRT_BITS = 64  # every square-root enclosure is at most 2**-SQRT_BITS wide
COARSE_BITS = 30  # the averaging verdict first reads root ends rounded to 2**-COARSE_BITS
MAX_SAMPLE_TIMES = 1 << 20  # the most times stratified_times builds for one stage


def _sqrt_ends(x: Fraction) -> tuple[int, int, int]:
    """(lo, hi, d) with lo/d <= sqrt(x) <= hi/d for a rational x >= 0.

    d = denominator(x) * 2**SQRT_BITS and hi - lo is 1, or 0 on an exact root.
    """
    p, q = x.numerator, x.denominator
    n = (p * q) << (2 * SQRT_BITS)
    s = isqrt(n)
    return s, s + (s * s != n), q << SQRT_BITS


def sqrt_enclosure(x: Fraction) -> Enclosure:
    """Exact rational [lo, hi] with lo <= sqrt(x) <= hi, hi - lo <= 2**-SQRT_BITS."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    lo, hi, d = _sqrt_ends(x)
    return Enclosure(Fraction(lo, d), Fraction(hi, d))


def canonical_test_set(levels: TowerLevels) -> list[Pair]:
    """All singleton stage-1 cylinders paired with each other."""
    levels.require_depth(1)
    singles = [CylinderSet.from_points(1, [f]) for f in range(levels.h[1])]
    return [(a, b) for a in singles for b in singles]


def stratified_times(levels: TowerLevels, stage: int, count: int) -> list[int]:
    """Deterministic sample of the candidate mixing interval [h_n, 2 H_n).

    Mirrors the k H_n + t split used to analyze these times: the interval
    endpoints and H_n are always included, and the remaining quota is an
    even grid over the two strata [h_n, H_n) and [H_n, 2 H_n).  A sample
    of more than MAX_SAMPLE_TIMES times is refused before it is built.
    """
    levels.require_depth(stage)
    levels.require_depth(stage + 1)
    lo = levels.h[stage]
    H = levels.bigH[stage]
    hi = 2 * H
    if count <= 0:
        return []
    if min(count, hi - lo) > MAX_SAMPLE_TIMES:
        raise ValueError(f"{min(count, hi - lo)} sample times at stage {stage} pass "
                         f"the cap of {MAX_SAMPLE_TIMES}")
    if hi - lo <= count:
        return list(range(lo, hi))
    pts = {lo, H, hi - 1}
    quota = max(count - len(pts), 0)
    q0 = quota // 2
    q1 = quota - q0
    for j in range(1, q0 + 1):
        pts.add(lo + j * (H - lo) // (q0 + 1))
    for j in range(1, q1 + 1):
        pts.add(H + j * H // (q1 + 1))
    return sorted(pts)


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
    Every stage's times are sampled before any pair is resolved, so a stage
    past the tower or past MAX_SAMPLE_TIMES fails first.  Pairs are resolved
    once, in test-set order, to their handles (_resolve_pair); residuals
    are counted once per (A, n) and time.  Each sup is taken on the
    integer counts of _correlation_counts scaled to one level of the
    deepest stage counted; only the two ends become Fractions.
    """
    if power == 0:
        raise ValueError("power must be non-zero")
    if samples_per_stage < 1:
        raise ValueError(f"samples per stage must be >= 1, got {samples_per_stage}")
    test_sets = list(test_sets)
    cuts = levels.cuts_product
    samples = [(stage, stratified_times(levels, stage, samples_per_stage))
               for stage in stages]
    resolved = [(_resolve_pair(A, B, levels, max_depth), max(max_depth, B.level))
                for A, B in test_sets] if samples else []
    q = cuts[max((n for _, n in resolved), default=0)]
    slots: dict[tuple[CylinderSet, int], int] = {}  # (A, n) -> its index in residuals
    residuals, pairs = [], []
    for (A, _), (pair, n) in zip(test_sets, resolved):
        if (A, n) not in slots:
            slots[A, n] = len(residuals)
            residuals.append((pair, n))
        pairs.append((pair.kernel, pair.shift, n, q // cuts[n], slots[A, n]))
    records = []
    for stage, times in samples:
        values = []
        for m in times:
            t = power * m
            lost = [pair.lost(levels, n, t) for pair, n in residuals]
            lower = upper = 0
            for kernel, shift, n, scale, slot in pairs:
                hits = kernel.count(levels, n, t - shift) * scale
                lower = max(lower, hits)
                upper = max(upper, hits + lost[slot] * scale)
            values.append(Enclosure(Fraction(lower, q), Fraction(upper, q)))
        records.append(StageDecay(
            stage, (levels.h[stage], 2 * levels.bigH[stage]), tuple(times), tuple(values)
        ))
    return DecayReport(power, test_set_label, samples_per_stage, tuple(records))


class _CesaroSeries:
    """Every Cesaro norm of one (k, B, max_depth), from integer running sums.

    All is counted at the one stage n = max(max_depth, B.level) of
    _correlation_counts, where one level has measure 1/q, q = cuts_product[n]:
    size = |B^n| = q mu(B), and s0, s1 are the integer sums of the hit
    counts h_p = q c_p and of p h_p.  The length-l norm is then the one
    Fraction (l size + 2 (l s0 - s1)) / (l^2 q).  Lengths are finished in increasing
    order (see cesaro_norm), so the first unresolved c_p raises the
    DepthExhausted that correlation raises, for every longer average, and
    leaves the shorter ones intact.  roots[l] holds the length-l norm and
    five integers, no enclosure: its root's ends lo/d, hi/d as (lo, hi, d),
    and lo_c, hi_c, those ends rounded outward to 2**-COARSE_BITS.
    """

    __slots__ = ("k", "B", "max_depth", "s0", "s1", "norms", "roots")

    def __init__(self, k: int, B: CylinderSet, levels: TowerLevels, max_depth: int):
        self.k, self.B, self.max_depth = k, B, max_depth
        self.s0 = self.s1 = 0
        self.norms = [B.measure(levels)]  # norms[l - 1]: the length-l norm
        self.roots: dict[int, tuple[Fraction, int, int, int, int, int]] = {}

    def norm(self, levels: TowerLevels, l: int) -> Fraction:
        B = self.B
        while len(self.norms) < l:
            p = len(self.norms)
            hits, lost, n = _correlation_counts(p * self.k, B, B, levels, self.max_depth)
            q = levels.cuts_product[n]
            if lost:
                raise DepthExhausted(Enclosure(Fraction(hits, q), Fraction(hits + lost, q)))
            self.s0 += hits
            self.s1 += p * hits
            size = B.levels_set.cardinality * (q // levels.cuts_product[B.level])
            l_new = p + 1
            self.norms.append(Fraction(l_new * size + 2 * (l_new * self.s0 - self.s1),
                                       l_new * l_new * q))
        return self.norms[l - 1]

    def root(self, levels: TowerLevels, l: int) -> tuple[Fraction, int, int, int, int, int]:
        """(norm, lo, hi, d, lo_c, hi_c) of length l, from one lookup."""
        hit = self.roots.get(l)
        if hit is None:
            norm = self.norm(levels, l)
            lo, hi, d = _sqrt_ends(norm)
            hit = self.roots[l] = (norm, lo, hi, d, (lo << COARSE_BITS) // d,
                                   -((-hi << COARSE_BITS) // d))
        return hit


def _cesaro_series(k: int, B: CylinderSet, levels: TowerLevels,
                   max_depth: int) -> _CesaroSeries:
    """The series of (k, B, max_depth), kept on the tower in the dict k ->
    series under ("cesaro", B, max_depth): its prefix sums serve every
    length, and a grid cell finds both its series with one lookup."""
    family = levels._cache.setdefault(("cesaro", B, max_depth), {})
    if k not in family:
        family[k] = _CesaroSeries(k, B, levels, max_depth)
    return family[k]


def cesaro_norm(k: int, l: int, B: CylinderSet, levels: TowerLevels,
                max_depth: int) -> Fraction:
    """Exact squared norm of the Cesaro average (1/l) sum_{i<l} U^{-ik} 1_B.

    Expands to mu(B)/l + (1/l^2) sum_{i != j} mu(T^{(i-j)k} B cap B).  By
    the symmetry mu(T^{-p} B cap B) = mu(T^{p} B cap B), with l - p pairs
    at each |i - j| = p, the cross sum is 2 (l S0(l) - S1(l)), where
    c_p = mu(T^{pk} B cap B), S0(l) = sum_{0<p<l} c_p and
    S1(l) = sum_{0<p<l} p c_p.  So the norm depends on |k| only: one series
    per (|k|, B, max_depth), kept on the TowerLevels, serves k, -k and every
    length.  It counts forward shifts, since mass at the tower base spills
    below it under every T^{-p}, at any budget.
    """
    if l < 1:
        raise ValueError("average length l must be >= 1")
    return _cesaro_series(abs(k), B, levels, max_depth).norm(levels, l)


class InequalityReport(NamedTuple):
    """Both sides of the averaging inequality with exact enclosures.

    lhs is the norm of the step-1 average of length R; rhs is the norm of
    the step-r average of length L plus (r L / R) sqrt(mu(B)).  Neither is
    a field: both are computed when read, lhs from lhs_sq and rhs end by
    end from rhs_norm_sq, mu_b, R, L and r.  `holds` is decided from the
    safe sides of the enclosures, falling back to an exact algebraic
    comparison when the enclosures alone cannot separate sides.  Like
    Enclosure, the report is an immutable tuple: one is built per cell of
    the averaging grid, and a tuple is built in one step where a frozen
    dataclass sets each field in turn.
    """

    R: int
    L: int
    r: int
    mu_b: Fraction
    lhs_sq: Fraction
    rhs_norm_sq: Fraction
    holds: bool
    decided_by: str

    @property
    def lhs(self) -> Enclosure:
        return sqrt_enclosure(self.lhs_sq)

    @property
    def rhs(self) -> Enclosure:
        """root_L + (r L / R) root_1, computed when read."""
        return (sqrt_enclosure(self.rhs_norm_sq)
                + Fraction(self.r * self.L, self.R) * sqrt_enclosure(self.mu_b))


def check_averaging_inequality(R: int, L: int, r: int, B: CylinderSet,
                               levels: TowerLevels, max_depth: int) -> InequalityReport:
    """Check ||step-1 average of length R|| <= ||step-r average of length L||
    + (r L / R) sqrt(mu(B)) for the cylinder B.

    The norms come from the two Cesaro series of B (integer hit counts, one
    Fraction per norm), both kept on the tower.  The verdict builds no
    Fraction: it first tries the cached coarse root ends, then compares the
    integer ends lo/d, hi/d by cross-products: every denominator is
    positive, so a/b <= c/e exactly when a e <= c b.  Only when the
    enclosures overlap does it decide exactly.
    """
    if R < 1 or L < 1 or r < 1:
        raise ValueError("R, L, r must all be >= 1")
    try:  # a warm cell: one cylinder-keyed lookup, then int-keyed dicts
        family = levels._cache["cesaro", B, max_depth]
        lhs_roots = family[1].roots
        cell = lhs_roots[R], family[r].roots[L], lhs_roots[1]
    except KeyError:  # a series or a length not built yet
        cell = None
    if cell is None:  # outside the handler: a DepthExhausted chains to no KeyError
        cell = tuple(_cesaro_series(k, B, levels, max_depth).root(levels, l)
                     for k, l in ((1, R), (r, L), (1, 1)))
    # the length-1 average is 1_B itself: its norm is mu(B), its root sqrt(mu(B))
    ((lhs_sq, lo, hi, d, _, hi_c), (rhs_norm_sq, lo_l, hi_l, d_l, lo_lc, _),
     (mu_b, lo_1, hi_1, d_1, lo_1c, _)) = cell
    if hi_c * R <= lo_lc * R + r * L * lo_1c:
        # the coarse ends, rounded outward, already put lhs.upper <= rhs.lower
        holds, decided = True, "enclosure"
    else:
        # the ends of rhs = root_L + (r L / R) root_1 are
        # (x_l d_1 R + r L d_l x_1) / den over den = d_l d_1 R, x = lo or hi
        scale, den = r * L * d_l, d_l * d_1 * R
        if hi * den <= (lo_l * d_1 * R + scale * lo_1) * d:
            holds, decided = True, "enclosure"
        elif lo * den > (hi_l * d_1 * R + scale * hi_1) * d:
            holds, decided = False, "enclosure"
        else:
            # decide sqrt(lhs_sq) <= sqrt(rhs_norm_sq) + s sqrt(mu_b) exactly:
            # square once, isolate the remaining root, square again
            s = Fraction(r * L, R)
            t = lhs_sq - rhs_norm_sq - s * s * mu_b
            holds = t <= 0 or t * t <= 4 * s * s * rhs_norm_sq * mu_b
            decided = "exact"
    return tuple.__new__(InequalityReport,
                         (R, L, r, mu_b, lhs_sq, rhs_norm_sq, holds, decided))


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
    translated copy one stage deeper, lhs by the correlation kernel), so
    agreement with the closed-form terms is a genuine cross-check, not a
    tautology.
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
            raise DepthExhausted(Enclosure(piece, piece + dec.residual))
        pieces.append(piece)
    top_term = pieces[-1]
    lhs = correlation(H, A, B, levels, max_depth)
    return StageTermDecomposition(stage, r, d, prefix_term, tail_terms, top_term,
                                  tuple(pieces), lhs)
