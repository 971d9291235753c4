"""Exact cylinder algebra: refinement, powers of the map, correlations.

A cylinder [A]_n is a set of stage-n tower levels.  Refining it one stage
replaces A with A + C_{n+1}; applying T^m shifts it, and whatever leaves
the stage window is refined deeper until it fits or the depth budget runs
out.  The unresolved remainder is reported as an explicit residual, so
measure is conserved exactly at every step.
"""

from cfrank import (
    CylinderSet,
    Schedule,
    affine,
    apply_power,
    build_levels,
    const,
    correlation,
    correlation_bounds,
    intersect_measure,
    refine,
)

sched = Schedule("demo", h0=1, r=const(3), z=affine(1, 1))
levels = build_levels(sched, depth=6)

base = CylinderSet.from_points(0, [0])
print("refine [{0}]_0 to stage 1:", sorted(refine(base, 1, levels).levels_set.points()))
print("refine [{0}]_0 to stage 2:", sorted(refine(base, 2, levels).levels_set.points()))

# T^8 pushes part of the cylinder past the stage-2 window
shallow = 2
dec = apply_power(8, base, levels, max_depth=shallow)
for piece in dec.pieces:
    print(f"piece at stage {piece.level}: {sorted(piece.levels_set.points())}")
print("residual at stage", shallow, "=", dec.residual)
print("measure conserved:", dec.total_measure(levels) == base.measure(levels))

# with one more stage of headroom the decomposition resolves further
deeper = apply_power(8, base, levels, max_depth=3)
print("residual with max_depth 3:", deeper.residual)

# correlations mu(T^m A cap B) are the Koopman matrix coefficients
for m in range(0, 9):
    lo, hi = correlation_bounds(m, base, base, levels, 4)
    tag = "" if lo == hi else f"  (residual {hi - lo})"
    print(f"corr(m={m}) = {lo}{tag}")

# intersection directly: T^2 [{0}]_0 meets [{0}]_0 in one stage-1 level
dec2 = apply_power(2, base, levels, 3)
print("mu(T^2 A cap A) =", intersect_measure(dec2, base, levels))
assert correlation(2, base, base, levels, 3) == intersect_measure(dec2, base, levels)
