"""cfrank: exact-arithmetic rank-one cut-and-stack constructions.

Builds (C, F) tower data for high staircases and partially-high variants,
runs exact cylinder algebra on them (refinement, powers of the map,
correlations), and verifies the computable side of their mixing and
spectral behavior: growth and measure diagnostics, decay over candidate
mixing intervals, Cesaro averages and the averaging inequality, weak
operator limit discrepancies, autocorrelation sequences, and the
multiplicity combinatorics of exp operators.
"""

from .cylinders import (
    CylinderSet,
    PieceDecomposition,
    apply_power,
    correlation,
    correlation_bounds,
    intersect_measure,
    product_correlation,
    refine,
)
from .errors import (
    CFRankError,
    DepthExhausted,
    DepthUnavailable,
    Enclosure,
    IntegerTooLong,
    InvalidSchedule,
    OffsetOverlap,
)
from .intervals import IntervalSet
from .mixing import (
    DecayReport,
    InequalityReport,
    StageTermDecomposition,
    WeakLimitTarget,
    canonical_test_set,
    cesaro_norm,
    check_averaging_inequality,
    scan_mixing_intervals,
    sqrt_enclosure,
    stage_term_decomposition,
    stratified_times,
    weak_limit_discrepancy_bounds,
)
from .oracle import expand_points, oracle_correlation_bounds
from .schedule import Schedule, concatenate, load_schedule, schedule_from_json, schedule_to_json
from .sequences import SequenceSpec, affine, const, explicit, geometric
from .spectral import (
    SpectralSequence,
    exp_multiplicities_identity_product,
    exp_multiplicities_symmetric_square,
    spectral_sequence,
)
from .towers import (
    GrowthReport,
    MeasureReport,
    TowerLevels,
    build_levels,
    check_restricted_growth,
    measure_report,
)

__version__ = "0.1.0"

__all__ = [
    "CFRankError",
    "CylinderSet",
    "DecayReport",
    "DepthExhausted",
    "DepthUnavailable",
    "Enclosure",
    "GrowthReport",
    "InequalityReport",
    "IntegerTooLong",
    "IntervalSet",
    "InvalidSchedule",
    "MeasureReport",
    "OffsetOverlap",
    "PieceDecomposition",
    "Schedule",
    "SequenceSpec",
    "SpectralSequence",
    "StageTermDecomposition",
    "TowerLevels",
    "WeakLimitTarget",
    "affine",
    "apply_power",
    "build_levels",
    "canonical_test_set",
    "cesaro_norm",
    "check_averaging_inequality",
    "check_restricted_growth",
    "concatenate",
    "const",
    "correlation",
    "correlation_bounds",
    "expand_points",
    "explicit",
    "exp_multiplicities_identity_product",
    "exp_multiplicities_symmetric_square",
    "geometric",
    "intersect_measure",
    "load_schedule",
    "measure_report",
    "oracle_correlation_bounds",
    "product_correlation",
    "refine",
    "scan_mixing_intervals",
    "schedule_from_json",
    "schedule_to_json",
    "spectral_sequence",
    "sqrt_enclosure",
    "stage_term_decomposition",
    "stratified_times",
    "weak_limit_discrepancy_bounds",
]
