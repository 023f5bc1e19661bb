"""Exact Ramsey-type computations over gap sets of positive integers:
certified fractional-part colorings from a nested-interval construction,
exhaustive avoidance scans, least-forcing-length search with witnesses
(``delta``, the one search entry point), and distance-graph chromatic bounds.
"""

from .certs import Certificate
from .colorings import (
    Coloring,
    block_coloring,
    complexity,
    frac_coloring,
    preset_coloring,
    residue_coloring,
    rotation_word,
)
from .construct import (
    AlphaCertificate,
    GrowthConditionError,
    build_alpha,
    certify_fracs,
    diffseq_bound_from_eps,
    doa_evidence,
    epsilon_of,
    growth_factor,
)
from .exactnum import (
    PHI,
    PHI_CONJ,
    SQRT5,
    Q5,
    RatInterval,
    dist_nearest_int,
    frac,
    rational_str,
    to_rational,
)
from .gapsets import GapSetSpec, GapSetView, fib_values, growth_certificate
from .search import (
    ChromaticResult,
    DeltaResult,
    chromatic_number_prefix,
    delta,
)
from .verify import (
    ScanResult,
    check_fib_fact,
    chromatically_intersective_check,
    frac_bound_scan,
    longest_mono_ap,
    longest_mono_diffseq,
    pisano_period,
)

__version__ = "0.1.0"
