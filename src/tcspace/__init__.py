"""Exact rational arithmetic for transportation cost norms on finite metric spaces.

The package computes, with no floating point anywhere: transportation
cost norms and optimal plans, minimum-weight perfect matchings and the
nested-matching criterion, the cycle-space quotient description of the
norm, Lipschitz dual certificates, and all-sign-pattern checks for
isometric l1 spans, plus five benchmark metric families that narrowly
defeat those checks.
"""

from .duality import (
    LipFunction,
    dual_optimal,
    gradient_field,
    linf_d_norm,
    lip_constant,
    pairing,
)
from .l1embed import (
    QuadrupleReport,
    RefutationResult,
    SignPatternReport,
    quadruple_inequality_check,
    refute_pair_sequence,
    sign_pattern_isometry_check,
)
from .matching import (
    Matching,
    NestedCheckResult,
    PairSequence,
    matching_brute_force,
    min_weight_perfect_matching,
    nested_matching_check,
    prescribed_prefix_weight,
)
from .metric import (
    FAMILY_TAGS,
    FiniteMetricSpace,
    NotAMetricError,
    extremes,
    family_distance,
    family_metric,
    parse_metric,
    serialize_metric,
)
from .quotient import (
    EdgeVector,
    all_edges,
    boundary,
    cut_decomposition,
    cycle_basis,
    format_edge_vector,
    l1d_norm,
    lift_plan,
    parse_edge_vector,
    quotient_norm,
)
from .rationals import ParseError, format_rational, parse_rational
from .solvers import (
    InfeasibleError,
    LinearProgram,
    UnboundedError,
    min_cost_flow,
    simplex_solve,
)
from .transport import (
    NotZeroSumError,
    TransportPlan,
    TransportationProblem,
    format_problem,
    l1_norm,
    parse_problem,
    point_embedding,
    tc_brute_force,
    tc_norm,
)

__version__ = "0.1.0"
