"""qkforge: palindromic polynomial transforms, CM-order arithmetic, and
iterated-splitting sequence generation over odd prime fields."""

__version__ = "0.1.0"

from .errors import (
    InternalConsistencyError,
    MalformedInputError,
    QkforgeError,
    ResourceCapError,
    TheoremViolationError,
    UnsupportedPrimeError,
    UsageError,
)
from .cm_arith import (
    CURVE_DISC4,
    CURVE_DISC7,
    CurveParams,
    DepthPair,
    QuadInt,
    count_points,
    depth_table,
    depths,
    frobenius_pi,
    rho0_select,
)
from .extfield import ExtField, FqElem, batch_inverse
from .ffpoly import (
    Poly,
    equal_degree_factorize,
    format_poly,
    format_poly_human,
    is_irreducible,
    is_prime,
    parse_poly,
    smallest_irreducible,
    sqrt_mod_p,
)
from .qk import KClass, classify_k, find_k, qk_transform
from .seqgen import (
    ScheduleReport,
    SequenceRecord,
    Step,
    generate_sequence,
    observed_flat_steps,
    predict_schedule,
    verify_against_schedule,
)
from .dynamics import (
    ComponentStats,
    FunctionalGraph,
    build_graph,
    component_stats,
    export_dot,
)

__all__ = [
    "CURVE_DISC4",
    "CURVE_DISC7",
    "ComponentStats",
    "CurveParams",
    "DepthPair",
    "ExtField",
    "FqElem",
    "FunctionalGraph",
    "InternalConsistencyError",
    "KClass",
    "MalformedInputError",
    "Poly",
    "QkforgeError",
    "QuadInt",
    "ResourceCapError",
    "ScheduleReport",
    "SequenceRecord",
    "Step",
    "TheoremViolationError",
    "UnsupportedPrimeError",
    "UsageError",
    "batch_inverse",
    "build_graph",
    "classify_k",
    "component_stats",
    "count_points",
    "depth_table",
    "depths",
    "equal_degree_factorize",
    "export_dot",
    "find_k",
    "format_poly",
    "format_poly_human",
    "frobenius_pi",
    "generate_sequence",
    "is_irreducible",
    "is_prime",
    "observed_flat_steps",
    "parse_poly",
    "predict_schedule",
    "qk_transform",
    "rho0_select",
    "smallest_irreducible",
    "sqrt_mod_p",
    "verify_against_schedule",
]
