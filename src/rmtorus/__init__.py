"""Homogeneous coordinate rings of real-multiplication noncommutative tori.

Layered toolkit: theta constants with rational characteristics; exact
quadratic-surd arithmetic and structure constants; quadratic presentations
with kernel/normalization machinery; a free-algebra Groebner engine for
graded bases; congruence groups, continued fractions, and geodesic period
integrals producing averaged presentations; and the determinantal equations
of the characteristic variety.  The ``rmtorus`` console script exposes each
layer as a subcommand with reproducible JSON output.
"""

from .core import (
    BlockMatrix,
    LambdaMatrix,
    QuadraticSurd,
    RMData,
    alpha,
    block_M,
    block_characteristics,
    canonical_g,
    lambda_matrix,
    q_mu,
    structure_constant_series,
    structure_constant_theta,
    validate,
)
from .errors import (
    CombinatorialCap,
    DegenerateProbe,
    DegreeTooSmall,
    DomainError,
    IndexOutOfRange,
    LeadingCoeffBelowThreshold,
    NonConvergence,
    NotCuspType,
    NotHyperbolic,
    NotSL2,
    OddLevel,
    OddWeight,
    QuadratureFailure,
    RMTorusError,
    RankDeficient,
    RationalInput,
    TruncationExceeded,
)
from .geometry import (
    BiformRelation,
    GraphSearchResult,
    LinearFormMatrix,
    MinorPoly,
    graph_member,
    graph_point_search,
    minor_equations,
    minors_json,
    multilinearize,
    omega_matrix,
)
from .groebner import (
    FreePoly,
    GroebnerState,
    complete_to_degree,
    deglex_compare,
    deglex_key,
    groebner_state,
    linear_basis,
    normal_form,
    state_for,
)
from .modsym import (
    CFExpansion,
    CoefficientHandle,
    Cusp,
    GroupSpec,
    IntegralResult,
    QuadratureControl,
    SymbolChain,
    ThetaProductHandle,
    averaged_json,
    averaged_relations,
    cf_expand,
    coefficient_handles,
    convergents,
    integrate_geodesic,
    is_cusp_numeric,
    limiting_symbol,
    lyapunov,
    lyapunov_empirical,
    member,
    relation_values,
)
from .presentation import (
    HilbertData,
    Presentation,
    Relation,
    RelationTerm,
    hilbert_coeffs,
    kernel_basis,
    kernel_pivots,
    minor_F,
    monic_ordered,
    normalize_modular,
    normalize_rational,
    presentation_json,
    relations,
)
from .theta import (
    RationalChar,
    UpperHalfPoint,
    algebraic_theta,
    constant_fourier_term,
    kappa,
    theta,
    theta_constant,
    theta_zero_check,
    unit_phase,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RMTorusError", "DomainError", "NonConvergence", "DegenerateProbe",
    "NotSL2", "NotHyperbolic", "DegreeTooSmall", "IndexOutOfRange",
    "RankDeficient", "LeadingCoeffBelowThreshold", "OddLevel", "OddWeight",
    "TruncationExceeded", "RationalInput", "NotCuspType", "QuadratureFailure",
    "CombinatorialCap",
    # theta
    "RationalChar", "UpperHalfPoint", "theta",
    "theta_constant", "algebraic_theta", "kappa", "theta_zero_check",
    "constant_fourier_term", "unit_phase",
    # core
    "QuadraticSurd", "RMData", "LambdaMatrix", "BlockMatrix", "validate",
    "canonical_g", "alpha", "q_mu", "lambda_matrix",
    "structure_constant_theta", "structure_constant_series",
    "block_characteristics", "block_M",
    # presentation
    "RelationTerm", "Relation", "Presentation", "HilbertData", "minor_F",
    "kernel_pivots", "kernel_basis", "relations", "normalize_rational",
    "normalize_modular", "monic_ordered", "hilbert_coeffs",
    "presentation_json",
    # groebner
    "FreePoly", "GroebnerState", "deglex_key", "deglex_compare",
    "groebner_state", "normal_form", "complete_to_degree", "linear_basis",
    "state_for",
    # modular symbols
    "Cusp", "GroupSpec", "CFExpansion", "SymbolChain", "QuadratureControl",
    "IntegralResult", "ThetaProductHandle", "CoefficientHandle",
    "member", "cf_expand", "convergents", "lyapunov",
    "lyapunov_empirical", "limiting_symbol", "is_cusp_numeric",
    "integrate_geodesic", "averaged_relations", "averaged_json",
    "coefficient_handles", "relation_values",
    # geometry
    "BiformRelation", "LinearFormMatrix", "MinorPoly", "GraphSearchResult",
    "multilinearize", "omega_matrix", "minor_equations", "graph_member",
    "graph_point_search", "minors_json",
]
