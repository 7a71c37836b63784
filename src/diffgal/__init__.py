"""diffgal: exact differential algebra for unipotent Galois groups and
integrability in finite terms over Q(x)."""

from .errors import (
    BadSpec,
    BudgetExceeded,
    DegenerateGenerator,
    DegenerateRecursion,
    DiffgalError,
    InconsistentSpec,
    NoCyclicVectorFound,
    NotMonic,
    NotPolynomialInTheta,
    NotReducedToBase,
    NotSupported,
    ParseError,
    PrintLimitExceeded,
    SingularGauge,
    ZeroDenominator,
    ZeroEntry,
    ZeroPolynomial,
)
from .ratfield import (
    RatFunc,
    UPoly,
    derive_n,
    hermite_reduce,
    squarefree_part,
)
from .mpoly import (
    Derivation,
    MPoly,
    MRat,
    PolyRing,
    buchberger,
    is_groebner,
    normal_form,
)
from .diffop import (
    CompanionMatrix,
    FMatrix,
    SkewOp,
    build_Lf,
    companion_of,
    gauge_transform,
    monicize,
    operator_of,
    shape_matrix,
)
from .tower import (
    Generator,
    Tower,
    TowerExpr,
    apply_operator,
    fundamental_T,
    laurent_normal,
    nested_solutions,
)
from .inverse import (
    GroupSpec,
    PipelineResult,
    VerificationReport,
    build_Au,
    cyclic_vector,
    default_a_choices,
    g_recursion,
    ideal_from_lie,
    lie_from_ideal,
    run_pipeline,
    z_ring,
)
from .integrab import (
    IntegrabilityVerdict,
    classify_exp,
    classify_log,
    classify_radical,
    elementary_n_witness,
    infinity_integrable_in_Cx,
)
from .parsing import parse_expr, parse_ratfunc

__version__ = "0.1.0"

__all__ = [
    "BadSpec", "BudgetExceeded", "DegenerateGenerator", "DegenerateRecursion",
    "DiffgalError", "InconsistentSpec", "NoCyclicVectorFound", "NotMonic",
    "NotPolynomialInTheta", "NotReducedToBase", "NotSupported", "ParseError",
    "PrintLimitExceeded",
    "SingularGauge", "ZeroDenominator", "ZeroEntry", "ZeroPolynomial", "RatFunc",
    "UPoly", "derive_n", "hermite_reduce", "squarefree_part", "Derivation", "MPoly",
    "MRat", "PolyRing", "buchberger", "is_groebner", "normal_form",
    "CompanionMatrix", "FMatrix", "SkewOp", "build_Lf", "companion_of",
    "gauge_transform", "monicize", "operator_of", "shape_matrix", "Generator",
    "Tower", "TowerExpr", "apply_operator", "fundamental_T", "laurent_normal",
    "nested_solutions", "GroupSpec", "PipelineResult", "VerificationReport",
    "build_Au", "cyclic_vector", "default_a_choices", "g_recursion",
    "ideal_from_lie", "lie_from_ideal", "run_pipeline", "z_ring",
    "IntegrabilityVerdict", "classify_exp", "classify_log", "classify_radical",
    "elementary_n_witness", "infinity_integrable_in_Cx", "parse_expr",
    "parse_ratfunc",
]
