"""diffgal: exact differential algebra for unipotent Galois groups and
integrability in finite terms over Q(x)."""

from .errors import (
    BadSpec,
    BudgetExceeded,
    DegenerateGenerator,
    DegenerateRecursion,
    DependentSolutions,
    DiffgalError,
    InconsistentSpec,
    NoCyclicVectorFound,
    NotMonic,
    NotNilpotent,
    NotPolynomialInTheta,
    NotReducedToBase,
    NotSupported,
    ParseError,
    SingularGauge,
    ZeroDenominator,
    ZeroEntry,
    ZeroPolynomial,
)
from .ratfield import (
    RatFunc,
    SimplePoleObstruction,
    UPoly,
    antiderivative_in_field,
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
    factor_recursion,
    gauge_transform,
    monicize,
    operator_of,
    shape_matrix,
)
from .tower import (
    Generator,
    Tower,
    TowerExpr,
    annihilator_of_iterated_integral,
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
    reduce_to_F,
    run_pipeline,
    z_ring,
)
from .integrab import (
    IntegrabilityVerdict,
    LiouvilleForm,
    classify_exp,
    classify_log,
    classify_radical,
    elementary_n_witness,
    infinity_integrable_in_Cx,
    liouville_classic_check,
    liouville_constant_form_check,
    n_integrable_in_Cx,
    verify_liouville_form,
)
from .parsing import parse_expr, parse_ratfunc

__version__ = "0.1.0"

__all__ = [
    "BadSpec", "BudgetExceeded", "DegenerateGenerator", "DegenerateRecursion",
    "DependentSolutions", "DiffgalError", "InconsistentSpec", "NoCyclicVectorFound",
    "NotMonic", "NotNilpotent", "NotPolynomialInTheta", "NotReducedToBase",
    "NotSupported", "ParseError", "SingularGauge", "ZeroDenominator", "ZeroEntry",
    "ZeroPolynomial", "RatFunc", "SimplePoleObstruction", "UPoly",
    "antiderivative_in_field", "derive_n", "hermite_reduce",
    "squarefree_part", "Derivation", "MPoly", "MRat", "PolyRing", "buchberger",
    "is_groebner", "normal_form", "CompanionMatrix",
    "FMatrix", "SkewOp", "build_Lf", "companion_of", "factor_recursion",
    "gauge_transform", "monicize", "operator_of", "shape_matrix", "Generator", "Tower",
    "TowerExpr", "annihilator_of_iterated_integral", "apply_operator", "fundamental_T",
    "laurent_normal", "nested_solutions", "GroupSpec", "PipelineResult",
    "VerificationReport", "build_Au", "cyclic_vector", "default_a_choices",
    "g_recursion", "ideal_from_lie", "lie_from_ideal", "reduce_to_F", "run_pipeline",
    "z_ring", "IntegrabilityVerdict", "LiouvilleForm", "classify_exp", "classify_log",
    "classify_radical", "elementary_n_witness", "infinity_integrable_in_Cx",
    "liouville_classic_check", "liouville_constant_form_check", "n_integrable_in_Cx",
    "verify_liouville_form", "parse_expr", "parse_ratfunc",
]
