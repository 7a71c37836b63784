"""diffgal: exact differential algebra for unipotent Galois groups and
integrability in finite terms over Q(x).

`import diffgal` loads no submodule.  Each name of `__all__` is looked up in
its submodule when it is first used (`diffgal.X`, `from diffgal import X` or
`from diffgal import *`), which imports that submodule and what it needs.
So a program pays only for the submodules whose names it uses, and the CLI
loads the construction pipeline (`inverse`) only for the commands that run it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BadSpec", "BudgetExceeded", "DegenerateGenerator", "DegenerateRecursion",
        "DiffgalError", "InconsistentSpec", "NoCyclicVectorFound", "NotMonic",
        "NotPolynomialInTheta", "NotReducedToBase", "NotSupported", "ParseError",
        "PrintLimitExceeded", "SingularGauge", "ZeroDenominator", "ZeroEntry",
        "ZeroPolynomial",
    ),
    "ratfield": ("RatFunc", "UPoly", "derive_n", "hermite_reduce", "squarefree_part"),
    "mpoly": ("Derivation", "MPoly", "MRat", "PolyRing", "buchberger", "is_groebner",
              "normal_form"),
    "diffop": ("CompanionMatrix", "FMatrix", "SkewOp", "build_Lf", "companion_of",
               "gauge_transform", "monicize", "operator_of", "shape_matrix"),
    "tower": ("Generator", "Tower", "TowerExpr", "apply_operator", "fundamental_T",
              "laurent_normal", "nested_solutions"),
    "inverse": ("GroupSpec", "PipelineResult", "VerificationReport", "build_Au",
                "cyclic_vector", "default_a_choices", "g_recursion", "ideal_from_lie",
                "lie_from_ideal", "run_pipeline", "z_ring"),
    "integrab": ("IntegrabilityVerdict", "classify_exp", "classify_log", "classify_radical",
                 "elementary_n_witness", "infinity_integrable_in_Cx"),
    "parsing": ("parse_expr", "parse_ratfunc"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """The exported `name`, read from its submodule on every access, so it is
    the submodule's current binding."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
