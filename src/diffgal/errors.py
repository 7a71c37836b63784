"""Exception hierarchy shared across the package."""


class DiffgalError(Exception):
    """Base class for all package errors."""


class ParseError(DiffgalError):
    """Input text does not conform to the expression grammar."""


class ZeroPolynomial(DiffgalError):
    """A nonzero polynomial was required."""


class ZeroEntry(DiffgalError):
    """A tuple entry or matrix datum that must be nonzero is zero."""


class ZeroDenominator(DiffgalError):
    """A denominator reduced to zero."""


class NotMonic(DiffgalError):
    """The operator must be monic."""


class SingularGauge(DiffgalError):
    """The gauge matrix is not invertible over the base field."""


class DegenerateRecursion(DiffgalError):
    """A denominator in the fraction-field recursion vanished."""


class BudgetExceeded(DiffgalError):
    """A configured step budget was exhausted."""


class NotPolynomialInTheta(DiffgalError):
    """The expression is not a (Laurent) polynomial in the given generator."""


class NotReducedToBase(DiffgalError):
    """A normal form still contains ring indeterminates."""


class NoCyclicVectorFound(DiffgalError):
    """The bounded cyclic-vector search failed."""


class BadSpec(DiffgalError):
    """A group specification violates its invariants."""


class InconsistentSpec(DiffgalError):
    """Ideal and Lie-algebra data do not describe the same group."""


class DegenerateGenerator(DiffgalError):
    """A tower generator is degenerate (e.g. log/exp of a constant)."""


class PrintLimitExceeded(DiffgalError):
    """An answer holds an integer too long to print as text."""


class NotSupported(DiffgalError):
    """The input needs arithmetic outside exact rationals."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
