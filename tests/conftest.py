import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffgal.ratfield import RatFunc, UPoly  # noqa: E402


@pytest.fixture
def int_str_limit():
    """Python's default int-to-str digit limit, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture
def rng():
    return random.Random(0xD1FF6A1)


def rand_upoly(rng, max_deg, lo=-9, hi=9, nonzero=False):
    while True:
        p = UPoly([Fraction(rng.randint(lo, hi)) for _ in range(rng.randint(0, max_deg) + 1)])
        if not (nonzero and p.is_zero()):
            return p


def rand_ratfunc(rng, max_deg=6, nonzero=False):
    while True:
        den = rand_upoly(rng, max_deg, nonzero=True)
        f = RatFunc(rand_upoly(rng, max_deg), den)
        if not (nonzero and f.is_zero()):
            return f


def rand_fraction_matrices(seed: int = 0x6A55, count: int = 60):
    """Seeded random matrices over Q, square and not, many rank-deficient."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            yield [[entry() for _ in range(cols)] for _ in range(rows)]
        else:  # a product through k < min(rows, cols) has rank at most k
            k = rng.randint(0, max(0, min(rows, cols) - 1))
            left = [[entry() for _ in range(k)] for _ in range(rows)]
            right = [[entry() for _ in range(cols)] for _ in range(k)]
            yield [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                    for j in range(cols)] for i in range(rows)]


def is_squarefree(p):
    """Whether the `UPoly` p has no repeated factor (zero counts as squarefree)."""
    return p.is_zero() or p.gcd(p.derivative()).degree <= 0


def upoly_eval(p, v):
    """The value of the `UPoly` p at the rational v, as a `Fraction`: Horner
    over the integers on q^deg * p(n/q) for v = n/q, then one division."""
    if not p.ints:
        return Fraction(0)
    v = Fraction(v)
    n, q = v.numerator, v.denominator
    acc, qk = 0, 1
    for c in reversed(p.ints):
        acc = acc * n + c * qk
        qk *= q
    return Fraction(acc, p.denom * (qk // q))


def degree_in(p, i):
    """Degree of the `MPoly` p in its variable i, with -1 for zero."""
    return max((m[i] for m in p.terms), default=-1)


def rand_small_entry(rng):
    """Nonzero rational constant, linear, or quadratic rational function."""
    kind = rng.randint(0, 2)
    if kind == 0:
        return RatFunc.from_fraction(Fraction(rng.choice([c for c in range(-5, 6) if c])))
    num = rand_upoly(rng, 2, lo=-5, hi=5, nonzero=True)
    den = rand_upoly(rng, 2, lo=-5, hi=5, nonzero=True) if kind == 2 else UPoly.one()
    f = RatFunc(num, den)
    return f if not f.is_zero() else RatFunc.one()


def is_companion(m):
    """Superdiagonal ones above an arbitrary last row, and zeros elsewhere."""
    from diffgal.diffop import CompanionMatrix

    n = m.nrows
    return m.ncols == n and CompanionMatrix(tuple(-m[n - 1, j] for j in range(n))).matrix() == m
