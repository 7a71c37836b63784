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
