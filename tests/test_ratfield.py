"""Base field Q(x): derivation, Hermite reduction, squarefree decomposition."""

from fractions import Fraction

import pytest

from conftest import rand_ratfunc, rand_upoly
from diffgal.errors import ZeroPolynomial
from diffgal.parsing import parse_ratfunc
from diffgal.ratfield import (
    RatFunc,
    SimplePoleObstruction,
    UPoly,
    antiderivative_in_field,
    derive,
    derive_n,
    hermite_reduce,
    squarefree_part,
)

X = RatFunc.x()


def poly_derivative_oracle(p: UPoly) -> UPoly:
    """Power rule, written independently of UPoly.derivative."""
    out = [Fraction(0)] * max(0, p.degree)
    for k in range(1, p.degree + 1):
        out[k - 1] = Fraction(k) * p[k]
    return UPoly(out)


def quotient_rule_oracle(f: RatFunc) -> RatFunc:
    """(n'd - nd')/d^2 with the independent polynomial derivative."""
    n, d = f.num, f.den
    return RatFunc(poly_derivative_oracle(n) * d - n * poly_derivative_oracle(d), d * d)


class TestDerive:
    def test_power_rule(self):
        assert derive(X**2) == 2 * X

    def test_quotient_rule(self):
        assert derive(1 / X) == -1 / X**2

    def test_against_oracle_example(self):
        f = parse_ratfunc("(x^2-1)/(x+2)")
        assert derive(f) == quotient_rule_oracle(f)
        # frozen value computed from the oracle
        assert derive(f) == parse_ratfunc("(x^2+4*x+1)/(x^2+4*x+4)")

    def test_derive_n(self):
        assert derive_n(X**3, 3) == RatFunc.from_int(6)
        f = parse_ratfunc("(x-3)/(x^2+1)")
        assert derive_n(f, 0) == f
        assert derive_n(1 / X, 2) == 2 / X**3

    def test_leibniz_property(self, rng):
        for _ in range(1000):
            f = rand_ratfunc(rng, 6)
            g = rand_ratfunc(rng, 6)
            assert derive(f * g) == derive(f) * g + f * derive(g)

    def test_linearity_property(self, rng):
        for _ in range(300):
            f = rand_ratfunc(rng, 5)
            g = rand_ratfunc(rng, 5)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            lhs = derive(f * RatFunc.from_fraction(a) + g * RatFunc.from_fraction(b))
            assert lhs == derive(f) * RatFunc.from_fraction(a) + derive(g) * RatFunc.from_fraction(b)

    def test_against_oracle_random(self, rng):
        for _ in range(200):
            f = rand_ratfunc(rng, 5)
            assert derive(f) == quotient_rule_oracle(f)


class TestAddZero:
    def test_zero_is_neutral(self, rng):
        zero = RatFunc.zero()
        for _ in range(50):
            f = rand_ratfunc(rng, 4, nonzero=True) / (X**2 + 3)
            assert not f.is_polynomial()
            assert zero + f == f
            assert f + zero == f
            assert 0 + f == f
            assert f + 0 == f
            assert f - zero == f


class TestCanonicalForm:
    def test_monic_denominator(self):
        f = RatFunc(UPoly((1,)), UPoly((0, 2)))  # 1/(2x)
        assert f.den.lc == 1
        assert f == parse_ratfunc("1/(2*x)")

    def test_gcd_reduced(self):
        f = RatFunc(UPoly((0, 1, 1)), UPoly((0, 1)))  # (x^2+x)/x
        assert f == X + 1

    def test_idempotent_normalization(self, rng):
        for _ in range(200):
            f = rand_ratfunc(rng, 6)
            again = RatFunc(f.num, f.den)
            assert again.num == f.num and again.den == f.den

    def test_zero_is_canonical(self):
        z = RatFunc(UPoly.zero(), UPoly((0, 0, 3)))
        assert z.is_zero() and z.den == UPoly.one()


class TestHermite:
    def test_pure_derivative(self):
        h, r = hermite_reduce(1 / X**2)
        assert h == -1 / X and r.is_zero()

    def test_simple_pole_remains(self):
        h, r = hermite_reduce(1 / X)
        assert h.is_zero() and r == 1 / X

    def test_roundtrip_example(self):
        g = parse_ratfunc("(3*x^2+1)/(x^3+x)^2")
        h, r = hermite_reduce(g)
        assert derive(h) + r == g
        assert r.den.is_squarefree()

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            g = rand_ratfunc(rng, 6)
            h, r = hermite_reduce(g)
            assert derive(h) + r == g
            assert r.den.gcd(r.den.derivative()).degree <= 0

    def test_higher_multiplicity(self):
        g = 1 / (X - 2) ** 5 + 3 / X
        h, r = hermite_reduce(g)
        assert derive(h) + r == g
        assert r == 3 / X


class TestAntiderivative:
    def test_exact(self):
        assert antiderivative_in_field(1 / X**2) == -1 / X
        assert antiderivative_in_field(X**3) == X**4 / 4

    def test_obstruction(self):
        res = antiderivative_in_field(1 / X)
        assert isinstance(res, SimplePoleObstruction)
        assert res.residual == 1 / X

    def test_roundtrip_random(self, rng):
        hits = 0
        for _ in range(300):
            g = rand_ratfunc(rng, 5)
            res = antiderivative_in_field(g)
            if isinstance(res, SimplePoleObstruction):
                assert not res.residual.is_zero()
                assert res.residual.den.is_squarefree()
            else:
                hits += 1
                assert derive(res) == g
        assert hits > 0  # corpus exercises both branches

    def test_derivatives_are_integrable(self, rng):
        for _ in range(100):
            f = rand_ratfunc(rng, 4)
            res = antiderivative_in_field(derive(f))
            assert not isinstance(res, SimplePoleObstruction)
            assert derive(res) == derive(f)


class TestSquarefree:
    def test_example(self):
        p = UPoly.x() ** 2 * (UPoly.x() + 1)
        assert set((str(f), m) for f, m in squarefree_part(p)) == {("x", 2), ("x + 1", 1)}

    def test_single(self):
        assert squarefree_part(UPoly.x()) == [(UPoly.x(), 1)]

    def test_product_reconstructs(self):
        p = (UPoly.x() ** 2 - 1) ** 2 * (UPoly.x() + 2)
        factors = squarefree_part(p)
        assert set((str(f), m) for f, m in factors) == {("x^2 - 1", 2), ("x + 2", 1)}
        prod = UPoly.one()
        for f, m in factors:
            prod = prod * f**m
        assert prod == p.monic()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(UPoly.zero())

    def test_random_reconstruction(self, rng):
        for _ in range(100):
            base = [rand_upoly(rng, 2, nonzero=True).monic() for _ in range(2)]
            p = base[0] * base[1] ** 2
            if p.degree == 0:
                continue
            prod = UPoly.one()
            for f, m in squarefree_part(p):
                assert f.is_squarefree()
                prod = prod * f**m
            assert prod == p.monic()

    def test_factors_pairwise_coprime(self, rng):
        for _ in range(50):
            p = rand_upoly(rng, 6, nonzero=True)
            if p.degree == 0:
                continue
            factors = squarefree_part(p)
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    assert factors[i][0].gcd(factors[j][0]).degree == 0
