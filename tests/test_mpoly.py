"""Groebner engine: Buchberger, normal forms, derivations and exp."""

from fractions import Fraction

import pytest

from conftest import rand_ratfunc
from diffgal.errors import BudgetExceeded, NotNilpotent
from diffgal.mpoly import (
    Derivation,
    MPoly,
    MRat,
    PolyRing,
    buchberger,
    is_groebner,
    nilpotent_exp,
    normal_form,
    spoly,
)
from diffgal.parsing import parse_ratfunc
from diffgal.ratfield import RatFunc
from test_inverse import log_series

X = RatFunc.x()


def z3_ring(coeff="ratfunc"):
    return PolyRing(("Z_1_2", "Z_1_3", "Z_2_3"), coeff=coeff, order="degrevlex")


def example_derivation(ring, c1=0, c2=1):
    """Z' = A_u Z for the 3x3 one-generator-per-column group: A_u has first
    row (0, 1/(x-c1), 1/(x-c2))."""
    a = 1 / (X - c1)
    b = 1 / (X - c2)
    z23 = ring.var("Z_2_3")
    return Derivation(ring, [ring.const(a), z23.scale(a) + ring.const(b), ring.zero()])


class TestBuchberger:
    def test_single_generator(self):
        ring = z3_ring("rational")
        gb = buchberger([ring.var("Z_2_3")])
        assert [str(g) for g in gb] == ["Z_2_3"]

    def test_zero_ideal(self):
        assert buchberger([]) == []

    def test_lex_example_frozen(self):
        ring = PolyRing(("Z1", "Z2"), coeff="rational", order="lex")
        z1, z2 = ring.gens()
        gb = buchberger([z1**2 - z2, z1 * z2 - z1])
        assert {str(g) for g in gb} == {"Z1^2 - Z2", "Z1*Z2 - Z1", "Z2^2 - Z2"}
        assert is_groebner(gb)

    def test_spoly_oracle_random(self, rng):
        ring = PolyRing(("a", "b", "c"), coeff="rational", order="degrevlex")
        for _ in range(15):
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    mono = tuple(rng.randint(0, 2) for _ in range(3))
                    terms[mono] = Fraction(rng.randint(-3, 3))
                p = ring.from_terms(terms)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            gb = buchberger(gens)
            assert is_groebner(gb)
            # membership of the original generators
            for g in gens:
                assert normal_form(g, gb).is_zero()

    def test_reduced_properties(self, rng):
        ring = PolyRing(("a", "b"), coeff="rational", order="degrevlex")
        a, b = ring.gens()
        gb = buchberger([a**2 + b**2 - 1, a * b - 1])
        # leading monomials pairwise non-dividing, generators monic
        lms = [g.lm() for g in gb]
        for i, m1 in enumerate(lms):
            for j, m2 in enumerate(lms):
                if i != j:
                    assert not all(x <= y for x, y in zip(m1, m2))
        for g in gb:
            assert g.lc() == Fraction(1)
            rest = [h for h in gb if h is not g]
            assert not normal_form(g, rest).is_zero()  # minimality

    def test_budget(self):
        ring = PolyRing(("a", "b", "c"), coeff="rational", order="lex")
        a, b, c = ring.gens()
        with pytest.raises(BudgetExceeded):
            buchberger([a**3 - b * c**2, b**3 - a * c, c**3 - a * b**2], budget=5)

    def test_ratfunc_coefficients(self):
        ring = z3_ring("ratfunc")
        z12, z13, z23 = ring.gens()
        gb = buchberger([z12.scale(X) - z23, z23.scale(1 / X)])
        assert is_groebner(gb)
        assert normal_form(z12.scale(X**2), gb).is_zero()


class TestConstantDivision:
    def test_divides_by_nonzero_constants(self):
        for coeff, c in (("rational", Fraction(2, 3)), ("ratfunc", X + 1)):
            ring = z3_ring(coeff)
            p = ring.var("Z_1_2") * ring.var("Z_2_3") + 1
            assert (p / ring.const(c)) * ring.const(c) == p
            assert p / 1 == p

    def test_rejects_zero_and_non_constants(self):
        ring = z3_ring("rational")
        p = ring.var("Z_1_3")
        with pytest.raises(ZeroDivisionError):
            p / ring.zero()
        with pytest.raises(ArithmeticError, match="non-constant"):
            p / ring.var("Z_1_2")


class TestNormalForm:
    def test_paper_reduction(self):
        ring = z3_ring("ratfunc")
        gb = buchberger([ring.var("Z_2_3")])
        for c1, c2 in ((0, 1), (2, 5)):
            p = ring.var("Z_2_3") + ring.const((X - c1) / (X - c2))
            assert normal_form(p, gb) == ring.const((X - c1) / (X - c2))

    def test_zero_ideal_is_identity(self):
        ring = z3_ring("rational")
        p = ring.var("Z_1_2") ** 2 - ring.var("Z_1_3")
        assert normal_form(p, []) == p

    def test_total_reduction(self):
        ring = PolyRing(("Z1",), coeff="rational")
        z1 = ring.var("Z1")
        assert normal_form(z1**2, buchberger([z1])).is_zero()

    def test_idempotent_and_additive(self, rng):
        ring = PolyRing(("a", "b"), coeff="rational", order="degrevlex")
        a, b = ring.gens()
        gb = buchberger([a**2 - b, b**2 - a])
        for _ in range(500):
            p = ring.from_terms({(rng.randint(0, 3), rng.randint(0, 3)):
                                 Fraction(rng.randint(-4, 4)) for _ in range(3)})
            q = ring.from_terms({(rng.randint(0, 3), rng.randint(0, 3)):
                                 Fraction(rng.randint(-4, 4)) for _ in range(3)})
            nf_p = normal_form(p, gb)
            assert normal_form(nf_p, gb) == nf_p
            assert normal_form(p + q, gb) == normal_form(nf_p + normal_form(q, gb), gb)


class TestDerivation:
    def test_paper_images(self):
        ring = z3_ring("ratfunc")
        d = example_derivation(ring)
        assert d.derive(ring.var("Z_1_2")) == ring.const(1 / X)
        assert d.derive(ring.var("Z_2_3")).is_zero()

    def test_leibniz_with_full_matrix_derivation(self):
        # x*Z_1_3 differentiates by Leibniz; reducing mod <Z_2_3> recovers the
        # simple form Z_1_3 + x/(x-c2).
        ring = z3_ring("ratfunc")
        d = example_derivation(ring)
        z13 = ring.var("Z_1_3")
        z23 = ring.var("Z_2_3")
        got = d.derive(z13.scale(X))
        assert got == z13 + z23.scale(X / X) + ring.const(X / (X - 1))
        gb = buchberger([z23])
        assert normal_form(got, gb) == z13 + ring.const(X / (X - 1))

    def test_leibniz_random(self, rng):
        ring = z3_ring("ratfunc")
        d = example_derivation(ring)
        gens = ring.gens()
        for _ in range(500):
            p = ring.zero()
            q = ring.zero()
            for _ in range(2):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                p = p + MPoly(ring, {mono: rand_ratfunc(rng, 2)})
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                q = q + MPoly(ring, {mono: rand_ratfunc(rng, 2)})
            assert d.derive(p * q) == d.derive(p) * q + p * d.derive(q)

    def test_differential_ideal(self):
        ring = z3_ring("ratfunc")
        d = example_derivation(ring)
        gb = buchberger([ring.var("Z_2_3")])
        for g in gb:
            assert normal_form(d.derive(g), gb).is_zero()


class TestNilpotentExp:
    def test_one_step(self):
        ring = PolyRing(("x1",), coeff="rational")
        x1 = ring.var("x1")
        z = ring.zero()
        e = nilpotent_exp([[z, x1], [z, z]])
        assert e[0][0] == ring.one() and e[0][1] == x1 and e[1][1] == ring.one()

    def test_two_step_golden(self):
        ring = PolyRing(("x1", "x2"), coeff="rational")
        x1, x2 = ring.gens()
        z = ring.zero()
        e = nilpotent_exp([[z, x1, z], [z, z, x2], [z, z, z]])
        assert e[0][2] == (x1 * x2).scale(Fraction(1, 2))

    def test_zero_matrix(self):
        ring = PolyRing(("x1",), coeff="rational")
        z = ring.zero()
        e = nilpotent_exp([[z, z], [z, z]])
        assert e[0][0] == ring.one() and e[0][1].is_zero()

    def test_not_nilpotent(self):
        ring = PolyRing(("x1",), coeff="rational")
        x1 = ring.var("x1")
        with pytest.raises(NotNilpotent):
            nilpotent_exp([[x1, x1], [ring.zero(), ring.zero()]])

    def test_exp_inverse(self):
        ring = PolyRing(("x1", "x2", "x3"), coeff="rational")
        x1, x2, x3 = ring.gens()
        z = ring.zero()
        mat = [[z, x1, x3], [z, z, x2], [z, z, z]]
        neg = [[-e for e in row] for row in mat]
        a = nilpotent_exp(mat)
        b = nilpotent_exp(neg)
        n = 3
        for i in range(n):
            for j in range(n):
                acc = ring.zero()
                for k in range(n):
                    acc = acc + a[i][k] * b[k][j]
                assert acc == (ring.one() if i == j else ring.zero())


class TestNilpotentLog:
    """`nilpotent_exp` against the log series kept as a test-side reference."""

    def generic(self, n):
        names = tuple(f"x{i}{j}" for i in range(n) for j in range(i + 1, n))
        ring = PolyRing(names, coeff="rational")
        z = ring.zero()
        return [[ring.var(f"x{i}{j}") if j > i else z for j in range(n)] for i in range(n)]

    def test_two_step_golden(self):
        u = nilpotent_exp(self.generic(3))
        x = self.generic(3)
        u[0][2] = x[0][2]
        # log [[1, a, c], [0, 1, b], [0, 0, 1]] has corner c - ab/2
        assert log_series(u)[0][2] == x[0][2] - (x[0][1] * x[1][2]).scale(Fraction(1, 2))

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_inverts_exp(self, n):
        x = self.generic(n)
        assert log_series(nilpotent_exp(x)) == x

    def test_not_unipotent(self):
        x = self.generic(2)
        one = x[0][1].ring.one()
        with pytest.raises(NotNilpotent):
            log_series([[one + one, x[0][1]], [x[1][0], one]])


class TestMRat:
    def test_arithmetic_and_cancellation(self):
        ring = z3_ring("ratfunc")
        z12, z13, z23 = ring.gens()
        f = MRat(z12 * z23, z23)
        assert f == MRat.from_poly(z12)
        g = MRat(z12, z12 * z12)
        assert g == MRat(ring.one(), z12)

    def test_derive_quotient_rule(self):
        ring = z3_ring("ratfunc")
        d = example_derivation(ring)
        z12 = ring.var("Z_1_2")
        f = MRat(ring.one(), z12)
        df = f.derive(d)
        # (1/Z12)' = -Z12'/Z12^2 = -(1/x)/Z12^2
        assert df == MRat(ring.const(-1 / X), z12 * z12)

    def test_spec_example_g2(self):
        # G_2 = 1/(Z_2_3 + (x-c1)/(x-c2))' reduces to (x-c2)^2/(c1-c2)
        ring = z3_ring("ratfunc")
        d = example_derivation(ring, c1=0, c2=1)
        z23 = ring.var("Z_2_3")
        inner = MRat.from_poly(z23 + ring.const(X / (X - 1)))
        g2 = inner.derive(d).inverse()
        assert g2 == MRat.from_poly(ring.const(-((X - 1) ** 2)))

    def test_univariate_gcd_shortening(self):
        ring = z3_ring("ratfunc")
        z12 = ring.var("Z_1_2")
        one = ring.one()
        # (Z12^2 - 1)/(Z12^2 + 2 Z12 + 1) -> (Z12 - 1)/(Z12 + 1)
        f = MRat(z12 * z12 - one, z12 * z12 + z12 + z12 + one)
        assert f.num == z12 - one
        assert f.den == z12 + one
