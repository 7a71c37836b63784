"""Skew ring Q(x)[D], matrices over Q(x), companion forms."""

from fractions import Fraction
from math import comb

import pytest

from conftest import is_companion, rand_ratfunc, rand_small_entry
from diffgal.diffop import (
    FMatrix,
    SkewOp,
    build_Lf,
    companion_of,
    gauge_transform,
    monicize,
    operator_of,
    shape_matrix,
)
from diffgal.errors import NotMonic, SingularGauge, ZeroEntry
from diffgal.ratfield import RatFunc
from diffgal.tower import Tower, apply_operator

X = RatFunc.x()
D = SkewOp.D()


def c(f) -> SkewOp:
    return SkewOp.const(f)


def test_operators_reject_other_types():
    assert D != "D" and D != object()
    for other in ("D", object()):
        with pytest.raises(TypeError):
            D + other
        with pytest.raises(TypeError):
            other * D


class TestSkewMul:
    def test_defining_rule(self):
        assert D * c(X) == c(X) * D + 1

    def test_d_squared(self):
        assert D * D == SkewOp.D(2)

    def test_frozen_product(self):
        lhs = (c(X) * D + 1) * (D + c(1 / X))
        assert lhs == c(X) * SkewOp.D(2) + 2 * D

    def test_application_oracle(self):
        # apply both factored and expanded forms to x, x^2, x^3
        l1 = c(X) * D + 1
        l2 = D + c(1 / X)
        prod = l1 * l2
        tower = Tower()
        for p in (X, X**2, X**3, 1 / (X + 1)):
            e = tower.expr(p)
            assert apply_operator(prod, e) == apply_operator(l1, apply_operator(l2, e))

    def test_associativity_distributivity(self, rng):
        # quick version; the acceptance suite runs the full 500-triple corpus
        for _ in range(120):
            ops = []
            for _ in range(3):
                order = rng.randint(0, 3)
                ops.append(SkewOp([rand_ratfunc(rng, 3) for _ in range(order + 1)]))
            a, b, cc = ops
            assert (a * b) * cc == a * (b * cc)
            assert a * (b + cc) == a * b + a * cc

    def test_products_match_the_binomial_formula(self, rng):
        # unit coefficients and orders >= 3, so C(i, k) > 1 occurs; the
        # reference multiplies every term by a and by C(i, k)
        def reference(a, b):
            out = [RatFunc.zero()] * (a.order + b.order + 1)
            for i, ai in enumerate(a.coeffs):
                for j, bj in enumerate(b.coeffs):
                    bk = bj
                    for k in range(i + 1):
                        if not (ai.is_zero() or bk.is_zero()):
                            out[i + j - k] = out[i + j - k] + ai * bk * comb(i, k)
                        bk = bk.derive()
            return SkewOp(out)

        units = (RatFunc.one(), RatFunc.zero(), -RatFunc.one())
        for _ in range(40):
            a, b = (SkewOp([rng.choice(units + (rand_ratfunc(rng, 2),))
                            for _ in range(rng.randint(3, 5))] + [RatFunc.one()])
                    for _ in range(2))
            assert a * b == reference(a, b)

    def test_degree_additivity(self, rng):
        for _ in range(100):
            a = SkewOp([rand_ratfunc(rng, 2) for _ in range(rng.randint(1, 3))]
                       + [rand_ratfunc(rng, 2, nonzero=True)])
            b = SkewOp([rand_ratfunc(rng, 2) for _ in range(rng.randint(1, 3))]
                       + [rand_ratfunc(rng, 2, nonzero=True)])
            assert (a * b).order == a.order + b.order

    def test_application_compatibility_in_tower(self, rng):
        tower = Tower()
        th = tower.add_log("th", X)
        e = th * X + 1
        for _ in range(20):
            a = SkewOp([rand_ratfunc(rng, 2) for _ in range(rng.randint(1, 3))])
            b = SkewOp([rand_ratfunc(rng, 2) for _ in range(rng.randint(1, 3))])
            if a.is_zero() or b.is_zero():
                continue
            lhs = apply_operator(a * b, e)
            rhs = apply_operator(a, apply_operator(b, e))
            assert (lhs - rhs).is_zero()


class TestBuildLf:
    def test_trivial(self):
        assert build_Lf([1, 1]) == SkewOp.D(2)

    def test_footnote_reduction(self):
        for g in (X, X**2 - 1, 1 / (X + 3)):
            got = build_Lf([RatFunc.one(), 1 / g])
            want = c(1 / g) * SkewOp.D(2) + c((1 / g).derive()) * D
            assert got == want

    def test_golden_cubic(self):
        f3 = X
        f2 = -((X - 1) ** 2)
        got = build_Lf(monicize([f2, f3]))
        want = (SkewOp.D(3) + c(2 * (1 / X + 1 / (X - 1))) * SkewOp.D(2)
                + c(2 / (X * (X - 1))) * D)
        assert got == want

    def test_zero_entry(self):
        with pytest.raises(ZeroEntry):
            build_Lf([RatFunc.one(), RatFunc.zero()])


class TestMonicize:
    def test_golden(self):
        f = monicize([-((X - 1) ** 2), X])
        assert f[0] == -1 / (X * (X - 1) ** 2)

    def test_trivial(self):
        assert monicize([RatFunc.one()]) == (RatFunc.one(), RatFunc.one())
        f = monicize([RatFunc.from_int(2), RatFunc.from_int(3)])
        assert f[0] == RatFunc.from_fraction(Fraction(1, 6))

    def test_makes_monic(self, rng):
        for _ in range(50):
            rest = [rand_small_entry(rng) for _ in range(rng.randint(1, 3))]
            assert build_Lf(monicize(rest)).is_monic()


class TestShapeMatrix:
    def test_golden_example(self):
        f3 = X  # c1 = 0
        f2 = -((X - 1) ** 2)  # c2 = 1
        a = shape_matrix([f2, f3])
        assert a[0, 1] == 1 / X
        assert a[1, 2] == -1 / (X - 1) ** 2
        assert a.is_strictly_upper()

    def test_n2(self):
        a = shape_matrix([RatFunc.one()])
        assert a.rows == FMatrix([[0, 1], [0, 0]]).rows

    def test_n4_ordering(self):
        fs = [X - 2, X - 3, X - 4]  # f_2, f_3, f_4
        a = shape_matrix(fs)
        assert a[0, 1] == 1 / (X - 4)
        assert a[1, 2] == 1 / (X - 3)
        assert a[2, 3] == 1 / (X - 2)


class TestGauge:
    def test_identity_gauge(self):
        a = shape_matrix([X, X - 1])
        assert gauge_transform(a, FMatrix.identity(3)) == a

    def test_golden_gauge_is_companion(self):
        au = FMatrix([[0, 1 / X, 1 / (X - 1)], [0, 0, 0], [0, 0, 0]])
        b = FMatrix([
            [1, 0, 0],
            [0, 1 / X, 1 / (X - 1)],
            [0, -1 / X**2, -1 / (X - 1) ** 2],
        ])
        ac = gauge_transform(au, b)
        assert is_companion(ac)

    def test_gauge_composition_inverse(self, rng):
        a = shape_matrix([X, X + 1])
        b = FMatrix([[1, X, 0], [0, 1, X**2], [0, 0, 1]])
        assert gauge_transform(gauge_transform(a, b), b.inverse()) == a

    def test_singular_gauge(self):
        a = shape_matrix([X])
        with pytest.raises(SingularGauge):
            gauge_transform(a, FMatrix([[1, 1], [1, 1]]))


class TestCompanion:
    def test_d2(self):
        comp = companion_of(SkewOp.D(2))
        assert comp.matrix() == FMatrix([[0, 1], [0, 0]])

    def test_golden_last_row(self):
        op = (SkewOp.D(3) + c(2 * (1 / X + 1 / (X - 1))) * SkewOp.D(2)
              + c(2 / (X * (X - 1))) * D)
        comp = companion_of(op)
        assert comp.n == 3
        last = comp.matrix().rows[-1]
        assert last[0] == RatFunc.zero()
        assert last[1] == -2 / (X * (X - 1))
        assert last[2] == -2 * (1 / X + 1 / (X - 1))

    def test_roundtrip_random(self, rng):
        for _ in range(50):
            order = rng.randint(1, 5)
            op = SkewOp([rand_ratfunc(rng, 3) for _ in range(order)] + [RatFunc.one()])
            assert operator_of(companion_of(op)) == op

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            companion_of(c(X) * SkewOp.D(2))


class TestFMatrix:
    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            m = FMatrix([[rand_ratfunc(rng, 2) for _ in range(3)] for _ in range(3)])
            if m.det().is_zero():
                continue
            assert m * m.inverse() == FMatrix.identity(3)

    def test_det_singular(self):
        m = FMatrix([[X, X], [X, X]])
        assert m.det().is_zero()
