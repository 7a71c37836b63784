"""Tower engine: generator derivatives, annihilation, T' = AT, laurent maps."""

from fractions import Fraction

import pytest

from conftest import rand_ratfunc, rand_small_entry
from diffgal.diffop import SkewOp, build_Lf, monicize, shape_matrix
from diffgal.errors import DegenerateGenerator, NotPolynomialInTheta, ZeroEntry
from diffgal.ratfield import RatFunc
from diffgal.tower import (
    Tower,
    annihilator_of_iterated_integral,
    apply_operator,
    fundamental_T,
    laurent_normal,
    nested_solutions,
)

X = RatFunc.x()


def log_tower():
    tw = Tower()
    th = tw.add_log("th", X)
    return tw, th


class TestDerive:
    def test_leibniz_on_log(self):
        tw, th = log_tower()
        assert (tw.x() * th).derive() == th + 1

    def test_exp_square(self):
        tw = Tower()
        t = tw.add_exp("t", tw.x())
        assert (t * t).derive() == t * t * 2

    def test_log_power_identity_example(self):
        # d^n/dx^n (x^(n-1)/(n-1)! * log x) = 1/x for n = 1..6
        tw, th = log_tower()
        fact = 1
        for n in range(1, 7):
            e = th * RatFunc.from_fraction(Fraction(1, fact)) * X ** (n - 1)
            assert (e.derive_n(n) - tw.expr(1 / X)).is_zero()
            fact *= n

    def test_leibniz_random(self, rng):
        tw = Tower()
        th = tw.add_log("th", X)
        t = tw.add_exp("t", tw.x())
        i1 = tw.add_integral("i1", th * (1 / X))
        gens = [tw.x(), th, t, i1]
        for _ in range(500):
            a = gens[rng.randrange(4)] * rand_ratfunc(rng, 2) + rand_ratfunc(rng, 2)
            b = gens[rng.randrange(4)] * rand_ratfunc(rng, 2) + rand_ratfunc(rng, 2)
            assert ((a * b).derive() - (a.derive() * b + a * b.derive())).is_zero()

    def test_linearity_random(self, rng):
        tw, th = log_tower()
        t = tw.add_exp("t", tw.x())
        gens = [tw.x(), th, t]
        for _ in range(100):
            a = gens[rng.randrange(3)] * rand_ratfunc(rng, 2)
            b = gens[rng.randrange(3)] * rand_ratfunc(rng, 2)
            c1 = rand_ratfunc(rng, 1)
            c2 = rand_ratfunc(rng, 1)
            lhs = (a * c1 + b * c2).derive()
            rhs = a.derive() * c1 + a * c1.derive() + b.derive() * c2 + b * c2.derive()
            assert (lhs - rhs).is_zero()

    def test_fraction_quotient_rule(self):
        tw = Tower()
        t = tw.add_exp("t", tw.x())
        e = t / (t + 1)
        # e' = t/(t+1)^2
        assert (e.derive() - t / ((t + 1) * (t + 1))).is_zero()


def log_log_tower():
    """L = log x, M = log L, t = Int M/L, N = log(t + M): the images of M, t
    and N are fractions in the generators."""
    tw = Tower()
    L = tw.add_log("L", X)
    M = tw.add_log("M", L)
    t = tw.add_integral("t", M / L)
    N = tw.add_log("N", t + M)
    return tw, L, M, t, N


class TestFractionImages:
    def test_generator_images(self):
        tw, L, M, t, N = log_log_tower()
        x = tw.x()
        assert L.derive() == 1 / x
        assert M.derive() == 1 / (x * L)
        assert t.derive() == M / L
        assert N.derive() == (x * M + 1) / (x * L * (t + M))

    def test_second_derivative(self):
        tw, L, M, t, N = log_log_tower()
        x = tw.x()
        assert M.derive_n(2) == -(L + 1) / (x * x * L * L)

    def test_quotient_rule_with_generator_denominator(self):
        tw, L, M, t, N = log_log_tower()
        x = tw.x()
        e = M * M + L / M
        assert e.derive() == 2 * M / (x * L) + (M - 1) / (x * M * M)

    def test_base_coefficients(self):
        tw, L, M, t, N = log_log_tower()
        x = tw.x()
        assert (M / x).derive() == 1 / (x * x * L) - M / (x * x)
        assert (x * N).derive() == N + (x * M + 1) / (L * (t + M))

    def test_leibniz_random(self, rng):
        tw, L, M, t, N = log_log_tower()
        gens = [tw.x(), L, M, t, N]
        for _ in range(40):
            a = gens[rng.randrange(5)] * rand_ratfunc(rng, 1) + rand_ratfunc(rng, 1)
            b = gens[rng.randrange(5)] * rand_ratfunc(rng, 1) + rand_ratfunc(rng, 1)
            assert ((a * b).derive() - (a.derive() * b + a * b.derive())).is_zero()

    def test_apply_operator(self):
        tw, L, M, t, N = log_log_tower()
        op = SkewOp.D() * SkewOp.const(X) * SkewOp.D()  # kills 1 and L, not M
        assert apply_operator(op, L).is_zero()
        assert apply_operator(op, M) == -1 / (tw.x() * L * L)


class TestRadicalReduction:
    def test_relation(self):
        tw = Tower()
        r = tw.add_radical("r", 3)
        assert (r**3 - tw.x()).is_zero()

    def test_exponents_in_range(self):
        tw = Tower()
        r = tw.add_radical("r", 2)
        e = r**5  # = x^2 * r
        assert (e - tw.x() ** 2 * r).is_zero()
        assert e.num.degree_in(0) < 2

    def test_derivative(self):
        tw = Tower()
        r = tw.add_radical("r", 2)
        # (x^(1/2))' = r/(2x); squared relation: (r')^2 = 1/(4x)
        d = r.derive()
        assert (d * d - tw.expr(1 / (4 * X))).is_zero()

    def test_only_one_radical(self):
        tw = Tower()
        tw.add_radical("r", 2)
        with pytest.raises(DegenerateGenerator):
            tw.add_radical("s", 3)

    def test_denominator_rationalization(self):
        tw = Tower()
        r = tw.add_radical("r", 2)
        x = tw.x()
        inv = r**-1  # = r/x
        assert (inv - r / x).is_zero()
        assert not inv.den.involves(0)
        e = (r + 1) / (r + x)  # = r/x after clearing the denominator
        assert (e - r / x).is_zero()
        assert not e.den.involves(0)

    def test_rationalization_cubic_root(self):
        tw = Tower()
        r = tw.add_radical("r", 3)
        e = tw.one() / (r + 1)
        # (r+1) * e == 1 and the denominator is free of r
        assert (e * (r + 1) - 1).is_zero()
        assert not e.den.involves(0)


class TestDegenerateGenerators:
    def test_log_of_constant(self):
        tw = Tower()
        with pytest.raises(DegenerateGenerator):
            tw.add_log("th", RatFunc.from_int(5))

    def test_exp_of_constant(self):
        tw = Tower()
        with pytest.raises(DegenerateGenerator):
            tw.add_exp("t", RatFunc.from_int(3))


class TestApplyOperator:
    def test_dxd_kills_log(self):
        tw, th = log_tower()
        op = build_Lf([1 / X, X])  # monic version of D x D
        assert apply_operator(op, th).is_zero()

    def test_d2_kills_x(self):
        tw = Tower()
        assert apply_operator(SkewOp.D(2), tw.x()).is_zero()

    def test_golden_cubic_kills_its_solutions(self):
        f2 = -((X - 1) ** 2)
        f3 = X
        fs = monicize([f2, f3])
        vs = nested_solutions(fs, RatFunc.one())
        op = build_Lf(fs)
        for v in vs:
            assert apply_operator(op, v).is_zero()


class TestNestedSolutions:
    def test_trivial(self):
        vs = nested_solutions((RatFunc.one(), RatFunc.one()), RatFunc.one())
        assert vs[0] == 1
        assert apply_operator(SkewOp.D(2), vs[1]).is_zero()

    def test_simple_pole_tuple(self):
        # n = 2 with f_2 = x - 2, f_3 = 1
        fs = monicize([X - 2])
        vs = nested_solutions(fs, RatFunc.one())
        assert len(vs) == 2
        op = build_Lf(fs)
        for v in vs:
            assert apply_operator(op, v).is_zero()

    def test_with_fnext(self):
        fs = monicize([X - 2])
        f_next = X
        vs = nested_solutions(fs, f_next)
        assert vs[0] == tw_expr_one_over_x(vs[0].tower)
        op = build_Lf(fs) * SkewOp.const(f_next)
        for v in vs:
            assert apply_operator(op, v).is_zero()

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntry):
            nested_solutions((RatFunc.one(), RatFunc.zero()), RatFunc.one())
        with pytest.raises(ZeroEntry):
            nested_solutions((RatFunc.one(),), RatFunc.zero())

    def test_random_tuples_annihilated(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            fs = monicize([rand_small_entry(rng) for _ in range(n - 1)])
            f_next = rand_small_entry(rng)
            vs = nested_solutions(fs, f_next)
            assert len(vs) == n
            op = build_Lf(fs)
            assert op.order == n
            full = op * SkewOp.const(f_next)
            for v in vs:
                assert apply_operator(full, v).is_zero()


def tw_expr_one_over_x(tw):
    return tw.expr(1 / X)


class TestFundamentalT:
    def test_n2_shape(self):
        t_mat = fundamental_T([RatFunc.one()])
        assert t_mat[0][0] == 1 and t_mat[1][1] == 1
        assert t_mat[1][0].is_zero()
        assert (t_mat[0][1].derive() - 1).is_zero()  # t' = 1/f_2 = 1

    def test_t_prime_equals_at(self):
        for fs in ([X, -((X - 1) ** 2)], [X - 2, X - 3, X - 4], [RatFunc.one()]):
            a = shape_matrix(fs)
            t_mat = fundamental_T(fs)
            n = len(t_mat)
            tower = t_mat[0][0].tower
            for i in range(n):
                for j in range(n):
                    rhs = tower.zero()
                    for k in range(n):
                        if not a[i, k].is_zero():
                            rhs = rhs + t_mat[k][j] * a[i, k]
                    assert (t_mat[i][j].derive() - rhs).is_zero()

    def test_unipotent_shape(self):
        t_mat = fundamental_T([X, X + 1, X + 2])
        n = len(t_mat)
        for i in range(n):
            assert t_mat[i][i] == 1
            for j in range(i):
                assert t_mat[i][j].is_zero()

    def test_first_row_c_independence_mechanical(self, rng):
        # replicate the derive-and-multiply elimination: from
        # sum c_i t_{1,i} = 0 each c_i is forced to vanish in turn
        fs = [X - 2, X - 3]
        n = 3
        t_mat = fundamental_T(fs)
        tower = t_mat[0][0].tower
        f_at = {2: fs[0], 3: fs[1]}
        for _ in range(10):
            cs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            s = tower.zero()
            for i in range(n):
                s = s + t_mat[0][i] * RatFunc.from_fraction(cs[i])
            # walking down: s_j = sum_{i>=j} c_i t_{j,i}
            for j in range(1, n):
                s = s.derive() * f_at[n - j + 1]
                expect = tower.zero()
                for i in range(j, n):
                    expect = expect + t_mat[j][i] * RatFunc.from_fraction(cs[i])
                assert (s - expect).is_zero()
            # bottom row forces c_n, and a nonzero vector never maps to zero
            assert (s - tower.expr(RatFunc.from_fraction(cs[n - 1]))).is_zero()
            if any(cs):
                top = tower.zero()
                for i in range(n):
                    top = top + t_mat[0][i] * RatFunc.from_fraction(cs[i])
                assert not top.is_zero()


class TestAnnihilator:
    def test_log_annihilator(self):
        op = annihilator_of_iterated_integral(1 / X, 1)
        assert op == SkewOp.D(2) + SkewOp.const(1 / X) * SkewOp.D()
        tw, th = log_tower()
        assert apply_operator(op, th).is_zero()

    def test_constant_gives_pure_power(self):
        assert annihilator_of_iterated_integral(RatFunc.one(), 2) == SkewOp.D(3)
        tw = Tower()
        assert apply_operator(SkewOp.D(3), tw.x() ** 2).is_zero()

    def test_kills_low_powers_random(self, rng):
        for _ in range(20):
            f = rand_ratfunc(rng, 3, nonzero=True)
            n = rng.randint(1, 4)
            op = annihilator_of_iterated_integral(f, n)
            tw = Tower()
            for k in range(n):
                assert apply_operator(op, tw.x() ** k).is_zero()

    def test_kills_eta_with_nth_derivative_f(self, rng):
        # eta = I_n where I_1' = f and I_k' = I_{k-1}
        for f in (1 / X, X**2 + 1, 1 / (X - 3)):
            n = 3
            tw = Tower()
            cur = tw.add_integral("i1", tw.expr(f))
            for k in range(2, n + 1):
                cur = tw.add_integral(f"i{k}", cur)
            op = annihilator_of_iterated_integral(f, n)
            assert apply_operator(op, cur).is_zero()


class TestLaurentNormal:
    def test_exp_laurent(self):
        tw = Tower()
        t = tw.add_exp("t", tw.x())
        e = tw.x() * t + t**-1
        m = laurent_normal(e, "t")
        assert set(m) == {1, -1}
        assert m[1] == tw.x()
        assert m[-1] == 1

    def test_rejects_true_fraction(self):
        tw = Tower()
        t = tw.add_exp("t", tw.x())
        with pytest.raises(NotPolynomialInTheta):
            laurent_normal(t / (t + 1), "t")

    def test_log_power(self):
        tw, th = log_tower()
        m = laurent_normal(th**2 * (1 / X), "th")
        assert set(m) == {2}
        assert m[2] == tw.expr(1 / X)

    def test_negative_log_power_rejected(self):
        tw, th = log_tower()
        with pytest.raises(NotPolynomialInTheta):
            laurent_normal(th**-1, "th")

    def test_unreduced_fraction_collapses(self):
        tw = Tower()
        t = tw.add_exp("t", tw.x())
        e = (t * t + t) / (t + 1)  # = t
        m = laurent_normal(e, "t")
        assert set(m) == {1} and m[1] == 1
