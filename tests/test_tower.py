"""Tower engine: generator derivatives, annihilation, T' = AT, laurent maps."""

import json
import sys
import threading
from fractions import Fraction

import pytest

from conftest import degree_in, rand_ratfunc, rand_small_entry
from diffgal.diffop import FMatrix, SkewOp, build_Lf, monicize, shape_matrix
from diffgal.errors import DegenerateGenerator, NotPolynomialInTheta, ZeroEntry
from diffgal.ratfield import RatFunc
from diffgal.tower import (
    Tower,
    apply_operator,
    fundamental_T,
    laurent_normal,
    nested_solutions,
    rows_satisfy_T_prime_eq_AT,
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


class TestDeclaredImages:
    """A generator keeps the image it was declared with; the tower's derivation
    is built once per ring, on first use."""

    def test_fundamental_T_builds_one_derivation(self, monkeypatch):
        from diffgal.mpoly import Derivation

        built = []
        init = Derivation.__init__

        def counted(self, ring, images):
            built.append(ring)
            init(self, ring, images)

        monkeypatch.setattr(Derivation, "__init__", counted)
        fs = [X - k for k in range(2, 8)]
        t_mat = fundamental_T(fs)  # 21 formal integrals
        assert rows_satisfy_T_prime_eq_AT(shape_matrix(fs), t_mat) == [True] * 7
        assert len(built) == 1

    def test_adjoin_leaves_earlier_images(self):
        tw, L, M, t, N = log_log_tower()
        images = [g.derivative for g in tw.gens]
        rings = [img.ring for img in images]
        tw.add_exp("E", L)
        tw.add_integral("u", N / M)
        assert all(g.derivative is img for g, img in zip(tw.gens, images))
        assert [img.ring for img in images] == rings

    def test_derivative_between_adjoins(self):
        def two_logs():
            tw = Tower()
            L = tw.add_log("L", X)
            M = tw.add_log("M", L)
            return tw, L, M

        tw, L, M = two_logs()
        e = (M * M + L) / (tw.x() + M)
        between = e.derive()
        tw.add_integral("t", M / L)
        tw.add_log("N", M + 1)
        fresh, L2, M2 = two_logs()
        assert str(between) == str(((M2 * M2 + L2) / (fresh.x() + M2)).derive())
        assert e.derive() == between

    def test_threads_build_equal_derivations(self):
        def quotient(tw, L, M, t, N):
            return (N * M + tw.x()) / (t + L)

        want = str(quotient(*log_log_tower()).derive())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # each round races four first uses in a new tower
                e = quotient(*log_log_tower())
                got = []
                threads = [threading.Thread(target=lambda: got.append(str(e.derive())))
                           for _ in range(4)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                assert not any(th.is_alive() for th in threads)
                assert got == [want] * 4
        finally:
            sys.setswitchinterval(interval)


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
        assert degree_in(e.num, 0) < 2

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

    def test_equality_modulo_the_relation(self):
        tw = Tower()
        r = tw.add_radical("r", 2)
        t = tw.add_exp("t", tw.x())
        y = (tw.x() * t + r * t * t) / (r + t)  # r t (r + t) with r^2 = x
        assert y == r * t and (y - r * t).is_zero()
        assert y != r

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


def test_tower_expressions_reject_other_types():
    tw, th = log_tower()
    frac = tw.parse("1/th")._frac()
    assert th != "th" and th != frac
    for other in ("th", frac, SkewOp.D()):
        with pytest.raises(TypeError):
            th + other


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


def entrywise_rows(a, t_mat):
    """The reference check: T' = A T entry by entry in `TowerExpr` arithmetic."""
    n = len(t_mat)
    tower = t_mat[0][0].tower
    rows = []
    for i in range(n):
        ok = True
        for j in range(n):
            rhs = tower.zero()
            for k in range(n):
                if not a[i, k].is_zero():
                    rhs = rhs + t_mat[k][j] * a[i, k]
            ok = ok and (t_mat[i][j].derive() - rhs).is_zero()
        rows.append(ok)
    return rows


def log_identity():
    tw, th = log_tower()
    one, zero = tw.one(), tw.zero()
    return FMatrix([[0, 1 / X], [0, 0]]), [[one, th], [zero, one]]


def exp_fraction_identity():
    # y = 1/t = exp(-x) and L*y: T has fraction entries over t
    tw = Tower()
    L = tw.add_log("L", X)
    t = tw.add_exp("t", tw.x())
    y = t**-1
    return FMatrix([[-1, 1 / X], [0, -1]]), [[y, L * y], [tw.zero(), y]]


def radical_identity():
    # r = x^(1/3): (r^k)' = k/(3x) r^k, and 1/r is rationalised to r^2/x
    tw = Tower()
    r = tw.add_radical("r", 3)
    z = tw.zero()
    third = 1 / (3 * X)
    a = FMatrix([[2 * third, -third, 0], [0, third, 0], [0, 0, -third]])
    return a, [[r**2, r, z], [z, r, z], [z, z, r**-1]]


def radical_mixed_identity():
    # y = (x t + r t^2)/(r + t) is r t only modulo r^2 - x, so its denominator
    # stays mixed and T' - A T vanishes only after reduction
    tw = Tower()
    r = tw.add_radical("r", 2)
    t = tw.add_exp("t", tw.x())
    y = (tw.x() * t + r * t * t) / (r + t)
    assert not y.den.is_constant()
    a = FMatrix([[1 + 1 / (2 * X), 0], [0, 1 / (2 * X)]])
    return a, [[y, tw.zero()], [tw.zero(), r]]


def integral_identity():
    fs = [X, -((X - 1) ** 2), 1 / (X + 1)]
    return shape_matrix(fs), fundamental_T(fs)


IDENTITIES = [log_identity, exp_fraction_identity, radical_identity, radical_mixed_identity,
              integral_identity]


class TestOneFractionCheck:
    """`rows_satisfy_T_prime_eq_AT` forms each T'_ij - sum_k A_ik T_kj as one
    fraction; it must agree with the entrywise `TowerExpr` reference."""

    @pytest.mark.parametrize("case", IDENTITIES, ids=lambda f: f.__name__)
    def test_identity_holds(self, case):
        a, t_mat = case()
        n = len(t_mat)
        assert rows_satisfy_T_prime_eq_AT(a, t_mat) == entrywise_rows(a, t_mat) == [True] * n

    @pytest.mark.parametrize("case", IDENTITIES, ids=lambda f: f.__name__)
    def test_scaled_entry_of_a_fails_its_row(self, case):
        a, t_mat = case()
        n = len(t_mat)
        for i in range(n):
            for k in range(n):
                if a[i, k].is_zero():
                    continue
                wrong = FMatrix([[a[r, c] * 2 if (r, c) == (i, k) else a[r, c]
                                  for c in range(n)] for r in range(n)])
                expected = [r != i for r in range(n)]
                assert rows_satisfy_T_prime_eq_AT(wrong, t_mat) == expected
                assert entrywise_rows(wrong, t_mat) == expected

    def test_random_matrices_agree(self, rng):
        # log and exp, radical with exp (mixed denominators stay fractions),
        # and formal integrals; zero rows of T and A make some rows hold
        towers = []
        tw = Tower()
        towers.append((tw, [tw.add_log("L", X), tw.add_exp("t", tw.x())]))
        tw = Tower()
        r = tw.add_radical("r", 2)
        t = tw.add_exp("t", tw.x())
        towers.append((tw, [r, t, tw.one() / (r * t + 1)]))
        tw = Tower()
        i1 = tw.add_integral("i1", 1 / X)
        towers.append((tw, [i1, tw.add_integral("i2", i1 / (X - 1))]))
        for tw, gens in towers:
            for _ in range(6):
                n = rng.randint(2, 3)
                zero_rows = set(rng.sample(range(n), 1))
                t_mat = [[tw.zero() if i in zero_rows or rng.random() < 0.3 else
                          rng.choice(gens) * rand_small_entry(rng) + rand_ratfunc(rng, 1)
                          for _ in range(n)] for i in range(n)]
                a = FMatrix([[0 if i in zero_rows or rng.random() < 0.5 else
                              rand_small_entry(rng) for _ in range(n)] for i in range(n)])
                assert rows_satisfy_T_prime_eq_AT(a, t_mat) == entrywise_rows(a, t_mat)

    def test_wrong_declared_derivative_fails_the_facet(self, monkeypatch, capsys, tmp_path):
        import diffgal.tower as tower
        from diffgal.cli import main

        real = tower._integral_tower

        def wrong(f_partial):
            # declares t' = 1/(2 f_2) for the integral over 1/f_2
            fs = list(f_partial)
            return real([fs[0] * 2] + fs[1:])

        monkeypatch.setattr(tower, "_integral_tower", wrong)
        fs = [X, X - 1]
        assert rows_satisfy_T_prime_eq_AT(shape_matrix(fs), fundamental_T(fs)) == [
            True, False, True]
        full_u3 = [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                   [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                   [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 3, "lie_basis": full_u3, "a": ["1/x", "1/(x-1)"]}))
        assert main(["construct", "--spec", str(spec)]) == 1
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert.pop("fundamental_identity") is False
        assert all(cert.values())


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
            assert entrywise_rows(a, t_mat) == [True] * len(t_mat)

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

    def test_slice_sharing_a_factor_with_the_denominator(self):
        """(a (b + 1) + 1)/(b + 1) in a: the slice of a^1 is (b + 1)/(b + 1),
        which the full constructor cancels to 1 over 1."""
        tw = Tower()
        a = tw.add_log("a", X)
        b = tw.add_exp("b", X)
        m = laurent_normal((a * (b + 1) + 1) / (b + 1), "a")
        assert str(m[1]) == "1" and m[1].den == tw.ring.one()
        assert m[0] == 1 / (b + 1)
