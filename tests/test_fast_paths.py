"""Fast paths that skip work which cannot change an answer, each against the
general path or a reference kept here: constant denominators, sparse matrix
products, operators parsed over Q(x) and polynomial `apply_operator`."""

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from conftest import rand_fraction_matrices, rand_ratfunc, rand_small_entry, rand_upoly
from diffgal.cli import _parse_operator
from diffgal.diffop import FMatrix, SkewOp, full_rank_mod_p, gauss_jordan
from diffgal.errors import NotMonic, ParseError
from diffgal.integrab import _homogeneous, _lifted_roots
from diffgal.inverse import _invertible, a_choices_independent
from diffgal.mpoly import MRat, PolyRing
from diffgal.parsing import parse_expr
from diffgal.ratfield import _GCD_PRIME, RatFunc, UPoly, _primitive_int_list
from diffgal.tower import Tower, TowerExpr, apply_operator, nested_solutions

X = RatFunc.x()
GOLDEN = Path(__file__).resolve().parent / "golden"


# -- sparse FMatrix product ------------------------------------------------------


def dense_product(a: FMatrix, b: FMatrix) -> list[list[RatFunc]]:
    """Every entry as the full sum over the inner index, zeros included."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.ncols)), RatFunc.zero())
             for j in range(b.ncols)] for i in range(a.nrows)]


def sparse_matrix(rng, n, m, density):
    return FMatrix([[rand_small_entry(rng) if rng.random() < density else 0
                     for _ in range(m)] for _ in range(n)])


@pytest.mark.parametrize("seed", range(6))
def test_sparse_matrix_product_matches_dense(seed):
    rng = random.Random(seed)
    for n, k, m in ((1, 1, 1), (3, 3, 3), (2, 4, 3), (4, 2, 1), (5, 5, 5)):
        for density in (0.0, 0.3, 1.0):
            a = sparse_matrix(rng, n, k, density)
            b = sparse_matrix(rng, k, m, rng.choice((0.3, 1.0)))
            assert (a * b).rows == FMatrix(dense_product(a, b)).rows
    a = sparse_matrix(rng, 4, 4, 0.8)
    a = FMatrix([a.rows[0], (0,) * 4, a.rows[2], (0,) * 4])  # zero rows
    b = sparse_matrix(rng, 4, 3, 0.8)
    assert (a * b).rows == FMatrix(dense_product(a, b)).rows
    assert FMatrix.zero(3, 2) * FMatrix.zero(2, 4) == FMatrix.zero(3, 4)
    assert (FMatrix([]) * FMatrix([])).rows == ()


# -- constant denominators ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_ratfunc_constant_denominator_matches_general_path(seed):
    rng = random.Random(seed)
    for _ in range(40):
        num = rand_upoly(rng, 5)
        c = UPoly.const(Fraction(rng.choice([k for k in range(-7, 8) if k]), rng.randint(1, 5)))
        q = rand_upoly(rng, 3, nonzero=True)
        while q.degree < 1:
            q = rand_upoly(rng, 3, nonzero=True)
        fast = RatFunc(num, c)
        general = RatFunc(num * q, c * q)  # a nonconstant denominator takes the gcd
        assert (fast.num, fast.den) == (general.num, general.den)
        assert fast.den == UPoly.one()


@pytest.mark.parametrize("seed", range(4))
def test_mrat_constant_denominator_matches_general_path(seed):
    rng = random.Random(seed)
    ring = PolyRing(("a", "b"), coeff="ratfunc")
    a, b = ring.gens()
    for _ in range(25):
        num = ring.zero()
        for _ in range(rng.randint(0, 4)):
            num = num + a ** rng.randint(0, 2) * b ** rng.randint(0, 2) * rand_small_entry(rng)
        c = ring.const(rand_small_entry(rng))
        fast = MRat(num, c)
        for common in (a, a * b + ring.const(X)):
            general = MRat(num * common, c * common)  # content or an exact division
            assert (fast.num.terms, fast.den.terms) == (general.num.terms, general.den.terms)
        if not num.is_zero():
            assert fast.den.terms == ring.one().terms


# -- operators parsed over Q(x) -------------------------------------------------------


def parse_operator_skew(text: str) -> SkewOp:
    """Every atom and literal an operator, so every step is a skew product."""
    atoms = {"x": SkewOp.const(RatFunc.x()), "D": SkewOp.D()}
    return parse_expr(text, atoms, lambda k: SkewOp.const(RatFunc.from_int(k)))


def golden_operators() -> list[str]:
    out = []
    for path in sorted(GOLDEN.glob("*.json")):
        rep = json.loads(path.read_text())["report"]
        for part in (rep["inputs"], rep["outputs"]):
            out += [part[k] for k in ("L", "L_times_fnext", "operator") if part.get(k)]
    return out


def random_operator(rng, depth=3) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["x", "D", str(rng.randint(1, 5)), "(x + 1)", "D^2"])
    a, b = random_operator(rng, depth - 1), random_operator(rng, depth - 1)
    den = rng.choice(["x", "(x - 2)", "3", "(x^2 + 1)", "(2*x + 1)^2"])
    return rng.choice([f"({a}) + ({b})", f"({a}) - ({b})", f"({a})*({b})", f"-({a})",
                       f"({a})^{rng.randint(0, 2)}", f"({a})/{den}", f"{b}*{a}"])


def operator_strings() -> list[str]:
    rng = random.Random(0x0D0D)
    fixed = ["D*x", "x*D", "(x*D)^2", "1 + D", "-D", "D", "x", "7", "-x/3",
             "D^3 + ((4*x - 2)/(x^2 - x))*D^2 + (2/(x^2 - x))*D", "(x^2 - 1)/(x + 1)*D"]
    return golden_operators() + fixed + [random_operator(rng) for _ in range(50)]


def test_golden_operators_collected():
    assert len(golden_operators()) >= 5


@pytest.mark.parametrize("text", operator_strings())
def test_operator_parse_over_qx_matches_skew_parse(text):
    op, ref = _parse_operator(text), parse_operator_skew(text)
    assert isinstance(op, SkewOp)
    assert op == ref and str(op) == str(ref)


@pytest.mark.parametrize("text", ["1/D", "x/(x*D)", "0/D", "(1 + D)/(x*D)"])
def test_division_by_an_operator_of_positive_order_is_not_monic(text):
    with pytest.raises(NotMonic):
        _parse_operator(text)


@pytest.mark.parametrize("text", ["D/0", "2/0", "(x*D)/(x - x)", "D/(D - D)"])
def test_division_by_zero_is_a_parse_error(text):
    with pytest.raises(ParseError):
        _parse_operator(text)


def test_skew_division_by_zero_operator():
    with pytest.raises(ZeroDivisionError):
        SkewOp.D() / SkewOp.zero()
    with pytest.raises(ZeroDivisionError):
        SkewOp.D() / 0
    assert 2 / SkewOp.const(X) == SkewOp.const(2 / X)


# -- apply_operator and tower scalars ----------------------------------------------------


def apply_operator_loop(op: SkewOp, e: TowerExpr) -> TowerExpr:
    """sum_i a_i D^i e through `TowerExpr` arithmetic alone."""
    out = e.tower.zero()
    d = e
    for c in op.coeffs:
        if not c.is_zero():
            out = out + TowerExpr._wrap(e.tower, d._frac() * MRat.from_poly(
                e.tower.ring.const(c)))
        d = d.derive()
    return out


def towers():
    """(tower, expressions) for each kind of tower apply_operator meets."""
    out = []
    tw = Tower()
    lg = tw.add_log("L", X)
    out.append((tw, [lg, lg * lg * X + 3, lg / (X - 1), 1 / lg, tw.one()]))
    tw = Tower()
    t = tw.add_exp("t", tw.x() * tw.x())
    out.append((tw, [t, t * t - t * X, t ** -1, (t + 1) / (t - 1)]))
    vs = nested_solutions([X, -(X - 1) ** 2, X + 2], X + 1)
    out.append((vs[0].tower, vs + [vs[1] * vs[2], vs[2] / vs[1]]))
    tw = Tower()  # M = log(log x): M' = 1/(x L) is a fraction
    lg = tw.add_log("L", X)
    m = tw.add_log("M", lg)
    out.append((tw, [m, lg * m + X, m * m, 1 / (m + lg)]))
    tw = Tower()
    r = tw.add_radical("r", 3)
    out.append((tw, [r, r * r + X, r ** 5, 1 / (r + 1)]))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_apply_operator_matches_tower_loop(seed):
    rng = random.Random(seed)
    for tw, exprs in towers():
        for e in exprs:
            op = SkewOp([rand_small_entry(rng) if rng.random() < 0.8 else 0
                         for _ in range(rng.randint(1, 4))])
            got, ref = apply_operator(op, e), apply_operator_loop(op, e)
            assert got == ref and str(got) == str(ref)
            ring = tw.ring
            assert got._frac().num.terms == ref._frac().num.terms
            assert got._frac().den.terms == ref._frac().den.terms
            c = rand_ratfunc(rng, 3, nonzero=True)
            scaled = TowerExpr._wrap(tw, e._frac() * MRat.from_poly(ring.const(c)))
            assert str(e * c) == str(scaled) and str(c * e) == str(scaled)
            assert (e * c)._frac().num.terms == scaled._frac().num.terms
            assert str(e * RatFunc.zero()) == "0"


def test_tower_scalar_matches_general_constructor():
    tw = Tower()
    tw.add_radical("r", 2)
    for v in (0, 3, Fraction(-2, 7), X, 1 / (X ** 2 + 1)):
        f = RatFunc.coerce(v)
        general = TowerExpr(tw, tw.ring.const(f), tw.ring.one())
        fast = tw.expr(v)
        assert (fast.num.terms, fast.den.terms) == (general.num.terms, general.den.terms)


# -- rational roots on integers -----------------------------------------------------------


def eval_fraction(ints, v: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(ints):
        out = out * v + c
    return out


@pytest.mark.parametrize("seed", range(4))
def test_integer_root_test_matches_fraction_evaluation(seed):
    rng = random.Random(seed)
    for _ in range(30):
        roots = {Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))}
        p = UPoly([rng.randint(1, 5), 0, rng.randint(1, 3)])  # no rational root
        for r in roots:
            k = rng.randint(1, 4)
            p = p * UPoly([-k * r, k])
        ints = list(p.ints)  # p times its denominator
        for v in roots | {Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)}:
            scale = v.denominator ** (len(ints) - 1)
            assert _homogeneous(ints, v.numerator, v.denominator) == eval_fraction(ints, v) * scale
        lifted = _lifted_roots(_primitive_int_list(ints))
        assert len(lifted) == len(roots) and {Fraction(a, b) for a, b in lifted} == roots


# -- Lie-basis entries converted once --------------------------------------------------------


def test_spec_entries_become_one_fraction_per_distinct_int():
    from diffgal.cli import _parse_group_spec

    n = 4
    basis = [[[int((r, c) == cell) for c in range(n)] for r in range(n)]
             for cell in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))]
    basis[0][0][3] = 2
    spec = _parse_group_spec({"n": n, "lie_basis": basis})
    entries = [e for m in spec.lie_basis for row in m for e in row]
    assert set(entries) == {0, 1, 2}
    assert len({id(e) for e in entries}) == 3


def test_gauss_jordan_keeps_a_pivot_row_that_starts_with_one():
    from diffgal.diffop import gauss_jordan

    rows = [[Fraction(1), Fraction(2, 3)], [Fraction(0), Fraction(0)]]
    reduced, pivots, det = gauss_jordan(rows, 2)
    assert reduced == rows and pivots == [0] and det == 1
    assert reduced[0][1] is rows[0][1]  # not rebuilt as a product by 1
    reduced, pivots, det = gauss_jordan([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]], 2)
    assert reduced == [[1, 0], [0, 1]] and det == -2


# -- one gcd for a sum over one denominator -------------------------------------------------


def sum_over_the_product(f: RatFunc, g: RatFunc) -> RatFunc:
    """f + g as one fraction over the product of the denominators, reduced."""
    return RatFunc(f.num * g.den + g.num * f.den, f.den * g.den)


def fields(f: RatFunc) -> tuple:
    return f.num.ints, f.num.denom, f.den.ints, f.den.denom


@pytest.mark.parametrize("seed", range(4))
def test_sum_over_one_denominator_matches_the_general_sum(seed, monkeypatch):
    rng = random.Random(f"same-den/{seed}")
    calls = []
    cofactors = UPoly.cofactors

    def counting(self, other):
        calls.append(1)
        return cofactors(self, other)

    monkeypatch.setattr(UPoly, "cofactors", counting)
    zero = lower = 0
    for _ in range(30):
        h = rand_upoly(rng, 2, nonzero=True)
        while h.degree < 1:
            h = rand_upoly(rng, 2, nonzero=True)
        f = RatFunc(rand_upoly(rng, 5), h * rand_upoly(rng, 3, nonzero=True))
        if f.den.degree < 1:
            continue
        k = rand_upoly(rng, 2, nonzero=True)
        # -f cancels to zero; k*h - f cancels every factor that h shares with
        # f's denominator, when that one is still f's whole denominator.
        for g in (-f, RatFunc(rand_upoly(rng, 4), f.den), RatFunc(k * h.monic() - f.num, f.den)):
            if g.den != f.den:
                continue
            want = sum_over_the_product(f, g)
            del calls[:]
            got = f + g
            assert fields(got) == fields(want)
            assert len(calls) == (0 if got.is_zero() else 1)
            zero += got.is_zero()
            lower += 0 <= got.den.degree < f.den.degree and not got.is_zero()
    assert zero and lower


# -- full rank proved modulo one prime ---------------------------------------------------


def _integer_rows(rows):
    """Each rational row times the lcm of its denominators."""
    out = []
    for row in rows:
        m = lcm(*(e.denominator for e in row))
        out.append([int(e * m) for e in row])
    return out


def test_full_rank_mod_p_agrees_with_gauss_jordan():
    full = deficient = 0
    for seed in range(4):
        for rows in rand_fraction_matrices(seed, 60):
            exact = len(gauss_jordan(rows, len(rows[0]))[1]) == len(rows)
            assert full_rank_mod_p(_integer_rows(rows)) == exact
            full += exact
            deficient += not exact
    assert full > 40 and deficient > 40


def test_full_rank_mod_p_proves_only_full_rank():
    p = _GCD_PRIME
    assert full_rank_mod_p([[1, 2, 3], [0, 0, 5]])
    assert full_rank_mod_p([])
    assert not full_rank_mod_p([[1, 2], [2, 4]])
    assert not full_rank_mod_p([[1], [2]])  # more rows than columns
    # Independent over Q, singular mod p: "False" proves nothing.
    assert not full_rank_mod_p([[p, 0], [0, 1]])
    assert not full_rank_mod_p([[1, 1], [1, 1 + p]])
    assert len(gauss_jordan([[Fraction(p), 0], [0, Fraction(1)]], 2)[1]) == 2


def test_callers_fall_back_when_the_prime_hides_the_rank():
    p = _GCD_PRIME
    x = RatFunc.x()
    # singular mod p
    assert _invertible(FMatrix([[p, 0], [0, 1]]))
    # a denominator divisible by p: the row times p is (1, 0)
    assert _invertible(FMatrix([[RatFunc.from_fraction(Fraction(1, p)), 0], [0, 1]]))
    assert not _invertible(FMatrix([[p, 1], [p * x, x]]))
    # numerators over the lcm x^2 - x with determinant p: p and x, then
    # p + 1 + x and 1 + x
    assert a_choices_independent([p / (x * x - x), 1 / (x - 1)])
    assert a_choices_independent([(p + 1 + x) / (x * x - x), (1 + x) / (x * x - x)])
    assert not a_choices_independent([p / (x * x - x), 2 * p / (x * x - x)])


# -- cheap powers of D and integer constants -----------------------------------------------


def test_a_power_of_a_monomial_in_d_is_one_monomial():
    for m in range(4):
        for k in range(5):
            want = SkewOp.const(1)
            for _ in range(k):
                want = want * SkewOp.D(m)
            assert SkewOp.D(m) ** k == want == SkewOp.D(m * k)
    op = SkewOp((X, 1))  # not a monomial: the skew products run
    assert op ** 2 == op * op and op ** 0 == SkewOp.const(1)
    assert SkewOp.const(3) ** 2 == SkewOp.const(9)


@pytest.mark.parametrize("n", [0, 1, -1, 7, -12, 3 ** 80])
def test_an_integer_constant_matches_the_fraction_route(n):
    got, want = UPoly.const(n), UPoly.const(Fraction(n))
    assert (got.ints, got.denom) == (want.ints, want.denom)
    assert all(type(v) is int for v in got.ints)


# -- coercion errors name the type ---------------------------------------------------------


def test_a_refused_coercion_does_not_render_the_value(monkeypatch):
    """Arithmetic operators catch these errors only to return NotImplemented,
    so the message names the operand's type and never formats the operand:
    f*D^k must not print the operator before `SkewOp.__rmul__` takes over."""
    from diffgal.mpoly import _scalar_rational
    from diffgal.ratfield import _as_fraction

    class Unprintable:
        def __repr__(self):
            raise AssertionError("the operand was rendered")

        __str__ = __repr__

    for coerce, field in ((RatFunc.coerce, "Q(x)"), (_as_fraction, "Q"), (_scalar_rational, "Q")):
        with pytest.raises(TypeError) as exc:
            coerce(Unprintable())
        assert str(exc.value) == f"cannot coerce Unprintable into {field}"
    monkeypatch.setattr(SkewOp, "__repr__", Unprintable.__repr__)
    monkeypatch.setattr(SkewOp, "__str__", Unprintable.__repr__)
    f = (X**5 + 1) / (X**4 + 2)
    assert f * SkewOp.D(5) == SkewOp.D(5).__rmul__(f)
