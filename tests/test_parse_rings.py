"""Parsing in the smallest ring: Q(x) text over Q[x], tower text as one fraction.

Each parse is checked against the environment it replaced, kept here as the
reference: `RatFunc` atoms for Q(x) text and `TowerExpr` atoms for tower
text, where every `+ - * / ^` normalises a fraction.
"""

import json
import random
import re
from fractions import Fraction

import pytest

from conftest import degree_in, rand_ratfunc
from diffgal.cli import _parse_operator, _standard_tower, main
from diffgal.errors import NotMonic, ParseError
from diffgal.mpoly import MPoly, MRat, PolyRing, _cancel_univariate, _mono_sub, _shorten, _single_var
from diffgal.parsing import parse_expr, parse_over_qx, parse_ratfunc
from diffgal.ratfield import RatFunc, UPoly
from diffgal.tower import Tower

X = RatFunc.x()


def rand_text(rng, atoms, depth):
    """Sums, differences, products, quotients, powers and unary minus, nested."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms + [str(rng.randint(0, 9))])
    kind = rng.randrange(6)
    a = rand_text(rng, atoms, depth - 1)
    if kind == 4:
        return f"({a})^{rng.randint(0, 3)}"
    if kind == 5:
        return f"-({a})"
    b = rand_text(rng, atoms, depth - 1)
    return (f"{a} + {b}", f"{a} - {b}", f"({a})*({b})", f"({a})/({b})")[kind]


def outcome(parse, text):
    """The printed value, or the ParseError message."""
    try:
        return str(parse(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


def ref_ratfunc(text):
    return parse_expr(text, {"x": RatFunc.x()}, RatFunc.from_int)


def ref_tower(tower):
    atoms = {"x": tower.x(), **{g.name: tower.gen_expr(g.name) for g in tower.gens}}
    return lambda text: parse_expr(text, atoms, tower.expr)


def two_integrals():
    tw = Tower()
    u = tw.add_integral("u", 1 / X)
    tw.add_integral("v", u * (1 / (X + 1)))
    return tw


TOWERS = {
    "exp": lambda: _standard_tower("exp"),
    "log": lambda: _standard_tower("log"),
    "radical:2": lambda: _standard_tower("radical:2"),
    "radical:3": lambda: _standard_tower("radical:3"),
    "two integrals": two_integrals,
}


class TestParseEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_ratfunc_matches_ratfunc_atoms(self, seed):
        rng = random.Random(seed)
        values = 0
        for _ in range(150):
            text = rand_text(rng, ["x", "x"], 4)
            got = outcome(parse_ratfunc, text)
            assert got == outcome(ref_ratfunc, text), text
            values += not got.startswith("ParseError")
        assert values > 100  # most texts have a value, not a zero divisor

    def test_ratfunc_value_type(self):
        assert type(parse_ratfunc("x^2 + 1/2")) is RatFunc
        assert type(parse_ratfunc("7")) is RatFunc

    @pytest.mark.parametrize("name", TOWERS)
    def test_tower_matches_tower_atoms(self, name):
        tw = TOWERS[name]()
        gens = [g.name for g in tw.gens]
        rng = random.Random(name)
        ref = ref_tower(tw)
        quotients = 0
        for _ in range(60):
            text = rand_text(rng, ["x"] + gens * 2, 4)
            got = outcome(tw.parse, text)
            assert got == outcome(ref, text), text
            quotients += "/(" in got
        assert quotients > 5

    def test_operator_matches_ratfunc_atoms(self, rng):
        from diffgal.diffop import SkewOp

        for _ in range(60):
            text = rand_text(rng, ["x", "D"], 3)
            try:
                ref = parse_expr(text, {"x": X, "D": SkewOp.D()}, RatFunc.from_int)
            except (ParseError, NotMonic) as exc:  # NotMonic: a division by D
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _parse_operator(text)
                continue
            assert _parse_operator(text) == (ref if isinstance(ref, SkewOp) else SkewOp.const(ref))


class TestMixedForms:
    @pytest.mark.parametrize("text, expected", [
        ("(1/t)^2", "(1)/(t^2)"),
        ("2/t", "(2)/(t)"),
        ("x/t^2", "(x)/(t^2)"),
        ("(t+1)/(t-1)", "(t + 1)/(t - 1)"),
    ])
    def test_exp_tower(self, text, expected):
        tw = _standard_tower("exp")
        assert str(tw.parse(text)) == expected == outcome(ref_tower(tw), text)

    @pytest.mark.parametrize("text", ["r^5", "1/(r+1)", "(r^2 + x)/(r - 1)^2"])
    def test_radical_tower(self, text):
        tw = _standard_tower("radical:3")
        got = tw.parse(text)
        assert str(got) == outcome(ref_tower(tw), text)
        assert got.den.is_constant() and degree_in(got.num, 0) < 3  # reduced, rationalised

    def test_radical_values(self):
        tw = _standard_tower("radical:3")
        r = tw.gen_expr("r")
        assert str(tw.parse("r^5")) == "x*r^2"
        assert (tw.parse("1/(r+1)") * (r + 1) - 1).is_zero()

    def test_scalars_stay_polynomials(self):
        assert isinstance(parse_over_qx("(x + 1)^3 * 2 - x/4"), UPoly)
        assert isinstance(parse_over_qx("x/(x + 1)"), RatFunc)


class TestDivision:
    def test_upoly_divides_by_constants_and_forms_ratfuncs(self):
        p = UPoly([1, 2, 3])
        assert p / 2 == UPoly([Fraction(1, 2), 1, Fraction(3, 2)])
        assert p / Fraction(-2, 3) == UPoly([Fraction(-3, 2), -3, Fraction(-9, 2)])
        assert p / UPoly.const(3) == p * Fraction(1, 3)
        q = p / UPoly([1, 1])
        assert type(q) is RatFunc and q == RatFunc(p, UPoly([1, 1]))
        assert UPoly([1, 1]) / UPoly([1, 1]) == RatFunc.one()
        for zero in (0, Fraction(0), UPoly.zero()):
            with pytest.raises(ZeroDivisionError):
                p / zero
        with pytest.raises(TypeError):
            p / "x"

    def test_mixed_operands_meet_in_the_richer_ring(self):
        assert UPoly.x() / X == RatFunc.one()
        assert X / UPoly([0, 2]) == RatFunc.from_fraction(Fraction(1, 2))
        tw = _standard_tower("exp")
        t = MRat.from_poly(tw.ring.var("t"))
        assert 1 / t == t.inverse()
        assert UPoly.x() / t == t.inverse() * tw.ring.const(X)

    def test_mrat_powers(self, rng):
        tw = two_integrals()
        u, v = (MRat.from_poly(tw.ring.var(n)) for n in ("u", "v"))
        for _ in range(20):
            f = (u + rand_ratfunc(rng, 1)) / (v * u + rand_ratfunc(rng, 1, nonzero=True))
            for k in range(4):
                slow = MRat.from_poly(tw.ring.one())
                for _ in range(k):
                    slow = slow * f
                p = f**k
                assert (p.num.terms, p.den.terms) == (slow.num.terms, slow.den.terms)
            assert f ** -2 == (f * f).inverse()

    def test_radical_divisor_zero_after_reduction(self):
        tw = _standard_tower("radical:2")
        for text in ("(r^2 - x)/(r^2 - x)", "1/(r^2 - x) + 1/0", "r/(r^4 - x^2)"):
            with pytest.raises(ParseError, match="division by zero tower expression"):
                tw.parse(text)
        assert str(tw.parse("x/(r^2 - x + 1)")) == "x"


def ref_shorten(num, den):
    """`_shorten` with no single-term shortcut: the exact-division trials and
    the univariate gcd run on every non-constant denominator."""
    ring = num.ring
    if num.is_zero():
        return num, ring.one()
    nmin = [min(m[i] for m in num.terms) for i in range(ring.nvars)]
    dmin = [min(m[i] for m in den.terms) for i in range(ring.nvars)]
    common = tuple(min(a, b) for a, b in zip(nmin, dmin))
    if any(common):
        num = MPoly(ring, {_mono_sub(m, common): c for m, c in num.terms.items()})
        den = MPoly(ring, {_mono_sub(m, common): c for m, c in den.terms.items()})
    if not den.is_constant():
        q = num.exact_div(den)
        if q is not None:
            return q, ring.one()
        q = den.exact_div(num)
        if q is not None:
            num, den = ring.one(), q
        else:
            nv, dv = _single_var(num, ring), _single_var(den, ring)
            if nv is not None and nv == dv:
                num, den = _cancel_univariate(num, den, nv)
    lcd = den.lc()
    if lcd != ring.cone:
        inv = ring.cone / lcd
        num, den = num.scale(inv), den.scale(inv)
    return num, den


@pytest.mark.parametrize("coeff", ("ratfunc", "rational"))
def test_shorten_single_term_denominators_match_full_path(coeff):
    ring = PolyRing(("a", "b", "c"), coeff=coeff)
    rng = random.Random(coeff)

    def scalar():
        if coeff == "rational":
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rand_ratfunc(rng, 1)

    def mono(hi):
        return tuple(rng.randint(0, hi) for _ in range(3))

    def poly(terms):
        return ring.from_terms({mono(3): scalar() for _ in range(terms)})

    shortcuts = 0
    for _ in range(300):
        num = poly(rng.randint(0, 4))
        if rng.random() < 0.3:  # a numerator that one or all variables divide
            num = num * MPoly(ring, {mono(2): ring.cone})
        c = scalar() or ring.cone
        den = MPoly(ring, {mono(2): c})
        got = _shorten(num, den)
        want = ref_shorten(num, den)
        assert (got[0].terms, got[1].terms) == (want[0].terms, want[1].terms)
        shortcuts += len(den.terms) == 1 and not den.is_constant() and not num.is_zero()
    assert shortcuts > 150


def run(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize("argv, message", [
    (("integrate", "--field", "rational", "--expr", "x/(x-x)"), "division by the zero rational function"),
    (("integrate", "--field", "rational", "--expr", "1/0"), "division by the zero rational function"),
    (("integrate", "--field", "exp", "--expr", "t/(t-t)"), "division by zero tower expression"),
    (("integrate", "--field", "exp", "--expr", "(1/t)^0/0"), "division by zero tower expression"),
    (("integrate", "--field", "radical:2", "--expr", "(r^2-x)/(r^2-x)"),
     "division by zero tower expression"),
    (("verify", "--operator", "D/(x-x)"), "division by the zero operator"),
    (("verify", "--operator", "D"), "division by zero tower expression"),
])
def test_division_by_zero_exits_2_with_one_line(capsys, tmp_path, argv, message):
    tower = tmp_path / "tower.json"
    bad_arg = argv == ("verify", "--operator", "D")
    gens = [{"kind": "log", "name": "L", "arg": "x"}]
    if bad_arg:  # a generator whose argument divides by zero
        gens.append({"kind": "exp", "name": "E", "arg": "1/(L-L)"})
    tower.write_text(json.dumps({"generators": gens, "solutions": ["L"]}))
    if argv[0] == "verify":
        argv = argv + ("--tower", str(tower))
    else:
        argv = argv + ("--depth", "1")
    code, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
