"""The one-pass parser against the frozen two-pass parser in `parse_oracle`.

Seeded random texts, valid and broken, must give the same value or the same
`ParseError` text from both, in every environment the package parses in.
"""

import random
from fractions import Fraction

import pytest

import parse_oracle
from diffgal.diffop import SkewOp
from diffgal.errors import ParseError
from diffgal.parsing import MAX_NESTING, MAX_POWER_DEGREE, parse_expr, parse_over_qx, _scan
from diffgal.mpoly import MRat
from diffgal.ratfield import RatFunc, UPoly
from diffgal.tower import Tower, TowerExpr

DIGITS = "0123456789\u0663\uff15\u07c1"  # Arabic-Indic 3, fullwidth 5, NKo 1
SPACES = [" ", "\t", "\n", "\r", "\f", "\v", "\u00a0", "\u2003", "\u3000", "\x1c", "\x85"]
BAD = ["$", ".", "\u00b2", "\u00e9", "\u03bb", "\x00", "{", "=", ","]
OVER = [f"x^{MAX_POWER_DEGREE + 1}", f"(x^2)^{MAX_POWER_DEGREE // 2 + 1}",
        f"x^{MAX_POWER_DEGREE // 2 + 1}*x^{MAX_POWER_DEGREE // 2}",
        f"x^{MAX_POWER_DEGREE // 2 + 1}/(x+1)^{MAX_POWER_DEGREE // 2}",
        f"1/x - x^{MAX_POWER_DEGREE}", "x^600 + x^900", "(x+1)^1000 - x^2"]


def _literal(rng):
    n = rng.choice([0, 1, 2, 3, 4, 5, 7, 12, 16, 255, 10**20 + 3])
    return str(n) if rng.random() < 0.9 else "".join(rng.choice(DIGITS) for _ in range(3))


def _expr(rng, names, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return rng.choice(names) if rng.random() < 0.5 else _literal(rng)
    if r < 0.65:
        return _expr(rng, names, depth - 1) + rng.choice("+-*/") + _expr(rng, names, depth - 1)
    if r < 0.75:
        return rng.choice("+-") + _expr(rng, names, depth - 1)
    if r < 0.9:
        return "(" + _expr(rng, names, depth - 1) + ")"
    return "(" + _expr(rng, names, depth - 1) + ")^" + str(rng.choice([0, 1, 2, 3]))


def _mutate(rng, text):
    """`text` with one random edit: a deletion, a stray token, a bad character,
    other whitespace, a power over a bound, or a division by zero."""
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.2 and text:
        return text[:i] + text[i + 1:]
    if r < 0.4:
        return text[:i] + rng.choice(["(", ")", "^", "*", "+", "^x", "y", "2 3"]) + text[i:]
    if r < 0.55:
        return text[:i] + rng.choice(BAD) + text[i:]
    if r < 0.75:
        return text.replace(" ", rng.choice(SPACES)) + rng.choice(SPACES)
    if r < 0.9:
        return f"{text} + {rng.choice(OVER)}"
    return f"1/(x - x) + {text} + x^600 + x^900" if rng.random() < 0.5 else f"({text})/(5 - 5)"


def _texts(seed, names, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = _expr(rng, names, rng.randint(0, 5)).replace("+", " + ")
        out.append(_mutate(rng, text) if rng.random() < 0.5 else text)
    return out


def _sparse(seed, names, count):
    """Texts whose Q[x] parts are folded monomials of high degree: sums of a few
    a/b*x^k within the work bound, (c*x^k)^e, a monomial times a polynomial,
    and a division by a negative constant."""
    rng = random.Random(seed)

    def mono(top):
        k = rng.randint(0, top)
        return f"{rng.randint(0, 40)}/{rng.randint(1, 40)}*x^{k}" if rng.random() < 0.8 else f"x^{k}"

    out = []
    for _ in range(count):
        r = rng.random()
        if r < 0.3:  # the squares of at most j exponents of MAX_POWER_DEGREE / sqrt(j) sum within it
            j = rng.randint(1, 4)
            top = int(MAX_POWER_DEGREE / j**0.5)
            text = mono(top) + "".join(rng.choice([" + ", " - "]) + mono(top) for _ in range(j - 1))
        elif r < 0.55:
            e = rng.choice([0, 1, 2, 3, 5, 8])
            c = rng.choice(["", "3*", "-2*", "3/4*", "(-5/7)*"])
            text = f"({c}x^{rng.randint(0, MAX_POWER_DEGREE // max(e, 1))})^{e}"
        elif r < 0.8:
            poly = "(" + _expr(rng, names, rng.randint(1, 3)) + ")"
            m = mono(MAX_POWER_DEGREE // 2)
            text = f"{m}*{poly}" if rng.random() < 0.5 else f"{poly}*{m}"
        else:
            num = mono(MAX_POWER_DEGREE) if rng.random() < 0.5 else _expr(rng, names, 2)
            text = f"({num})/(-{rng.choice([1, 3, 16, 10**20 + 3])})"
        out.append(text)
    return out


def _outcome(parse, text):
    try:
        v = parse(text)
    except Exception as exc:  # the same error, of the same type, from both
        return type(exc).__name__, str(exc)
    return type(v).__name__, str(v)


def _same(new, old, texts):
    for text in texts:
        assert _outcome(new, text) == _outcome(old, text), text


def test_tokenize_matches_frozen_tokenizer():
    rng = random.Random(7)
    texts = _texts(1, ["x", "D", "t_1"], 300) + [" " + "".join(rng.choice(DIGITS) for _ in range(9)),
                                                  "x + 1", "x   $", "  $", "x\u00e9"]
    for text in texts:
        try:
            want = [t for _, t in parse_oracle.tokenize(text)]
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                _scan(text)
            assert str(got.value) == str(exc), text
        else:
            assert _scan(text) == want, text


def test_rational_functions_match_frozen_parser():
    _same(parse_over_qx,
          lambda s: parse_oracle.parse_expr(s, {"x": UPoly.x()}, UPoly.const),
          _texts(2, ["x"] * 5 + ["y"], 400) + _sparse(12, ["x"], 120))


def test_operators_match_frozen_parser():
    d = SkewOp.D()
    _same(lambda s: parse_over_qx(s, {"D": d}),
          lambda s: parse_oracle.parse_expr(s, {"x": UPoly.x(), "D": d}, UPoly.const),
          _texts(3, ["x", "x", "D"], 300) + _sparse(13, ["x", "x", "D"], 80))


def test_other_constants_match_frozen_parser():
    atoms = {"x": RatFunc.x()}
    _same(lambda s: parse_expr(s, atoms, RatFunc.from_int),
          lambda s: parse_oracle.parse_expr(s, atoms, RatFunc.from_int),
          _texts(4, ["x"], 300))


def test_tower_text_matches_frozen_parser():
    tower = Tower()
    tower.add_log("t", RatFunc.x())
    tower.add_radical("r", 3)
    atoms = {g.name: MRat.from_poly(tower.ring.var(g.name)) for g in tower.gens}

    def old(text):
        val = parse_oracle.parse_expr(text, {"x": UPoly.x(), **atoms}, UPoly.const,
                                      tower._check_divisor)
        return TowerExpr._wrap(tower, val) if isinstance(val, MRat) else tower.expr(val)

    _same(tower.parse, old, _texts(5, ["x", "t", "r"], 150) + _sparse(15, ["x", "t", "r"], 40))


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_nesting_at_the_bound_matches_frozen_parser(depth):
    texts = ["(" * depth + "x" + ")" * depth, "x*" + "-" * depth + "x",
             "(-" * (depth // 2) + "x" + ")" * (depth // 2), "-" * depth + "2/3*x^2"]
    _same(parse_over_qx, lambda s: parse_oracle.parse_expr(s, {"x": UPoly.x()}, UPoly.const),
          texts)


@pytest.mark.parametrize("text, value", [
    ("0^0", UPoly.one()),
    ("(0*x)^0", UPoly.one()),
    ("(-x)^3", -UPoly.x() ** 3),
    ("2/4*x", UPoly.x() / 2),
    ("x/2/3", UPoly.x() / 6),
    ("x*(1/2)", UPoly.x() / 2),
    ("(2/3)*(3/4)*x^2", UPoly.x() ** 2 / 2),
    ("-3/16*x^5 + 3/16*x^5 - 0/7*x", UPoly.zero()),
    ("(2*x + 1)^2/4 - x^2", UPoly.x() + Fraction(1, 4)),
    ("(x/3 - 1/6)/(-1/2)", UPoly.const(Fraction(1, 3)) - UPoly.x() * Fraction(2, 3)),
    ("(1/2*x - 1/4)^3*8", (2 * UPoly.x() - 1) ** 3 / 8),
    ("(x+1)/(-2)", (UPoly.x() + 1) / -2),
])
def test_folded_literals(text, value):
    got = parse_over_qx(text)
    assert type(got) is UPoly and (got.ints, got.denom) == (value.ints, value.denom)


def test_folded_literal_meets_an_operator():
    assert parse_over_qx("(1/2)*D", {"D": SkewOp.D()}) == SkewOp.D() * Fraction(1, 2)
    assert parse_over_qx("3/4*x^2*D - 1/3", {"D": SkewOp.D()}) == SkewOp(
        [RatFunc.from_fraction(Fraction(-1, 3)), RatFunc(UPoly.monomial(Fraction(3, 4), 2))])


def test_folded_literals_divide_by_zero_as_polynomials():
    for text in ("(x*x)/(5 - 5)", "x/0", "2/(3*x - 3*x)", "(1/2*x)/(0/3)"):
        with pytest.raises(ParseError, match="^division by the zero rational function$"):
            parse_over_qx(text)


def test_bounds_come_before_a_folded_division_by_zero():
    with pytest.raises(ParseError, match="work exceeds one power"):
        parse_over_qx("1/(x - x) + x^600 + x^900")


def test_tower_text_mixes_folded_literals_with_a_generator():
    tower = Tower()
    t = tower.add_log("t", RatFunc.x())
    x = RatFunc.x()
    got = tower.parse("3/4*x^2*t + 1/2*x - t/3 + (x^2 - 1)/(2*x + 2)")
    assert got == t * (x**2 * Fraction(3, 4) - Fraction(1, 3)) + x - Fraction(1, 2)
    with pytest.raises(ParseError, match="division by zero tower expression"):
        tower.parse("t/(2*x - 2*x)")
