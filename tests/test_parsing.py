"""Expression grammar: literals, precedence, errors, round trips."""

from fractions import Fraction

import pytest

from conftest import rand_ratfunc
from diffgal.errors import ParseError
from diffgal.parsing import parse_expr, parse_ratfunc
from diffgal.ratfield import RatFunc

X = RatFunc.x()


def test_literals():
    assert parse_ratfunc("-3") == RatFunc.from_int(-3)
    assert parse_ratfunc("7/2") == RatFunc.from_int(7) / 2


def test_precedence():
    assert parse_ratfunc("1 + 2*x^2") == 1 + 2 * X**2
    assert parse_ratfunc("1/2*x") == X / 2
    assert parse_ratfunc("-x^2") == -(X**2)
    assert parse_ratfunc("(x+1)^3") == (X + 1) ** 3


def test_nested():
    assert parse_ratfunc("(x^2-1)/(x+2)") == (X**2 - 1) / (X + 2)
    assert parse_ratfunc("1/(x*(x-1))") == 1 / (X * (X - 1))


def test_whitespace():
    assert parse_ratfunc("  x ^ 2 - 1 ") == X**2 - 1


def test_unary_sign_after_operator():
    assert parse_ratfunc("2*+x") == 2 * X


@pytest.mark.parametrize("bad", ["", "x +", "x^(-1)", "x^y", "(x", "x)", "y + 1", "x$2"])
def test_rejects(bad):
    with pytest.raises(ParseError):
        parse_ratfunc(bad)


def test_division_by_zero_is_parse_error():
    with pytest.raises(ParseError):
        parse_ratfunc("1/(x - x)")


def test_print_parse_roundtrip(rng):
    for _ in range(300):
        f = rand_ratfunc(rng, 6)
        assert parse_ratfunc(str(f)) == f


def test_nesting_bound():
    from diffgal.parsing import MAX_NESTING

    assert MAX_NESTING >= 100
    assert parse_ratfunc("(" * 50 + "x + 1" + ")" * 50) == X + 1
    assert parse_ratfunc("x*" + "-" * 50 + "x") == X**2
    assert parse_ratfunc("(-" * 25 + "x" + ")" * 25) == -X
    for deep in ("(" * 5000 + "x" + ")" * 5000, "x*" + "-" * 5000 + "x",
                 "(-" * 2500 + "x" + ")" * 2500):
        with pytest.raises(ParseError):
            parse_ratfunc(deep)


def test_power_degree_bound():
    from diffgal.parsing import MAX_POWER_DEGREE

    bound = MAX_POWER_DEGREE
    assert parse_ratfunc(f"x^{bound}") == X**bound
    assert parse_ratfunc(f"(1/(x^2 + 1))^{bound // 2}") == 1 / (X**2 + 1) ** (bound // 2)
    assert parse_ratfunc(f"2^{bound}") == RatFunc.from_int(2**bound)
    for big in (f"x^{bound + 1}", f"(x^2 + 1)^{bound // 2 + 1}", f"(x/(x^2 - 1))^{bound // 2 + 1}",
                f"(x^{bound})^2", "(x+1)^2000000", f"2^{bound + 1}"):
        with pytest.raises(ParseError):
            parse_ratfunc(big)


def test_every_degree_bounded():
    from diffgal.parsing import MAX_POWER_DEGREE

    half = MAX_POWER_DEGREE // 2
    assert parse_ratfunc(f"x^{half}*x^{half}") == X**MAX_POWER_DEGREE
    assert parse_ratfunc(f"x^{half}/(x+1)^{half}") == X**half / (X + 1) ** half
    for big in (f"x^{half}*x^{half + 1}", f"x^{half + 1}/(1/(x + 1))^{half}",
                f"x^{MAX_POWER_DEGREE} + 1/x", f"1/x - x^{MAX_POWER_DEGREE}",
                "*".join(["(x+1)^1000"] * 8)):
        with pytest.raises(ParseError, match="degree above"):
            parse_ratfunc(big)


def test_bounds_checked_before_any_arithmetic():
    class Untouchable:
        def _fail(self, *_):
            raise AssertionError("arithmetic on input over a bound")

        __neg__ = __add__ = __sub__ = __mul__ = __truediv__ = __pow__ = _fail

    with pytest.raises(ParseError, match="product of degree above"):
        parse_expr("x^600*x^600", {"x": Untouchable()}, lambda k: Untouchable())


def test_work_of_all_powers_bounded_before_any_arithmetic():
    class Untouchable:
        def _fail(self, *_):
            raise AssertionError("arithmetic on input over a bound")

        __neg__ = __add__ = __sub__ = __mul__ = __truediv__ = __pow__ = _fail

    eight = "+".join("(x+%d)^1000" % k for k in range(1, 9))
    assert len(eight) == 87
    for text in (eight, "x^600 + x^900", "(x+1)^1000 - x^2", "((x+1)^1000)^0 + ((x+2)^1000)^0"):
        with pytest.raises(ParseError, match="work exceeds one power"):
            parse_expr(text, {"x": Untouchable()}, lambda k: Untouchable())


def test_power_work_admits_one_power_at_the_bound():
    from diffgal.parsing import MAX_POWER_DEGREE

    dense = " + ".join(f"{k}*x^{k}" for k in range(51))
    assert parse_ratfunc(dense) == sum((k * X**k for k in range(51)), RatFunc.zero())
    half = MAX_POWER_DEGREE // 2
    assert parse_ratfunc(f"(x^2)^{half}") == X**MAX_POWER_DEGREE
    assert parse_ratfunc(f"((x^2 + 1)^{half // 2})^2") == (X**2 + 1) ** half
    assert parse_ratfunc(f"x^{MAX_POWER_DEGREE} + x^1 + 2^1") == X**MAX_POWER_DEGREE + X + 2


def test_long_integer_literal_is_parse_error():
    for text in ("1" * 5000, "x^" + "1" * 5000):
        with pytest.raises(ParseError, match="too long"):
            parse_ratfunc(text)


def test_polynomials_divide_by_nonzero_constants_only():
    from diffgal.inverse import z_ring

    ring = z_ring(3, coeff="rational")
    atoms = {name: ring.var(name) for name in ring.names}
    half = ring.var("Z_1_2") * ring.var("Z_2_3") * Fraction(1, 2)
    assert parse_expr("Z_1_3 - (1/2)*Z_1_2*Z_2_3", atoms, ring.const) == ring.var("Z_1_3") - half
    assert parse_expr("Z_1_2*Z_2_3/(3 - 1)", atoms, ring.const) == half
    for bad in ("Z_1_3/Z_1_2", "Z_1_3/(1 - 1)"):
        with pytest.raises(ParseError):
            parse_expr(bad, atoms, ring.const)


def test_non_string_input_is_parse_error():
    with pytest.raises(ParseError):
        parse_ratfunc(5)
