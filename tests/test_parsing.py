"""Expression grammar: literals, precedence, errors, round trips."""

import pytest

from conftest import rand_ratfunc
from diffgal.errors import ParseError
from diffgal.parsing import parse_ratfunc
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


def test_non_string_input_is_parse_error():
    with pytest.raises(ParseError):
        parse_ratfunc(5)
