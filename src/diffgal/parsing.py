"""Recursive-descent parser for the shared expression grammar.

Grammar: integer literals, named atoms, `+ - * / ^`, parentheses.  `^` takes a
nonnegative integer exponent.  The same parser serves ideal generators (atoms
`Z_i_j`) and, through `parse_over_qx`, rational functions (atom `x`),
operators (atom `D`) and tower expressions (generator names), because all
value types implement the ring operators.

`parse_over_qx` computes each value in the smallest ring that holds it: `x`
and the integer literals are Q[x] polynomials (`UPoly`), which stay
polynomials under `+ - * ^` and under division by a nonzero constant, and
become one `RatFunc` at a division by a non-constant.  A value enters an
atom's ring (operators, fractions over a tower ring) only where it meets that
atom.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from .errors import ParseError
from .ratfield import RatFunc, UPoly

# Open parentheses plus pending unary signs; deeper input is a ParseError
# rather than a RecursionError.
MAX_NESTING = 100

# Bound on the degree of every power, product, quotient and sum, with degrees
# read off the syntax and checked before the value is computed; `(x+1)^2000000`
# and a long product of bounded powers are a ParseError rather than a hang.
# The work of all powers together is bounded by that of one power at this
# degree: each `^` costs the square of its degree less the square of its
# base's degree, and the sum of these may not exceed MAX_POWER_DEGREE**2, so
# a long sum of distinct bounded powers is a ParseError too.
MAX_POWER_DEGREE = 1000

# Bound on an `integrate --depth`: every depth step integrates the whole
# witness once more, and the cost grows faster than the depth.
MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|/|\+|-|\(|\)))")


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} at offset {pos}")
            break
        if m.group(1) is not None:
            tokens.append(("int", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


def _bounded(what: str, *degrees: int) -> tuple[int, ...]:
    """The degrees of a `what`, or a ParseError when one exceeds MAX_POWER_DEGREE."""
    if max(degrees) > MAX_POWER_DEGREE:
        raise ParseError(f"{what} of degree above {MAX_POWER_DEGREE}")
    return degrees


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"integer literal of {len(digits)} digits is too long") from exc


class _Parser:
    """Each rule returns (value, (a, b)), where a and b bound the degrees of a
    numerator and a denominator of the value in its atoms."""

    def __init__(self, tokens, atoms: Mapping[str, object], const: Callable[[int], object],
                 check_divisor: Callable[[object], None]):
        self.tokens = tokens
        self.pos = 0
        self.atoms = atoms
        self.const = const
        self.check_divisor = check_divisor
        self.depth = 0
        self.work = 0

    def nest(self, parse):
        """Run `parse` one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        v = parse()
        self.depth -= 1
        return v

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse(self):
        v, _ = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return v

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        v, (a, b) = self.term()
        if negate:
            v = -v
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs, (c, d) = self.term()
                a, b = _bounded("sum", max(a + d, c + b), b + d)
                v = v + rhs if val == "+" else v - rhs
            else:
                return v, (a, b)

    def term(self):
        v, (a, b) = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs, (c, d) = self.factor()
                if val == "*":
                    a, b = _bounded("product", a + c, b + d)
                else:
                    a, b = _bounded("quotient", a + d, b + c)
                try:
                    if val == "*":
                        v = v * rhs
                    else:
                        self.check_divisor(rhs)
                        v = v / rhs
                except ArithmeticError as exc:  # division by zero or by a non-constant
                    raise ParseError(str(exc)) from exc
            else:
                return v, (a, b)

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            v, deg = self.nest(self.factor)
            return -v, deg
        if kind == "op" and val == "+":
            self.take()
            return self.nest(self.factor)
        return self.power()

    def power(self):
        base, (a, b) = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            e = _integer(val)
            m = max(a, b, 1)
            _bounded("power", e * m)
            self.work += max(e * e - 1, 0) * m * m  # ^0 undoes no work done on its base
            return base ** e, (e * a, e * b)
        return base, (a, b)

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.const(_integer(val)), (0, 0)
        if kind == "name":
            try:
                return self.atoms[val], (1, 0)
            except KeyError:
                raise ParseError(f"unknown name {val!r}") from None
        if kind == "op" and val == "(":
            v = self.nest(self.expr)
            self.expect_op(")")
            return v
        raise ParseError(f"unexpected token {val!r}")


class _Shape:
    """The one value of a degree-only pass: its arithmetic costs nothing."""

    def _same(self, *_):
        return self

    __neg__ = __add__ = __sub__ = __mul__ = __truediv__ = __pow__ = _same


_SHAPE = _Shape()


def _any_divisor(_) -> None:
    """Leave every zero divisor to the values' own division."""


def parse_expr(text: str, atoms: Mapping[str, object], const: Callable[[int], object],
               check_divisor: Callable[[object], None] = _any_divisor):
    """Parse `text` over the given atom environment.

    A first pass reads only the syntax, the degrees and the work of the
    powers, so input over a bound is rejected before any arithmetic is done.
    `check_divisor` sees each divisor before its division and raises a
    `ZeroDivisionError` for one that is zero where the values' arithmetic
    cannot tell.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}")
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    shape = _Parser(tokens, dict.fromkeys(atoms, _SHAPE), lambda _: _SHAPE, _any_divisor)
    shape.parse()
    if shape.work > MAX_POWER_DEGREE**2:
        raise ParseError(f"powers whose work exceeds one power of degree {MAX_POWER_DEGREE}")
    return _Parser(tokens, atoms, const, check_divisor).parse()


def parse_over_qx(text: str, atoms: Mapping[str, object] | None = None,
                  check_divisor: Callable[[object], None] = _any_divisor):
    """Parse `text` with `x` and the integer literals in Q[x], plus the given atoms.

    The value is a `UPoly`, a `RatFunc` or a value of the atoms' own type.
    """
    return parse_expr(text, {"x": UPoly.x(), **(atoms or {})}, UPoly.const, check_divisor)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function in the variable x."""
    return RatFunc.coerce(parse_over_qx(text))
