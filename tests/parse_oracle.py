"""The expression parser as it stood before the one-pass compiler: a
per-token `match` loop, then the recursive descent run twice, once over
degree-only shapes and once over the values.

Kept verbatim as a reference.  `tests/test_parse_oracle.py` asserts that
`diffgal.parsing.parse_expr` gives the same value or the same `ParseError`
text on every text it generates.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from diffgal.errors import ParseError
from diffgal.parsing import MAX_NESTING, MAX_POWER_DEGREE

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
    if max(degrees) > MAX_POWER_DEGREE:
        raise ParseError(f"{what} of degree above {MAX_POWER_DEGREE}")
    return degrees


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"integer literal of {len(digits)} digits is too long") from exc


class _Parser:
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
                except ArithmeticError as exc:
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
            self.work += max(e * e - 1, 0) * m * m
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
    def _same(self, *_):
        return self

    __neg__ = __add__ = __sub__ = __mul__ = __truediv__ = __pow__ = _same


_SHAPE = _Shape()


def _any_divisor(_) -> None:
    pass


def parse_expr(text: str, atoms: Mapping[str, object], const: Callable[[int], object],
               check_divisor: Callable[[object], None] = _any_divisor):
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
