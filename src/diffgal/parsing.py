"""Recursive-descent parser for the shared expression grammar.

Grammar: integer literals, named atoms, `+ - * / ^`, parentheses.  `^` takes a
nonnegative integer exponent.  The same parser serves rational functions
(atom `x`), ideal generators (atoms `Z_i_j`), operators (atom `D`) and tower
expressions (generator names), because all value types implement the ring
operators.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from .errors import ParseError

# Open parentheses plus pending unary signs; deeper input is a ParseError
# rather than a RecursionError.
MAX_NESTING = 100

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


class _Parser:
    def __init__(self, tokens, atoms: Mapping[str, object], const: Callable[[int], object]):
        self.tokens = tokens
        self.pos = 0
        self.atoms = atoms
        self.const = const
        self.depth = 0

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
        v = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return v

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        v = self.term()
        if negate:
            v = -v
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                try:
                    v = v * rhs if val == "*" else v / rhs
                except ZeroDivisionError as exc:
                    raise ParseError(str(exc)) from exc
            else:
                return v

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.nest(self.factor)
        if kind == "op" and val == "+":
            self.take()
            return self.nest(self.factor)
        return self.power()

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            return base ** int(val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.const(int(val))
        if kind == "name":
            try:
                return self.atoms[val]
            except KeyError:
                raise ParseError(f"unknown name {val!r}") from None
        if kind == "op" and val == "(":
            v = self.nest(self.expr)
            self.expect_op(")")
            return v
        raise ParseError(f"unexpected token {val!r}")


def parse_expr(text: str, atoms: Mapping[str, object], const: Callable[[int], object]):
    """Parse `text` over the given atom environment."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}")
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, atoms, const).parse()


def parse_ratfunc(text: str):
    """Parse a rational function in the variable x."""
    from .ratfield import RatFunc

    return parse_expr(text, {"x": RatFunc.x()}, RatFunc.from_int)
