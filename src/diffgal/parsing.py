"""Parser for the shared expression grammar: one compile pass, then one loop.

Grammar: integer literals, named atoms, `+ - * / ^`, parentheses.  `^` takes a
nonnegative integer exponent.  The same parser serves ideal generators (atoms
`Z_i_j`) and, through `parse_over_qx`, rational functions (atom `x`),
operators (atom `D`) and tower expressions (generator names), because all
value types implement the ring operators.

A text is read in two steps.  A regex scan splits it into tokens, and one
recursive descent over them checks the syntax, the nesting, the degree of
every sum, product, quotient and power and the work of all powers, and emits
a postfix program.  Only a text that passes every bound is computed, by one
loop over that program.

`parse_over_qx` computes each value in the smallest ring that holds it: Q[x]
values are `UPoly` throughout, and a run of literals such as `3/16*x^5` is
folded into one monomial when the text is compiled.  A polynomial becomes
one `RatFunc` at a division by a non-constant, and a value enters an atom's
ring (operators, fractions over a tower ring) only where it meets that atom.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping

from .errors import ParseError
from .ratfield import RatFunc, UPoly, _make

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

_OPS = frozenset("^*/+-()")
_SCAN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()])")
# A character that is neither whitespace nor part of any token.
_BAD = re.compile(r"[^\s\dA-Za-z_^*/+()-]")


def _scan(text: str) -> list[str]:
    """The token texts of `text`."""
    bad = _BAD.search(text)
    if bad:
        # Tokens are read up to the last one before the bad character.
        end = len(text[:bad.start()].rstrip())
        raise ParseError(f"unexpected character {bad.group()!r} at offset {end}")
    return _SCAN.findall(text)


def _over(what: str) -> ParseError:
    return ParseError(f"{what} of degree above {MAX_POWER_DEGREE}")


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"integer literal of {len(digits)} digits is too long") from exc


# Instructions of the postfix program, each (opcode, argument).  _LIT pushes
# the `UPoly` monomial n/d * x^e for an argument (n, d, e) of literal ints,
# d > 0, folded from a run of literals and `x`; only `parse_over_qx`
# programs hold it.
_INT, _ATOM, _LIT, _NEG, _POW, _ADD, _SUB, _MUL, _DIV = range(9)

# The value of `x` in `parse_over_qx`: the compiler reads it as a _LIT, so
# no program pushes it.
_X = object()


class _Compiler:
    """One recursive descent over the tokens.  Each rule appends its postfix
    instructions to `program` and returns (a, b), bounds on the degrees of a
    numerator and a denominator of its value in the atoms; `work` sums the
    work of the powers.  Where `x` is bound to _X, integer literals and `x`
    are _LIT instructions."""

    def __init__(self, tokens: list[str], atoms: Mapping[str, object]):
        self.tokens = tokens + [None]  # None ends the input
        self.pos = 0
        self.atoms = atoms
        self.fold = atoms.get("x") is _X
        self.depth = 0
        self.work = 0
        self.program: list[tuple[int, object]] = []

    def nest(self, rule):
        """Run `rule` one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        deg = rule()
        self.depth -= 1
        return deg

    def compile(self) -> list[tuple[int, object]]:
        self.expr()
        if self.tokens[self.pos] is not None:
            raise ParseError(f"trailing input near {self.tokens[self.pos]!r}")
        if self.work > MAX_POWER_DEGREE**2:
            raise ParseError(f"powers whose work exceeds one power of degree {MAX_POWER_DEGREE}")
        return self.program

    def expr(self):
        tok = self.tokens[self.pos]
        negate = tok == "-"
        if negate or tok == "+":
            self.pos += 1
        a, b = self.term()
        if negate:
            self.program.append((_NEG, None))
        while True:
            tok = self.tokens[self.pos]
            if tok != "+" and tok != "-":
                return a, b
            self.pos += 1
            c, d = self.term()
            a, b = max(a + d, c + b), b + d
            if a > MAX_POWER_DEGREE or b > MAX_POWER_DEGREE:
                raise _over("sum")
            self.program.append((_ADD if tok == "+" else _SUB, None))

    def product(self, op: int) -> None:
        """Append _MUL or _DIV; on two literal operands, n/d and n/d*x^e stay
        one _LIT instruction."""
        prog = self.program
        if prog[-1][0] == _LIT and prog[-2][0] == _LIT:  # each operand is one instruction
            (n, d, e), (m, c, k) = prog[-2][1], prog[-1][1]
            if op == _DIV and m and (d, e, c, k) == (1, 0, 1, 0):
                prog[-2:] = [(_LIT, (n, m, 0))]
                return
            if op == _MUL and e == 0 and (m, c) == (1, 1):
                prog[-2:] = [(_LIT, (n, d, k))]
                return
        prog.append((op, None))

    def term(self):
        a, b = self.factor()
        while True:
            tok = self.tokens[self.pos]
            if tok == "*":
                self.pos += 1
                c, d = self.factor()
                a, b = a + c, b + d
                if a > MAX_POWER_DEGREE or b > MAX_POWER_DEGREE:
                    raise _over("product")
                self.product(_MUL)
            elif tok == "/":
                self.pos += 1
                c, d = self.factor()
                a, b = a + d, b + c
                if a > MAX_POWER_DEGREE or b > MAX_POWER_DEGREE:
                    raise _over("quotient")
                self.product(_DIV)
            else:
                return a, b

    def factor(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "-":
            deg = self.nest(self.factor)
            self.program.append((_NEG, None))
            return deg
        if tok == "+":
            return self.nest(self.factor)
        # the atom
        if tok == "(":
            a, b = self.nest(self.expr)
            tok = self.tokens[self.pos]
            self.pos += 1
            if tok != ")":
                raise ParseError(f"expected ')', found {tok!r}")
        elif tok is None or tok in _OPS:
            raise ParseError(f"unexpected token {tok!r}")
        elif tok.isdecimal():
            n = _integer(tok)
            self.program.append((_LIT, (n, 1, 0)) if self.fold else (_INT, n))
            a = b = 0
        elif tok not in self.atoms:
            raise ParseError(f"unknown name {tok!r}")
        else:
            self.program.append((_LIT, (1, 1, 1)) if self.atoms[tok] is _X else (_ATOM, tok))
            a, b = 1, 0
        # its power
        if self.tokens[self.pos] != "^":
            return a, b
        tok = self.tokens[self.pos + 1]
        self.pos += 2
        if tok is None or not tok.isdecimal():
            raise ParseError("exponent must be a nonnegative integer")
        e = _integer(tok)
        m = max(a, b, 1)
        if e * m > MAX_POWER_DEGREE:
            raise _over("power")
        self.work += max(e * e - 1, 0) * m * m  # ^0 undoes no work done on its base
        if self.program[-1] == (_LIT, (1, 1, 1)):  # x^e
            self.program[-1] = (_LIT, (1, 1, e))
        else:
            self.program.append((_POW, e))
        return e * a, e * b


def _run(program, atoms: Mapping[str, object], const: Callable[[int], object],
         check_divisor: Callable[[object], None]):
    """The value of a compiled program: one loop over its instructions."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        if op == _LIT:
            n, d, e = arg
            push(_make([0] * e + [n], d))
        elif op == _INT:
            push(const(arg))
        elif op == _ATOM:
            push(atoms[arg])
        elif op == _POW:
            stack[-1] = stack[-1] ** arg
        elif op == _NEG:
            stack[-1] = -stack[-1]
        else:
            b = pop()
            a = stack[-1]
            if op == _ADD:
                stack[-1] = a + b
            elif op == _SUB:
                stack[-1] = a - b
            else:
                try:
                    if op == _MUL:
                        stack[-1] = a * b
                    else:
                        check_divisor(b)
                        stack[-1] = a / b
                except ArithmeticError as exc:  # division by zero or by a non-constant
                    raise ParseError(str(exc)) from exc
    return stack[0]


def _any_divisor(_) -> None:
    """Leave every zero divisor to the values' own division."""


def parse_expr(text: str, atoms: Mapping[str, object], const: Callable[[int], object],
               check_divisor: Callable[[object], None] = _any_divisor):
    """Parse `text` over the given atom environment.

    The compile pass reads the syntax, the degrees and the work of the
    powers, so input over a bound is rejected before any arithmetic is done.
    `check_divisor` sees each divisor before its division, except a nonzero
    constant folded from literals, and raises a `ZeroDivisionError` for one
    that is zero where the values' arithmetic cannot tell.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}")
    tokens = _scan(text)
    if not tokens:
        raise ParseError("empty expression")
    program = _Compiler(tokens, atoms).compile()
    return _run(program, atoms, const, check_divisor)


def parse_over_qx(text: str, atoms: Mapping[str, object] | None = None,
                  check_divisor: Callable[[object], None] = _any_divisor):
    """Parse `text` with `x` and the integer literals in Q[x], plus the given atoms.

    The value is a `UPoly`, a `RatFunc` or a value of the atoms' own type.
    """
    return parse_expr(text, {"x": _X, **(atoms or {})}, UPoly.const, check_divisor)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function in the variable x."""
    return RatFunc.coerce(parse_over_qx(text))
