"""Exact arithmetic in the differential field Q(x) with derivation x' = 1.

A univariate polynomial over Q is stored as one tuple of integer coefficients
over one positive integer denominator, so its arithmetic runs on bare ints
and builds no `Fraction`; coefficients come back as `Fraction`s only at the
public boundary (`coeffs`, `lc`, indexing).  Rational functions are
kept in canonical form (monic denominator, coprime numerator and denominator)
so that equality is structural.  Hermite reduction and Yun squarefree
decomposition make in-field integrability decidable without factoring
denominators into irreducibles.

Every reduction to lowest terms is one `UPoly.cofactors` call, which returns
the monic gcd together with both quotients.  It runs the heuristic integer gcd
(GCDHEU: evaluate at one integer xi, one `math.gcd`, read the gcd off the
xi-adic digits), and accepts its answer only on two exact divisions that also
give the cofactors; with xi >= 2 min(|a|, |b|) + 2 an accepted answer is the
gcd (the proof is at `_heu_gcd`).  Above `_HEU_GCD_BITS` per evaluated
integer, where the quadratic `math.gcd` costs more than it saves, and when no
point certifies a gcd, the mod-p coprimality certificate and the primitive PRS
answer instead.

Two fractions over one denominator d add with a single gcd, that of the
summed numerator and d: Henrici's gcd of the two denominators would be d
itself.

Inside a `memo_scope` the sums, products and derivatives of `RatFunc`s, and
the gcds of `UPoly.cofactors`, are memoized: each distinct one is computed
once and read back after that.  The memo lives in a context variable, so it is
private to the thread (and the context) that opened the scope, and it is
dropped when the scope exits.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd as _igcd, isqrt, lcm
from typing import Iterable

from .errors import PrintLimitExceeded, ZeroDenominator, ZeroPolynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Results of RatFunc +, * and derive and of UPoly.cofactors in the open memo
# scope; None outside one.
_MEMO: ContextVar[dict | None] = ContextVar("diffgal_ratfunc_memo", default=None)


@contextmanager
def memo_scope():
    """Memoize `RatFunc` sums, products and derivatives, and `UPoly` gcds with
    their cofactors, until the block exits.

    Inside an open scope this opens none and shares the open one.  Usable as a
    decorator too: each call of the decorated function enters the scope.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot coerce {type(v).__name__} into Q")


def _make(ints: list[int], denom: int) -> "UPoly":
    """The canonical UPoly of ints/denom (denom nonzero)."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        denom = 1
    else:
        if denom < 0:
            ints = [-v for v in ints]
            denom = -denom
        g = _igcd(denom, *ints)
        if g != 1:
            ints = [v // g for v in ints]
            denom //= g
    obj = object.__new__(UPoly)
    obj.ints = tuple(ints)
    obj.denom = denom
    return obj


def _conv(a, b) -> list[int]:
    """Product of two nonempty integer coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return out


class UPoly:
    """Dense univariate polynomial over Q, coefficient i multiplying x^i.

    Stored as `ints` (a tuple of ints) over `denom` (a positive int): the
    coefficient of x^i is ints[i] / denom.  The form is canonical: `ints` has
    no trailing zeros, and gcd(denom, *ints) == 1 (the zero polynomial is
    `()` over 1).  Equal polynomials have equal fields, so `==` and `hash`
    are structural.
    """

    __slots__ = ("ints", "denom")

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [_as_fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        p = _make([c.numerator * (d // c.denominator) for c in cs], d)
        self.ints, self.denom = p.ints, p.denom

    @classmethod
    def zero(cls) -> "UPoly":
        return _make([], 1)

    @classmethod
    def one(cls) -> "UPoly":
        return _make([1], 1)

    @classmethod
    def x(cls) -> "UPoly":
        return _make([0, 1], 1)

    @classmethod
    def const(cls, c) -> "UPoly":
        if type(c) is int:
            return _make([c], 1)
        c = _as_fraction(c)
        return _make([c.numerator], c.denominator)

    @classmethod
    def monomial(cls, c, k: int) -> "UPoly":
        c = _as_fraction(c)
        return _make([0] * k + [c.numerator], c.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self.denom
        return tuple(Fraction(v, d) for v in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            return _ZERO
        return Fraction(self.ints[-1], self.denom)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.denom)
        return _ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.ints == other.ints and self.denom == other.denom
        if isinstance(other, (int, Fraction)):
            return (self.ints == ((other.numerator,) if other else ())
                    and self.denom == other.denominator)
        return NotImplemented

    def __hash__(self):
        # A constant hashes as its Fraction value, which it equals.
        if len(self.ints) <= 1:
            return hash(self.lc)
        return hash((self.ints, self.denom))

    def __neg__(self) -> "UPoly":
        obj = object.__new__(UPoly)
        obj.ints = tuple(-v for v in self.ints)
        obj.denom = self.denom
        return obj

    def __add__(self, other) -> "UPoly":
        if not isinstance(other, UPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UPoly.const(other)
        a, da = self.ints, self.denom
        b, db = other.ints, other.denom
        if not b:
            return self
        if not a:
            return other
        if da != db:
            g = _igcd(da, db)
            sa, sb = db // g, da // g
            a = [v * sa for v in a]
            b = [v * sb for v in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return _make(out, da)

    __radd__ = __add__

    def __sub__(self, other) -> "UPoly":
        if not isinstance(other, (int, Fraction, UPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UPoly":
        return (-self) + other

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            if not self.ints or not other.ints:
                return _make([], 1)
            return _make(_conv(self.ints, other.ints), self.denom * other.denom)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n = other.numerator
        return _make([v * n for v in self.ints], self.denom * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = [1]
        base = self.ints
        d = self.denom**k
        while k:
            if k & 1:
                out = _conv(out, base)
            k >>= 1
            if k:
                base = _conv(base, base)
        return _make(out, d)

    def __truediv__(self, other) -> "UPoly | RatFunc":
        """The quotient in Q(x): a polynomial when `other` is a nonzero constant,
        else one `RatFunc`."""
        if isinstance(other, (int, Fraction)):
            other = UPoly.const(other)
        elif not isinstance(other, UPoly):
            return NotImplemented
        b = other.ints
        if not b:
            raise ZeroDivisionError("division by the zero rational function")
        if len(b) == 1:
            return _make([v * other.denom for v in self.ints], self.denom * b[0])
        return RatFunc(self, other)

    def __divmod__(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.ints) < len(other.ints):
            return _make([], 1), self
        # lc(B)^k A = q B + r over Z, with self = A/da and other = B/db.
        b = other.ints
        q, r, k = _int_pdiv(self.ints, b)
        den = self.denom * b[-1] ** k
        db = other.denom
        return _make([v * db for v in q], den), _make(r, den)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def monic(self) -> "UPoly":
        a = self.ints
        if not a or a[-1] == self.denom:
            return self
        return _make(list(a), a[-1])

    def derivative(self) -> "UPoly":
        a = self.ints
        return _make([i * a[i] for i in range(1, len(a))], self.denom)

    def integral(self) -> "UPoly":
        """Antiderivative with zero constant term."""
        a = self.ints
        m = lcm(*range(1, len(a) + 1))
        return _make([0] + [v * (m // i) for i, v in enumerate(a, 1)], self.denom * m)

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd: the first field of `cofactors`, and gcd(p, 0) = p.monic().

        The heuristic integer gcd answers below the cap `_HEU_GCD_BITS`, and
        only what divides both primitive parts exactly at a point
        xi >= 2 min(|a|, |b|) + 2, which is then the gcd (`_heu_gcd` has the
        proof); above the cap, or when no point certifies, the mod-p
        coprimality certificate and the primitive PRS answer.
        """
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        return self.cofactors(other)[0]

    def cofactors(self, other: "UPoly") -> tuple["UPoly", "UPoly", "UPoly"]:
        """(g, self/g, other/g) with g the monic gcd of two nonzero polynomials.

        The work runs on the primitive parts a, b over Z: the heuristic gcd
        (`_heu_gcd`) when its evaluated integers stay under `_HEU_GCD_BITS`,
        else, or when none of its points certifies a gcd, the mod-p
        coprimality certificate and then the primitive PRS.  Either way the
        gcd G (primitive, positive leading coefficient) divides a and b
        exactly over Z, and those quotients give the cofactors.  Inside a
        `memo_scope` each distinct pair is computed once.
        """
        if len(self.ints) == 1 or len(other.ints) == 1:
            return _make([1], 1), self, other
        memo = _MEMO.get()
        if memo is None:
            return self._cofactors(other)
        key = "g", self.ints, self.denom, other.ints, other.denom
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._cofactors(other)
        return out

    def _cofactors(self, other: "UPoly") -> tuple["UPoly", "UPoly", "UPoly"]:
        ca, cb = _igcd(*self.ints), _igcd(*other.ints)
        a = [v // ca for v in self.ints]
        b = [v // cb for v in other.ints]
        for xi in _heu_points(a, b):
            found = _heu_gcd(a, b, xi)
            if found is not None:
                break
        else:
            g = _prs_gcd(a, b)
            found = g, _int_exact_quo(a, g), _int_exact_quo(b, g)
        g, qa, qb = found
        if len(g) == 1:
            return _make([1], 1), self, other
        # self = ca*a/da = (ca*lc(G)*qa/da) * (G/lc(G)), and likewise for other.
        lg = g[-1]
        sa, sb = ca * lg, cb * lg
        return (_make(g, lg), _make([v * sa for v in qa], self.denom),
                _make([v * sb for v in qb], other.denom))

    def xgcd(self, other: "UPoly") -> tuple["UPoly", "UPoly", "UPoly"]:
        """Extended Euclid: (g, s, t) monic g with s*self + t*other = g."""
        a, b = self, other
        sa, sb = UPoly.one(), UPoly.zero()
        ta, tb = UPoly.zero(), UPoly.one()
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            sa, sb = sb, sa - q * sb
            ta, tb = tb, ta - q * tb
        if a.is_zero():
            return a, sa, ta
        inv = 1 / a.lc
        return a * inv, sa * inv, ta * inv

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"UPoly({poly_str(self)})"


def _primitive_int_list(ints) -> list[int]:
    """Content-free coefficient list of nonzero integer coefficients."""
    g = _igcd(*ints)
    return [v // g for v in ints] if g != 1 else list(ints)


# `_heu_points` offers no point at which an evaluated integer would exceed
# this many bits, so `cofactors` runs the PRS there: `math.gcd` is quadratic
# in the size, while the mod-p certificate that proves most such pairs coprime
# is not.  Measured on a 2-core x86 host (Python 3.11): full U(18) `construct`
# (gcds with common factors near 2^15 bits) took 25.7 s at a cap of 2^15 and
# 1.4-1.6 s from 2^16 up; `integrate --field radical:1000` on
# (r^2+1)/(x*r-2) took 10-12 s at every cap from 2^13 to 2^19 and ran past
# 90 s at 2^20.  2^17 sits one doubling above the first and three below the
# second.
_HEU_GCD_BITS = 1 << 17
# Evaluation points `cofactors` tries with `_heu_gcd` before the PRS.
_HEU_GCD_POINTS = 6


def _heu_points(a: list[int], b: list[int]):
    """The evaluation points of `_heu_gcd` for a and b, smallest first.

    The first is 2M + 2 with M = min(|a|, |b|) in the max norm, and each next
    one is larger by about its own fourth root as a factor (the schedule of
    sympy's dup_zz_heu_gcd).  There are at most `_HEU_GCD_POINTS`, and none at
    which an evaluated integer would exceed `_HEU_GCD_BITS`.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    size = max(len(a), len(b))
    for _ in range(_HEU_GCD_POINTS):
        if size * xi.bit_length() > _HEU_GCD_BITS:
            return
        yield xi
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _heu_gcd(a: list[int], b: list[int], xi: int):
    """(G, a/G, b/G) with G the primitive gcd of a and b over Z, or None.

    a and b are primitive and not constant, and xi >= 2M + 2 with
    M = min(|a|, |b|) in the max norm.  This is one point of the heuristic
    gcd of Char, Geddes and Gonnet (GCDHEU, J. Symbolic Comput. 7, 1989):
    take gamma = gcd(a(xi), b(xi)) in C, read H off the symmetric xi-adic
    digits of gamma (each in (-xi/2, xi/2]), and let G = pp(H), whose leading
    coefficient is positive like gamma's.  G is returned only when it divides
    both a and b over Z, with the two quotients; else None.

    A returned G is the gcd g (primitive, positive leading coefficient); no
    step is probabilistic.  Every root of a polynomial lies strictly inside
    its Cauchy bound, here 1 + M <= xi/2 for a common root, so a(xi) and b(xi)
    are not both 0 and gamma != 0.  As G divides a and b it divides g:
    g = G*k with k in Z[x].  g(xi) divides gamma = cont(H)*G(xi), and
    G(xi) != 0, so k(xi) divides cont(H), which divides every digit of H:
    |k(xi)| <= xi/2.  Every root of k is a common root of a and b, so a k of
    degree d >= 1 has |k(xi)| > (xi - xi/2)^d >= xi/2.  Hence k is a
    constant, and k = 1 as G and g are both primitive with positive leading
    coefficients.  A constant H (G = 1, which divides everything) is the
    case k = g: the gcd is 1.
    """
    gamma = _igcd(_int_eval(a, xi), _int_eval(b, xi))
    h = []
    half = xi >> 1
    while gamma:
        d = gamma % xi
        if d > half:
            d -= xi
        h.append(d)
        gamma = (gamma - d) // xi
    if len(h) == 1:
        return [1], a, b
    h = _primitive_int_list(h)
    qa = _int_exact_quo(a, h)
    if qa is None:
        return None
    qb = _int_exact_quo(b, h)
    if qb is None:
        return None
    return h, qa, qb


def _int_eval(a: list[int], v: int) -> int:
    """a(v) for an integer v, by Horner."""
    acc = 0
    for c in reversed(a):
        acc = acc * v + c
    return acc


def _int_exact_quo(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z when b divides a there, else None (b is not zero)."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            return None
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return q if not any(r[:db]) else None


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of primitive non-constant a and b over Z, positive
    leading coefficient: 1 at once when the mod-p certificate proves them
    coprime, else the primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    if _coprime_mod_p(a, b):
        return [1]
    while True:
        r = _int_pdiv(a, b)[1]
        if not r:
            return b if b[-1] > 0 else [-v for v in b]
        a, b = b, _primitive_int_list(r)


_GCD_PRIME = (1 << 61) - 1


def _coprime_mod_p(a: list[int], b: list[int], p: int = _GCD_PRIME) -> bool:
    """True only if gcd(a, b) = 1 over Q (one-sided modular certificate)."""
    if a[-1] % p == 0 or b[-1] % p == 0:
        return False
    a = [v % p for v in a]
    b = [v % p for v in b]
    while True:
        if not b:
            return False  # inconclusive or genuinely non-coprime
        if len(b) == 1:
            return True
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        # a <- a mod b, in place; a and b have no trailing zeros.
        while len(a) > db:
            lead = a.pop() * inv % p
            if lead:
                off = len(a) - db
                for j in range(db):
                    a[off + j] = (a[off + j] - lead * b[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a


def _int_pdiv(a, b) -> tuple[list[int], list[int], int]:
    """Pseudo-division over Z: lead(b)^k * a = q*b + r with deg r < deg b."""
    db = len(b) - 1
    d = b[-1]
    r = list(a)
    steps = []
    while r and len(r) - 1 >= db:
        lead = r[-1]
        off = len(r) - 1 - db
        steps.append((off, lead))
        r = [c * d for c in r[:-1]]
        for j in range(db):
            r[off + j] -= lead * b[j]
        while r and r[-1] == 0:
            r.pop()
    # Step i's lead is scaled by d once per later step: times d^(k-1-i).
    q = [0] * max(1, len(a) - db)
    scale = 1
    for off, lead in reversed(steps):
        q[off] = lead * scale
        scale *= d
    return q, r, len(steps)


def poly_str(p: UPoly, var: str = "x") -> str:
    """p as text, each coefficient in lowest terms straight from `ints`/`denom`.

    Raises `PrintLimitExceeded` for an integer longer than the interpreter's
    int-to-str digit limit."""
    ints, d = p.ints, p.denom
    if not ints:
        return "0"
    parts: list[str] = []
    try:
        for k in range(len(ints) - 1, -1, -1):
            c = ints[k]
            if not c:
                continue
            a = abs(c)
            if k and a == d:
                body = var if k == 1 else f"{var}^{k}"
            else:
                g = _igcd(a, d)
                body = str(a // g) if g == d else f"{a // g}/{d // g}"
                if k:
                    body += "*" + (var if k == 1 else f"{var}^{k}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
    except ValueError:
        longest = max(max(abs(c), d) // _igcd(c, d) for c in ints if c)
        raise PrintLimitExceeded(
            f"a coefficient of the answer has {_decimal_digits(longest)} digits, more than "
            f"the {sys.get_int_max_str_digits()} that can be printed") from None
    return "".join(parts)


def _decimal_digits(n: int) -> int:
    """Decimal digits of n > 0, found without converting n to text."""
    k = (n.bit_length() - 1) * 1233 >> 12  # 10^k <= n
    while n >= 10 ** (k + 1):
        k += 1
    return k + 1


class RatFunc:
    """Element of Q(x) in canonical form: monic denominator, coprime parts."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly = UPoly.one()):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            self.num = UPoly.zero()
            self.den = UPoly.one()
            return
        if len(den.ints) == 1:  # a constant is coprime to everything: no gcd
            if den.ints[0] != den.denom:
                num = num * (1 / den.lc)
                den = UPoly.one()
            self.num = num
            self.den = den
            return
        _, num, den = num.cofactors(den)
        lc = den.lc
        if lc != 1:
            inv = 1 / lc
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: UPoly, den: UPoly) -> "RatFunc":
        """Skip normalization for values already in canonical form."""
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def from_int(cls, n: int) -> "RatFunc":
        return cls(UPoly.const(n))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RatFunc":
        return cls(UPoly.const(q))

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(UPoly.x())

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(UPoly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(UPoly.one())

    @staticmethod
    def coerce(v) -> "RatFunc":
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, UPoly):
            return RatFunc(v)
        if isinstance(v, (int, Fraction)):
            return RatFunc(UPoly.const(v))
        raise TypeError(f"cannot coerce {type(v).__name__} into Q(x)")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, UPoly)):
            other = RatFunc.coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # A polynomial hashes as its UPoly, so a constant hashes as its Fraction.
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def _memo_key(self, tag: str, other: "RatFunc | None" = None) -> tuple:
        # A canonical denominator is monic, so its `ints` fix its `denom`.
        n, d = self.num, self.den
        if other is None:
            return tag, n.ints, n.denom, d.ints
        m = other.num
        return tag, n.ints, n.denom, d.ints, m.ints, m.denom, other.den.ints

    def __add__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        memo = _MEMO.get()
        if memo is None:
            return self._add(other)
        key = self._memo_key("+", other)
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._add(other)
        return out

    def _add(self, other: "RatFunc") -> "RatFunc":
        # Henrici: with both operands reduced, only input-sized gcds are needed.
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1.degree == 0 and d2.degree == 0:
            s = n1 + n2
            return RatFunc._raw(s, UPoly.one()) if not s.is_zero() else RatFunc._raw(UPoly.zero(), UPoly.one())
        if d1 == d2:  # gcd(d1, d2) = d1: only the sum shares factors with it
            t = n1 + n2
            if t.is_zero():
                return RatFunc._raw(UPoly.zero(), UPoly.one())
            _, t, d = t.cofactors(d1)
            return RatFunc._raw(t, d)
        g, d1r, d2r = d1.cofactors(d2)
        t = n1 * d2r + n2 * d1r
        if t.is_zero():
            return RatFunc._raw(UPoly.zero(), UPoly.one())
        if g.degree == 0:
            return RatFunc._raw(t, d1 * d2)
        _, t, g = t.cofactors(g)
        return RatFunc._raw(t, d1r * d2r * g)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc._raw(UPoly.zero(), UPoly.one())
        memo = _MEMO.get()
        if memo is None:
            return self._mul(other)
        key = self._memo_key("*", other)
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._mul(other)
        return out

    def _mul(self, other: "RatFunc") -> "RatFunc":
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d2.degree > 0:
            _, n1, d2 = n1.cofactors(d2)
        if d1.degree > 0:
            _, n2, d1 = n2.cofactors(d1)
        return RatFunc._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inverse() ** (-k)
        # reduced stays reduced under powers
        return RatFunc._raw(self.num ** k, self.den ** k) if k else RatFunc.one()

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        lc = self.num.lc
        if lc == 1:
            return RatFunc._raw(self.den, self.num)
        inv = 1 / lc
        return RatFunc._raw(self.den * inv, self.num * inv)

    def derive(self) -> "RatFunc":
        """Derivative under x' = 1 (quotient rule)."""
        memo = _MEMO.get()
        if memo is None:
            return self._derive()
        key = self._memo_key("d")
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._derive()
        return out

    def _derive(self) -> "RatFunc":
        n, d = self.num, self.den
        if d.degree == 0:
            return RatFunc._raw(n.derivative(), d)
        g, dr, ddr = d.cofactors(d.derivative())
        num = n.derivative() * dr - n * ddr
        if g.degree == 0:
            if num.is_zero():
                return RatFunc._raw(UPoly.zero(), UPoly.one())
            return RatFunc._raw(num, d * d)
        return RatFunc(num, d * dr)

    def split(self) -> tuple[UPoly, "RatFunc"]:
        """Polynomial part and proper part: self = P + p/q with deg p < deg q."""
        if self.den.degree == 0:  # a canonical constant denominator is 1
            return self.num, RatFunc.zero()
        q, r = divmod(self.num, self.den)
        return q, RatFunc(r, self.den)

    def __str__(self) -> str:
        if self.den.degree == 0:
            return poly_str(self.num)
        ns = poly_str(self.num)
        if self.num.degree > 0 or self.num.lc < 0:
            ns = f"({ns})"
        return f"{ns}/({poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def derive_n(f: RatFunc, n: int) -> RatFunc:
    """n-fold derivative; derive_n(f, 0) = f."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    for _ in range(n):
        f = f.derive()
    return f


def squarefree_part(p: UPoly) -> list[tuple[UPoly, int]]:
    """Yun decomposition: monic pairwise-coprime squarefree factors with multiplicity.

    The product of factor**multiplicity equals p up to a rational constant.
    """
    if p.is_zero():
        raise ZeroPolynomial("squarefree decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    g, c, d = p.cofactors(p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    out: list[tuple[UPoly, int]] = []
    d = d - c.derivative()
    i = 1
    while c.degree > 0:
        if d.is_zero():  # c is the factor of multiplicity i, the last one
            out.append((c.monic(), i))
            break
        a, c, d = c.cofactors(d)
        if a.degree > 0:
            out.append((a, i))
        d = d - c.derivative()
        i += 1
    return out


def _diophantine(a: UPoly, b: UPoly, c: UPoly) -> tuple[UPoly, UPoly]:
    """Solve s*a + t*b = c with deg s < deg b, assuming gcd(a, b) = 1."""
    g, sa, _ = a.xgcd(b)
    if g.degree != 0:
        raise ArithmeticError("diophantine solve needs coprime moduli")
    s = (sa * c) % b
    t = (c - s * a).exact_div(b)
    return s, t


def hermite_reduce(g: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Hermite reduction: g = h' + r with r proper over a squarefree denominator
    plus a polynomial part.

    Returns (h, r).  No denominator factorization beyond gcds is performed.
    """
    h, poly, proper = _hermite_parts(g)
    # proper is in lowest terms, so poly + proper over its denominator is too.
    return h, RatFunc._raw(poly * proper.den + proper.num, proper.den)


def _hermite_parts(g: RatFunc) -> tuple[RatFunc, UPoly, RatFunc]:
    """(h, P, r) with g = h' + P + r, P a polynomial and r proper over a
    squarefree denominator: `hermite_reduce` with its remainder kept split."""
    polypart, proper = g.split()
    a = proper.num
    d = proper.den
    h = RatFunc.zero()
    dm, ds = UPoly.one(), d
    if d.degree > 0:
        dm, ds, _ = d.cofactors(d.derivative())
    while dm.degree > 0:
        dm2, dms, _ = dm.cofactors(dm.derivative())
        # -(D* * Dm') / Dm is a polynomial coprime to Dm*.
        t = -(ds * dm.derivative()).exact_div(dm)
        b, c = _diophantine(t, dms, a)
        a = c - b.derivative() * ds.exact_div(dms)
        h = h + RatFunc(b, dm)
        dm = dm2
    polyq, polyr = divmod(a, ds)
    return h, polypart + polyq, RatFunc(polyr, ds)


def resultant(f: UPoly, g: UPoly) -> Fraction:
    """Resultant of two polynomials over Q via the Euclidean recurrence."""
    if f.is_zero() or g.is_zero():
        return _ZERO
    res = _ONE
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return _ZERO if a.degree > 0 else res
        res *= (-1) ** (a.degree * b.degree) * b.lc ** (a.degree - r.degree)
        a, b = b, r
    return res * b.lc ** a.degree
