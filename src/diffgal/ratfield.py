"""Exact arithmetic in the differential field Q(x) with derivation x' = 1.

Univariate polynomials are dense coefficient tuples over `fractions.Fraction`;
rational functions are kept in canonical form (monic denominator, coprime
numerator and denominator) so that equality is structural.  Hermite reduction
and Yun squarefree decomposition make in-field integrability decidable without
factoring denominators into irreducibles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd, lcm
from typing import Iterable

from .errors import ZeroDenominator, ZeroPolynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot coerce {v!r} into Q")


class UPoly:
    """Dense univariate polynomial over Q, coefficient i multiplying x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UPoly":
        return cls((0, 1))

    @classmethod
    def const(cls, c) -> "UPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, c, k: int) -> "UPoly":
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UPoly((other,))
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "UPoly":
        return UPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            other = UPoly((other,))
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "UPoly":
        return self + (-other if isinstance(other, UPoly) else UPoly((-_as_fraction(other),)))

    def __rsub__(self, other) -> "UPoly":
        return (-self) + other

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return UPoly(tuple(a * c for a in self.coeffs))
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly(())
        # Multiply over a common denominator: raw big-int convolution, one
        # Fraction normalization per output coefficient.
        la = 1
        for c in a:
            la = lcm(la, c.denominator)
        lb = 1
        for c in b:
            lb = lcm(lb, c.denominator)
        ia = [int(c * la) for c in a]
        ib = [int(c * lb) for c in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(ia):
            if ca:
                for j, cb in enumerate(ib):
                    if cb:
                        out[i + j] += ca * cb
        d = la * lb
        return UPoly([Fraction(v, d) for v in out])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = UPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero() or self.degree < other.degree:
            return UPoly(()), self
        # Integer pseudo-division, one rational scaling at the end.
        la = 1
        for c in self.coeffs:
            la = lcm(la, c.denominator)
        lb = 1
        for c in other.coeffs:
            lb = lcm(lb, c.denominator)
        a = [int(c * la) for c in self.coeffs]
        b = [int(c * lb) for c in other.coeffs]
        q, r, k = _int_pdiv(a, b)
        dk = b[-1] ** k
        qden = la * dk
        return (UPoly([Fraction(v * lb, qden) for v in q]),
                UPoly([Fraction(v, qden) for v in r]))

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def monic(self) -> "UPoly":
        if self.is_zero() or self.lc == 1:
            return self
        inv = 1 / self.lc
        return UPoly(tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "UPoly":
        return UPoly(tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))))

    def integral(self) -> "UPoly":
        """Antiderivative with zero constant term."""
        return UPoly((_ZERO,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def eval(self, v: Fraction) -> Fraction:
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd via a primitive PRS over Z (no rational blowup).

        A single mod-p Euclid proves coprimality cheaply first: the gcd mod p
        can only be larger than the reduction of the true gcd, so degree 0
        mod p certifies gcd 1 over Q.
        """
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        a = _primitive_int(self.coeffs)
        b = _primitive_int(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1 and _coprime_mod_p(a, b):
            return UPoly.one()
        while b:
            r = _int_prem(a, b)
            if not r:
                return UPoly(b).monic()
            a, b = b, _primitive_int_list(r)
        return UPoly(a).monic()

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

    def is_squarefree(self) -> bool:
        return self.is_zero() or self.gcd(self.derivative()).degree <= 0

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"UPoly({poly_str(self)})"


def _primitive_int(coeffs: tuple[Fraction, ...]) -> list[int]:
    """Integer, content-free coefficient list of a nonzero polynomial."""
    denlcm = 1
    for c in coeffs:
        denlcm = lcm(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in coeffs]
    return _primitive_int_list(ints)


def _primitive_int_list(ints: list[int]) -> list[int]:
    g = 0
    for v in ints:
        g = _igcd(g, v)
    return [v // g for v in ints]


_GCD_PRIME = (1 << 61) - 1


def _coprime_mod_p(a: list[int], b: list[int], p: int = _GCD_PRIME) -> bool:
    """True only if gcd(a, b) = 1 over Q (one-sided modular certificate)."""
    if a[-1] % p == 0 or b[-1] % p == 0:
        return False
    am = [v % p for v in a]
    bm = [v % p for v in b]
    while True:
        while bm and bm[-1] == 0:
            bm.pop()
        if not bm:
            return False  # inconclusive or genuinely non-coprime
        if len(bm) == 1:
            return True
        db = len(bm) - 1
        inv = pow(bm[-1], p - 2, p)
        bm = [(v * inv) % p for v in bm]
        rm = am[:]
        while rm and len(rm) - 1 >= db:
            lead = rm[-1]
            off = len(rm) - 1 - db
            rm = rm[:-1]
            if lead:
                for j in range(db):
                    rm[off + j] = (rm[off + j] - lead * bm[j]) % p
            while rm and rm[-1] == 0:
                rm.pop()
        am, bm = bm, rm


def _int_pdiv(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division over Z: lead(b)^k * a = q*b + r with deg r < deg b."""
    db = len(b) - 1
    d = b[-1]
    q = [0] * max(1, len(a) - db)
    r = a[:]
    k = 0
    while r and len(r) - 1 >= db:
        lead = r[-1]
        off = len(r) - 1 - db
        q = [c * d for c in q]
        q[off] += lead
        r = [c * d for c in r[:-1]]
        for j in range(db):
            r[off + j] -= lead * b[j]
        while r and r[-1] == 0:
            r.pop()
        k += 1
    return q, r, k


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a modulo b over Z, up to a nonzero integer factor."""
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    while r and len(r) - 1 >= db:
        lead = r[-1]
        off = len(r) - 1 - db
        r = [c * lb for c in r[:-1]]
        for j in range(db):
            r[off + j] -= lead * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_str(p: UPoly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if k == 0:
            body = _frac_str(a)
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if a == 1 else f"{_frac_str(a)}*{xs}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


class RatFunc:
    """Element of Q(x) in canonical form: monic denominator, coprime parts."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly = UPoly((1,))):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            self.num = UPoly.zero()
            self.den = UPoly.one()
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
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
        return cls(UPoly((n,)))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RatFunc":
        return cls(UPoly((q,)))

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
            return RatFunc(UPoly((v,)))
        raise TypeError(f"cannot coerce {v!r} into Q(x)")

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
        return hash((self.num.coeffs, self.den.coeffs))

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        # Henrici: with both operands reduced, only input-sized gcds are needed.
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if n2.is_zero():
            return self
        if n1.is_zero():
            return other
        if d1.degree == 0 and d2.degree == 0:
            s = n1 + n2
            return RatFunc._raw(s, UPoly.one()) if not s.is_zero() else RatFunc._raw(UPoly.zero(), UPoly.one())
        g = d1.gcd(d2)
        if g.degree == 0:
            num = n1 * d2 + n2 * d1
            if num.is_zero():
                return RatFunc._raw(UPoly.zero(), UPoly.one())
            return RatFunc._raw(num, d1 * d2)
        d1r = d1.exact_div(g)
        d2r = d2.exact_div(g)
        t = n1 * d2r + n2 * d1r
        if t.is_zero():
            return RatFunc._raw(UPoly.zero(), UPoly.one())
        g2 = t.gcd(g)
        if g2.degree > 0:
            t = t.exact_div(g2)
            g = g.exact_div(g2)
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
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        g1 = n1.gcd(d2) if d2.degree > 0 else UPoly.one()
        g2 = n2.gcd(d1) if d1.degree > 0 else UPoly.one()
        if g1.degree > 0:
            n1 = n1.exact_div(g1)
            d2 = d2.exact_div(g1)
        if g2.degree > 0:
            n2 = n2.exact_div(g2)
            d1 = d1.exact_div(g2)
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
        n, d = self.num, self.den
        if d.degree == 0:
            return RatFunc._raw(n.derivative(), d)
        dd = d.derivative()
        g = d.gcd(dd)
        if g.degree == 0:
            num = n.derivative() * d - n * dd
            if num.is_zero():
                return RatFunc._raw(UPoly.zero(), UPoly.one())
            return RatFunc._raw(num, d * d)
        dr = d.exact_div(g)
        num = n.derivative() * dr - n * dd.exact_div(g)
        return RatFunc(num, d * dr)

    def split(self) -> tuple[UPoly, "RatFunc"]:
        """Polynomial part and proper part: self = P + p/q with deg p < deg q."""
        q, r = divmod(self.num, self.den)
        return q, RatFunc(r, self.den)

    def eval(self, v: Fraction) -> Fraction:
        dv = self.den.eval(v)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {v}")
        return self.num.eval(v) / dv

    def __str__(self) -> str:
        if self.den.degree == 0:
            return poly_str(self.num)
        ns = poly_str(self.num)
        if self.num.degree > 0 or self.num.lc < 0:
            ns = f"({ns})"
        return f"{ns}/({poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def derive(f: RatFunc) -> RatFunc:
    """Derivative of f in Q(x)."""
    return f.derive()


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
    dp = p.derivative()
    g = p.gcd(dp)
    if g.degree == 0:
        return [(p, 1)]
    out: list[tuple[UPoly, int]] = []
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = c.gcd(d)
        if a.degree > 0:
            out.append((a.monic(), i))
            c = c.exact_div(a)
        d = d.exact_div(a) - c.derivative()
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
    polypart, proper = g.split()
    a = proper.num
    d = proper.den
    h = RatFunc.zero()
    dm = d.gcd(d.derivative())
    ds = d.exact_div(dm)
    while dm.degree > 0:
        dm2 = dm.gcd(dm.derivative())
        dms = dm.exact_div(dm2)
        # -(D* * Dm') / Dm is a polynomial coprime to Dm*.
        t = -(ds * dm.derivative()).exact_div(dm)
        b, c = _diophantine(t, dms, a)
        a = c - b.derivative() * ds.exact_div(dms)
        h = h + RatFunc(b, dm)
        dm = dm2
    polyq, polyr = divmod(a, ds)
    rest = RatFunc((polypart + polyq) * ds + polyr, ds)
    return h, rest


@dataclass(frozen=True)
class SimplePoleObstruction:
    """Nonzero squarefree proper remainder blocking an in-field antiderivative."""

    residual: RatFunc

    def __str__(self) -> str:
        return f"no antiderivative in Q(x): residual {self.residual}"


def antiderivative_in_field(g: RatFunc) -> RatFunc | SimplePoleObstruction:
    """Return h in Q(x) with h' = g, or the obstruction to its existence.

    h exists exactly when the squarefree proper remainder of the Hermite
    reduction vanishes.
    """
    h, rest = hermite_reduce(g)
    polypart, proper = rest.split()
    if proper.is_zero():
        return h + RatFunc(polypart.integral())
    return SimplePoleObstruction(proper)


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




