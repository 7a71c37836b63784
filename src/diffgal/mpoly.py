"""Multivariate polynomials over Q or Q(x): Buchberger, normal forms, derivations.

Polynomials are exponent-vector -> coefficient maps tied to a `PolyRing` that
fixes the variable list, the coefficient field and the monomial order.  Both
coefficient fields (`fractions.Fraction` and `RatFunc`) go through the same
code paths; Buchberger's algorithm therefore runs verbatim over Q(x).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceeded, NotNilpotent, ZeroDenominator
from .ratfield import RatFunc

Monomial = tuple[int, ...]

DEFAULT_BUDGET = 10**6


def _scalar_rational(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot coerce {v!r} into Q")


def _scalar_ratfunc(v):
    return RatFunc.coerce(v)


class PolyRing:
    """Polynomial ring context: ordered variables, coefficient field, order."""

    def __init__(self, names: Sequence[str], coeff: str = "rational", order: str = "degrevlex"):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if order not in ("lex", "degrevlex"):
            raise ValueError(f"unknown monomial order {order!r}")
        if coeff not in ("rational", "ratfunc"):
            raise ValueError(f"unknown coefficient field {coeff!r}")
        self.names = tuple(names)
        self.order = order
        self.coeff = coeff
        if coeff == "rational":
            self.scalar: Callable = _scalar_rational
            self.czero = Fraction(0)
            self.cone = Fraction(1)
        else:
            self.scalar = _scalar_ratfunc
            self.czero = RatFunc.zero()
            self.cone = RatFunc.one()
        self.nvars = len(self.names)
        self._zero_mono = (0,) * self.nvars

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.order == other.order
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.names, self.order, self.coeff))

    def __repr__(self):
        return f"PolyRing({self.names}, coeff={self.coeff}, order={self.order})"

    def key(self, mono: Monomial):
        """Sort key: larger key = larger monomial in the ring's order."""
        if self.order == "lex":
            return mono
        return (sum(mono), tuple(-e for e in reversed(mono)))

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {self._zero_mono: self.cone})

    def const(self, c) -> "MPoly":
        c = self.scalar(c)
        return MPoly(self, {self._zero_mono: c} if c else {})

    def var(self, name: str) -> "MPoly":
        i = self.names.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return MPoly(self, {mono: self.cone})

    def gens(self) -> list["MPoly"]:
        return [self.var(n) for n in self.names]

    def from_terms(self, terms: dict) -> "MPoly":
        return MPoly(self, {m: self.scalar(c) for m, c in terms.items() if c})


class MPoly:
    """Element of a `PolyRing`; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coeff(self):
        return self.terms.get(self.ring._zero_mono, self.ring.czero)

    def lm(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.key)

    def lc(self):
        return self.terms[self.lm()]

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def involves(self, i: int) -> bool:
        return any(m[i] for m in self.terms)

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        try:
            return self.ring.const(other)
        except TypeError:
            return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "MPoly":
        return MPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    if c:
                        out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return MPoly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "MPoly":
        c = self.ring.scalar(c)
        if not c:
            return self.ring.zero()
        return MPoly(self.ring, {m: v * c for m, v in self.terms.items()})

    def __truediv__(self, other) -> "MPoly":
        """Division by a nonzero constant; `MRat` holds true quotients."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.is_constant():
            raise ArithmeticError("division by a non-constant polynomial")
        c = other.constant_coeff()
        if not c:
            raise ZeroDivisionError("polynomial division by zero")
        return self.scale(self.ring.cone / c)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        inv = self.ring.cone / self.lc()
        return self.scale(inv)

    def exact_div(self, other: "MPoly") -> "MPoly | None":
        """Quotient when `other` divides exactly, else None."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self
        qterms: dict = {}
        lmo = other.lm()
        lco = other.lc()
        while rem.terms:
            lmr = rem.lm()
            m = tuple(a - b for a, b in zip(lmr, lmo))
            if any(e < 0 for e in m):
                return None
            c = rem.lc() / lco
            qterms[m] = c
            rem = rem - MPoly(self.ring, {m: c}) * other
        return MPoly(self.ring, qterms)

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            cs = str(c)
            neg = False
            if " + " in cs or " - " in cs:
                # multi-term coefficient: keep its own signs, parenthesize
                if factors:
                    cs = f"({cs})"
            else:
                if cs.startswith("-"):
                    neg = True
                    cs = cs[1:]
                if "/" in cs and factors:
                    cs = f"({cs})"
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded("reduction step budget exhausted")


def normal_form(p: MPoly, basis: Sequence[MPoly], budget: "_Budget | None" = None) -> MPoly:
    """Full remainder of p modulo the basis: no term is divisible by any LM."""
    gens = [(g.lm(), g.lc(), g) for g in basis if not g.is_zero()]
    rem = p.ring.zero()
    work = p
    while work.terms:
        lmw = work.lm()
        lcw = work.lc()
        hit = None
        for lmg, lcg, g in gens:
            if _mono_divides(lmg, lmw):
                hit = (lmg, lcg, g)
                break
        if budget is not None:
            budget.spend()
        if hit is None:
            t = MPoly(work.ring, {lmw: lcw})
            rem = rem + t
            work = work - t
        else:
            lmg, lcg, g = hit
            factor = MPoly(work.ring, {_mono_sub(lmw, lmg): lcw / lcg})
            work = work - factor * g
    return rem


def spoly(f: MPoly, g: MPoly) -> MPoly:
    lmf, lmg = f.lm(), g.lm()
    l = _mono_lcm(lmf, lmg)
    mf = MPoly(f.ring, {_mono_sub(l, lmf): f.ring.cone / f.lc()})
    mg = MPoly(g.ring, {_mono_sub(l, lmg): g.ring.cone / g.lc()})
    return mf * f - mg * g


def buchberger(gens: Iterable[MPoly], ring: PolyRing | None = None,
               budget: int = DEFAULT_BUDGET) -> list[MPoly]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    The empty list is the zero ideal and yields the empty basis.  Termination
    is guaranteed; the step budget guards against pathological inputs.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    if ring is None:
        ring = gens[0].ring
    meter = _Budget(budget)
    basis: list[MPoly] = []
    for g in gens:
        basis.append(g.monic())
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lmf, lmg = f.lm(), g.lm()
        # Buchberger's first criterion: coprime leading monomials.
        if _mono_lcm(lmf, lmg) == tuple(a + b for a, b in zip(lmf, lmg)):
            continue
        r = normal_form(spoly(f, g), basis, meter)
        if not r.is_zero():
            basis.append(r.monic())
            k = len(basis) - 1
            pairs.extend((i2, k) for i2 in range(k))
    return _reduce_basis(basis, meter)


def _reduce_basis(basis: list[MPoly], meter: _Budget) -> list[MPoly]:
    # Minimalize: drop generators whose LM is divisible by another's LM.
    basis = sorted(basis, key=lambda g: g.ring.key(g.lm()))
    minimal: list[MPoly] = []
    for g in basis:
        if not any(_mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    # Fully reduce each generator against the others.
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, meter) if others else g
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: g.ring.key(g.lm()), reverse=True)
    return reduced


def is_groebner(basis: Sequence[MPoly]) -> bool:
    """S-polynomial oracle: every S-pair reduces to zero."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(spoly(basis[i], basis[j]), basis).is_zero():
                return False
    return True


class Derivation:
    """Derivation on a `PolyRing` over Q(x): coefficient rule plus images of
    the variables, extended by Leibniz.

    Images may be `MPoly` or `MRat`.  `den` is one common denominator of the
    images and `derive(p)` returns den * p'; `den` is 1 when every image is a
    polynomial, and then nothing is scaled.
    """

    def __init__(self, ring: PolyRing, images: Sequence["MPoly | MRat"]):
        if ring.coeff != "ratfunc":
            raise ValueError("derivations are defined over Q(x) coefficients")
        if len(images) != ring.nvars:
            raise ValueError("one image per variable required")
        images = [img.num if isinstance(img, MRat) and img.is_poly() else img for img in images]
        den = ring.one()
        for img in images:
            if isinstance(img, MRat) and den.exact_div(img.den) is None:
                den = img.den if img.den.exact_div(den) is not None else den * img.den
        self.ring = ring
        self.den = den
        self._scaled = any(isinstance(img, MRat) for img in images)
        if self._scaled:
            images = [img * den if isinstance(img, MPoly) else img.num * den.exact_div(img.den)
                      for img in images]
        self.images = images

    def scaled(self, p: MPoly) -> MPoly:
        """den * p."""
        return p * self.den if self._scaled else p

    def derive(self, p: MPoly) -> MPoly:
        ring = self.ring
        out = self.scaled(MPoly(ring, {m: dc for m, c in p.terms.items() if (dc := c.derive())}))
        for m, c in p.terms.items():
            for i, e in enumerate(m):
                if e and self.images[i].terms:
                    lowered = tuple(x - 1 if k == i else x for k, x in enumerate(m))
                    out = out + MPoly(ring, {lowered: c * e}) * self.images[i]
        return out


def nilpotent_exp(x_mat: Sequence[Sequence[MPoly]]) -> list[list[MPoly]]:
    """Exact exponential of a strictly upper-triangular matrix of polynomials:
    1 + sum_{k >= 1} X^k / k!, where X^n = 0."""
    n = len(x_mat)
    if any(len(row) != n for row in x_mat):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1):
            if not x_mat[i][j].is_zero():
                raise NotNilpotent(f"entry ({i + 1},{j + 1}) must be zero")
    ring = x_mat[0][0].ring
    out = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    power = x_mat
    for k in range(1, n):
        if k > 1:
            power = _mat_mul(power, x_mat, ring)
        c = Fraction(1, factorial(k))
        for i in range(n):
            for j in range(n):
                if power[i][j].terms:
                    out[i][j] = out[i][j] + power[i][j].scale(c)
    return out


def _mat_mul(a, b, ring):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = [[ring.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = ring.zero()
            for t in range(k):
                if a[i][t].terms and b[t][j].terms:
                    s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


class MRat:
    """Fraction of two `MPoly` over Q(x) coefficients.

    Kept lightly normalized: monomial content cancelled, the denominator's
    leading coefficient scaled to 1, exact divisions collapsed and single-
    variable gcds shortened.  Full multivariate gcd is deliberately absent;
    pipeline fractions become variable-free before leaving the module.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None, normalize: bool = True):
        if den is None:
            den = num.ring.one()
        if den.is_zero():
            raise ZeroDenominator("fraction with zero denominator")
        if normalize:
            num, den = _shorten(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: MPoly) -> "MRat":
        return cls(p, p.ring.one(), normalize=False)

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_constant() and self.den.constant_coeff() == self.ring.cone

    def __eq__(self, other) -> bool:
        if not isinstance(other, MRat):
            try:
                other = MRat(self.ring.const(other))
            except TypeError:
                return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __neg__(self) -> "MRat":
        return MRat(-self.num, self.den, normalize=False)

    def _coerce(self, other) -> "MRat | None":
        if isinstance(other, MRat):
            return other
        if isinstance(other, MPoly):
            return MRat.from_poly(other)
        try:
            return MRat.from_poly(self.ring.const(other))
        except TypeError:
            return None

    def __add__(self, other) -> "MRat":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return MRat(self.num + other.num, self.den)
        return MRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "MRat":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MRat":
        return (-self) + other

    def __mul__(self, other) -> "MRat":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MRat":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return MRat(self.num * other.den, self.den * other.num)

    def inverse(self) -> "MRat":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return MRat(self.den, self.num)

    def derive(self, d: Derivation) -> "MRat":
        """Quotient rule; `d.derive` returns d.den times the derivative."""
        num, den = self.num, self.den
        dn = d.derive(num)
        if den.is_constant():
            c = den.constant_coeff()
            dc = c.derive()
            if dc:
                dn = dn.scale(c) - d.scaled(num).scale(dc)
                den = den * den.ring.const(c)
        else:
            dn = dn * den - num * d.derive(den)
            den = den * den
        return MRat(dn, d.scaled(den))

    def __str__(self) -> str:
        if self.is_poly():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"MRat({self})"


def _shorten(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    ring = num.ring
    if num.is_zero():
        return num, ring.one()
    if len(den.terms) == 1 and ring._zero_mono in den.terms:
        # A constant denominator shares no content and divides exactly.
        lcd = den.terms[ring._zero_mono]
        if lcd == ring.cone:
            return num, den
        inv = ring.cone / lcd
        return num.scale(inv), den.scale(inv)
    # Cancel common monomial content.
    nmin = [min(m[i] for m in num.terms) for i in range(ring.nvars)]
    dmin = [min(m[i] for m in den.terms) for i in range(ring.nvars)]
    common = tuple(min(a, b) for a, b in zip(nmin, dmin))
    if any(common):
        num = MPoly(ring, {_mono_sub(m, common): c for m, c in num.terms.items()})
        den = MPoly(ring, {_mono_sub(m, common): c for m, c in den.terms.items()})
    # Collapse exact divisions.
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
    # Scale the denominator's leading coefficient to 1 (canonical-ish form).
    lcd = den.lc()
    if lcd != ring.cone:
        inv = ring.cone / lcd
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _single_var(p: MPoly, ring: PolyRing) -> int | None:
    seen = None
    for m in p.terms:
        for i, e in enumerate(m):
            if e:
                if seen is None:
                    seen = i
                elif seen != i:
                    return None
    return seen


def _cancel_univariate(num: MPoly, den: MPoly, i: int) -> tuple[MPoly, MPoly]:
    """Cancel the gcd when both parts are univariate in the same variable."""
    ring = num.ring
    a, b = to_dense(num, i), to_dense(den, i)
    g = dense_gcd(a, b, ring)
    if len(g) <= 1:
        return num, den
    return (from_dense(dense_divmod(a, g, ring)[0], i, ring),
            from_dense(dense_divmod(b, g, ring)[0], i, ring))


# -- dense univariate polynomials over a field -----------------------------------
#
# Coefficient lists, lowest degree first, over the coefficient field of a
# `PolyRing` (`Fraction` or `RatFunc`); the empty list is zero.  Results are
# never scaled to be monic.


def to_dense(p: MPoly, i: int) -> list:
    """Coefficients of p, which involves no variable but the i-th."""
    out = [p.ring.czero] * (p.degree_in(i) + 1)
    for m, c in p.terms.items():
        out[m[i]] = c
    return out


def from_dense(cs: Sequence, i: int, ring: PolyRing) -> MPoly:
    """The polynomial sum_e cs[e] * (i-th variable)^e."""
    zeros = (0,) * ring.nvars
    return MPoly(ring, {zeros[:i] + (e,) + zeros[i + 1:]: c for e, c in enumerate(cs) if c})


def dense_divmod(a: Sequence, b: Sequence, ring: PolyRing) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b; the remainder has no trailing zeros."""
    r = _trim(list(a))
    db = len(b) - 1
    lead = b[-1]
    q = [ring.czero] * max(1, len(r) - db)
    while r and len(r) - 1 >= db:
        f = r[-1] / lead
        off = len(r) - 1 - db
        q[off] = f
        for k, c in enumerate(b):
            r[off + k] = r[off + k] - f * c
        _trim(r)
    return q, r


def dense_gcd(a: Sequence, b: Sequence, ring: PolyRing) -> list:
    """A greatest common divisor by Euclid: the last nonzero remainder."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, dense_divmod(a, b, ring)[1]
    return a


def dense_inverse_mod(a: Sequence, m: Sequence, ring: PolyRing) -> list | None:
    """The inverse of a modulo m, or None when gcd(a, m) is not a constant.

    Extended Euclid tracking only the cofactor of a; it stops at the first
    constant remainder.  The result may carry trailing zeros.
    """
    r0, r1 = list(m), _trim(list(a))
    s0, s1 = [ring.czero], [ring.cone]
    while r1:
        if len(r1) == 1:
            inv = ring.cone / r1[0]
            return [c * inv for c in s1]
        q, r = dense_divmod(r0, r1, ring)
        r0, r1 = r1, r
        s0, s1 = s1, _dense_sub(s0, _dense_mul(q, s1, ring), ring)
    return None


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _dense_mul(a: Sequence, b: Sequence, ring: PolyRing) -> list:
    if not a or not b:
        return []
    out = [ring.czero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
    return out


def _dense_sub(a: Sequence, b: Sequence, ring: PolyRing) -> list:
    z = ring.czero
    return [(a[k] if k < len(a) else z) - (b[k] if k < len(b) else z)
            for k in range(max(len(a), len(b)))]
