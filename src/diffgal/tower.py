"""Differential towers Q(x)(th_1,...,th_k) with declared generator derivatives.

Each generator is a log, exp, radical or formal integral; expressions are
fractions of polynomials in the generators with Q(x) coefficients.  A
generator keeps the image it was declared with, a fraction over the ring it
was adjoined in, and no later adjoin rewrites it.  The tower's derivation
lifts the images into the current ring and is built once per ring, on first
use, so annihilation checks reduce to exact arithmetic.  Radical generators
are reduced modulo th^n = x; exp generators may appear with negative
exponents (Laurent) through the fraction field.
"""

from __future__ import annotations

from typing import Sequence

# build_Lf is not called here; `tower.build_Lf` stays bound because the
# benchmark's span recorder traces it under this name.
from .diffop import FMatrix, SkewOp, build_Lf, check_nonzero  # noqa: F401
from .errors import DegenerateGenerator, NotPolynomialInTheta, ZeroEntry
from .mpoly import Derivation, MPoly, MRat, PolyRing, _add_term, _divmod
from .parsing import MAX_POWER_DEGREE, parse_over_qx
from .ratfield import RatFunc


class Generator:
    """A tower generator: name, kind and its declared derivative."""

    __slots__ = ("name", "kind", "root", "argument", "derivative")

    def __init__(self, name: str, kind: str, derivative: "MRat | None",
                 root: int | None = None, argument: "TowerExpr | None" = None):
        self.name = name
        self.kind = kind  # "log" | "exp" | "radical" | "integral"
        self.root = root
        self.argument = argument
        self.derivative = derivative  # MRat as declared; a later adjoin leaves it

    def __repr__(self):
        return f"Generator({self.name}, {self.kind})"


class Tower:
    """Ordered stack of generators over Q(x).

    Built once via the add_* methods, then used as an immutable context; all
    expression operations are pure.
    """

    def __init__(self):
        self.gens: list[Generator] = []
        # (index, root) of the one radical generator, set by add_radical.
        self.radical: tuple[int, int] | None = None
        self.ring = PolyRing((), coeff="ratfunc")
        self._derivation: Derivation | None = None
        self._atom_cache: tuple[PolyRing | None, dict[str, MRat]] = (None, {})

    @property
    def derivation(self) -> Derivation:
        """The derivation of Q(x)[th_1, ..., th_k]; images may be fractions.

        Built on the first use in each ring.  Two threads' first uses may
        both build it; they build equal derivations."""
        d = self._derivation
        if d is None or d.ring is not self.ring:
            d = self._derivation = Derivation(self.ring, [
                MRat(_lift_poly(g.derivative.num, self.ring),
                     _lift_poly(g.derivative.den, self.ring), normalize=False)
                for g in self.gens])
        return d

    # -- construction ------------------------------------------------------

    def _new_ring(self, name: str) -> PolyRing:
        if name in self.ring.names or name == "x":
            raise ValueError(f"generator name {name!r} already in use")
        return PolyRing(self.ring.names + (name,), coeff="ratfunc")

    def _install(self, gen: Generator) -> "TowerExpr":
        self.gens.append(gen)
        return self.gen_expr(gen.name)

    def add_log(self, name: str, u) -> "TowerExpr":
        """Adjoin th with th' = u'/u for nonzero, nonconstant u."""
        u = self.expr(u)
        if u.is_zero():
            raise DegenerateGenerator(f"log({u}) is degenerate")
        if u.is_base():  # u'/u is an element of Q(x)
            f = u.as_ratfunc()
            image = MRat.from_poly(self.ring.const(f.derive() / f))
        else:
            image = u.derive()._frac() / u._frac()
        if image.is_zero():
            raise DegenerateGenerator(f"log({u}) is degenerate")
        self.ring = self._new_ring(name)
        return self._install(Generator(name, "log", image, argument=u))

    def add_exp(self, name: str, u) -> "TowerExpr":
        """Adjoin th with th' = u' * th for nonconstant u."""
        u = self.expr(u)
        du = u.derive()
        if du.is_zero():
            raise DegenerateGenerator(f"exp({u}) is degenerate")
        ring = self._new_ring(name)
        theta = ring.var(name)
        image = MRat(_lift_poly(du.num, ring) * theta, _lift_poly(du.den, ring))
        self.ring = ring
        return self._install(Generator(name, "exp", image, argument=u))

    def add_radical(self, name: str, root: int) -> "TowerExpr":
        """Adjoin th = x^(1/root) with th^root = x; only one per tower.  Rationalising
        divides th^root - x by a denominator, so root is bounded like an exponent."""
        if root < 2:
            raise DegenerateGenerator("radical root must be >= 2")
        if root > MAX_POWER_DEGREE:
            raise DegenerateGenerator(f"radical root must be at most {MAX_POWER_DEGREE}")
        if self.radical is not None:
            raise DegenerateGenerator("only one radical generator is supported")
        ring = self._new_ring(name)
        theta = ring.var(name)
        #  th' = th/(root*x)
        coeff = RatFunc.one() / (RatFunc.x() * root)
        image = MRat(theta.scale(coeff), ring.one())
        self.ring = ring
        self.radical = (len(self.gens), root)
        return self._install(Generator(name, "radical", image, root=root))

    def add_integral(self, name: str, integrand) -> "TowerExpr":
        """Adjoin a formal integral: th' = integrand."""
        integrand = self.expr(integrand)
        self.ring = self._new_ring(name)
        return self._install(Generator(name, "integral", integrand._frac(), argument=integrand))

    # -- expression building -------------------------------------------------

    def expr(self, v) -> "TowerExpr":
        """Coerce a value into this tower."""
        if isinstance(v, TowerExpr):
            if v.tower is not self:
                raise ValueError("expression belongs to a different tower")
            return v
        # A scalar of Q(x) has no radical to rewrite or rationalise.
        return TowerExpr._raw(self, self.ring.const(RatFunc.coerce(v)), self.ring.one())

    def zero(self) -> "TowerExpr":
        return self.expr(0)

    def one(self) -> "TowerExpr":
        return self.expr(1)

    def x(self) -> "TowerExpr":
        return self.expr(RatFunc.x())

    def gen_expr(self, name: str) -> "TowerExpr":
        # A lone generator over 1 is already in normal form.
        return TowerExpr._raw(self, self.ring.var(name), self.ring.one())

    def gen(self, name: str) -> Generator:
        for g in self.gens:
            if g.name == name:
                return g
        raise KeyError(name)

    def parse(self, text: str) -> "TowerExpr":
        """Parse an expression in x and the generator names.

        Scalars are computed over Q[x] or Q(x) and each generator is a fraction
        over the tower ring, so the text becomes one `MRat`; radical reduction
        and rationalisation run once, on that fraction.
        """
        val = parse_over_qx(text, self._atoms(), self._check_divisor)
        return TowerExpr._wrap(self, val) if isinstance(val, MRat) else self.expr(val)

    def _atoms(self) -> dict[str, MRat]:
        """Each generator name bound to its fraction over the tower ring; built
        once per ring, like the derivation."""
        ring, atoms = self._atom_cache
        if ring is not self.ring:
            atoms = {g.name: MRat.from_poly(self.ring.var(g.name)) for g in self.gens}
            self._atom_cache = (self.ring, atoms)
        return atoms

    def _check_divisor(self, v) -> None:
        """Raise on a divisor that is zero in the tower: a radical th^root - x is
        zero only after reduction."""
        if not (self.reduce_poly(v.num) if isinstance(v, MRat) else v):
            raise ZeroDivisionError("division by zero tower expression")

    # -- radical reduction ---------------------------------------------------

    def reduce_poly(self, p: MPoly) -> MPoly:
        """Rewrite radical exponents modulo th^root = x (one radical at most)."""
        if self.radical is None:
            return p
        i, root = self.radical
        if all(m[i] < root for m in p.terms):
            return p
        out = self.ring.zero()
        for m, c in p.terms.items():
            q, r = divmod(m[i], root)
            mono = m[:i] + (r,) + m[i + 1:]
            out = out + MPoly(self.ring, {mono: c * RatFunc.x() ** q if q else c})
        return out


def _rationalize_radical(tower: Tower, num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """Clear a radical generator from a denominator that is univariate in it.

    th^root = x makes Q(x)[th]/(th^root - x) a field, so the inverse of the
    denominator exists and is found by extended Euclid over Q(x) against
    th^root - x, tracking only the cofactor of the denominator; multiplying
    through leaves a th-free denominator (the canonical representation
    classification relies on).
    """
    if tower.radical is None or not den.involves(tower.radical[0]):
        return num, den
    idx, root = tower.radical
    for m in den.terms:
        for k, e in enumerate(m):
            if e and k != idx:
                return num, den  # mixed denominator: leave as a fraction
    ring = den.ring
    r0 = ring.var(ring.names[idx]) ** root - RatFunc.x()
    # th^root - x is irreducible over Q(x) (Eisenstein at x), so the remainders
    # reach a nonzero constant before zero.
    r1, s0, s1 = den, ring.zero(), ring.one()
    while not r1.is_constant():
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    # s1 * den = r1 mod th^root - x
    inv = s1.scale(ring.cone / r1.constant_coeff())
    return tower.reduce_poly(num * inv), tower.reduce_poly(den * inv)


def _lift_poly(p: MPoly, ring: PolyRing) -> MPoly:
    """Re-ground p in a ring extending p's ring by appended variables."""
    if p.ring == ring:
        return p
    pad = ring.nvars - p.ring.nvars
    if pad < 0 or p.ring.names != ring.names[: p.ring.nvars]:
        raise ValueError("ring is not an extension")
    zeros = (0,) * pad
    return MPoly(ring, {m + zeros: c for m, c in p.terms.items()})


class TowerExpr:
    """Element of the fraction field of the tower's polynomial ring."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: Tower, num: MPoly, den: MPoly):
        self.tower = tower
        num = tower.reduce_poly(_lift_poly(num, tower.ring))
        den = tower.reduce_poly(_lift_poly(den, tower.ring))
        num, den = _rationalize_radical(tower, num, den)
        frac = MRat(num, den)
        self.num = frac.num
        self.den = frac.den

    @classmethod
    def _raw(cls, tower: Tower, num: MPoly, den: MPoly) -> "TowerExpr":
        """An expression from a fraction already in its normal form."""
        out = object.__new__(cls)
        out.tower, out.num, out.den = tower, num, den
        return out

    @classmethod
    def _wrap(cls, tower: Tower, frac: MRat) -> "TowerExpr":
        """Wrap a fraction that `MRat` arithmetic normalised in tower.ring;
        only a radical generator calls for more."""
        if tower.radical is not None:
            return cls(tower, frac.num, frac.den)
        return cls._raw(tower, frac.num, frac.den)

    def _frac(self) -> MRat:
        return MRat(_lift_poly(self.num, self.tower.ring),
                    _lift_poly(self.den, self.tower.ring), normalize=False)

    def _coerce(self, other) -> "TowerExpr | None":
        if isinstance(other, TowerExpr):
            if other.tower is not self.tower:
                raise ValueError("mixed towers")
            return other
        try:
            return self.tower.expr(other)
        except TypeError:
            return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return not self.tower.reduce_poly((self._frac() - other._frac()).num)

    def __neg__(self) -> "TowerExpr":
        return TowerExpr(self.tower, -self.num, self.den)

    def __add__(self, other) -> "TowerExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TowerExpr._wrap(self.tower, self._frac() + other._frac())

    __radd__ = __add__

    def __sub__(self, other) -> "TowerExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TowerExpr._wrap(self.tower, self._frac() - other._frac())

    def __rsub__(self, other) -> "TowerExpr":
        return (-self) + other

    def __mul__(self, other) -> "TowerExpr":
        if isinstance(other, RatFunc):
            # Scaling the numerator keeps the fraction normalised.
            if other.is_zero():
                return self.tower.zero()
            ring = self.tower.ring
            return TowerExpr._wrap(self.tower, MRat(_lift_poly(self.num, ring).scale(other),
                                                    _lift_poly(self.den, ring), normalize=False))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TowerExpr._wrap(self.tower, self._frac() * other._frac())

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TowerExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero tower expression")
        return TowerExpr._wrap(self.tower, self._frac() / other._frac())

    def __rtruediv__(self, other) -> "TowerExpr":
        return self.tower.expr(other) / self

    def __pow__(self, k: int) -> "TowerExpr":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.tower.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "TowerExpr":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return TowerExpr(self.tower, self.den, self.num)

    def derive(self) -> "TowerExpr":
        return TowerExpr._wrap(self.tower, self._frac().derive(self.tower.derivation))

    def derive_n(self, n: int) -> "TowerExpr":
        e = self
        for _ in range(n):
            e = e.derive()
        return e

    def is_base(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_ratfunc(self) -> RatFunc:
        """The value as an element of Q(x); fails if generators survive."""
        if not self.is_base():
            raise ValueError(f"{self} involves tower generators")
        num, den = self.num.constant_coeff(), self.den.constant_coeff()
        return num if den == RatFunc.one() else num / den

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_coeff() == RatFunc.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"TowerExpr({self})"


def apply_operator(op: SkewOp, e: TowerExpr) -> TowerExpr:
    """Apply sum_i a_i D^i to a tower expression."""
    tower = e.tower
    deriv = tower.derivation
    if e.den.is_constant() and deriv.den.is_constant() and tower.radical is None:
        # A polynomial stays one under a derivation with polynomial images:
        # derive and sum in the polynomial ring, with no fraction to normalise.
        ring = tower.ring
        p = _lift_poly(e.num, ring)
        acc: dict = {}
        for i, c in enumerate(op.coeffs):
            if i:
                p = deriv.derive(p)
            if c:
                for m, v in p.terms.items():
                    _add_term(acc, m, v * c)
        return TowerExpr._raw(tower, MPoly(ring, acc), ring.one())
    out = tower.zero()
    d = e
    for i, c in enumerate(op.coeffs):
        if i:
            d = d.derive()
        if c:
            out = out + d * c
    return out


def _integral_tower(f_partial: Sequence[RatFunc]) -> tuple[Tower, dict]:
    """Tower of nested formal integrals t_{k,l} with t'_{k,l} = t_{k+1,l}/f_{n-k+1}."""
    fs = check_nonzero(f_partial)
    n = len(fs) + 1
    tw = Tower()
    ts: dict[tuple[int, int], TowerExpr] = {}

    def f_at(i: int) -> RatFunc:  # f_i for 2 <= i <= n
        return fs[i - 2]

    for l in range(2, n + 1):
        for k in range(l - 1, 0, -1):
            inner = tw.one() if k + 1 == l else ts[(k + 1, l)]
            integrand = inner * (RatFunc.one() / f_at(n - k + 1))
            ts[(k, l)] = tw.add_integral(f"t_{k}_{l}", integrand)
    return tw, ts


def nested_solutions(f: Sequence[RatFunc], f_next: RatFunc) -> list[TowerExpr]:
    """The solution basis v_1 = 1/f_{n+1}, v_2 = (1/f_{n+1}) Int 1/f_n, ...
    of build_Lf(f) * f_{n+1}, in a tower of formal integrals."""
    fs = check_nonzero(f)
    f_next = RatFunc.coerce(f_next)
    if f_next.is_zero():
        raise ZeroEntry("f_{n+1} must be nonzero")
    n = len(fs)
    tw, ts = _integral_tower(fs[1:])
    inv = RatFunc.one() / f_next
    vs = [tw.expr(inv)]
    for i in range(2, n + 1):
        vs.append(ts[(1, i)] * inv)
    return vs


def fundamental_T(f_partial: Sequence[RatFunc]) -> list[list[TowerExpr]]:
    """Unipotent fundamental matrix T with T' = A T for the shape matrix A."""
    fs = check_nonzero(f_partial)
    n = len(fs) + 1
    tw, ts = _integral_tower(fs)
    rows = []
    for k in range(1, n + 1):
        row = []
        for l in range(1, n + 1):
            if k == l:
                row.append(tw.one())
            elif k > l:
                row.append(tw.zero())
            else:
                row.append(ts[(k, l)])
        rows.append(row)
    return rows


def rows_satisfy_T_prime_eq_AT(a: FMatrix, t: Sequence[Sequence[TowerExpr]]) -> list[bool]:
    """For each row i: does T'_ij = sum_k A_ik T_kj hold for every column j?

    Each T'_ij - sum_k A_ik T_kj is one fraction over the tower ring, and it is
    zero exactly when its numerator reduces to zero: modulo th^root - x the
    ring is still a domain, so no denominator vanishes there.
    """
    n = len(t)
    if n == 0 or a.nrows != n or a.ncols != n or any(len(row) != n for row in t):
        raise ValueError("A and T must be nonempty square matrices of the same size")
    tower = t[0][0].tower
    if any(e.tower is not tower for row in t for e in row):
        raise ValueError("mixed towers")
    deriv = tower.derivation
    fracs = [[e._frac() for e in row] for row in t]

    def entry_ok(i: int, j: int) -> bool:
        diff = fracs[i][j].derive(deriv)
        for k in range(n):
            c, f = a[i, k], fracs[k][j]
            if c and f.num:
                diff = diff + MRat(f.num.scale(-c), f.den, normalize=False)
        return not tower.reduce_poly(diff.num)

    return [all(entry_ok(i, j) for j in range(n)) for i in range(n)]


def laurent_normal(e: TowerExpr, name: "str | Generator") -> dict[int, TowerExpr]:
    """Coefficient map of e as a polynomial in the named generator.

    Laurent (negative) degrees are admitted for exp generators only; for all
    kinds the coefficients must be free of the generator.  Raises
    NotPolynomialInTheta otherwise.
    """
    if isinstance(name, Generator):
        name = name.name
    tower = e.tower
    gen = tower.gen(name)
    idx = tower.ring.names.index(name)
    num = _lift_poly(e.num, tower.ring)
    den = _lift_poly(e.den, tower.ring)
    shift = 0
    if den.involves(idx):
        # `MRat` has already divided out any exact quotient, so only a monomial
        # denominator is a Laurent shift.
        if len(den.terms) != 1:
            raise NotPolynomialInTheta(f"{e} is not Laurent in {name}")
        (m0, c0), = den.terms.items()
        shift = m0[idx]
        den = MPoly(tower.ring, {m0[:idx] + (0,) + m0[idx + 1:]: c0})
    buckets: dict[int, dict] = {}
    for m, c in num.terms.items():
        buckets.setdefault(m[idx] - shift, {})[m[:idx] + (0,) + m[idx + 1:]] = c
    if gen.kind != "exp" and any(d < 0 for d in buckets):
        raise NotPolynomialInTheta(f"negative powers of {name} are not allowed for {gen.kind}")
    # A slice over 1 is normal; over another denominator it may share a factor.
    wrap = TowerExpr._raw if den == tower.ring.one() else TowerExpr
    return {d: wrap(tower, MPoly(tower.ring, terms), den)
            for d, terms in sorted(buckets.items())}
