"""Differential towers Q(x)(th_1,...,th_k) with declared generator derivatives.

Each generator is a log, exp, radical or formal integral; expressions are
fractions of polynomials in the generators with Q(x) coefficients.  The
derivation extends the base derivation by the declared images, so annihilation
checks reduce to exact arithmetic.  Radical generators are reduced modulo
th^n = x; exp generators may appear with negative exponents (Laurent) through
the fraction field.
"""

from __future__ import annotations

from typing import Sequence

# build_Lf is not called here; `tower.build_Lf` stays bound because the
# benchmark's span recorder traces it under this name.
from .diffop import FMatrix, SkewOp, build_Lf, check_nonzero  # noqa: F401
from .errors import DegenerateGenerator, NotPolynomialInTheta, ZeroEntry
from .mpoly import Derivation, MPoly, MRat, PolyRing, dense_inverse_mod, from_dense, to_dense
from .parsing import MAX_POWER_DEGREE
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
        self.derivative = derivative  # MRat over the tower ring, set by Tower

    def __repr__(self):
        return f"Generator({self.name}, {self.kind})"


class Tower:
    """Ordered stack of generators over Q(x).

    Built once via the add_* methods, then used as an immutable context; all
    expression operations are pure.
    """

    def __init__(self):
        self.gens: list[Generator] = []
        self.ring = PolyRing((), coeff="ratfunc")
        # The derivation of Q(x)[th_1, ..., th_k]; images may be fractions.
        self.derivation = Derivation(self.ring, [])

    # -- construction ------------------------------------------------------

    def _new_ring(self, name: str) -> PolyRing:
        if name in self.ring.names or name == "x":
            raise ValueError(f"generator name {name!r} already in use")
        return PolyRing(self.ring.names + (name,), coeff="ratfunc")

    def _install(self, gen: Generator, image: MRat) -> "TowerExpr":
        gen.derivative = image
        self.gens.append(gen)
        for g in self.gens:  # every image lives in the newest ring
            g.derivative = MRat(_lift_poly(g.derivative.num, self.ring),
                                _lift_poly(g.derivative.den, self.ring), normalize=False)
        self.derivation = Derivation(self.ring, [g.derivative for g in self.gens])
        return self.gen_expr(gen.name)

    def add_log(self, name: str, u) -> "TowerExpr":
        """Adjoin th with th' = u'/u for nonzero, nonconstant u."""
        u = self.expr(u)
        du = u.derive()
        if u.is_zero() or du.is_zero():
            raise DegenerateGenerator(f"log({u}) is degenerate")
        ring = self._new_ring(name)
        image = MRat(_lift_poly(du.num, ring) * _lift_poly(u.den, ring),
                     _lift_poly(du.den, ring) * _lift_poly(u.num, ring))
        self.ring = ring
        return self._install(Generator(name, "log", None, argument=u), image)

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
        return self._install(Generator(name, "exp", None, argument=u), image)

    def add_radical(self, name: str, root: int) -> "TowerExpr":
        """Adjoin th = x^(1/root) with th^root = x; only one per tower.  Rationalising
        builds a modulus of root + 1 entries, so root is bounded like an exponent."""
        if root < 2:
            raise DegenerateGenerator("radical root must be >= 2")
        if root > MAX_POWER_DEGREE:
            raise DegenerateGenerator(f"radical root must be at most {MAX_POWER_DEGREE}")
        if any(g.kind == "radical" for g in self.gens):
            raise DegenerateGenerator("only one radical generator is supported")
        ring = self._new_ring(name)
        theta = ring.var(name)
        #  th' = th/(root*x)
        coeff = RatFunc.one() / (RatFunc.x() * root)
        image = MRat(theta.scale(coeff), ring.one())
        self.ring = ring
        return self._install(Generator(name, "radical", None, root=root), image)

    def add_integral(self, name: str, integrand) -> "TowerExpr":
        """Adjoin a formal integral: th' = integrand."""
        integrand = self.expr(integrand)
        ring = self._new_ring(name)
        image = MRat(_lift_poly(integrand.num, ring), _lift_poly(integrand.den, ring))
        self.ring = ring
        return self._install(Generator(name, "integral", None, argument=integrand), image)

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
        return TowerExpr(self, self.ring.var(name), self.ring.one())

    def gen(self, name: str) -> Generator:
        for g in self.gens:
            if g.name == name:
                return g
        raise KeyError(name)

    def parse(self, text: str) -> "TowerExpr":
        from .parsing import parse_expr

        atoms = {"x": self.x()}
        for g in self.gens:
            atoms[g.name] = self.gen_expr(g.name)
        return parse_expr(text, atoms, lambda n: self.expr(n))

    # -- radical reduction ---------------------------------------------------

    def reduce_poly(self, p: MPoly) -> MPoly:
        """Rewrite radical exponents modulo th^root = x (one radical at most)."""
        for i, g in enumerate(self.gens):
            if g.kind == "radical" and any(m[i] >= g.root for m in p.terms):
                out = self.ring.zero()
                for m, c in p.terms.items():
                    q, r = divmod(m[i], g.root)
                    mono = m[:i] + (r,) + m[i + 1:]
                    out = out + MPoly(self.ring, {mono: c * RatFunc.x() ** q if q else c})
                return out
        return p


def _has_radical(tower: Tower) -> bool:
    return any(g.kind == "radical" for g in tower.gens)


def _rationalize_radical(tower: Tower, num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """Clear a radical generator from a denominator that is univariate in it.

    th^root = x makes Q(x)[th]/(th^root - x) a field, so the inverse of the
    denominator exists and is found by extended gcd over Q(x); multiplying
    through leaves a th-free denominator (the canonical representation
    classification relies on).
    """
    idx = None
    root = 0
    for i, g in enumerate(tower.gens):
        if g.kind == "radical" and i < den.ring.nvars and den.involves(i):
            idx = i
            root = g.root
            break
    if idx is None:
        return num, den
    for m in den.terms:
        for k, e in enumerate(m):
            if e and k != idx:
                return num, den  # mixed denominator: leave as a fraction
    # modulus th^root - x
    modulus = [-RatFunc.x()] + [RatFunc.zero()] * (root - 1) + [RatFunc.one()]
    inv = dense_inverse_mod(to_dense(den, idx), modulus, den.ring)
    if inv is None:
        return num, den
    inv_poly = from_dense(inv, idx, den.ring)
    return tower.reduce_poly(num * inv_poly), tower.reduce_poly(den * inv_poly)


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
        if _has_radical(tower):
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
        return (self._frac() - other._frac()).is_zero()

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
        return self.num.constant_coeff() / self.den.constant_coeff()

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
    if e.den.is_constant() and deriv.den.is_constant() and not _has_radical(tower):
        # A polynomial stays one under a derivation with polynomial images:
        # derive and sum in the polynomial ring, with no fraction to normalise.
        ring = tower.ring
        p = _lift_poly(e.num, ring)
        acc = ring.zero()
        for i, c in enumerate(op.coeffs):
            if i:
                p = deriv.derive(p)
            if c:
                acc = acc + p.scale(c)
        return TowerExpr._raw(tower, acc, ring.one())
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
    """For each row i: does T'_ij = sum_k A_ik T_kj hold for every column j?"""
    n = len(t)
    if n == 0 or a.nrows != n or a.ncols != n or any(len(row) != n for row in t):
        raise ValueError("A and T must be nonempty square matrices of the same size")

    def entry_ok(i: int, j: int) -> bool:
        rhs = t[i][j].tower.zero()
        for k in range(n):
            c = a[i, k]
            if not c.is_zero():
                rhs = rhs + t[k][j] * c
        return (t[i][j].derive() - rhs).is_zero()

    return [all(entry_ok(i, j) for j in range(n)) for i in range(n)]


def annihilator_of_iterated_integral(f: RatFunc, n: int) -> SkewOp:
    """Monic operator D^(n+1) - (f'/f) D^n annihilating 1, x, ..., x^(n-1)
    and every eta with eta^(n) = f."""
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise ZeroEntry("f must be nonzero")
    coeffs = [RatFunc.zero()] * n + [-(f.derive() / f), RatFunc.one()]
    return SkewOp(coeffs)


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
        q = num.exact_div(den)
        if q is not None:
            num, den = q, tower.ring.one()
        elif len(den.terms) == 1:
            (m0, c0), = den.terms.items()
            shift = m0[idx]
            rest = tuple(0 if i == idx else v for i, v in enumerate(m0))
            den = MPoly(tower.ring, {rest: c0})
        else:
            raise NotPolynomialInTheta(f"{e} is not Laurent in {name}")
    if den.involves(idx):
        raise NotPolynomialInTheta(f"{e} has {name} in an unsplittable denominator")
    buckets: dict[int, dict] = {}
    for m, c in num.terms.items():
        d = m[idx] - shift
        flat = tuple(0 if i == idx else v for i, v in enumerate(m))
        buckets.setdefault(d, {})
        cur = buckets[d].get(flat)
        buckets[d][flat] = c if cur is None else cur + c
    if gen.kind != "exp" and any(d < 0 for d in buckets):
        raise NotPolynomialInTheta(f"negative powers of {name} are not allowed for {gen.kind}")
    out: dict[int, TowerExpr] = {}
    for d, terms in sorted(buckets.items()):
        p = MPoly(tower.ring, {m: c for m, c in terms.items() if c})
        if p.is_zero():
            continue
        out[d] = TowerExpr(tower, p, den)
    return out


