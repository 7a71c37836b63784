"""Integrability deciders and witness generators over Q(x) and its towers.

Covers: infinity-integrability of rational functions, construction of
elementary n-th antiderivatives with logarithms of squarefree factors, and the
infinity-integrability classifiers for the exp-, log- and radical towers (with
witnesses for finite depths).  Every witness is checked by differentiating it
back to the input before it is returned, with the derivative it needs: a tower
witness is read back as its monomials a x^m th^i and differentiated monomial
by monomial, with th' = h(x) th^k taken from the generator's declared image;
a rational witness f_0 + sum P_j log q_j, assembled in normal form as one
polynomial in the L_j = log q_j, is read back as f_0 and the P_j and
differentiated in Q(x), with q_j'/q_j taken from the log generator's image.

The log parts of a squarefree remainder p/q start at the rational poles of q;
each pole alpha has the residue p(alpha)/q'(alpha).  Only the cofactor of q
with no rational root goes to the Rothstein-Trager resultant, whose rational
roots are the residues there.  Both sets of rational roots come from one
finder, `_lifted_roots`: roots modulo a small prime, Newton-lifted p-adically
and rationally reconstructed, so no integer is factored and no search is
bounded by a budget.  The parts are complete when their degrees add up to deg q.

Residues are only split over Q; inputs that need algebraic constants raise
NotSupported rather than returning wrong answers.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from ._record import Record
from .errors import NotPolynomialInTheta, NotSupported
from .mpoly import MPoly, _add_term
from .ratfield import (RatFunc, UPoly, _conv, _coprime_mod_p, _hermite_parts, _int_eval,
                       _make, _primitive_int_list, resultant)
from .tower import Tower, TowerExpr, laurent_normal

_FAILED = "witness failed to differentiate back to the input"


class IntegrabilityVerdict(Record):
    """Outcome of an integrability decision."""

    _fields = ("status", "witness", "obstruction", "step", "reason")

    def __init__(self, status: str, witness: object = None, obstruction: object = None,
                 step: int | None = None, reason: str | None = None):
        self.status = status  # "integrable" | "not_integrable" | "not_supported"
        self.witness = witness
        self.obstruction = obstruction
        self.step = step
        self.reason = reason

    @property
    def is_integrable(self) -> bool:
        return self.status == "integrable"

    @classmethod
    def integrable(cls, witness=None) -> "IntegrabilityVerdict":
        return cls("integrable", witness=witness)

    @classmethod
    def not_integrable(cls, obstruction=None, reason: str | None = None) -> "IntegrabilityVerdict":
        return cls("not_integrable", obstruction=obstruction, reason=reason)

    @classmethod
    def not_supported(cls, reason: str) -> "IntegrabilityVerdict":
        return cls("not_supported", reason=reason)


def infinity_integrable_in_Cx(g: RatFunc) -> IntegrabilityVerdict:
    """Stable elements of Q(x) are exactly the polynomials."""
    _, proper = g.split()
    if proper.is_zero():
        return IntegrabilityVerdict.integrable()
    return IntegrabilityVerdict.not_integrable(obstruction=proper)


# -- rational log parts ------------------------------------------------------


def _homogeneous(coeffs: list[int], num: int, den: int) -> int:
    """den^deg * p(num/den) of the integer polynomial p, by Horner on ints."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _resultant_in_residue(q: UPoly, p: UPoly) -> UPoly:
    """R(c) = res_x(q, p - c q') computed by interpolation over Q."""
    dq = q.derivative()
    return _lagrange([(k, resultant(q, p - dq * k)) for k in range(q.degree + 1)])


def _lagrange(points: list[tuple[int, Fraction]]) -> UPoly:
    """The polynomial of degree < len(points) through the points, at integer
    nodes: the sum of y_i prod_{j != i} (x - x_j)/(x_i - x_j), each product
    over Z, added over one common denominator."""
    terms = []
    for i, (xi, yi) in enumerate(points):
        if yi:
            basis, den = [1], 1
            for j, (xj, _) in enumerate(points):
                if j != i:
                    basis = _conv(basis, (-xj, 1))
                    den *= xi - xj
            terms.append((basis, yi / den))
    common = lcm(*(c.denominator for _, c in terms))
    acc = [0] * len(points)
    for basis, c in terms:
        scale = c.numerator * (common // c.denominator)
        for e, v in enumerate(basis):
            acc[e] += scale * v
    return _make(acc, common)


def _odd_primes():
    p = 3
    while True:
        if all(p % k for k in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _reconstruct(u: int, m: int, n: int, d: int) -> tuple[int, int] | None:
    """(a, b) with a = b*u mod m, |a| <= n and 0 < b <= d, or None.  When
    m > 2*n*d there is at most one a/b, and it is the first remainder <= n of
    Euclid on (m, u) over its cofactor of u (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > n:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= d:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lifted_roots(f: list[int]) -> list[tuple[int, int]]:
    """The rational roots a/b, as pairs (a, b) with b > 0, of a squarefree
    integer polynomial f.

    The root 0 is split off first (a squarefree f has x to at most the first
    power), so f(0) != 0 below.  No integer is factored.  A root a/b in lowest
    terms has a | f(0) and b | lc(f), so at the first odd prime p with lc(f)
    and lc(f') nonzero and f squarefree mod p, a/b is a simple root mod p.
    Newton's iteration lifts each root mod p to the unique root mod
    m = p^(2^k) > 2 |f(0)| |lc(f)|, and rational reconstruction with
    |a| <= |f(0)|, 0 < b <= |lc(f)| gives back a/b.  The failing primes divide
    deg(f) lc(f) res(f, f'), which Hadamard's bound caps, so a product of
    failing primes past the cap proves that f is not squarefree.
    """
    roots = [(0, 1)] if f[0] == 0 else []
    f = f[len(roots):]
    if f[0] == 0:
        raise ValueError("the polynomial is not squarefree")
    if len(f) == 1:
        return roots
    df = [i * c for i, c in enumerate(f)][1:]
    failed = 1
    for p in _odd_primes():
        if _coprime_mod_p(f, df, p):
            break
        failed *= p
        deg, height = len(f) - 1, max(map(abs, f))
        if failed > deg ** (deg + 1) * ((deg + 1) * height) ** (2 * deg):
            raise ValueError("the polynomial is not squarefree")
    n, d = abs(f[0]), abs(f[-1])
    for t in range(p):
        if _int_eval(f, t, p):
            continue
        u, m = t, p  # f(u) = 0 mod m
        while m <= 2 * n * d:
            m *= m
            u = (u - _int_eval(f, u, m) * pow(_int_eval(df, u, m), -1, m)) % m
        found = _reconstruct(u, m, n, d)
        if found is not None and _homogeneous(f, *found) == 0:
            roots.append(found)
    return roots


def _resultant_log_parts(p: UPoly, q: UPoly) -> list[tuple[Fraction, UPoly]]:
    """The residues c of p/q that are rational, with the monic gcd of q and
    p - c q' for each, read off the Rothstein-Trager resultant."""
    dq = q.derivative()
    # fast path: constant combined residue
    g, s, _ = dq.xgcd(q)
    if g.degree == 0:
        a = (s * p) % q
        if a.degree == 0:
            return [(a[0], q.monic())]
    res_poly = _resultant_in_residue(q, p)
    # R's squarefree part has R's roots, and `_lifted_roots` needs it squarefree.
    squarefree = res_poly.cofactors(res_poly.derivative())[1]
    roots = _lifted_roots(_primitive_int_list(squarefree.ints))
    parts: list[tuple[Fraction, UPoly]] = []
    for c in sorted(Fraction(a, b) for a, b in roots):
        fac = q.gcd(p - dq * c)
        if fac.degree > 0:
            parts.append((c, fac.monic()))
    return parts


def _pole_parts(p: UPoly, q: UPoly, poles: list[tuple[int, int]]) -> list[tuple[Fraction, UPoly]]:
    """The log parts of p/q, where `poles` are all the rational roots a/b of q.

    Each pole has the residue p(a/b)/q'(a/b), by integer Horner.  When q has
    a factor r with no rational root, p/q = (a fraction over pi) + p_r/r with
    pi the product of the x - a/b and p = p_r * pi mod r, and the parts of
    p_r/r come from the resultant; parts of one residue are multiplied.  With
    no poles, every part comes from the resultant of p/q itself.
    """
    if not poles:
        return _resultant_log_parts(p, q)
    dq = q.derivative()
    lead = len(dq.ints) - len(p.ints)  # deg q' - deg p >= 0
    merged: dict[Fraction, UPoly] = {}
    for a, b in poles:
        c = Fraction(_homogeneous(p.ints, a, b) * b**lead * dq.denom,
                     _homogeneous(dq.ints, a, b) * p.denom)
        fac = _make([-a, b], b)  # x - a/b
        merged[c] = merged[c] * fac if c in merged else fac
    if len(poles) < q.degree:
        pi = UPoly.one()
        for fac in merged.values():
            pi = pi * fac
        r = q.exact_div(pi)
        for c, fac in _resultant_log_parts((p * pi.xgcd(r)[1]) % r, r):
            merged[c] = merged[c] * fac if c in merged else fac
    return sorted(merged.items())


def rational_log_parts(remainder: RatFunc) -> list[tuple[Fraction, UPoly]]:
    """Write a proper fraction with squarefree denominator as
    sum c_k * g_k'/g_k with rational constants and monic factors g_k.

    The rational poles of p/q come first (`_lifted_roots`), each with its
    residue read off at the pole, and the poles of one residue make one
    factor.  Only the cofactor of q with no rational root goes to the
    resultant, whose rational roots come from the same `_lifted_roots`
    (`_pole_parts`, `_resultant_log_parts`).

    Raises NotSupported when the residues are not all rational (splitting an
    irreducible factor would need algebraic constants) or p/q is improper.
    """
    p, q = remainder.num, remainder.den
    if p.is_zero():
        return []
    # Over a squarefree q every root of a part's factor has that part's
    # residue, so the parts cover the roots of q when their degrees add up.
    proper = p.degree < q.degree
    parts = _pole_parts(p, q, _lifted_roots(_primitive_int_list(q.ints))) if proper else []
    if not proper or sum(fac.degree for _, fac in parts) != q.degree:
        raise NotSupported(
            "residues are not all rational; the witness needs algebraic constants"
        )
    return parts


def elementary_n_witness(g: RatFunc, n: int) -> TowerExpr:
    """An n-th antiderivative of g of the shape f_0 + sum P_j(x) log(q_j)
    with q_j monic squarefree and deg P_j <= n-1.

    Integration loop: integrate log terms by parts, Hermite-reduce the rational
    integrand, and split its squarefree remainder into rational log parts.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rational = g
    logs: dict[UPoly, UPoly] = {}
    for _ in range(n):
        rho, logs = rational, {q: pcoef.integral() for q, pcoef in logs.items()}
        for q, big in logs.items():
            rho = rho - RatFunc(big * q.derivative(), q)
        h, polypart, proper = _hermite_parts(rho)
        rational = h + RatFunc(polypart.integral())
        if not proper.is_zero():
            for c, fac in rational_log_parts(proper):
                _add_term(logs, fac, UPoly((c,)))
    # Drop the kernel part (polynomial monomials of degree < n) for a canonical witness.
    polypart, proper = rational.split()
    trimmed = UPoly(tuple(Fraction(0) for _ in range(min(n, polypart.degree + 1)))
                    + polypart.coeffs[n:])
    rational = RatFunc(trimmed) + proper
    # R + sum P_j L_j as one polynomial in the L_j over Q(x) is already normal.
    tower, zero = Tower(), (0,) * len(logs)
    terms = {zero: rational} if rational else {}
    for j, q in enumerate(sorted(logs, key=lambda u: (u.degree, u.coeffs))):
        if logs[q].degree > n - 1:
            raise AssertionError("log coefficient degree exceeded n-1")
        tower.add_log(f"L{j + 1}", RatFunc(q))
        terms[zero[:j] + (1,) + zero[j + 1:]] = RatFunc(logs[q])
    eta = TowerExpr._raw(tower, MPoly(tower.ring, terms), tower.ring.one())
    _check_elementary(eta, g, n)
    return eta


def _check_elementary(eta: TowerExpr, g: RatFunc, n: int) -> None:
    """Raise unless the n-th derivative of eta = R + sum P_j L_j is g.

    R and the P_j are read back from eta's numerator, and each q_j'/q_j from
    the image declared for L_j = log q_j.  D(R + sum P_j L_j) is
    R' + sum P_j q_j'/q_j + sum P_j' L_j, so the n derivatives run in Q(x);
    at the end every P_j must be 0 and R must be g.
    """
    if not (eta.den.is_constant() and eta.den.constant_coeff() == RatFunc.one()):
        raise AssertionError(_FAILED)
    rational, logs = RatFunc.zero(), []
    for mono, c in eta.num.terms.items():
        if not any(mono):
            rational = c
            continue
        if sum(mono) != 1:
            raise AssertionError(_FAILED)
        image = eta.tower.gens[mono.index(1)].derivative
        if not (image.is_poly() and image.num.is_constant()):
            raise AssertionError(_FAILED)
        logs.append((c, image.num.constant_coeff()))
    for _ in range(n):
        rational = rational.derive()
        for coef, dlog in logs:
            rational = rational + coef * dlog
        logs = [(coef.derive(), dlog) for coef, dlog in logs]
    if any(coef for coef, _ in logs) or rational != g:
        raise AssertionError(_FAILED)


# -- tower classifiers -------------------------------------------------------


def _slice_obstruction(kind: str, i: int, f: RatFunc, root: int | None) -> str | None:
    """Why the slice f_i of g = sum f_i th^i keeps g from being infinitely
    integrable in the kind's tower, or None when f_i is admissible: in C[x]
    for exp and for the radical's x^(0/n) slice, in C[x, 1/x] otherwise."""
    if kind == "log" or (kind == "radical" and i):
        if not any(f.den.ints[:-1]):
            return None
        if kind == "log":
            return f"coefficient of th^{i} is not Laurent in x"
        return f"coefficient of x^({i}/{root}) is not Laurent in x"
    if f.den.degree == 0:
        return None
    if kind == "exp":
        return f"coefficient of degree {i} is not polynomial"
    return "the x^(0/n) coefficient must be polynomial"


def _solve(a: dict[int, Fraction], s: int) -> dict[int, Fraction]:
    """The polynomial h = sum h_k y^k with dh/dy + s h = sum a_k y^k:
    h_k = a_(k-1)/k for s = 0, else h_k = (a_k - (k+1) h_(k+1))/s."""
    if s == 0:
        return {k + 1: c / (k + 1) for k, c in a.items()}
    h: dict[int, Fraction] = {}
    prev = Fraction(0)
    for k in range(max(a), -1, -1):
        prev = (a.get(k, 0) - (k + 1) * prev) / s
        if prev:
            h[k] = prev
    return h


def _integrate_once(kind: str, monos: dict[tuple[int, int], Fraction],
                    root: int | None) -> dict[tuple[int, int], Fraction]:
    """One antiderivative of sum a x^m th^i over admissible monomials (m, i): a
    of the kind's tower."""
    if kind == "radical":  # x^m th^i = x^(m + i/n)
        return {(m + 1, i): a / (m + 1 + Fraction(i, root)) for (m, i), a in monos.items()}
    # exp: (th^i h(x))' = th^i (h' + i h); log: (x^(m+1) h(th))' = x^m (h' + (m+1) h),
    # with h' = dh/dth.  Each column s of like monomials solves h' + s h = column.
    exp = kind == "exp"
    columns: dict[int, dict[int, Fraction]] = {}
    for (m, i), a in monos.items():
        s, k = (i, m) if exp else (m + 1, i)
        columns.setdefault(s, {})[k] = a
    return {((k, s) if exp else (s, k)): h
            for s, col in columns.items() for k, h in _solve(col, s).items()}


def _monomials(slices: dict[int, RatFunc]) -> dict[tuple[int, int], Fraction]:
    """The map (m, i) -> a of sum a x^m th^i, from slices f_i over powers of x."""
    monos: dict[tuple[int, int], Fraction] = {}
    for i, f in slices.items():
        shift = f.den.degree  # f.den is x^shift
        for k, a in enumerate(f.num.coeffs):
            if a:
                monos[(k - shift, i)] = a
    return monos


def _witness(tower: Tower, name: str, monos: dict[tuple[int, int], Fraction]) -> TowerExpr:
    """sum a x^m th^i as one fraction over tower.ring in normal form: each
    slice over a power of x, the whole over th^(-lowest i) when that is
    positive (exp), and no th^i with i >= root (radical integration keeps i)."""
    ring = tower.ring
    idx = ring.names.index(name)

    def mono(e: int) -> tuple[int, ...]:
        return (0,) * idx + (e,) + (0,) * (ring.nvars - idx - 1)

    powers: dict[int, dict[int, Fraction]] = {}
    for (m, i), a in monos.items():
        powers.setdefault(i, {})[m] = a
    shift = max(0, -min(powers, default=0))
    terms = {}
    for i, col in powers.items():
        lo = min(0, *col)
        num = [Fraction(0)] * (max(col) - lo + 1)
        for m, a in col.items():
            num[m - lo] = a
        # num has a nonzero constant term when lo < 0, so it is prime to x^-lo.
        terms[mono(i + shift)] = RatFunc._raw(UPoly(num), UPoly.monomial(1, -lo))
    den = MPoly(ring, {mono(shift): ring.cone}) if shift else ring.one()
    return TowerExpr._raw(tower, MPoly(ring, terms), den)


def _image(gen) -> tuple[dict[int, Fraction], int] | None:
    """(h, k) with th' = h(x) th^k and h = sum h_j x^j a Laurent polynomial,
    given as the map j -> h_j, read off the generator's declared image; None
    when the image has no such form."""
    image = gen.derivative
    if not image.is_poly() or len(image.num.terms) != 1:
        return None
    (mono, h), = image.num.terms.items()
    names = image.ring.names
    k = mono[names.index(gen.name)] if gen.name in names else 0
    if sum(mono) != k or any(h.den.ints[:-1]):
        return None
    shift = h.den.degree
    return {j - shift: c for j, c in enumerate(h.num.coeffs) if c}, k


def _derive_monomials(monos: dict[tuple[int, int], Fraction],
                      image: tuple[dict[int, Fraction], int] | None
                      ) -> dict[tuple[int, int], Fraction]:
    """The derivative of sum a x^m th^i, monomial by monomial:
    (a x^m th^i)' = a m x^(m-1) th^i + a i x^m h(x) th^(i-1+k) for
    th' = h th^k given as `_image` gives it.  With k <= 1, as for every exp,
    log and radical generator, a radical exponent stays below its root.
    Raises AssertionError when some i != 0 needs an image that has no such
    form."""
    out: dict[tuple[int, int], Fraction] = {}
    for (m, i), a in monos.items():
        if m:
            _add_term(out, (m - 1, i), a * m)
        if i:
            if image is None:
                raise AssertionError(_FAILED)
            h, k = image
            for j, c in h.items():
                _add_term(out, (m + j, i - 1 + k), a * i * c)
    return out


def _classify(g: TowerExpr, kind: str, depth: int | None) -> IntegrabilityVerdict:
    """Infinity-integrability of g = sum f_i th^i in Q(x)(th) for the tower's
    one generator th of the given kind: g is infinitely integrable exactly
    when every slice f_i is admissible.  For a finite depth the witness
    integrates the map of monomials a x^m th^i of g.  Its own monomials are
    then read back, differentiated `depth` times and compared with g's."""
    gens = [gen for gen in g.tower.gens if gen.kind == kind]
    if len(gens) != 1:
        raise ValueError(f"expected exactly one {kind} generator, found {len(gens)}")
    gen = gens[0]
    try:
        coeffs = laurent_normal(g, gen)
    except NotPolynomialInTheta as exc:
        return IntegrabilityVerdict.not_integrable(reason=str(exc))
    slices: dict[int, RatFunc] = {}
    for i, ce in coeffs.items():
        f = slices[i] = ce.as_ratfunc()
        reason = _slice_obstruction(kind, i, f, gen.root)
        if reason is not None:
            return IntegrabilityVerdict.not_integrable(obstruction=f, reason=reason)
    if depth is None:
        return IntegrabilityVerdict.integrable()
    target = monos = _monomials(slices)
    for _ in range(depth):
        monos = _integrate_once(kind, monos, gen.root)
    witness = _witness(g.tower, gen.name, monos)
    slices = {i: ce.as_ratfunc() for i, ce in laurent_normal(witness, gen).items()}
    if any(any(f.den.ints[:-1]) for f in slices.values()):
        raise AssertionError(_FAILED)
    monos, image = _monomials(slices), _image(gen)
    for _ in range(depth):
        monos = _derive_monomials(monos, image)
    if monos != target:
        raise AssertionError(_FAILED)
    return IntegrabilityVerdict.integrable(witness=witness)


def classify_exp(g: TowerExpr, depth: int | None = None) -> IntegrabilityVerdict:
    """Infinity-integrability in C(x, e^x): g = sum f_i t^i with f_i in C[x]."""
    return _classify(g, "exp", depth)


def classify_log(g: TowerExpr, depth: int | None = None) -> IntegrabilityVerdict:
    """Infinity-integrability in C(x, log x): g = sum f_i th^i with f_i in C[x, 1/x]."""
    return _classify(g, "log", depth)


def classify_radical(g: TowerExpr, depth: int | None = None) -> IntegrabilityVerdict:
    """Infinity-integrability in C(x^(1/n)): g = sum_{i<n} f_i x^(i/n) with
    f_0 in C[x] and f_i in C[x, 1/x] for i >= 1."""
    return _classify(g, "radical", depth)
