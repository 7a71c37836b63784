"""Construction of equations with a prescribed unipotent differential Galois group.

Given a subgroup of U(n) by defining ideal and/or Lie-algebra basis, the
pipeline builds the strictly upper matrix A_u = sum a_i X_i, picks a cyclic
vector, walks the fraction-field recursion for the G_i, reduces them modulo
the extended ideal to elements f_i of Q(x), and emits the shape matrix, the
monic scalar operator L and the companion matrix read off L.  Every checkable
consequence is recorded in a verification report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .diffop import (
    CompanionMatrix,
    FMatrix,
    SkewOp,
    build_Lf,
    companion_of,
    gauss_jordan,
    monicize,
    shape_matrix,
)
from .errors import (
    BadSpec,
    DegenerateRecursion,
    InconsistentSpec,
    NoCyclicVectorFound,
    NotReducedToBase,
    ZeroDenominator,
    ZeroEntry,
)
from .mpoly import (
    Derivation,
    MPoly,
    MRat,
    PolyRing,
    buchberger,
    nilpotent_log,
    normal_form,
    DEFAULT_BUDGET,
)
from .ratfield import RatFunc, hermite_reduce
from .tower import fundamental_T, rows_satisfy_T_prime_eq_AT

DEFAULT_CYCLIC_BUDGET = 200

QMatrix = tuple[tuple[Fraction, ...], ...]


def _cells(n: int) -> list[tuple[int, int]]:
    """The strictly upper positions (i, j), 0-based, by height j - i descending,
    then by row."""
    return [(i, i + h) for h in range(n - 1, 0, -1) for i in range(n - h)]


def zvar_names(n: int) -> tuple[str, ...]:
    return tuple(f"Z_{i + 1}_{j + 1}" for i, j in _cells(n))


def z_ring(n: int, coeff: str = "ratfunc") -> PolyRing:
    """The coordinate ring F[Z_i_j | 1 <= i < j <= n], lex in `zvar_names` order.

    Each entry (log Z)_ij is Z_i_j plus a polynomial in variables of lower
    height, so in this order its leading monomial is Z_i_j.
    """
    return PolyRing(zvar_names(n), coeff=coeff, order="lex")


def _q_matrix(rows: Sequence[Sequence]) -> QMatrix:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def _check_strictly_upper(m: QMatrix, n: int, what: str):
    if len(m) != n or any(len(r) != n for r in m):
        raise BadSpec(f"{what} must be {n}x{n}")
    for i in range(n):
        for j in range(i + 1):
            if m[i][j] != 0:
                raise BadSpec(f"{what} must be strictly upper triangular")


def _independent(mats: Sequence[QMatrix], n: int) -> bool:
    return _rank([_flat(m, n) for m in mats]) == len(mats)


def _rank(rows: list[list[Fraction]]) -> int:
    return len(gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


@dataclass
class GroupSpec:
    """A unipotent subgroup of U(n) with the data Algorithm-style pipelines need.

    Either `ideal_gens` (over Q in the Z_i_j) or `lie_basis` may be omitted;
    `resolved` derives the Lie basis from the ideal and always takes the ideal
    from the Lie basis.  `l` counts the leading basis elements whose images
    span the abelianization's Lie algebra; `a_choices` are the nonzero
    rational functions attached to them (defaults have simple poles at
    1, ..., l).
    """

    n: int
    ideal_gens: list[MPoly] | None = None
    lie_basis: list[QMatrix] | None = None
    l: int | None = None
    a_choices: list[RatFunc] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise BadSpec("n must be at least 2")
        if self.ideal_gens is None and self.lie_basis is None:
            raise BadSpec("need ideal generators or a Lie-algebra basis")
        if self.lie_basis is not None:
            self.lie_basis = [_q_matrix(m) for m in self.lie_basis]
            for m in self.lie_basis:
                _check_strictly_upper(m, self.n, "Lie basis element")
            if not _independent(self.lie_basis, self.n):
                raise BadSpec("Lie basis elements are linearly dependent")

    def resolved(self, groebner_budget: int = DEFAULT_BUDGET) -> "GroupSpec":
        """Check that the data describe one connected unipotent group exp(g)
        and fill in its Lie basis, its ideal, l and the a_i.

        g is spanned by `lie_basis`, or else by the ideal's tangent space, and
        must be a subalgebra.  The ideal is always `ideal_from_lie(g)`.  A
        given ideal must have exactly that reduced Groebner basis over Q;
        reduced bases are unique, so this proves I = I(exp g).
        """
        n, given = self.n, self.ideal_gens
        qring = z_ring(n, coeff="rational")
        if given is not None and any(g.ring != qring for g in given):
            raise BadSpec("ideal generators must be polynomials over Q in the Z_i_j")
        basis, source = self.lie_basis, "the Lie basis"
        if basis is None:
            basis, source = lie_from_ideal(given, n), "the ideal's tangent space"
        # all of u(n): a subalgebra with the zero ideal, and no bracket is formed
        full = len(basis) == n * (n - 1) // 2
        if not (full or _is_subalgebra(basis, n)):
            raise BadSpec(f"{source} does not span a subalgebra")
        ideal = [] if full else ideal_from_lie(basis, n)
        if given is not None and buchberger(given, qring, groebner_budget) != ideal:
            raise InconsistentSpec(f"the ideal is not that of exp(g), g spanned by {source}")
        if self.l is None:
            basis, l = abelianization_prefix(basis, n)
        else:
            l = self.l
        m = len(basis)
        max_dim = n * (n - 1) // 2
        if not 1 <= l <= m <= max_dim:
            raise BadSpec(f"need 1 <= l <= m <= {max_dim}, got l={l}, m={m}")
        a = self.a_choices if self.a_choices is not None else default_a_choices(l)
        a = [RatFunc.coerce(f) for f in a]
        if len(a) != l:
            raise BadSpec(f"need exactly l={l} rational functions, got {len(a)}")
        for i, f in enumerate(a):
            if f.is_zero():
                raise ZeroEntry(f"a_{i + 1} is zero")
        # The basis passed `__post_init__`'s checks or is a nullspace basis;
        # checking it again cannot fail.
        out = object.__new__(GroupSpec)
        out.n, out.ideal_gens, out.lie_basis, out.l, out.a_choices = n, ideal, list(basis), l, a
        return out


def _flat(m: QMatrix, n: int) -> list[Fraction]:
    return [m[i][j] for i in range(n) for j in range(i + 1, n)]


def _bracket(a: QMatrix, b: QMatrix, n: int) -> list[Fraction]:
    """[a, b] = ab - ba, flattened; the products run over nonzero entries only."""
    out: dict[tuple[int, int], Fraction] = {}
    for p, q, sign in ((a, b, 1), (b, a, -1)):
        for i, row in enumerate(p):
            for k, e in enumerate(row):
                if e:
                    for j, f in enumerate(q[k]):
                        if f:
                            out[i, j] = out.get((i, j), 0) + sign * e * f
    return [out.get((i, j), Fraction(0)) for i in range(n) for j in range(i + 1, n)]


def _reduce(v: list[Fraction], echelon: list[tuple[int, list[Fraction]]]) -> list[Fraction]:
    """v minus its components along echelon rows, each given with its pivot
    column, where it is 1, and 0 at every earlier row's pivot."""
    for c, row in echelon:
        if v[c]:
            v = [e - v[c] * r for e, r in zip(v, row)]
    return v


def _is_subalgebra(basis: Sequence[QMatrix], n: int) -> bool:
    """Whether every bracket of two basis elements lies in their span."""
    reduced, pivots, _ = gauss_jordan([_flat(m, n) for m in basis], n * (n - 1) // 2)
    echelon = list(zip(pivots, reduced))
    return not any(any(_reduce(_bracket(a, b, n), echelon))
                   for i, a in enumerate(basis) for b in basis[i + 1:])


def abelianization_prefix(basis: Sequence[QMatrix], n: int) -> tuple[list[QMatrix], int]:
    """Reorder a Lie-algebra basis so its first l elements map to a basis of
    the abelianization, and return (reordered basis, l).

    The commutator subalgebra is spanned by the pairwise brackets of any
    spanning set.  One Gauss-Jordan puts them in echelon form; each basis
    element in turn is reduced against that echelon, and it is kept, and
    joins the echelon, when something is left.
    """
    basis = [_q_matrix(m) for m in basis]
    comm = [br for i, a in enumerate(basis) for b in basis[i + 1:]
            if any(br := _bracket(a, b, n))]
    width = n * (n - 1) // 2
    reduced, pivots, _ = gauss_jordan(comm, width)
    echelon = list(zip(pivots, reduced))
    chosen: list[QMatrix] = []
    rest: list[QMatrix] = []
    for mat in basis:
        v = _reduce(_flat(mat, n), echelon)
        c = next((k for k, e in enumerate(v) if e), None)
        if c is None:
            rest.append(mat)
        else:
            chosen.append(mat)
            echelon.append((c, [e / v[c] for e in v]))
    if not chosen:
        raise BadSpec("Lie algebra equals its commutator subalgebra; not unipotent data")
    return chosen + rest, len(chosen)


def default_a_choices(l: int) -> list[RatFunc]:
    """1/(x-1), ..., 1/(x-l): simple poles at distinct points, so nontrivial
    rational combinations are never derivatives."""
    if l < 1:
        raise BadSpec("l must be at least 1")
    x = RatFunc.x()
    return [RatFunc.one() / (x - k) for k in range(1, l + 1)]


def a_choices_independent(a: Sequence[RatFunc]) -> bool:
    """Sufficient Hermite-based check that the images in F/F' are independent:
    every a_i leaves a residual with nonzero squarefree denominator and the
    residual denominators are pairwise coprime."""
    residuals = []
    for f in a:
        _, rest = hermite_reduce(f)
        _, proper = rest.split()
        if proper.is_zero():
            return False
        residuals.append(proper)
    for i in range(len(residuals)):
        for j in range(i + 1, len(residuals)):
            if residuals[i].den.gcd(residuals[j].den).degree > 0:
                return False
    return True


def build_Au(spec: GroupSpec) -> FMatrix:
    """A_u = sum_{i<=l} a_i X_i over Q(x)."""
    spec = spec.resolved() if spec.a_choices is None or spec.lie_basis is None else spec
    n = spec.n
    rows = [[RatFunc.zero() for _ in range(n)] for _ in range(n)]
    for a, xmat in zip(spec.a_choices, spec.lie_basis):
        for i in range(n):
            for j in range(n):
                if xmat[i][j]:
                    rows[i][j] = rows[i][j] + a * xmat[i][j]
    m = FMatrix(rows)
    if not m.is_strictly_upper():
        raise BadSpec("A_u is not strictly upper triangular")
    return m


def generic_point(ring: PolyRing, n: int) -> list[list[MPoly]]:
    """The unipotent matrix Z of indeterminates (1s on the diagonal)."""
    names = list(ring.names)
    z = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        z[i][i] = ring.one()
    for i in range(n):
        for j in range(i + 1, n):
            z[i][j] = ring.var(f"Z_{i + 1}_{j + 1}")
    assert len(names) == n * (n - 1) // 2
    return z


def derivation_from_Au(au: FMatrix, ring: PolyRing) -> Derivation:
    """Extend the derivation of Q(x) to F[Z] by Z' = A_u Z."""
    n = au.nrows
    z = generic_point(ring, n)
    images = {}
    for i in range(n):
        for j in range(i + 1, n):
            img = ring.zero()
            for k in range(n):
                a = au[i, k]
                if not a.is_zero() and not z[k][j].is_zero():
                    img = img + z[k][j].scale(a)
            images[f"Z_{i + 1}_{j + 1}"] = img
    return Derivation(ring, [images[name] for name in ring.names])


def cyclic_vector(au: FMatrix, budget: int = DEFAULT_CYCLIC_BUDGET
                  ) -> tuple[tuple[RatFunc, ...], FMatrix]:
    """Search for v with v, dv, ..., d^(n-1)v a basis; B holds their coordinates.

    The module action is d(e_i) = sum_j (A_u)_{i,j} e_j, so coordinate rows
    evolve by r -> r' + r A_u.  Deterministic low-degree candidates are tried
    in a fixed order.
    """
    n = au.nrows
    x = RatFunc.x()
    zero, one = RatFunc.zero(), RatFunc.one()

    def candidates():
        for i in range(n):
            yield tuple(one if k == i else zero for k in range(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    yield tuple(one if k == i else x if k == j else zero for k in range(n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        yield tuple(
                            one if t == i else x if t == j else x * x if t == k else zero
                            for t in range(n)
                        )

    tried = 0
    for v in candidates():
        tried += 1
        if tried > budget:
            break
        rows = [v]
        for _ in range(n - 1):
            prev = rows[-1]
            nxt = [prev[j].derive() for j in range(n)]
            for j in range(n):
                acc = nxt[j]
                for i in range(n):
                    if not prev[i].is_zero() and not au[i, j].is_zero():
                        acc = acc + prev[i] * au[i, j]
                nxt[j] = acc
            rows.append(tuple(nxt))
        b = FMatrix(rows)
        if not b.det().is_zero():
            return v, b
    raise NoCyclicVectorFound(f"no cyclic vector among {tried} candidates")


def g_recursion(ws: Sequence[MRat], deriv: Derivation) -> list[MRat]:
    """The fraction-field recursion G_n = 1/w_2', G_{n-1} = 1/(G_n w_3')', ...

    `ws` lists w_2, ..., w_n; the result lists G_n, ..., G_2 in that order.
    """
    n = len(ws) + 1
    gs: dict[int, MRat] = {}
    out: list[MRat] = []
    for j in range(2, n + 1):
        u = ws[j - 2].derive(deriv)
        for i in range(n, n - j + 2, -1):
            u = (gs[i] * u).derive(deriv)
        if u.is_zero():
            raise DegenerateRecursion(f"denominator of G_{n - j + 2} vanished")
        g = u.inverse()
        gs[n - j + 2] = g
        out.append(g)
    return out


def reduce_to_F(g: MRat, gb: Sequence[MPoly]) -> RatFunc:
    """Normal forms of numerator and denominator modulo the ideal, then the
    ratio in Q(x).  Both normal forms must be free of the Z variables."""
    nf_num = normal_form(g.num, gb) if gb else g.num
    nf_den = normal_form(g.den, gb) if gb else g.den
    if not nf_num.is_constant() or not nf_den.is_constant():
        raise NotReducedToBase(
            f"normal form retains ring variables: ({nf_num})/({nf_den})"
        )
    den = nf_den.constant_coeff()
    if den.is_zero():
        raise ZeroDenominator("denominator lies in the ideal")
    return nf_num.constant_coeff() / den


@dataclass
class VerificationReport:
    """Checkable consequences of a pipeline run."""

    companion_shape: bool = False
    base_field_coefficients: bool = False
    annihilation_mod_ideal: bool = False
    fundamental_identity: bool = False
    differential_ideal: bool = False
    a_independence_verified: bool = False  # informational, not gating

    def all_green(self) -> bool:
        return (
            self.companion_shape
            and self.base_field_coefficients
            and self.annihilation_mod_ideal
            and self.fundamental_identity
            and self.differential_ideal
        )

    def as_dict(self) -> dict:
        return {
            "companion_shape": self.companion_shape,
            "base_field_coefficients": self.base_field_coefficients,
            "annihilation_mod_ideal": self.annihilation_mod_ideal,
            "fundamental_identity": self.fundamental_identity,
            "differential_ideal": self.differential_ideal,
            "a_independence_verified": self.a_independence_verified,
        }


@dataclass
class PipelineResult:
    """Everything the construction produces, plus its verification report."""

    spec: GroupSpec
    A_u: FMatrix
    B: FMatrix
    A_c: CompanionMatrix
    f_tuple: tuple[RatFunc, ...]  # (f_1, ..., f_n), monic convention
    A: FMatrix
    L: SkewOp
    certificate: VerificationReport
    groebner_basis: list[MPoly] = field(default_factory=list)

    @property
    def f_partial(self) -> tuple[RatFunc, ...]:
        return self.f_tuple[1:]


def run_pipeline(spec: GroupSpec, groebner_budget: int = DEFAULT_BUDGET,
                 cyclic_budget: int = DEFAULT_CYCLIC_BUDGET) -> PipelineResult:
    """Full construction: A_u, cyclic vector, Wronskian normalization, G recursion,
    reduction to Q(x), shape matrix, monic operator L and A_c read off L."""
    spec = spec.resolved(groebner_budget)
    n = spec.n
    au = build_Au(spec)

    ring = z_ring(n)
    gb = [ring.from_terms(g.terms) for g in spec.ideal_gens]  # over Q(x)
    deriv = derivation_from_Au(au, ring)

    _, b = cyclic_vector(au, cyclic_budget)
    report = VerificationReport()

    # W = B0 B Z is a Wronskian with first row (1, w_2, ..., w_n); that row is
    # the first row of B Z divided by Y1 = B_11.
    z = generic_point(ring, n)
    bz_first = [_row_times_z(b, z, j, ring) for j in range(n)]
    y1_inv = RatFunc.one() / b[0, 0]
    ws = [MRat(p.scale(y1_inv), ring.one()) for p in bz_first[1:]]

    gs = g_recursion(ws, deriv)
    fs_rev = [reduce_to_F(g, gb) for g in gs]  # f_n, ..., f_2
    f_partial = tuple(reversed(fs_rev))  # f_2, ..., f_n
    for i, f in enumerate(f_partial):
        if f.is_zero():
            raise ZeroEntry(f"f_{i + 2} reduced to zero")
    report.base_field_coefficients = True

    f_tuple = monicize(f_partial)
    op = build_Lf(f_tuple)
    # B Z has rows y, y', ..., y^(n-1) with y = Y1 (1, w_2, ..., w_n) and L kills
    # the w_j, so Y1 L Y1^-1 is the operator of A_c = B A_u B^-1 + B' B^-1.
    companion = companion_of(SkewOp.const(b[0, 0]) * op * SkewOp.const(y1_inv))
    report.companion_shape = companion.matrix() * b == b.derive() + b * au
    a_matrix = shape_matrix(f_partial)

    report.annihilation_mod_ideal = _check_annihilation(ws, f_partial, deriv, gb)
    report.fundamental_identity = _check_fundamental(a_matrix, f_partial)
    report.differential_ideal = all(
        normal_form(deriv.derive(g), gb).is_zero() for g in gb
    )
    report.a_independence_verified = a_choices_independent(spec.a_choices)

    return PipelineResult(
        spec=spec,
        A_u=au,
        B=b,
        A_c=companion,
        f_tuple=f_tuple,
        A=a_matrix,
        L=op,
        certificate=report,
        groebner_basis=gb,
    )


def _row_times_z(b: FMatrix, z: list[list[MPoly]], j: int, ring: PolyRing) -> MPoly:
    """(B Z)_{1, j+1} as a polynomial in the Z variables."""
    acc = ring.zero()
    for i in range(b.ncols):
        e = b[0, i]
        if not e.is_zero() and not z[i][j].is_zero():
            acc = acc + z[i][j].scale(e)
    return acc


def _check_annihilation(ws: Sequence[MRat], f_partial: Sequence[RatFunc],
                        deriv: Derivation, gb: Sequence[MPoly]) -> bool:
    """(f_2 (f_3 (... (f_n w_j')...)')')' lies in the extended ideal for all j."""
    n = len(f_partial) + 1
    for w in ws:
        u = w.derive(deriv)
        for i in range(n, 1, -1):
            u = (u * MRat.from_poly(u.ring.const(f_partial[i - 2]))).derive(deriv)
        num_nf = normal_form(u.num, gb) if gb else u.num
        den_nf = normal_form(u.den, gb) if gb else u.den
        if not num_nf.is_zero() or den_nf.is_zero():
            return False
    return True


def _check_fundamental(a_matrix: FMatrix, f_partial: Sequence[RatFunc]) -> bool:
    """T' = A T entrywise for the tower-built fundamental matrix."""
    return all(rows_satisfy_T_prime_eq_AT(a_matrix, fundamental_T(f_partial)))


def ideal_from_lie(lie_basis: Sequence[QMatrix], n: int) -> list[MPoly]:
    """Reduced Groebner basis of the vanishing ideal of exp(span X_1..X_m).

    In characteristic 0, log: U(n) -> u(n) is a polynomial isomorphism, so
    exp(g) is cut out by l(log Z) for l in the annihilator of g.  With the
    l in reduced echelon form in the `z_ring` order these generators have
    distinct single-variable leading monomials, which are pairwise coprime:
    they are a Groebner basis already, and interreduction (lowest leading
    variable first) makes it the reduced one without any S-polynomial.
    """
    basis = [_q_matrix(m) for m in lie_basis]
    for m in basis:
        _check_strictly_upper(m, n, "Lie basis element")
    cells = _cells(n)
    annihilator = _nullspace([[m[i][j] for i, j in cells] for m in basis], len(cells))
    if not annihilator:
        return []
    ring = z_ring(n, coeff="rational")
    log_z = nilpotent_log(generic_point(ring, n))
    coords = [log_z[i][j] for i, j in cells]
    gens: list[MPoly] = []
    for ell in reversed(gauss_jordan(annihilator, len(cells))[0]):
        g = ring.zero()
        for e, coord in zip(ell, coords):
            if e:
                g = g + coord.scale(e)
        gens.append(normal_form(g, gens))
    return gens[::-1]


def lie_from_ideal(ideal_gens: Sequence[MPoly], n: int) -> list[QMatrix]:
    """Tangent space at the identity: solve the linearized generators.

    The identity is Z = 0 in these coordinates; generators must vanish there.
    The basis comes out in row-major coordinates, whatever the ring order.
    """
    names = zvar_names(n)
    cells = _cells(n)
    row_major = sorted(cells)
    col = [row_major.index(c) for c in cells]
    m = len(names)
    rows = []
    for g in ideal_gens:
        if g.ring.names != names:
            raise BadSpec("ideal generators use unexpected variables")
        const = g.constant_coeff()
        if const:
            raise BadSpec("ideal generator does not vanish at the identity")
        row = [Fraction(0)] * m
        nontrivial = False
        for mono, c in g.terms.items():
            if sum(mono) == 1:
                row[col[mono.index(1)]] = Fraction(c)
                nontrivial = True
        if nontrivial:
            rows.append(row)
    basis_vecs = _nullspace(rows, m)
    out = []
    for vec in basis_vecs:
        mat = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), e in zip(row_major, vec):
            mat[i][j] = e
        out.append(tuple(tuple(r) for r in mat))
    return out


def _nullspace(rows: list[list[Fraction]], m: int) -> list[list[Fraction]]:
    reduced, pivots, _ = gauss_jordan(rows, m)
    out = []
    for fc in range(m):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -reduced[ri][fc]
        out.append(vec)
    return out
