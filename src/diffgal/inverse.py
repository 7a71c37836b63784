"""Construction of equations with a prescribed unipotent differential Galois group.

Given a subgroup of U(n) by defining ideal and/or Lie-algebra basis, the
pipeline builds the strictly upper matrix A_u = sum a_i X_i, picks a cyclic
vector and walks the recursion for the G_i at the generic point Z(Z_F) of
G = exp(g), whose coordinate ring is the polynomial ring Q(x)[Z_F] in the
d = dim g free coordinates.  Every value of the recursion is a polynomial
there, and each G_i is checked to lie in Q(x) as it is formed; they are the
f_i, from which it emits the shape matrix, the monic scalar operator L and
the companion matrix read off L.  Every checkable consequence is
recorded in a verification report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .diffop import (
    CompanionMatrix,
    FMatrix,
    SkewOp,
    build_Lf,
    companion_of,
    full_rank_mod_p,
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
    ZeroEntry,
)
# normal_form is not called here; `inverse.normal_form` stays bound because the
# benchmark's test_uninstall_restores_every_binding asserts it.
from .mpoly import (  # noqa: F401
    Derivation,
    MPoly,
    PolyRing,
    buchberger,
    normal_form,
    DEFAULT_BUDGET,
)
from .ratfield import RatFunc, UPoly, _hermite_parts, _int_eval, memo_scope
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

    A polynomial in variables of lower height than Z_i_j is smaller than Z_i_j
    in this order, so Z_i_j leads Z_i_j - phi whenever phi is one.
    """
    return PolyRing(zvar_names(n), coeff=coeff, order="lex")


def _q_matrix(rows: Sequence[Sequence]) -> QMatrix:
    return tuple(tuple(e if isinstance(e, Fraction) else Fraction(e) for e in row)
                 for row in rows)


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
        comm = None if full else _brackets(basis, n)
        if not (full or _is_subalgebra(basis, comm, n)):
            raise BadSpec(f"{source} does not span a subalgebra")
        ideal = [] if full else ideal_from_lie(basis, n)
        # An empty ideal is its own reduced basis: no Buchberger run.
        if given is not None and (buchberger(given, budget=groebner_budget)
                                  if given else []) != ideal:
            raise InconsistentSpec(f"the ideal is not that of exp(g), g spanned by {source}")
        if self.l is None:
            basis, l = abelianization_prefix(basis, n, comm)
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


def _brackets(basis: Sequence[QMatrix], n: int) -> list[list[Fraction]]:
    """The nonzero brackets of two basis elements, flattened."""
    return [br for i, a in enumerate(basis) for b in basis[i + 1:]
            if any(br := _bracket(a, b, n))]


def _is_subalgebra(basis: Sequence[QMatrix], brackets: list[list[Fraction]], n: int) -> bool:
    """Whether every bracket of two basis elements lies in their span."""
    reduced, pivots, _ = gauss_jordan([_flat(m, n) for m in basis], n * (n - 1) // 2)
    echelon = list(zip(pivots, reduced))
    return not any(any(_reduce(br, echelon)) for br in brackets)


def abelianization_prefix(basis: Sequence[QMatrix], n: int, comm: list | None = None
                          ) -> tuple[list[QMatrix], int]:
    """Reorder a Lie-algebra basis so its first l elements map to a basis of
    the abelianization, and return (reordered basis, l).

    The commutator subalgebra is spanned by the pairwise brackets of any
    spanning set (`comm`, formed here when not given).  One Gauss-Jordan puts
    them in echelon form; each basis element in turn is reduced against that
    echelon, and it is kept, and joins the echelon, when something is left.
    """
    basis = [_q_matrix(m) for m in basis]
    if comm is None:
        comm = _brackets(basis, n)
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
    """Whether a_1, ..., a_l are linearly independent over Q modulo F' = Q(x)'.

    The proper part of a_i's Hermite remainder has a squarefree denominator,
    is Q-linear in a_i and is zero exactly when a_i lies in F' (a polynomial
    always has a polynomial antiderivative), so the a_i are independent
    modulo F' exactly when these parts are: the rank of their numerators over
    the lcm of the denominators decides it.

    The rank is first taken mod p = `ratfield._GCD_PRIME` on each numerator's
    `ints`, the numerator times its positive integer `denom`, which keeps the
    rank over Q.  Rank mod p is at most rank over Q, so full rank mod p proves
    independence; only a short rank mod p leaves the answer to the exact
    elimination over Q."""
    parts = [_hermite_parts(f)[2] for f in a]
    common = UPoly.one()
    for r in parts:
        common = common * common.cofactors(r.den)[2]
    nums = [r.num * common.exact_div(r.den) for r in parts]
    width = common.degree
    if full_rank_mod_p([list(c.ints) + [0] * (width - len(c.ints)) for c in nums]):
        return True
    return _rank([list(c.coeffs) + [0] * (width - len(c.ints)) for c in nums]) == len(nums)


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


def generic_point(n: int, ideal_gens: Sequence[MPoly] = ()) -> list[list[MPoly]]:
    """The generic point Z(Z_F) of exp(g), over Q(x)[Z_F] lex in `z_ring` order.

    `ideal_gens` is the graph basis {Z_v - phi_v(Z_F)} of `ideal_from_lie`:
    the free cells F are those that lead no generator.  Z has 1s on the
    diagonal, the variable Z_f at each free cell and phi_v at each other cell.
    """
    names = zvar_names(n)
    phi: dict[int, MPoly] = {}
    for g in ideal_gens:
        k = g.lm().index(1)
        phi[k] = g.ring.var(names[k]) - g
    free = [k for k in range(len(names)) if k not in phi]
    if any(m[k] for p in phi.values() for m in p.terms for k in phi):
        raise BadSpec("ideal generators are not a graph over the free cells")
    ring = PolyRing([names[k] for k in free], coeff="ratfunc", order="lex")
    z = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate(_cells(n)):
        z[i][j] = (ring.from_terms({tuple(m[f] for f in free): c for m, c in phi[k].terms.items()})
                   if k in phi else ring.var(names[k]))
    return z


def derivation_from_Au(au: FMatrix, z: list[list[MPoly]]) -> Derivation:
    """Extend the derivation of Q(x) to Q(x)[Z_F] by Z_f' = (A_u Z)_f at the
    point `z` of `generic_point`."""
    ring = z[0][0].ring
    cell = dict(zip(zvar_names(au.nrows), _cells(au.nrows)))
    return Derivation(ring, [_row_times_z(au, z, *cell[name]) for name in ring.names])


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
        if _invertible(b):
            return v, b
    raise NoCyclicVectorFound(f"no cyclic vector among {tried} candidates")


def _invertible(b: FMatrix) -> bool:
    """det B != 0 over Q(x).

    B is evaluated at the first integer t of 0, 1, -1, 2, -2, ... where no
    entry has a pole, by Horner on each `ints`: with N and D the values of the
    numerator's and the denominator's `ints`, entry e(t) is a/q with
    a = N * den.denom and q = num.denom * D.  Each row of B(t) times the lcm of
    its q is a row of integers, and these rows have the rank of B(t) over Q.
    Rank mod p = `ratfield._GCD_PRIME` is at most rank over Q, so full rank of
    the integer rows mod p (`full_rank_mod_p`) proves det B(t) != 0 and hence
    det B != 0; otherwise the exact determinant decides.
    """
    k = 0
    while True:
        t = (k + 1) // 2 if k % 2 else -(k // 2)
        dens = [[_int_eval(e.den.ints, t) for e in row] for row in b.rows]
        if all(map(all, dens)):
            break
        k += 1
    rows = []
    for row, drow in zip(b.rows, dens):
        value = [(_int_eval(e.num.ints, t) * e.den.denom, e.num.denom * dv)
                 for e, dv in zip(row, drow)]
        m = lcm(*(q for _, q in value))
        rows.append([a * (m // q) for a, q in value])
    return full_rank_mod_p(rows) or not b.det().is_zero()


def g_recursion(ws: Sequence[MPoly], deriv: Derivation) -> list[RatFunc]:
    """The recursion G_n = 1/w_2', G_{n-1} = 1/(G_n w_3')', ... on Q(x)[Z_F].

    `ws` lists w_2, ..., w_n; the result lists G_n, ..., G_2 in that order.
    `deriv` has polynomial images, as `derivation_from_Au` builds it.  The
    G_i lie in Q(x), so every value formed is a polynomial, and the
    denominator of each G_i must be a nonzero constant of the ring.
    """
    n = len(ws) + 1
    gs: list[RatFunc] = []
    for j, w in enumerate(ws, start=2):
        u = deriv.derive(w)
        for g in gs:
            u = deriv.derive(u.scale(g))
        if u.is_zero():
            raise DegenerateRecursion(f"denominator of G_{n - j + 2} vanished")
        if not u.is_constant():
            raise NotReducedToBase(f"value retains ring variables: {u}")
        gs.append(u.constant_coeff().inverse())
    return gs


@dataclass
class VerificationReport:
    """Checkable consequences of a pipeline run, every facet gating: the
    companion's gauge identity, base-field coefficients, annihilation modulo
    the ideal, the fundamental-matrix identity, the differential-ideal
    property, and the independence of the a_i modulo F' (exact)."""

    companion_shape: bool = False
    base_field_coefficients: bool = False
    annihilation_mod_ideal: bool = False
    fundamental_identity: bool = False
    differential_ideal: bool = False
    a_independence_verified: bool = False

    def all_green(self) -> bool:
        return all(self.as_dict().values())

    def as_dict(self) -> dict:
        return asdict(self)


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


@memo_scope()
def run_pipeline(spec: GroupSpec, groebner_budget: int = DEFAULT_BUDGET,
                 cyclic_budget: int = DEFAULT_CYCLIC_BUDGET) -> PipelineResult:
    """Full construction: A_u, cyclic vector, Wronskian normalization, G recursion
    at the generic point of exp(g), shape matrix, monic operator L and A_c read
    off L."""
    spec = spec.resolved(groebner_budget)
    n = spec.n
    au = build_Au(spec)

    z = generic_point(n, spec.ideal_gens)
    deriv = derivation_from_Au(au, z)

    _, b = cyclic_vector(au, cyclic_budget)
    report = VerificationReport()

    # W = B0 B Z is a Wronskian with first row (1, w_2, ..., w_n); that row is
    # the first row of B Z divided by Y1 = B_11.
    y1_inv = RatFunc.one() / b[0, 0]
    ws = [_row_times_z(b, z, 0, j).scale(y1_inv) for j in range(1, n)]

    f_partial = tuple(reversed(g_recursion(ws, deriv)))  # f_2, ..., f_n
    report.base_field_coefficients = True

    f_tuple = monicize(f_partial)
    op = build_Lf(f_tuple)
    # B Z has rows y, y', ..., y^(n-1) with y = Y1 (1, w_2, ..., w_n) and L kills
    # the w_j, so Y1 L Y1^-1 is the operator of A_c = B A_u B^-1 + B' B^-1.
    companion = companion_of(SkewOp.const(b[0, 0]) * op * SkewOp.const(y1_inv))
    report.companion_shape = companion.matrix() * b == b.derive() + b * au
    a_matrix = shape_matrix(f_partial)

    report.annihilation_mod_ideal = _check_annihilation(ws, f_partial, deriv)
    report.fundamental_identity = _check_fundamental(a_matrix, f_partial)
    report.differential_ideal = _check_differential_ideal(au, z, deriv)
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
        groebner_basis=spec.ideal_gens,
    )


def _row_times_z(m: FMatrix, z: list[list[MPoly]], i: int, j: int) -> MPoly:
    """(M Z)_{i+1, j+1} as a polynomial in the free coordinates."""
    acc = z[0][0].ring.zero()
    for k in range(m.ncols):
        e = m[i, k]
        if not e.is_zero() and not z[k][j].is_zero():
            acc = acc + z[k][j].scale(e)
    return acc


def _check_annihilation(ws: Sequence[MPoly], f_partial: Sequence[RatFunc],
                        deriv: Derivation) -> bool:
    """(f_2 (f_3 (... (f_n w_j')...)')')' vanishes on exp(g) for all j."""
    for w in ws:
        u = deriv.derive(w)
        for f in reversed(f_partial):
            u = deriv.derive(u.scale(f))
        if not u.is_zero():
            return False
    return True


def _check_differential_ideal(au: FMatrix, z: list[list[MPoly]], deriv: Derivation) -> bool:
    """Z' = A_u Z on the dependent cells too: the derivation, defined by its
    values on the free coordinates, keeps the point on exp(g)."""
    free = set(z[0][0].ring.names)
    return all(deriv.derive(z[i][j]) == _row_times_z(au, z, i, j)
               for name, (i, j) in zip(zvar_names(au.nrows), _cells(au.nrows))
               if name not in free)


def _check_fundamental(a_matrix: FMatrix, f_partial: Sequence[RatFunc]) -> bool:
    """T' = A T entrywise for the tower-built fundamental matrix."""
    return all(rows_satisfy_T_prime_eq_AT(a_matrix, fundamental_T(f_partial)))


def ideal_from_lie(lie_basis: Sequence[QMatrix], n: int) -> list[MPoly]:
    """Reduced Groebner basis of the vanishing ideal of exp(span X_1..X_m).

    exp is a polynomial isomorphism from g onto G, so G is the graph of the
    dependent entries over the free ones.  One Gauss-Jordan of g, with the
    cells lowest first, gives the free cells F as its pivots and, as row f,
    the X_f that is 1 at f and 0 at the other free cells and at every lower
    cell.  With X = sum y_f X_f, Z = exp(X) - 1 is X + R, where each entry of
    R = sum_{k >= 2} X^k / k! needs only entries of X of lower height, and
    X_f = y_f.  So one pass over the cells, lowest first, solves
    Z_f = y_f + R_f for y_f and fills in X and Z.  Each dependent Z_v
    involves only free variables below it, so the Z_v - Z_v(Z_F) are the
    reduced basis in the `z_ring` order as they stand.
    """
    basis = [_q_matrix(m) for m in lie_basis]
    for m in basis:
        _check_strictly_upper(m, n, "Lie basis element")
    cells = _cells(n)[::-1]
    rows, pivots, _ = gauss_jordan([[m[i][j] for i, j in cells] for m in basis], len(cells))
    if len(pivots) == len(cells):
        return []
    ring = z_ring(n, coeff="rational")
    zero, var = ring.zero(), dict(zip(_cells(n), ring.gens()))
    x, y, z = {}, {}, {}  # by cell: X, the y_f and Z
    powers = [x] + [{} for _ in range(2, n)]  # powers[k - 1][i, j] = (X^k)_ij
    for col, (i, j) in enumerate(cells):
        r = zero
        for k in range(2, j - i + 1):
            p = sum((powers[k - 2][i, t] * x[t, j] for t in range(i + k - 1, j)), zero)
            powers[k - 1][i, j] = p
            r = r + p.scale(Fraction(1, factorial(k)))
        if col in pivots:
            y[i, j] = var[i, j] - r
        x[i, j] = sum((y[cells[c]].scale(row[col]) for c, row in zip(pivots, rows) if row[col]),
                      zero)
        z[i, j] = x[i, j] + r
    return [var[v] - z[v] for v in _cells(n) if v not in y]


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
