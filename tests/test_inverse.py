"""Inverse-problem pipeline: A_u, cyclic vectors, G recursion, reduction, report."""

import json
import random
from fractions import Fraction

import pytest

from conftest import is_companion
from diffgal.diffop import FMatrix, SkewOp, gauge_transform, gauss_jordan
from diffgal.errors import (
    BadSpec,
    InconsistentSpec,
    NoCyclicVectorFound,
    NotNilpotent,
    NotReducedToBase,
    ZeroEntry,
)
from diffgal.inverse import (
    GroupSpec,
    a_choices_independent,
    abelianization_prefix,
    build_Au,
    cyclic_vector,
    default_a_choices,
    derivation_from_Au,
    g_recursion,
    generic_point,
    ideal_from_lie,
    lie_from_ideal,
    reduce_to_F,
    run_pipeline,
    z_ring,
)
import diffgal.inverse as inverse
import diffgal.mpoly as mpoly
from diffgal.mpoly import MRat, is_groebner
from diffgal.ratfield import RatFunc, hermite_reduce

X = RatFunc.x()


def E(n, i, j):
    return tuple(tuple(Fraction(1 if (r, c) == (i - 1, j - 1) else 0)
                       for c in range(n)) for r in range(n))


def golden_spec():
    """The 3x3 example at c1 = 0, c2 = 1: I = <Z_2_3>, basis E12, E13."""
    ring = z_ring(3, coeff="rational")
    return GroupSpec(n=3, ideal_gens=[ring.var("Z_2_3")],
                     lie_basis=[E(3, 1, 2), E(3, 1, 3)], l=2,
                     a_choices=[1 / X, 1 / (X - 1)])


def full_un_spec(n):
    # full basis of u(n): superdiagonal prefix (the abelianization basis),
    # then the higher diagonals
    basis = [E(n, i, i + 1) for i in range(1, n)]
    for gap in range(2, n):
        basis.extend(E(n, i, i + gap) for i in range(1, n - gap + 1))
    a = [1 / (X - (n + 1 - i)) for i in range(1, n)]
    return GroupSpec(n=n, ideal_gens=[], lie_basis=basis, l=n - 1, a_choices=a)


class TestDefaultAChoices:
    def test_goldens(self):
        assert default_a_choices(2) == [1 / (X - 1), 1 / (X - 2)]
        assert default_a_choices(1) == [1 / (X - 1)]

    def test_combinations_have_simple_poles(self, rng):
        a = default_a_choices(3)
        for _ in range(50):
            cs = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
            if not any(cs):
                continue
            combo = RatFunc.zero()
            for c, f in zip(cs, a):
                combo = combo + f * RatFunc.from_fraction(c)
            _, rest = hermite_reduce(combo)
            _, proper = rest.split()
            assert not proper.is_zero()

    def test_independence_check(self):
        assert a_choices_independent(default_a_choices(4))
        # derivatives are not independent witnesses
        assert not a_choices_independent([(1 / X).derive()])
        # shared pole breaks the sufficient criterion
        assert not a_choices_independent([1 / (X - 1), 2 / (X - 1)])


class TestBuildAu:
    def test_golden(self):
        au = build_Au(golden_spec())
        assert au == FMatrix([[0, 1 / X, 1 / (X - 1)], [0, 0, 0], [0, 0, 0]])

    def test_full_u2(self):
        spec = GroupSpec(n=2, ideal_gens=[], lie_basis=[E(2, 1, 2)], l=1)
        au = build_Au(spec.resolved())
        assert au == FMatrix([[0, 1 / (X - 1)], [0, 0]])

    def test_full_un_superdiagonal(self):
        spec = full_un_spec(4).resolved()
        au = build_Au(spec)
        for i in range(1, 4):
            assert au[i - 1, i] == 1 / (X - (4 + 1 - i))


class TestCyclicVector:
    def test_golden_matrix(self):
        au = build_Au(golden_spec())
        v, b = cyclic_vector(au)
        assert v == (RatFunc.one(), RatFunc.zero(), RatFunc.zero())
        assert b == FMatrix([
            [1, 0, 0],
            [0, 1 / X, 1 / (X - 1)],
            [0, -1 / X**2, -1 / (X - 1) ** 2],
        ])

    def test_n2_first_basis_vector(self):
        au = FMatrix([[0, 1], [0, 0]])
        v, b = cyclic_vector(au)
        assert v == (RatFunc.one(), RatFunc.zero())
        assert b == FMatrix([[1, 0], [0, 1]])

    def test_random_shape_matrices_gauge_to_companion(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            rows = [[RatFunc.zero()] * n for _ in range(n)]
            for i in range(n - 1):
                rows[i][i + 1] = 1 / (X - rng.randint(1, 9))
            au = FMatrix(rows)
            v, b = cyclic_vector(au)
            ac = gauge_transform(au, b)
            assert is_companion(ac)

    def test_budget_failure(self):
        au = FMatrix([[0, 1 / X], [0, 0]])
        with pytest.raises(NoCyclicVectorFound):
            cyclic_vector(au, budget=0)


class TestGRecursion:
    def setup_method(self):
        self.spec = golden_spec()
        self.au = build_Au(self.spec)
        self.z = generic_point(3, self.spec.ideal_gens)
        self.ring = self.z[0][0].ring
        self.deriv = derivation_from_Au(self.au, self.z)
        self.ws = [MRat.from_poly(self.z[0][1]), MRat.from_poly(self.z[0][2])]

    def test_golden_g3(self):
        gs = g_recursion(self.ws, self.deriv)
        assert gs[0] == MRat.from_poly(self.ring.const(X))  # G_3 = x - c1

    def test_golden_g2_matches_display(self):
        # G_2 = 1/(Z_2_3 + (x-c1)/(x-c2))'
        gs = g_recursion(self.ws, self.deriv)
        inner = MRat.from_poly(
            self.z[1][2] + self.ring.const(X / (X - 1)))
        assert gs[1] == inner.derive(self.deriv).inverse()

    def test_full_u2(self):
        z = generic_point(2)
        au = FMatrix([[0, 1 / (X - 1)], [0, 0]])
        deriv = derivation_from_Au(au, z)
        ws = [MRat.from_poly(z[0][1])]
        gs = g_recursion(ws, deriv)
        assert gs == [MRat.from_poly(z[0][0].ring.const(X - 1))]


def z23_point():
    """The generic point of exp(g) for I = <Z_2_3> in U(3), over Q(x)[Z_1_3, Z_1_2]."""
    return generic_point(3, [z_ring(3, coeff="rational").var("Z_2_3")])


class TestReduceToF:
    def test_golden_phi(self):
        spec = golden_spec()
        z = z23_point()
        deriv = derivation_from_Au(build_Au(spec), z)
        ws = [MRat.from_poly(z[0][1]), MRat.from_poly(z[0][2])]
        gs = g_recursion(ws, deriv)
        assert reduce_to_F(gs[0]) == X
        assert reduce_to_F(gs[1]) == -((X - 1) ** 2)

    def test_z_free_unchanged(self):
        ring = z23_point()[0][0].ring
        g = MRat.from_poly(ring.const((X + 2) / (X - 5)))
        assert reduce_to_F(g) == (X + 2) / (X - 5)

    def test_surviving_variable_raises(self):
        ring = z23_point()[0][0].ring
        g = MRat.from_poly(ring.var("Z_1_2"))
        with pytest.raises(NotReducedToBase):
            reduce_to_F(g)


class TestGenericPoint:
    def test_graph_entries(self):
        ring = z_ring(3, coeff="rational")
        z12, z23 = ring.var("Z_1_2"), ring.var("Z_2_3")
        z = generic_point(3, [ring.var("Z_1_3") - (z12 * z23).scale(Fraction(1, 2))])
        assert z[0][0].ring.names == ("Z_1_2", "Z_2_3")
        assert [str(z[i][j]) for i, j in ((0, 1), (1, 2), (0, 2))] == [
            "Z_1_2", "Z_2_3", "(1/2)*Z_1_2*Z_2_3"]
        assert z[1][1] == z[0][0].ring.one() and z[1][0].is_zero()

    def test_full_point_is_the_full_ring(self):
        assert generic_point(4)[0][0].ring == z_ring(4)

    def test_tail_in_a_dependent_variable_rejected(self):
        ring = z_ring(3, coeff="rational")
        gens = [ring.var("Z_1_3") - ring.var("Z_2_3"), ring.var("Z_2_3")]
        with pytest.raises(BadSpec, match="graph"):
            generic_point(3, gens)


class TestCertificateFacets:
    def test_annihilation_false_for_a_wrong_f(self):
        res = run_pipeline(golden_spec())
        z = generic_point(3, res.spec.ideal_gens)
        deriv = derivation_from_Au(res.A_u, z)
        y1_inv = 1 / res.B[0, 0]
        ws = [MRat.from_poly(inverse._row_times_z(res.B, z, 0, j).scale(y1_inv)) for j in (1, 2)]
        assert inverse._check_annihilation(ws, res.f_partial, deriv)
        f2, f3 = res.f_partial
        assert not inverse._check_annihilation(ws, (f2, f3 + 1), deriv)

    def test_differential_ideal_true_for_A_u_in_g(self):
        spec = golden_spec().resolved()
        z = generic_point(3, spec.ideal_gens)
        au = build_Au(spec)
        assert inverse._check_differential_ideal(au, z, derivation_from_Au(au, z))

    def test_differential_ideal_false_for_A_u_outside_g(self):
        # the point of exp(span(E12, E13)) has Z_2_3 = 0, but A_u = E23/x moves it
        spec = golden_spec().resolved()
        z = generic_point(3, spec.ideal_gens)
        au = FMatrix([[0, 0, 0], [0, 0, 1 / X], [0, 0, 0]])
        assert not inverse._check_differential_ideal(au, z, derivation_from_Au(au, z))

    def test_differential_ideal_false_at_a_point_of_the_wrong_group(self):
        # the point of exp(s (E12 + E23)) has Z_1_3 = Z_2_3^2/2, which the
        # derivation of A_u = (E12 + E23 + E13)/x does not keep
        g = [[Fraction(int(j == i + 1)) for j in range(3)] for i in range(3)]
        z = generic_point(3, ideal_from_lie([g], 3))
        au = FMatrix([[0, 1 / X, 1 / X], [0, 0, 1 / X], [0, 0, 0]])
        assert not inverse._check_differential_ideal(au, z, derivation_from_Au(au, z))


class TestPipeline:
    def test_golden_example(self):
        res = run_pipeline(golden_spec())
        assert res.f_partial == (-((X - 1) ** 2), X)
        assert res.A[0, 1] == 1 / X
        assert res.A[1, 2] == -1 / (X - 1) ** 2
        want = (SkewOp.D(3) + SkewOp.const(2 * (1 / X + 1 / (X - 1))) * SkewOp.D(2)
                + SkewOp.const(2 / (X * (X - 1))) * SkewOp.D())
        assert res.L == want
        assert res.L.is_monic()
        assert res.certificate.all_green()

    def test_full_un_family(self):
        for n in (2, 3, 4):
            res = run_pipeline(full_un_spec(n))
            assert res.f_partial == tuple(X - i for i in range(2, n + 1))
            assert res.certificate.all_green()

    def test_abelian_line_in_u3(self):
        mat = tuple(tuple(Fraction(1 if (r, c) in ((0, 1), (1, 2)) else 0)
                          for c in range(3)) for r in range(3))
        res = run_pipeline(GroupSpec(n=3, lie_basis=[mat], l=1))
        assert res.certificate.all_green()
        assert res.f_partial == (X - 1, X - 1)

    def test_corner_group_needs_nontrivial_cyclic_vector(self):
        res = run_pipeline(GroupSpec(n=3, lie_basis=[E(3, 2, 3)], l=1))
        assert res.certificate.all_green()
        assert res.f_partial == ((X - 1) ** 2 / (X - 2), RatFunc.one())

    def test_product_of_u2s(self):
        res = run_pipeline(GroupSpec(n=4, lie_basis=[E(4, 1, 2), E(4, 3, 4)], l=2))
        assert res.certificate.all_green()

    def test_determinism(self):
        def snapshot():
            res = run_pipeline(golden_spec())
            return json.dumps({
                "f": [str(f) for f in res.f_tuple],
                "A": [[str(e) for e in row] for row in res.A.rows],
                "B": [[str(e) for e in row] for row in res.B.rows],
                "L": str(res.L),
                "cert": res.certificate.as_dict(),
            }, sort_keys=True)

        assert snapshot() == snapshot()

    def test_zero_a_choice_rejected(self):
        with pytest.raises(ZeroEntry):
            run_pipeline(GroupSpec(n=2, ideal_gens=[], lie_basis=[E(2, 1, 2)],
                                   l=1, a_choices=[RatFunc.zero()]))

    def test_invalid_l(self):
        with pytest.raises(BadSpec):
            run_pipeline(GroupSpec(n=2, ideal_gens=[], lie_basis=[E(2, 1, 2)],
                                   l=5))

    def test_a_choices_length_mismatch(self):
        with pytest.raises(BadSpec):
            run_pipeline(GroupSpec(n=3, ideal_gens=[], lie_basis=None, l=2,
                                   a_choices=[1 / X]))

    def test_ideal_only_spec_derives_basis_and_l(self):
        ring = z_ring(3, coeff="rational")
        res = run_pipeline(GroupSpec(n=3, ideal_gens=[ring.var("Z_2_3")]))
        assert res.spec.l == 2
        assert len(res.spec.lie_basis) == 2
        assert res.certificate.all_green()


class TestLieIdealConversions:
    def test_ideal_from_lie_golden(self):
        gens = ideal_from_lie([E(3, 1, 2), E(3, 1, 3)], 3)
        assert [str(g) for g in gens] == ["Z_2_3"]

    def test_full_u3_zero_ideal(self):
        assert ideal_from_lie([E(3, 1, 2), E(3, 1, 3), E(3, 2, 3)], 3) == []

    def test_lie_from_ideal_golden(self):
        ring = z_ring(3, coeff="rational")
        basis = lie_from_ideal([ring.var("Z_2_3")], 3)
        flat = sorted(tuple(e for row in m for e in row) for m in basis)
        assert flat == sorted([
            tuple(e for row in E(3, 1, 2) for e in row),
            tuple(e for row in E(3, 1, 3) for e in row),
        ])

    def test_roundtrip_corpus(self):
        ring = z_ring(3, coeff="rational")
        specs = [
            GroupSpec(n=3, ideal_gens=[ring.var("Z_2_3")], l=2),
            full_un_spec(3),
            GroupSpec(n=4, lie_basis=[E(4, 1, 2), E(4, 3, 4)], l=2),
            golden_spec(),
        ]
        for spec in specs:
            res = spec.resolved()
            if spec.ideal_gens is not None:  # given as a reduced basis already
                assert res.ideal_gens == spec.ideal_gens

    def test_nonvanishing_generator_rejected(self):
        ring = z_ring(3, coeff="rational")
        with pytest.raises(BadSpec):
            lie_from_ideal([ring.var("Z_2_3") + ring.one()], 3)


class TestSpecIsOneGroup:
    """`resolved` takes the ideal from the graph of exp and accepts a given
    ideal only when its reduced basis over Q is exactly that one."""

    def test_non_reduced_ideal_accepted_and_replaced(self):
        ring = z_ring(3, coeff="rational")
        z12, z23 = ring.var("Z_1_2"), ring.var("Z_2_3")
        res = GroupSpec(n=3, ideal_gens=[z23, z23 + z12 * z23]).resolved()
        assert res.ideal_gens == [z23]

    def test_ideal_with_a_second_component_rejected(self):
        # Z_2_3 (Z_1_3 + 2) has the tangent space of <Z_2_3>, but it also
        # vanishes on Z_1_3 = -2
        ring = z_ring(3, coeff="rational")
        gen = ring.var("Z_2_3") * (ring.var("Z_1_3") + 2)
        with pytest.raises(InconsistentSpec):
            GroupSpec(n=3, ideal_gens=[gen]).resolved()

    def test_ideal_disagreeing_with_lie_basis_rejected(self):
        ring = z_ring(3, coeff="rational")
        with pytest.raises(InconsistentSpec):
            GroupSpec(n=3, ideal_gens=[ring.var("Z_2_3")],
                      lie_basis=[E(3, 1, 2), E(3, 2, 3), E(3, 1, 3)]).resolved()

    def test_non_subalgebra_rejected(self):
        with pytest.raises(BadSpec, match="subalgebra"):
            GroupSpec(n=4, lie_basis=[E(4, 1, 2), E(4, 2, 3), E(4, 3, 4)]).resolved()

    def test_ideal_over_q_of_x_rejected(self):
        with pytest.raises(BadSpec, match="over Q"):
            GroupSpec(n=3, ideal_gens=[z_ring(3).var("Z_2_3")]).resolved()

    def test_full_basis_forms_no_brackets(self, monkeypatch):
        def no_bracket(*args):
            raise AssertionError("bracket formed")

        monkeypatch.setattr(inverse, "_bracket", no_bracket)
        res = full_un_spec(7).resolved()
        assert res.ideal_gens == []
        with pytest.raises(AssertionError, match="bracket formed"):
            GroupSpec(n=3, lie_basis=[E(3, 1, 2), E(3, 1, 3)], l=2).resolved()


class TestAbelianizationPrefix:
    def test_full_u3(self):
        basis, l = abelianization_prefix([E(3, 1, 2), E(3, 2, 3), E(3, 1, 3)], 3)
        assert l == 2
        flat = [tuple(e for row in m for e in row) for m in basis[:2]]
        assert tuple(e for row in E(3, 1, 3) for e in row) not in flat

    def test_abelian_keeps_all(self):
        basis, l = abelianization_prefix([E(3, 1, 2), E(3, 1, 3)], 3)
        assert l == 2


def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _seeded_upper(rng, n):
    return [[Fraction(rng.choice((-2, -1, 1, 2))) if j == i + 1
             else Fraction(rng.randint(-3, 3)) if j > i else Fraction(0)
             for j in range(n)] for i in range(n)]


def _seeded_subalgebra(rng, n, dim):
    """span(N) for a seeded strictly upper N, or the abelian span(N, N^2 + c E_1n)."""
    x = _seeded_upper(rng, n)
    if dim == 1:
        return [x]
    sq = _mul(x, x)
    sq[0][n - 1] += rng.randint(1, 3)
    return [x, sq]


def _conjugated(rng, basis, n):
    """P X P^-1 for a seeded unipotent P: the same Lie algebra, densely written."""
    nil = _seeded_upper(rng, n)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    p = [[ident[i][j] + nil[i][j] for j in range(n)] for i in range(n)]
    p_inv, power = [row[:] for row in ident], ident
    for k in range(1, n):
        power = _mul(power, nil)
        p_inv = [[e + (-1) ** k * f for e, f in zip(r, q)] for r, q in zip(p_inv, power)]
    return [_mul(_mul(p, m), p_inv) for m in basis]


def _mixed(rng, basis):
    """b_j + sum_{k<j} c_jk b_k: the same span, in a basis not adapted to [g, g]."""
    out = []
    for j, b in enumerate(basis):
        cs = [rng.randint(-2, 2) for _ in range(j)]
        out.append([[e + sum(c * basis[k][r][col] for k, c in enumerate(cs))
                     for col, e in enumerate(row)] for r, row in enumerate(b)])
    return out


def _sympy_exp_ideal(sp, basis, n):
    """Reduced lex basis of the elimination ideal of Z = exp(sum t_k X_k), by sympy."""
    ts = sp.symbols(f"t1:{len(basis) + 1}")
    zs = sp.symbols(z_ring(n).names)
    m = sp.zeros(n)
    for t, b in zip(ts, basis):
        m += t * sp.Matrix(n, n, [sp.Rational(e.numerator, e.denominator) for r in b for e in r])
    expm, term = sp.eye(n), sp.eye(n)
    for k in range(1, n):
        term = term * m / k
        expm += term
    zm = {str(z): z for z in zs}
    rels = [zm[f"Z_{i + 1}_{j + 1}"] - sp.expand(expm[i, j])
            for i in range(n) for j in range(i + 1, n)]
    gb = sp.groebner(rels, *ts, *zs, order="lex")
    return [g for g in gb.exprs if not g.free_symbols & set(ts)], zm


def log_series(u_mat):
    """log U = sum_k (-1)^(k+1) N^k / k for N = U - 1 strictly upper, where N^n = 0."""
    n = len(u_mat)
    ring = u_mat[0][0].ring
    nil = [[e - 1 if i == j else e for j, e in enumerate(row)] for i, row in enumerate(u_mat)]
    if any(not nil[i][j].is_zero() for i in range(n) for j in range(i + 1)):
        raise NotNilpotent("U - 1 must be strictly upper triangular")
    out = [[ring.zero()] * n for _ in range(n)]
    power = nil
    for k in range(1, n):
        if k > 1:
            power = [[sum((power[i][t] * nil[t][j] for t in range(n)), ring.zero())
                      for j in range(n)] for i in range(n)]
        out = [[e + p.scale(Fraction((-1) ** (k + 1), k)) for e, p in zip(r, q)]
               for r, q in zip(out, power)]
    return out


def log_map_ideal(basis, n):
    """Reference reduced basis of I(exp g): l(log Z) for l in the annihilator of g,
    in reduced echelon form in the `z_ring` order, interreduced by normal forms."""
    ring = z_ring(n, coeff="rational")
    cells = inverse._cells(n)  # the `z_ring` order
    annihilator = inverse._nullspace([[Fraction(m[i][j]) for i, j in cells] for m in basis],
                                     len(cells))
    z = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    for i, j in cells:
        z[i][j] = ring.var(f"Z_{i + 1}_{j + 1}")
    log_z = log_series(z)
    gens = []
    for ell in reversed(gauss_jordan(annihilator, len(cells))[0] if annihilator else []):
        g = sum((log_z[i][j].scale(e) for e, (i, j) in zip(ell, cells) if e), ring.zero())
        gens.append(mpoly.normal_form(g, gens))
    return gens[::-1]


def _subalgebra_shapes(n):
    """One- and two-parameter, block-diagonal, height >= 2 and all-but-E12
    subalgebras of u(n)."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    half = n // 2
    return {
        "one_parameter": _seeded_subalgebra(random.Random(n), n, 1),
        "two_parameter": _seeded_subalgebra(random.Random(n), n, 2),
        "block": [E(n, i, j) for i, j in cells if (i <= half) == (j <= half)],
        "height_2": [E(n, i, j) for i, j in cells if j - i >= 2],
        "all_but_E12": [E(n, i, j) for i, j in cells if (i, j) != (1, 2)],
    }


class TestGraphIdeal:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_log_map_reference(self, n):
        rng = random.Random(f"graph/{n}")
        for name, basis in _subalgebra_shapes(n).items():
            for g in (basis, _conjugated(rng, basis, n)):
                assert ideal_from_lie(g, n) == log_map_ideal(g, n), name

    def test_full_algebra_forms_no_polynomial(self, monkeypatch):
        def no_ring(*args, **kwargs):
            raise AssertionError("polynomial ring formed")

        monkeypatch.setattr(inverse, "z_ring", no_ring)
        full = [E(6, i, j) for i in range(1, 7) for j in range(i + 1, 7)]
        assert ideal_from_lie(_conjugated(random.Random(6), full, 6), 6) == []

    def test_lie_only_construct_calls_no_normal_form(self, monkeypatch):
        def no_normal_form(*args):
            raise AssertionError("normal form formed")

        monkeypatch.setattr(mpoly, "normal_form", no_normal_form)
        monkeypatch.setattr(inverse, "normal_form", no_normal_form)
        for basis in _subalgebra_shapes(5).values():
            res = run_pipeline(GroupSpec(n=5, lie_basis=basis))
            assert res.certificate.all_green()


class TestLogMapIdeal:
    @pytest.mark.parametrize("n,dim", [(n, d) for n in (4, 5, 6) for d in (1, 2)])
    def test_matches_sympy_elimination(self, n, dim):
        sp = pytest.importorskip("sympy")
        basis = _seeded_subalgebra(random.Random(f"{n}/{dim}"), n, dim)
        gens = ideal_from_lie(basis, n)
        want, zm = _sympy_exp_ideal(sp, basis, n)
        assert [sp.expand(sp.sympify(str(g).replace("^", "**"), locals=zm))
                for g in gens] == want

    def test_single_variable_leading_monomials(self):
        gens = ideal_from_lie(_seeded_subalgebra(random.Random(9), 6, 1), 6)
        ring = z_ring(6, coeff="rational")
        assert [sum(g.lm()) for g in gens] == [1] * 14
        assert sorted((g.lm() for g in gens), key=ring.key, reverse=True) == [g.lm() for g in gens]
        assert is_groebner(gens)

    def test_ring_orders_variables_by_height(self):
        assert z_ring(4).names == ("Z_1_4", "Z_1_3", "Z_2_4", "Z_1_2", "Z_2_3", "Z_3_4")

    def test_lie_from_ideal_emits_row_major(self):
        ring = z_ring(4, coeff="rational")
        basis = lie_from_ideal([ring.var("Z_1_2") - ring.var("Z_3_4"), ring.var("Z_2_3")], 4)
        e12_plus_e34 = tuple(tuple(a + b for a, b in zip(r, q))
                             for r, q in zip(E(4, 1, 2), E(4, 3, 4)))
        assert basis == [E(4, 1, 3), E(4, 1, 4), E(4, 2, 4), e12_plus_e34]

    @pytest.mark.parametrize("n", [5, 7])
    def test_lie_only_pipeline_forms_no_s_polynomial(self, monkeypatch, n):
        def no_spoly(f, g):
            raise AssertionError("S-polynomial formed")

        monkeypatch.setattr(mpoly, "spoly", no_spoly)
        basis = _seeded_subalgebra(random.Random(n), n, 1)
        res = run_pipeline(GroupSpec(n=n, lie_basis=basis))
        assert res.certificate.all_green()
        assert all(sum(g.lm()) == 1 for g in res.groebner_basis)


def _abelianization_reference(sp, basis, n):
    """Greedy choice of the elements independent modulo [g, g], by sympy ranks."""
    mats = [sp.Matrix(n, n, [sp.Rational(e.numerator, e.denominator) for r in m for e in r])
            for m in basis]

    def flat(m):
        return [m[i, j] for i in range(n) for j in range(i + 1, n)]

    comm = {tuple(flat(a * b - b * a)) for i, a in enumerate(mats) for b in mats[i + 1:]}
    rows = [list(r) for r in comm if any(r)]
    rows = [r for r in sp.Matrix(rows).rref()[0].tolist() if any(r)] if rows else []
    chosen, rest = [], []
    for k, m in enumerate(mats):
        if sp.Matrix(rows + [flat(m)]).rank() > len(rows):
            chosen.append(k)
            rows.append(flat(m))
        else:
            rest.append(k)
    return chosen + rest, len(chosen)


class TestAbelianizationAgainstSympy:
    def check(self, basis, n):
        sp = pytest.importorskip("sympy")
        basis = [tuple(tuple(Fraction(e) for e in row) for row in m) for m in basis]
        order, l = _abelianization_reference(sp, basis, n)
        assert abelianization_prefix(basis, n) == ([basis[k] for k in order], l)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_full_un_shuffled(self, n):
        basis = [E(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        random.Random(n).shuffle(basis)
        self.check(basis, n)
        assert abelianization_prefix(basis, n)[1] == n - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_subalgebras(self, seed):
        rng = random.Random(seed)
        n = 4 + seed % 2
        full = [E(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        heisenberg = [E(n, 1, 2), E(n, 2, 3), E(n, 1, 3)]
        for basis in (_seeded_subalgebra(rng, n, 1), _seeded_subalgebra(rng, n, 2),
                      _conjugated(rng, full, n), _conjugated(rng, heisenberg, n),
                      _mixed(rng, full), _mixed(rng, _conjugated(rng, heisenberg, n))):
            rng.shuffle(basis)
            self.check(basis, n)
