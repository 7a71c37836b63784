"""Randomized end-to-end hardening: conjugated group specs, witness fuzzing,
print/parse round trips."""

import random
from fractions import Fraction

from conftest import is_squarefree, rand_upoly
from diffgal.cli import _parse_operator
from diffgal.errors import NotSupported
from diffgal.diffop import SkewOp
from diffgal.integrab import elementary_n_witness
from diffgal.inverse import GroupSpec, ideal_from_lie, run_pipeline
from diffgal.parsing import parse_ratfunc
from diffgal.ratfield import RatFunc, UPoly
from diffgal.tower import Tower

X = RatFunc.x()


def _conjugated_abelian_spec(rng, n):
    """Random abelian subalgebra of the first-row span, conjugated by a random
    rational unipotent matrix.  Conjugation preserves brackets, so the result
    is a valid commutative Lie algebra with l = m."""
    cols = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    basis = []
    for j in cols:
        mat = [[Fraction(0)] * n for _ in range(n)]
        mat[0][j] = Fraction(1)
        basis.append(mat)
    # random unipotent conjugator with small integer entries
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u[i][j] = Fraction(rng.randint(-2, 2))
    uinv = _unipotent_inverse(u, n)
    conj = []
    for mat in basis:
        m1 = _mat_mul_q(u, mat, n)
        conj.append(tuple(tuple(row) for row in _mat_mul_q(m1, uinv, n)))
    return GroupSpec(n=n, lie_basis=conj, l=len(conj))


def _mat_mul_q(a, b, n):
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _unipotent_inverse(u, n):
    # Neumann series terminates for unipotent matrices
    nil = [[u[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    out = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for k in range(1, n):
        term = _mat_mul_q(term, nil, n)
        for i in range(n):
            for j in range(n):
                out[i][j] += (-1) ** k * term[i][j]
    return out


class TestRandomizedPipeline:
    def test_conjugated_abelian_specs_all_green(self):
        rng = random.Random(2718)
        for trial in range(12):
            n = rng.randint(2, 4)
            spec = _conjugated_abelian_spec(rng, n)
            res = run_pipeline(spec)
            assert res.certificate.all_green(), f"trial {trial}: {spec.lie_basis}"
            assert res.L.is_monic()
            assert res.L.order == n

    def test_conjugated_specs_roundtrip_ideal_lie(self):
        rng = random.Random(577)
        for _ in range(5):
            spec = _conjugated_abelian_spec(rng, 3)
            res = spec.resolved()
            assert res.ideal_gens == ideal_from_lie(spec.lie_basis, 3)
            # the derived ideal, given back with its Lie basis, is accepted
            GroupSpec(n=3, ideal_gens=res.ideal_gens, lie_basis=spec.lie_basis).resolved()


class TestWitnessFuzz:
    def test_never_wrong_only_verified_or_not_supported(self):
        """Random rational functions: the witness builder either returns an
        expression whose n-th derivative is exactly the input (asserted
        internally) or reports that algebraic constants would be needed."""
        rng = random.Random(1009)
        produced = 0
        bailed = 0
        for _ in range(50):
            num = rand_upoly(rng, 3)
            den = rand_upoly(rng, 3, nonzero=True)
            g = RatFunc(num, den)
            n = rng.randint(1, 3)
            try:
                w = elementary_n_witness(g, n)
            except NotSupported:
                bailed += 1
                continue
            produced += 1
            assert (w.derive_n(n) - w.tower.expr(g)).is_zero()
        assert produced >= 10
        assert bailed >= 1

    def test_designed_rational_residues(self):
        """Inputs assembled from q'/q pieces with rational residues are
        1-integrable by construction; the witness must verify."""
        rng = random.Random(31337)
        for _ in range(20):
            g = RatFunc(rand_upoly(rng, 2))
            for _ in range(rng.randint(1, 3)):
                q = rand_upoly(rng, 2, nonzero=True).monic()
                if q.degree == 0 or not is_squarefree(q):
                    continue
                c = Fraction(rng.randint(-4, 4))
                g = g + RatFunc(q.derivative() * c, q)
            h = RatFunc(rand_upoly(rng, 2), rand_upoly(rng, 1, nonzero=True))
            g = g + h.derive()
            w = elementary_n_witness(g, 1)
            assert (w.derive() - w.tower.expr(g)).is_zero()


class TestPrintParseRoundTrips:
    def test_operator_text(self, rng):
        from conftest import rand_ratfunc

        for _ in range(60):
            op = SkewOp([rand_ratfunc(rng, 3) for _ in range(rng.randint(1, 4))])
            if op.is_zero():
                continue
            assert _parse_operator(str(op)) == op

    def test_tower_expressions(self, rng):
        from conftest import rand_ratfunc

        tw = Tower()
        th = tw.add_log("th", X)
        t = tw.add_exp("t", tw.x())
        gens = [tw.x(), th, t]
        for _ in range(150):
            e = tw.expr(rand_ratfunc(rng, 2))
            for _ in range(rng.randint(1, 3)):
                e = e * gens[rng.randrange(3)] + rand_ratfunc(rng, 2)
            if rng.random() < 0.3:
                d = gens[rng.randrange(3)] + rng.randint(1, 3)
                e = e / d
            again = tw.parse(str(e))
            assert (again - e).is_zero()

    def test_ratfunc_corner_forms(self):
        cases = ["1/2/(x - 4)", "-x^2 + 2*x - 1", "(-1)/(x^3 - 2*x^2 + x)",
                 "0", "7/2", "x"]
        for s in cases:
            v = parse_ratfunc(s)
            assert parse_ratfunc(str(v)) == v
