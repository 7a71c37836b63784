"""The shared Gauss-Jordan kernel behind rank, nullspace, det and inverse."""

from fractions import Fraction

import pytest

from conftest import rand_fraction_matrices, rand_ratfunc
from diffgal.diffop import FMatrix, gauss_jordan
from diffgal.errors import SingularGauge
from diffgal.inverse import _nullspace, _rank
from diffgal.ratfield import RatFunc


def test_rank_and_det_match_sympy():
    sp = pytest.importorskip("sympy")
    deficient = 0
    for rows in rand_fraction_matrices():
        ref = sp.Matrix([[sp.Rational(e.numerator, e.denominator) for e in r] for r in rows])
        rank = _rank(rows)
        assert rank == ref.rank()
        deficient += rank < min(len(rows), len(rows[0]))
        if len(rows) == len(rows[0]):
            det = FMatrix(rows).det()
            assert det == RatFunc.from_fraction(Fraction(str(ref.det())))
    assert deficient >= 10


def test_nullspace_vectors_are_annihilated():
    for rows in rand_fraction_matrices():
        m = len(rows[0])
        basis = _nullspace(rows, m)
        assert len(basis) == m - _rank(rows)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)


def test_reduced_rows_are_in_echelon_form():
    for rows in rand_fraction_matrices(count=20):
        reduced, pivots, _ = gauss_jordan(rows, len(rows[0]))
        for r, c in enumerate(pivots):
            assert reduced[r][c] == 1
            assert all(reduced[i][c] == 0 for i in range(len(reduced)) if i != r)
            assert all(e == 0 for e in reduced[r][:c])
        assert all(not any(row) for row in reduced[len(pivots):])


def test_singular_ratfunc_matrix(rng):
    for _ in range(5):
        r1 = [rand_ratfunc(rng, 2) for _ in range(3)]
        r2 = [rand_ratfunc(rng, 2) for _ in range(3)]
        f, g = rand_ratfunc(rng, 2), rand_ratfunc(rng, 2)
        m = FMatrix([r1, r2, [f * a + g * b for a, b in zip(r1, r2)]])
        assert m.det() == 0
        with pytest.raises(SingularGauge):
            m.inverse()


def test_nonsingular_ratfunc_matrix(rng):
    x = RatFunc.x()
    for _ in range(5):
        m = FMatrix([[rand_ratfunc(rng, 2) for _ in range(3)] for _ in range(3)]) \
            + FMatrix.identity(3).scale(x ** 5)
        det = m.det()
        assert not det.is_zero()
        inv = m.inverse()
        assert m * inv == FMatrix.identity(3) == inv * m
        assert det * inv.det() == 1
