"""gauge_transform, and the pipeline's companion matrix A_c, against the
textbook formula B A B^-1 + B' B^-1, which is computed here only, as the
reference; and the companion_shape facet A_c B = B' + B A_u."""

import json
import random
from fractions import Fraction

import pytest

from conftest import is_companion, rand_small_entry
from diffgal import cli, inverse
from diffgal.diffop import FMatrix, SkewOp, build_Lf, gauge_transform
from diffgal.errors import SingularGauge
from diffgal.inverse import GroupSpec, build_Au, cyclic_vector, run_pipeline
from diffgal.ratfield import RatFunc

X = RatFunc.x()


def reference(a: FMatrix, b: FMatrix) -> FMatrix:
    binv = b.inverse()
    return b * a * binv + b.derive() * binv


def rows_of_c_in_b(a: FMatrix, b: FMatrix) -> list:
    """For each row of C = B' + B A, the index of an equal row of B, or None."""
    c = b.derive() + b * a
    return [next((k for k, r in enumerate(b.rows) if r == row), None) for row in c.rows]


def unit(n, i, j):
    return [[1 if (r, s) == (i, j) else 0 for s in range(n)] for r in range(n)]


def poles(rng, count):
    out = []
    while len(out) < count:
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if p not in out:
            out.append(p)
    return [1 / (X - p) for p in out]


def full_spec(rng, n):
    """All of U(n); the superdiagonal units come first and carry seeded poles."""
    basis = [unit(n, i, i + gap) for gap in range(1, n) for i in range(n - gap)]
    return GroupSpec(n=n, lie_basis=basis, l=n - 1, a_choices=poles(rng, n - 1))


def one_parameter_spec(rng, n):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = rng.choice((-2, -1, 1, 2)) if j == i + 1 else rng.randint(-3, 3)
    return GroupSpec(n=n, lie_basis=[mat], l=1, a_choices=poles(rng, 1))


def random_matrix(rng, n):
    return FMatrix([[rand_small_entry(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("seed", range(4))
def test_arbitrary_invertible_b(seed):
    rng = random.Random(seed)
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    assert not b.det().is_zero()
    assert rows_of_c_in_b(a, b) == [None] * 3
    assert gauge_transform(a, b) == reference(a, b)


@pytest.mark.parametrize("n", range(3, 7))
def test_cyclic_vector_full_group(n):
    au = build_Au(full_spec(random.Random(n), n))
    _, b = cyclic_vector(au)
    assert rows_of_c_in_b(au, b) == list(range(1, n)) + [None]
    ac = gauge_transform(au, b)
    assert ac == reference(au, b)
    assert is_companion(ac)


@pytest.mark.parametrize("seed", range(2))
def test_cyclic_vector_one_parameter_subgroup(seed):
    au = build_Au(one_parameter_spec(random.Random(seed), 5))
    _, b = cyclic_vector(au)
    ac = gauge_transform(au, b)
    assert ac == reference(au, b)
    assert is_companion(ac)


@pytest.mark.parametrize("seed", range(3))
def test_row_permuted_cyclic_b(seed):
    rng = random.Random(seed)
    au = build_Au(full_spec(rng, 4))
    _, b = cyclic_vector(au)
    order = list(range(4))
    while order == sorted(order):
        rng.shuffle(order)
    pb = FMatrix([b.rows[k] for k in order])
    known = rows_of_c_in_b(au, pb)
    assert any(k is not None and k != i + 1 for i, k in enumerate(known))
    assert gauge_transform(au, pb) == reference(au, pb)


def test_one_by_one():
    a, b = FMatrix([[1 / (X - 2)]]), FMatrix([[X**2 + 1]])
    expected = FMatrix([[1 / (X - 2) + 2 * X / (X**2 + 1)]])
    assert gauge_transform(a, b) == expected == reference(a, b)


def test_singular_b_raises():
    rng = random.Random(7)
    a = random_matrix(rng, 3)
    r0, r2 = [rand_small_entry(rng) for _ in range(3)], [rand_small_entry(rng) for _ in range(3)]
    b = FMatrix([r0, [X * e for e in r0], r2])
    with pytest.raises(SingularGauge):
        gauge_transform(a, b)


def test_singular_b_raises_with_no_row_left_to_solve():
    a, b = FMatrix.zero(2), FMatrix([[1, 0], [0, 0]])
    assert None not in rows_of_c_in_b(a, b)
    with pytest.raises(SingularGauge):
        gauge_transform(a, b)


def test_pipeline_green_without_full_inverse(monkeypatch):
    def no_inverse(self):
        raise AssertionError("FMatrix.inverse called")

    monkeypatch.setattr(FMatrix, "inverse", no_inverse)
    rng = random.Random(11)
    for spec in (full_spec(rng, 4), GroupSpec(n=4, ideal_gens=[]),
                 GroupSpec(n=4, lie_basis=one_parameter_spec(rng, 4).lie_basis)):
        assert run_pipeline(spec).certificate.all_green()


def krylov(a: FMatrix, v) -> FMatrix:
    """Rows v, v' + v A, ...: the coordinates of v, dv, ... as cyclic_vector builds them."""
    rows = [FMatrix([v])]
    for _ in range(a.nrows - 1):
        rows.append(rows[-1].derive() + rows[-1] * a)
    return FMatrix([r.rows[0] for r in rows])


def test_spurious_term_in_L_fails_companion_shape(monkeypatch):
    spec = full_spec(random.Random(4), 4)
    honest = run_pipeline(spec).certificate.as_dict()
    monkeypatch.setattr(inverse, "build_Lf", lambda fs: build_Lf(fs) + SkewOp.D())
    faulty = run_pipeline(spec).certificate.as_dict()
    assert honest["companion_shape"] and not faulty["companion_shape"]
    assert dict(faulty, companion_shape=True) == honest


def test_spurious_term_in_L_exits_1(monkeypatch, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 4, "ideal": []}))
    monkeypatch.setattr(inverse, "build_Lf", lambda fs: build_Lf(fs) + SkewOp.D())
    assert cli.main(["construct", "--spec", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["certificate"]["companion_shape"] is False


def forced_vectors(n):
    one, zero = RatFunc.one(), RatFunc.zero()
    return [(X, one) + (zero,) * (n - 2), (X**2, zero, X) + (zero,) * (n - 3)]


@pytest.mark.parametrize("n,one_parameter", [(3, False), (4, False), (5, False), (4, True)])
def test_companion_from_L_with_forced_cyclic_vector(monkeypatch, n, one_parameter):
    rng = random.Random(n)
    spec = one_parameter_spec(rng, n) if one_parameter else full_spec(rng, n)
    for v in forced_vectors(spec.n):
        b = krylov(build_Au(spec), v)
        assert not b.det().is_zero() and b[0, 0] == v[0]
        monkeypatch.setattr(inverse, "cyclic_vector", lambda au, budget, v=v: (v, krylov(au, v)))
        res = run_pipeline(spec)
        assert res.B == b
        assert res.A_c.matrix() == reference(res.A_u, res.B)
        assert res.certificate.all_green()
