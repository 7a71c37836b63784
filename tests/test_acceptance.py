"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every check is exact rational arithmetic (zero tolerance); the stated runtime
ceilings are asserted with wall-clock measurements.  Each test prints one
PASS line on success (visible with -s; pytest -v shows the per-criterion
status either way).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import rand_ratfunc, rand_small_entry
from diffgal.cli import main
from diffgal.diffop import SkewOp, build_Lf, companion_of, monicize, operator_of, shape_matrix
from diffgal.integrab import (
    classify_exp,
    classify_log,
    classify_radical,
    infinity_integrable_in_Cx,
)
from diffgal.inverse import GroupSpec, run_pipeline
from diffgal.mpoly import PolyRing, buchberger, is_groebner, normal_form
from diffgal.parsing import parse_ratfunc
from diffgal.ratfield import RatFunc, UPoly, derive_n
from diffgal.tower import Tower, apply_operator, fundamental_T, nested_solutions

from test_integrab import _membership_oracle, exp_cases, log_cases, radical_cases

X = RatFunc.x()


def _report(name: str):
    print(f"{name}: PASS")


@pytest.fixture(scope="module")
def tuple_corpus():
    """Shared random corpus for criteria 4 and 5: >= 100 tuples, n <= 4,
    entries nonzero rationals / linear / quadratic rational functions."""
    rng = random.Random(20240815)
    corpus = []
    for _ in range(100):
        n = rng.randint(1, 4)
        fs = monicize([rand_small_entry(rng) for _ in range(n - 1)])
        f_next = rand_small_entry(rng)
        corpus.append((n, fs, f_next))
    return corpus


def test_criterion_1_golden_example_construct(tmp_path, capsys):
    """3x3 group with I = <Z_2_3>: exact f, A, L via the construct command."""
    spec = {
        "n": 3,
        "ideal": ["Z_2_3"],
        "lie_basis": [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
        "l": 2,
        "a": ["1/x", "1/(x-1)"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    started = time.monotonic()
    code = main(["construct", "--spec", str(path)])
    elapsed = time.monotonic() - started
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    out = rep["outputs"]
    assert parse_ratfunc(out["f"][2]) == X  # f_3 = x
    assert parse_ratfunc(out["f"][1]) == -((X - 1) ** 2)  # f_2 = -(x-1)^2
    a = out["A"]
    assert parse_ratfunc(a[0][1]) == 1 / X
    assert parse_ratfunc(a[1][2]) == -1 / (X - 1) ** 2
    assert parse_ratfunc(a[0][2]).is_zero() and parse_ratfunc(a[2][2]).is_zero()
    golden_L = (SkewOp.D(3) + SkewOp.const(2 * (1 / X + 1 / (X - 1))) * SkewOp.D(2)
                + SkewOp.const(2 / (X * (X - 1))) * SkewOp.D())
    got = _parse_operator_text(out["L"])
    assert got == golden_L
    assert all(rep["certificate"][k] for k in (
        "companion_shape", "base_field_coefficients", "annihilation_mod_ideal",
        "fundamental_identity", "differential_ideal"))
    assert elapsed < 5.0, f"construct took {elapsed:.2f}s"
    _report("criterion 1 (golden 3x3 construct)")


def _parse_operator_text(text: str) -> SkewOp:
    from diffgal.cli import _parse_operator

    return _parse_operator(text)


def _full_un_spec(n):
    def E(i, j):
        return tuple(tuple(Fraction(1 if (r, c) == (i - 1, j - 1) else 0)
                           for c in range(n)) for r in range(n))

    basis = [E(i, i + 1) for i in range(1, n)]
    for gap in range(2, n):
        basis.extend(E(i, i + gap) for i in range(1, n - gap + 1))
    a = [1 / (X - (n + 1 - i)) for i in range(1, n)]
    return GroupSpec(n=n, ideal_gens=[], lie_basis=basis, l=n - 1, a_choices=a)


def test_criterion_2_full_un_family():
    """Full U(n), n = 2..5 with c_i = i: f_i = x - i, certificate all green."""
    for n in (2, 3, 4, 5):
        started = time.monotonic()
        res = run_pipeline(_full_un_spec(n))
        elapsed = time.monotonic() - started
        assert res.f_partial == tuple(X - i for i in range(2, n + 1)), f"n={n}"
        cert = res.certificate
        assert cert.companion_shape
        assert cert.base_field_coefficients
        assert cert.annihilation_mod_ideal
        assert cert.fundamental_identity
        assert cert.differential_ideal
        if n == 5:
            assert elapsed < 30.0, f"n=5 pipeline took {elapsed:.2f}s"
    _report("criterion 2 (full U(n) n=2..5)")


def test_criterion_3_log_power_identity_and_stability():
    """d^n(x^(n-1)/(n-1)! log x) = 1/x for n = 1..6; stable elements of Q(x)
    are exactly the polynomials on a 50-case corpus."""
    tower = Tower()
    th = tower.add_log("th", X)
    fact = 1
    for n in range(1, 7):
        eta = th * RatFunc.from_fraction(Fraction(1, fact)) * X ** (n - 1)
        assert (eta.derive_n(n) - tower.expr(1 / X)).is_zero(), f"n={n}"
        fact *= n
    rng = random.Random(51)
    cases = 0
    seen_poly = seen_nonpoly = 0
    while cases < 50:
        g = rand_ratfunc(rng, 5)
        verdict = infinity_integrable_in_Cx(g)
        assert verdict.is_integrable == g.is_polynomial()
        seen_poly += g.is_polynomial()
        seen_nonpoly += not g.is_polynomial()
        cases += 1
    assert seen_poly >= 5 and seen_nonpoly >= 5
    _report("criterion 3 (log-power identity + stable elements)")


def test_criterion_4_factorization_annihilates(tuple_corpus):
    """Monicized operators annihilate all n nested-integral solutions,
    deg L = n; 100 random tuples within 60 s."""
    started = time.monotonic()
    for n, fs, f_next in tuple_corpus:
        op = build_Lf(fs)
        assert op.order == n
        assert op.is_monic()
        full = op * SkewOp.const(f_next)
        vs = nested_solutions(fs, f_next)
        assert len(vs) == n
        for v in vs:
            assert apply_operator(full, v).is_zero()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"corpus took {elapsed:.2f}s"
    _report(f"criterion 4 (annihilation on {len(tuple_corpus)} tuples, {elapsed:.1f}s)")


def test_criterion_5_matrix_equivalence(tuple_corpus):
    """T' = A T entrywise and operator_of(companion_of(L)) = L on the corpus."""
    for n, fs, f_next in tuple_corpus:
        op = build_Lf(fs)
        assert operator_of(companion_of(op)) == op
        if n == 1:
            continue
        a = shape_matrix(fs[1:])
        t_mat = fundamental_T(fs[1:])
        tower = t_mat[0][0].tower
        for i in range(n):
            for j in range(n):
                rhs = tower.zero()
                for k in range(n):
                    if not a[i, k].is_zero():
                        rhs = rhs + t_mat[k][j] * a[i, k]
                assert (t_mat[i][j].derive() - rhs).is_zero()
    _report("criterion 5 (T' = AT and companion round-trip)")


def test_criterion_6_classifiers_vs_oracle():
    """Classifiers agree with the independent membership oracle on >= 10
    positives and negatives per field; witnesses re-derive at depths 1..4."""
    suites = [
        (exp_cases, classify_exp),
        (log_cases, classify_log),
        (lambda: radical_cases(2), classify_radical),
        (lambda: radical_cases(3), classify_radical),
    ]
    for maker, classify in suites:
        tw, name, pos, neg = maker()
        kind = tw.gen(name).kind
        root = tw.gen(name).root
        assert len(pos) >= 10 and len(neg) >= 10
        for e in pos:
            assert _membership_oracle(e, name, kind, root)
            assert classify(e).is_integrable
            for depth in (1, 2, 3, 4):
                v = classify(e, depth=depth)
                assert (v.witness.derive_n(depth) - e).is_zero()
        for e in neg:
            assert not _membership_oracle(e, name, kind, root)
            assert not classify(e).is_integrable
    _report("criterion 6 (classifiers vs oracle, witnesses at depths 1..4)")


def test_criterion_7_algebra_kernels():
    """Leibniz (>=1000), skew associativity/distributivity (>=500),
    S-polynomial reduction (all pairs), normal-form idempotence (>=500)."""
    rng = random.Random(0xA11CE)
    for _ in range(1000):
        f = rand_ratfunc(rng, 6)
        g = rand_ratfunc(rng, 6)
        assert (f * g).derive() == f.derive() * g + f * g.derive()

    for _ in range(500):
        ops = [SkewOp([rand_ratfunc(rng, 3) for _ in range(rng.randint(0, 3) + 1)])
               for _ in range(3)]
        a, b, c = ops
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    ring = PolyRing(("u", "v", "w"), coeff="rational", order="degrevlex")
    u, v, w = ring.gens()
    bases = [
        buchberger([u**2 - v, u * v - u]),
        buchberger([u + v + w, u * v + v * w + u * w, u * v * w - 1]),
        buchberger([u**2 + v**2 - 1, u - w]),
    ]
    for gb in bases:
        assert is_groebner(gb)  # checks every S-polynomial pair

    gb = bases[1]
    for _ in range(500):
        p = ring.from_terms({
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                Fraction(rng.randint(-5, 5)) for _ in range(3)})
        nf = normal_form(p, gb)
        assert normal_form(nf, gb) == nf
    _report("criterion 7 (algebra kernel property suites)")


def test_criterion_8_galois_group_statement_is_delegated():
    """The Galois-group identity itself is not machine-checkable here; the
    certificate's checkable consequences stand in for it (criteria 1, 2, 4, 5).
    This test pins that delegation: a pipeline run exposes exactly the five
    checkable certificate facets, and they are all green on the corpus."""
    res = run_pipeline(_full_un_spec(3))
    cert = res.certificate.as_dict()
    facets = {
        "companion_shape", "base_field_coefficients", "annihilation_mod_ideal",
        "fundamental_identity", "differential_ideal",
    }
    assert facets <= set(cert)
    assert all(cert[k] for k in facets)
    _report("criterion 8 (group statement delegated to certificate)")
