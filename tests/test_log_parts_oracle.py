"""`rational_log_parts` against the resultant-only version in
`log_parts_oracle`, and the lifted rational roots against the oracle's divisor
search `log_parts_oracle._rational_roots`.

Seeded random remainders mix rational poles (at 0, negative, and a/b with b up
to 10^3 and a a large prime) with irrational quadratic and cubic factors.
Where the oracle answers, both give the same parts; where it raises, both
raise the same error; where it runs out of its search budget, the parts must
still add up to the remainder, since `rational_log_parts` has no budget.  A
denominator that splits over Q never reaches the resultant.
"""

import random
from fractions import Fraction

import pytest

import log_parts_oracle
from diffgal import integrab
from diffgal.errors import BudgetExceeded, NotSupported
from diffgal.integrab import _lifted_roots, rational_log_parts
from diffgal.ratfield import RatFunc, UPoly, _primitive_int_list

X = RatFunc.x()
BIG_PRIMES = [10007, 999983, 1000003]
IRRATIONAL = [UPoly([-2, 0, 1]), UPoly([3, 0, 1]), UPoly([5, 1, 1]), UPoly([-3, 0, 2]),
              UPoly([1, 1, 0, 1]), UPoly([-2, 0, 0, 1]), UPoly([7, 0, -5, 3])]


def _pole(rng) -> Fraction:
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(-rng.randint(1, 50))
    if kind == 2:
        return Fraction(rng.choice(BIG_PRIMES) * rng.choice((1, -1)), rng.randint(1, 1000))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _remainder(rng):
    """A proper fraction over a squarefree denominator, whether all its
    residues were drawn rational, and whether its denominator splits over Q."""
    factors = []
    for alpha in {_pole(rng) for _ in range(rng.randint(0, 4))}:
        factors.append(UPoly([-alpha, 1]))
    factors += rng.sample(IRRATIONAL, rng.randint(0, 2))
    if not factors:
        factors = [UPoly([rng.randint(-5, 5), 1])]
    shared = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    all_equal = rng.random() < 0.2
    rational = True
    g = RatFunc.zero()
    for fac in factors:
        if fac.degree > 1 and rng.random() < 0.3:  # residues in an extension of Q
            rational = False
            num = UPoly([rng.randint(-6, 6) or 1]
                        + [rng.randint(-6, 6) for _ in range(fac.degree - 1)])
            g = g + RatFunc(num, fac)
            continue
        c = shared if all_equal or rng.random() < 0.3 else Fraction(rng.randint(-9, 9) or 2,
                                                                    rng.randint(1, 5))
        g = g + RatFunc(fac.derivative(), fac) * c
    return g, rational, all(fac.degree == 1 for fac in factors)


def _no_resultant(q, p):
    raise AssertionError("the resultant was computed for a denominator that splits over Q")


def _outcome(fn, g):
    try:
        return fn(g)
    except (BudgetExceeded, NotSupported) as exc:
        return type(exc), str(exc)


def _check_sum(parts, g):
    """Distinct sorted residues, monic pairwise coprime factors, sum == g."""
    cs = [c for c, _ in parts]
    assert cs == sorted(set(cs))
    acc = RatFunc.zero()
    for i, (c, fac) in enumerate(parts):
        assert fac.lc == 1 and fac.degree > 0
        assert all(fac.gcd(other).degree == 0 for _, other in parts[i + 1:])
        acc = acc + RatFunc(fac.derivative(), fac) * c
    assert acc == g


@pytest.mark.parametrize("seed", range(6))
def test_matches_the_resultant_oracle(seed, monkeypatch):
    # A small oracle budget keeps its slow searches short; they are checked by sum.
    monkeypatch.setattr(log_parts_oracle, "_FACTOR_TRIAL_LIMIT", 20_000)
    rng = random.Random(seed)
    for _ in range(25):
        g, rational, split = _remainder(rng)
        want = _outcome(log_parts_oracle.rational_log_parts, g)
        with pytest.MonkeyPatch.context() as mp:
            if split:
                mp.setattr(integrab, "_resultant_in_residue", _no_resultant)
            got = _outcome(rational_log_parts, g)
        if isinstance(want, tuple) and want[0] is BudgetExceeded:
            if isinstance(got, tuple):
                assert got[0] is NotSupported
            else:
                _check_sum(got, g)
            continue
        assert got == want, str(g)
        if rational:
            _check_sum(got, g)


@pytest.mark.parametrize("g, parts, split", [
    # one residue shared by a rational pole and an irrational pair
    (1 / (X - 1) + 2 * X / (X**2 - 2), [(1, UPoly([2, -2, -1, 1]))], False),
    # all residues equal, poles at 0 and at negative values
    (3 / X + 3 / (X + 7) + 3 / (X + Fraction(1, 999)),
     [(3, UPoly([0, 7, 1]) * UPoly([Fraction(1, 999), 1]))], True),
    (Fraction(5, 3) / (X - Fraction(1000003, 997)) - 2 / (X + Fraction(999983, 1000)),
     [(-2, UPoly([Fraction(999983, 1000), 1])),
      (Fraction(5, 3), UPoly([Fraction(-1000003, 997), 1]))],
     True),
    (1 / (X - 100000000003) + 2 / (X - 100000000019),
     [(1, UPoly([-100000000003, 1])), (2, UPoly([-100000000019, 1]))], True),
])
def test_parts(g, parts, split, monkeypatch):
    assert log_parts_oracle.rational_log_parts(g) == parts
    if split:
        monkeypatch.setattr(integrab, "_resultant_in_residue", _no_resultant)
    assert rational_log_parts(g) == parts


@pytest.mark.parametrize("g", [
    1 / (X - 1) + 1 / (X**2 - 2),
    Fraction(1, 3) / X + (X + 1) / (X**3 + X + 1),
    # rational poles beside a factor with irrational residues: the parts miss
    # some of the degree of q
    3 / (X + 2) + X / (X**3 + X + 1),
    # improper remainders, with and without rational poles
    X**2 / (X**2 - 2),
    (X**3 + 1) / ((X - 1) * (X + 2)),
])
def test_irrational_residues_not_supported(g):
    want = "residues are not all rational; the witness needs algebraic constants"
    for fn in (rational_log_parts, log_parts_oracle.rational_log_parts):
        with pytest.raises(NotSupported) as exc:
            fn(g)
        assert str(exc.value) == want


@pytest.mark.parametrize("pole", [None, Fraction(3), Fraction(-7, 2)])
def test_cofactor_route_keeps_the_search_budget(pole, monkeypatch):
    """Residues 2520 and 1/10080 on x^2 - 2 and x^2 - 3 (the resultant's end
    coefficients have many divisors), with or without a rational pole beside
    them: past a candidate limit of 2000 the oracle's divisor search stops,
    while the lifted roots, which search no candidates, give the parts the
    oracle gives at its default limit."""
    g = 5040 * X / (X**2 - 2) + X / (5040 * (X**2 - 3))
    if pole is not None:
        g = g + 4 / (X - pole)
    want = log_parts_oracle.rational_log_parts(g)
    monkeypatch.setattr(log_parts_oracle, "_FACTOR_TRIAL_LIMIT", 2000)
    with pytest.raises(BudgetExceeded, match="rational root search budget"):
        log_parts_oracle.rational_log_parts(g)
    assert rational_log_parts(g) == want


# -- the lifted roots ------------------------------------------------------------------


def _int_poly(roots, extra=()):
    p = UPoly.one()
    for r in roots:
        p = p * UPoly([-r.numerator, r.denominator])
    for q in extra:
        p = p * q
    return _primitive_int_list(p.ints)


def _lifted(f):
    return {Fraction(a, b) for a, b in _lifted_roots(f)}


def _searched_roots(f, roots):
    """The divisor search's roots, or the known roots where it needs more
    candidates or factoring trials than its budget allows."""
    try:
        return set(log_parts_oracle._rational_roots(UPoly(f)))
    except BudgetExceeded:
        return roots


@pytest.mark.parametrize("seed", range(4))
def test_lifted_roots_match_the_divisor_search(seed, monkeypatch):
    """Known roots up to 10^4/10^3 and large primes, with irreducible factors."""
    monkeypatch.setattr(log_parts_oracle, "_FACTOR_TRIAL_LIMIT", 20_000)
    rng = random.Random(100 + seed)
    for _ in range(40):
        roots = {Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**3))
                 for _ in range(rng.randint(0, 4))}
        if rng.random() < 0.3:
            roots.add(Fraction(rng.choice(BIG_PRIMES) * rng.choice((1, -1)),
                               rng.randint(1, 1000)))
        extra = rng.sample(IRRATIONAL, rng.randint(0, 2))
        if not roots and not extra:
            extra = [IRRATIONAL[0]]
        f = _int_poly(roots, extra)
        assert _lifted(f) == roots == _searched_roots(f, roots)


@pytest.mark.parametrize("roots, extra", [
    # lc 3 * 5 * 7: the primes 3, 5 and 7 divide it
    ([Fraction(1, 105), Fraction(-2), Fraction(4, 3)], []),
    # 1..12 apart by every difference up to 11: each prime up to 11 divides the discriminant
    ([Fraction(k) for k in range(1, 13)], []),
    # 3 divides lc(f') = 3 lc(f); roots at the bounds |a| = |f(0)| and b = lc(f)
    ([Fraction(-1000003, 997), Fraction(1, 5), Fraction(-1)], []),
    ([Fraction(100000000003), Fraction(100000000019)], []),
    ([Fraction(7, 3)], []),
    ([Fraction(-999983, 1000)], []),
    ([Fraction(5)], [UPoly([1, 0, 1])]),
    ([], [UPoly([-2, 0, 1]), UPoly([1, 1, 0, 1])]),
    # f(0) = 0: the root 0 is split off before |f(0)| bounds the reconstruction
    ([Fraction(0), Fraction(2)], []),
    ([Fraction(0), Fraction(2), Fraction(-3)], []),
])
def test_lifted_roots_at_bad_primes_and_bounds(roots, extra):
    f = _int_poly(roots, extra)
    assert _lifted(f) == set(roots) == _searched_roots(f, set(roots))
    assert len(_lifted_roots(f)) == len(roots)


def test_lifted_roots_refuse_a_square():
    for f in ([1, -2, 1], [0, 0, -2, 1]):  # (x - 1)^2, x^2 (x - 2)
        with pytest.raises(ValueError, match="not squarefree"):
            _lifted_roots(f)


@pytest.mark.parametrize("seed", range(3))
def test_resultant_interpolation_matches_the_oracle(seed):
    rng = random.Random(200 + seed)
    for _ in range(60):
        points = [(k, Fraction(rng.randint(-50, 50), rng.randint(1, 30)) if rng.random() < 0.8
                   else Fraction(0)) for k in range(rng.randint(1, 7))]
        assert integrab._lagrange(points) == log_parts_oracle._lagrange(
            [(Fraction(k), y) for k, y in points])
        q = UPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 3)])
        p = UPoly([rng.randint(-9, 9) for _ in range(q.degree)])
        assert integrab._resultant_in_residue(q, p) == log_parts_oracle._resultant_in_residue(q, p)
