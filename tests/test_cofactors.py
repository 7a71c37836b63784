"""`UPoly.cofactors`: the heuristic integer gcd, its PRS fallback and its cap."""

import random
from fractions import Fraction

import pytest
import sympy

import diffgal.ratfield as rf
from diffgal.ratfield import UPoly

from test_upoly import _sympy_gcd, assert_canonical, rand_coeffs, ref_mul


def _no_heuristic_point_certifies(monkeypatch):
    """Make every heuristic point fail, as when all of them exhaust; count PRS runs."""
    prs_calls = []
    prs = rf._prs_gcd

    def counting(a, b):
        prs_calls.append(1)
        return prs(a, b)

    monkeypatch.setattr(rf, "_heu_gcd", lambda a, b, xi: None)
    monkeypatch.setattr(rf, "_prs_gcd", counting)
    return prs_calls


def check_cofactors(p, q, expected_gcd):
    g, cp, cq = p.cofactors(q)
    for poly in (g, cp, cq):
        assert_canonical(poly)
    assert list(g.coeffs) == expected_gcd
    assert g.lc == 1
    assert g * cp == p and g * cq == q
    assert p.gcd(q) == g
    return g, cp, cq


def _planted(rng, big):
    common = rand_coeffs(rng, 4, big=big)
    if len(common) < 2:
        common = [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))]
    if rng.random() < 0.5:  # a negative leading coefficient
        common = [-c for c in common]
    a = ref_mul(common, rand_coeffs(rng, 6, big=big) or [Fraction(1)])
    b = ref_mul(common, rand_coeffs(rng, 6, big=big) or [Fraction(-1)])
    return a, b, common


@pytest.mark.parametrize("seed", range(6))
def test_planted_common_factor_matches_sympy(seed):
    rng = random.Random(900 + seed)
    for _ in range(12):
        big = rng.random() < 0.5  # coefficients of about 100 bits over denominators
        a, b, common = _planted(rng, big)
        g, _, _ = check_cofactors(UPoly(a), UPoly(b), _sympy_gcd(a, b))
        assert g.degree >= len(common) - 1


@pytest.mark.parametrize("seed", range(4))
def test_heuristic_and_prs_give_the_same_cofactors(seed, monkeypatch):
    rng = random.Random(950 + seed)
    pairs = [_planted(rng, rng.random() < 0.5)[:2] for _ in range(10)]
    pairs += [(rand_coeffs(rng, 6), rand_coeffs(rng, 6)) for _ in range(10)]
    pairs = [(UPoly(a), UPoly(b)) for a, b in pairs if a and b]
    heuristic = [p.cofactors(q) for p, q in pairs]
    prs_calls = _no_heuristic_point_certifies(monkeypatch)
    assert [p.cofactors(q) for p, q in pairs] == heuristic
    assert prs_calls


@pytest.mark.parametrize("cofs", [
    ([0, 1, 1], [2, 1, 1]),  # x^2 + x and x^2 + x + 2 are even at every integer
    ([0, 2, -3, 1], [6, 2, -3, 1]),  # x(x-1)(x-2) and x(x-1)(x-2) + 6: both divisible by 6
])
def test_cofactor_values_sharing_an_integer_factor_at_every_point(cofs):
    for common in ([3, 1, -2], [-7, 0, 5, 1], [1, 1]):
        p = UPoly(rf._conv(common, cofs[0]))
        q = UPoly(rf._conv(common, cofs[1]))
        g, _, _ = check_cofactors(p, q, _sympy_gcd(list(p.coeffs), list(q.coeffs)))
        assert g == UPoly(common).monic()


# Pairs met in expand_verify (seed 1) whose cofactor values share an integer
# factor at most small points (the first pair at 41 of the 78 from 44 to 121),
# so a slowly growing schedule of points exhausts on them.  `_heu_points`
# certifies both at its second point; forced onto the PRS they answer the same.
EXHAUSTING_PAIRS = [
    ([-4800, 8960, 3514, -14009, -11113, -2775, -225], [-16, -12, 20, 21, 5], [2, 1]),
    ([-243, 708, 244, -989, -151, 12, -152, 5, 38], [0, 0, -1, -3, -2, 2, 3, 1], [1, 1]),
]


@pytest.mark.parametrize("a, b, gcd", EXHAUSTING_PAIRS)
def test_pairs_whose_points_fail_reach_the_prs_and_answer(a, b, gcd, monkeypatch):
    p, q = UPoly(a), UPoly(b)
    heuristic = check_cofactors(p, q, gcd)
    prs_calls = _no_heuristic_point_certifies(monkeypatch)
    assert check_cofactors(p, q, gcd) == heuristic
    assert prs_calls


def test_a_pair_above_the_cap_answers_without_the_heuristic(monkeypatch):
    rng = random.Random(17)
    big = 1 << 40000
    a = rf._conv([3, 1], [rng.randint(-big, big) for _ in range(4)])
    b = rf._conv([3, 1], [rng.randint(-big, big) for _ in range(3)])
    xi = next(iter(rf._heu_points(a, b)), None)
    assert xi is None  # even the first point is above the cap
    assert max(len(a), len(b)) * (2 * big).bit_length() > rf._HEU_GCD_BITS

    def forbidden(*args):
        raise AssertionError("the heuristic ran above its cap")

    monkeypatch.setattr(rf, "_heu_gcd", forbidden)
    x = sympy.Symbol("x")
    expected = sympy.gcd(sympy.Poly(a[::-1], x), sympy.Poly(b[::-1], x)).monic()
    check_cofactors(UPoly(a), UPoly(b),
                    [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())])


def test_constant_operands_and_zero_in_gcd():
    p = UPoly([Fraction(1, 2), 3, -4])
    one = UPoly.one()
    assert p.cofactors(UPoly.const(Fraction(-2, 3))) == (one, p, UPoly.const(Fraction(-2, 3)))
    assert p.gcd(UPoly.zero()) == p.monic() == UPoly.zero().gcd(p)
    g, cp, cq = p.cofactors(p * 7)
    assert (g, cp, cq) == (p.monic(), UPoly.const(p.lc), UPoly.const(7 * p.lc))
