"""`integrab.rational_log_parts` as it stood before the rational poles were
found by p-adic lifting: every residue came from the Rothstein-Trager
resultant, interpolated, and a search over the divisors of the end
coefficients of its squarefree part.

Kept as a reference, its code unchanged and its comments dropped.
`tests/test_log_parts_oracle.py` asserts that
`diffgal.integrab.rational_log_parts` gives the same parts, or raises the same
error, on every remainder it generates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from diffgal.errors import BudgetExceeded, NotSupported
from diffgal.ratfield import RatFunc, UPoly, _primitive_int_list, resultant

_FACTOR_TRIAL_LIMIT = 1_000_000


def _factor_int(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    trials = 0
    p = 2
    while p * p <= n:
        trials += 1
        if trials > _FACTOR_TRIAL_LIMIT:
            raise BudgetExceeded("integer factorization budget exhausted")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n: int) -> list[int]:
    fac = _factor_int(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def _rational_roots(p: UPoly) -> list[Fraction]:
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots = []
    k = 0
    while p[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        p = UPoly(p.coeffs[k:])
    if p.degree == 0:
        return roots
    ints = _primitive_int_list(p.ints)
    nums, dens = _divisors(ints[0]), _divisors(ints[-1])
    if 2 * len(nums) * len(dens) > _FACTOR_TRIAL_LIMIT:
        raise BudgetExceeded("rational root search budget exhausted")
    for num in nums:
        for den in dens:
            if gcd(num, den) == 1:
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if _vanishes_at(ints, cand):
                        roots.append(cand)
    return roots


def _vanishes_at(coeffs: list[int], v: Fraction) -> bool:
    num, den = v.numerator, v.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc == 0


def _resultant_in_residue(q: UPoly, p: UPoly) -> UPoly:
    d = q.degree
    dq = q.derivative()
    points = []
    for k in range(d + 1):
        c = Fraction(k)
        val = resultant(q, p - dq * c)
        points.append((c, val))
    return _lagrange(points)


def _lagrange(points: list[tuple[Fraction, Fraction]]) -> UPoly:
    out = UPoly.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = UPoly((yi,))
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * UPoly((-xj, Fraction(1))) * (1 / (xi - xj))
        out = out + term
    return out


def rational_log_parts(remainder: RatFunc) -> list[tuple[Fraction, UPoly]]:
    p, q = remainder.num, remainder.den
    if p.is_zero():
        return []
    dq = q.derivative()
    g, s, _ = dq.xgcd(q)
    if g.degree == 0:
        a = (s * p) % q
        if a.degree == 0:
            return [(a[0], q.monic())]
    res_poly = _resultant_in_residue(q, p)
    squarefree = res_poly.cofactors(res_poly.derivative())[1]
    parts: list[tuple[Fraction, UPoly]] = []
    for c in sorted(_rational_roots(squarefree)):
        fac = q.gcd(p - dq * c)
        if fac.degree > 0:
            parts.append((c, fac.monic()))
    acc = RatFunc.zero()
    for c, fac in parts:
        acc = acc + RatFunc(fac.derivative(), fac) * RatFunc.from_fraction(c)
    if acc != remainder:
        raise NotSupported(
            "residues are not all rational; the witness needs algebraic constants"
        )
    return parts
