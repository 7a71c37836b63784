"""`integrab.elementary_n_witness` as it stood before the witness was
assembled in normal form: the Hermite remainder split again after the
reduction, and the witness built by generic tower sums, each L_j times P_j
added to the rational part R as a fraction over the tower's ring.

Kept as a reference, its code unchanged.  `tests/test_witness_oracle.py`
asserts that `diffgal.integrab.elementary_n_witness` returns the same
numerator, denominator and text on every finite-depth rational request of
the seed-1 integrate pool.
"""

from __future__ import annotations

from fractions import Fraction

from diffgal.integrab import _check_elementary, rational_log_parts
from diffgal.ratfield import RatFunc, UPoly, hermite_reduce
from diffgal.tower import Tower, TowerExpr


def elementary_n_witness(g: RatFunc, n: int) -> TowerExpr:
    if n < 1:
        raise ValueError("n must be positive")
    rational = g
    logs: dict[UPoly, UPoly] = {}
    for _ in range(n):
        rho = rational
        new_logs: dict[UPoly, UPoly] = {}
        for q, pcoef in logs.items():
            big = pcoef.integral()
            new_logs[q] = big
            rho = rho - RatFunc(big * q.derivative(), q)
        h, rest = hermite_reduce(rho)
        polypart, proper = rest.split()
        rational = h + RatFunc(polypart.integral())
        if not proper.is_zero():
            for c, fac in rational_log_parts(proper):
                cur = new_logs.get(fac, UPoly.zero())
                new_logs[fac] = cur + UPoly((c,))
        logs = {q: p for q, p in new_logs.items() if not p.is_zero()}
    polypart, proper = rational.split()
    trimmed = UPoly(tuple(Fraction(0) for _ in range(min(n, polypart.degree + 1)))
                    + polypart.coeffs[n:])
    rational = RatFunc(trimmed) + proper
    tower = Tower()
    eta = None
    for idx, q in enumerate(sorted(logs, key=lambda u: (u.degree, u.coeffs)), start=1):
        pcoef = logs[q]
        if pcoef.degree > n - 1:
            raise AssertionError("log coefficient degree exceeded n-1")
        gen = tower.add_log(f"L{idx}", RatFunc(q))
        term = gen * RatFunc(pcoef)
        eta = term if eta is None else eta + term
    base = tower.expr(rational)
    eta = base if eta is None else eta + base
    _check_elementary(eta, g, n)
    return eta
