"""A fixed piece of pure-Python work that measures how fast the host runs now.

The hosts this benchmark runs on change speed by 10-30% over minutes (other
tenants, shared cores) while the measured process stays on the CPU, so the
same request takes longer in a slow phase. The probe is dense polynomial
arithmetic over `fractions.Fraction`, the same kind of interpreter work as
diffgal's kernels, and it never touches diffgal. Timing it between requests
gives the host's current speed; dividing a request's time by the speed
factor gives its time at the reference speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median probe time on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7). Only ratios to it matter; it fixes the scale of the
# reported times, so it must not change between two runs that are compared.
REFERENCE_S = 0.0075
_ROUNDS = 4

_P = tuple(Fraction(n, d) for n, d in ((3, 7), (-5, 2), (8, 9), (1, 4), (-7, 3), (2, 5),
                                       (9, 8), (-4, 7), (6, 5)))
_Q = tuple(Fraction(n, d) for n, d in ((-2, 3), (7, 4), (1, 9), (-8, 5), (5, 6), (3, 2),
                                       (-1, 7)))


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        a.pop()
    return a


def probe() -> float:
    """Seconds taken by the fixed reference work, once."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):  # every round starts from the same inputs
        a, b = _mul(_P, _Q), _mul(_Q, _Q)
        while len(b) > 1:  # remainder sequence, as in a polynomial gcd
            a, b = b, _rem(a, b)
            while len(b) > 1 and b[-1] == 0:
                b.pop()
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """How much slower than the reference host the probes ran (1.0 = same)."""
    return statistics.median(samples) / REFERENCE_S
