"""Seeded request streams for the benchmark workloads.

Every request carries the answer it must produce. Answers come from how the
input was built (a pole placement, a known verdict) or are checked later with
sympy (`check.py`); none is computed with diffgal. The stdlib `random` module
seeded with a string is deterministic across runs and platforms, so one seed
always gives the same requests.

A request is a dict:

- `kind`: `"cli"` (one `diffgal.cli.main(argv)` call) or `"expand_verify"`
  (an `expand` call, then `verify --operator` on the tower it printed);
- `argv` or `tuple`: what the program receives;
- `files`: spec files to write before the run, relative to the work directory;
- `expect`: the reference answer, read only by `check.py`.

Streams are round-robin over fixed request shapes, so every stretch of a run
holds the same mix whatever the seed: only coefficients and pole positions
vary between seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("construct_full", "construct_subgroup", "integrate", "expand_verify")

# Requests in the fixed traced set (--trace 1), per workload. Each is run once
# traced and once untraced, so the traced run takes about twice their time.
TRACE_REQUESTS = {
    "construct_full": 12,
    "construct_subgroup": 16,
    "integrate": 190,
    "expand_verify": 30,
}

# Distinct requests per run. A 20 s run sends about 60 construct requests, 120
# expand_verify and 1700 integrate requests. The tail percentile of integrate
# sits among its slowest shapes (log field at depths 4 and 3, about 8% of
# requests, with the rare slow rational requests), so the ten samples above it
# fall in a dense stretch of the distribution, and the pool is large enough
# that they come from many different inputs, not repeats of one.
POOL_SIZE = {
    "construct_full": 40,
    "construct_subgroup": 40,
    "integrate": 1200,
    "expand_verify": 99,
}


def generate(workload: str, seed: int) -> dict:
    """Warm-up requests and the request pool of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"diffgal-bench:{workload}:{seed}")
    make = _MAKERS[workload]
    warmup, pool = make(rng, POOL_SIZE[workload])
    for prefix, reqs in (("w", warmup), ("p", pool)):
        for i, req in enumerate(reqs):
            req["id"] = f"{prefix}{i:03d}"
    return {"workload": workload, "seed": seed, "warmup": warmup, "pool": pool,
            "trace_requests": TRACE_REQUESTS[workload]}


# -- helpers -------------------------------------------------------------------


def _q(c: Fraction) -> str:
    return f"({c})" if c.denominator != 1 or c < 0 else str(c)


def _poly(coeffs: list[Fraction], var: str = "x") -> str:
    """Parenthesised polynomial text; coeffs[k] multiplies var^k."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        terms.append(_q(c) if not mono else f"{_q(c)}*{mono}")
    return "(" + (" + ".join(terms) if terms else "0") + ")"


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _rational(rng: random.Random, num_digits: int = 2) -> Fraction:
    """A rational with a multi-digit numerator and a one-digit denominator."""
    lo, hi = 10 ** (num_digits - 1), 10**num_digits - 1
    return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(2, 9))


def _distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        c = _rational(rng)
        if c not in out:
            out.append(c)
    return out


def _rand_poly(rng: random.Random, degree: int, lo: int = -9, hi: int = 9) -> list[Fraction]:
    """Polynomial of exact degree `degree` with small integer coefficients."""
    coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(degree)]
    return coeffs + [Fraction(_nonzero(rng, lo, hi))]


# -- construct_full --------------------------------------------------------------


def _unit(n: int, i: int, j: int) -> list[list[int]]:
    return [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)]


def _full_spec_request(rng: random.Random, n: int, name: str) -> dict:
    poles = _distinct_rationals(rng, n - 1)
    basis = [_unit(n, i, i + 1) for i in range(1, n)]
    for gap in range(2, n):
        basis.extend(_unit(n, i, i + gap) for i in range(1, n - gap + 1))
    spec = {"n": n, "ideal": [], "lie_basis": basis, "l": n - 1,
            "a": [f"1/(x - {_q(c)})" for c in poles]}
    return {"kind": "cli", "argv": ["construct", "--spec", "{work}/" + name],
            "files": {name: spec},
            "expect": {"type": "construct_full", "n": n, "poles": [str(c) for c in poles]}}


def _make_construct_full(rng: random.Random, size: int):
    warmup = [_full_spec_request(rng, 4, "warm-full.json")]
    pool = [_full_spec_request(rng, 7, f"full-{i:03d}.json") for i in range(size)]
    return warmup, pool


# -- construct_subgroup ----------------------------------------------------------


def _subgroup_request(rng: random.Random, n: int, name: str) -> dict:
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = rng.choice((-2, -1, 1, 2)) if j == i + 1 else rng.randint(-3, 3)
    spec = {"n": n, "lie_basis": [mat]}
    return {"kind": "cli", "argv": ["construct", "--spec", "{work}/" + name],
            "files": {name: spec},
            "expect": {"type": "construct_subgroup", "n": n, "N": mat}}


def _make_construct_subgroup(rng: random.Random, size: int):
    warmup = [_subgroup_request(rng, 4, "warm-sub.json")]
    pool = [_subgroup_request(rng, 5, f"sub-{i:03d}.json") for i in range(size)]
    return warmup, pool


# -- integrate -------------------------------------------------------------------


def _integrate(field: str, expr: str, depth, status: str) -> dict:
    return {"kind": "cli",
            "argv": ["integrate", "--field", field, "--expr", expr, "--depth", str(depth)],
            "files": {},
            "expect": {"type": "integrate", "field": field, "expr": expr,
                       "depth": depth, "status": status}}


def _split_rational(rng: random.Random, poles: int) -> str:
    """Polynomial plus terms c/(x - r)^k with distinct rational r: every
    residue is rational, so every finite depth is elementary-integrable."""
    parts = [_poly(_rand_poly(rng, rng.randint(0, 2)))]
    for r in _distinct_rationals(rng, poles):
        parts.append(f"{_q(Fraction(_nonzero(rng, -9, 9)))}/(x - {_q(r)})^{rng.randint(1, 2)}")
    return " + ".join(parts)


def _laurent(rng: random.Random, lo: int, hi: int) -> str:
    """Sum of monomials c x^m for m in [lo, hi], at least two of them."""
    ms = rng.sample(range(lo, hi + 1), 2)
    terms = []
    for m in sorted(ms):
        c = _q(Fraction(_nonzero(rng, -9, 9), rng.randint(1, 3)))
        terms.append(c if m == 0 else f"{c}*x^{m}" if m > 0 else f"{c}/x^{-m}")
    return "(" + " + ".join(terms) + ")"


def _pole(rng: random.Random) -> str:
    """A term with a pole at a nonzero rational point."""
    r = _rational(rng, 1)
    return f"{_q(Fraction(_nonzero(rng, -9, 9)))}/(x - {_q(r)})"


def _gen_power(name: str, k: int) -> str:
    if k == 0:
        return "1"
    if k > 0:
        return name if k == 1 else f"{name}^{k}"
    return f"1/{name}" if k == -1 else f"1/{name}^{-k}"


def _exp_expr(rng: random.Random) -> str:
    # sum p_i(x) t^i with polynomial p_i: infinitely integrable in Q(x, e^x)
    return " + ".join(f"{_poly(_rand_poly(rng, rng.randint(0, 2)))}*{_gen_power('t', i)}"
                      for i in (-1, 0, 1, 2))


def _log_expr(rng: random.Random) -> str:
    # sum f_i(x) L^i with Laurent f_i: infinitely integrable in Q(x, log x)
    return " + ".join(f"{_laurent(rng, -2, 2)}*{_gen_power('L', i)}" for i in (0, 1, 2))


def _radical_expr(rng: random.Random, root: int) -> str:
    # polynomial f_0 plus Laurent f_i r^i (0 < i < root): integrable in Q(x^(1/root))
    parts = [_poly(_rand_poly(rng, rng.randint(0, 2)))]
    parts += [f"{_laurent(rng, -2, 2)}*{_gen_power('r', i)}" for i in range(1, root)]
    return " + ".join(parts)


def _integrate_templates():
    """Request makers; the stream cycles through them in this order."""

    def rational(depth, poles):
        return lambda rng: _integrate("rational", _split_rational(rng, poles), depth, "integrable")

    def quadratic(depth):
        def make(rng):
            a = rng.choice((1, 2, 3, 5, 6, 7))  # x^2 + a has no rational root
            b = _nonzero(rng, -9, 9)
            expr = f"{_split_rational(rng, 1)} + {b}/(x^2 + {a})"
            return _integrate("rational", expr, depth, "not_supported")
        return make

    def stable(rng):
        return _integrate("rational", _poly(_rand_poly(rng, rng.randint(1, 4))), "inf", "integrable")

    def unstable(rng):
        return _integrate("rational", _split_rational(rng, 1), "inf", "not_integrable")

    def exp(depth, negative=False):
        def make(rng):
            expr = _exp_expr(rng)
            if negative:
                expr += f" + ({_pole(rng)})*{_gen_power('t', rng.choice((-1, 1, 2)))}"
            return _integrate("exp", expr, depth, "not_integrable" if negative else "integrable")
        return make

    def log(depth, negative=False):
        def make(rng):
            expr = _log_expr(rng)
            if negative:
                expr += f" + ({_pole(rng)})*{_gen_power('L', rng.randint(0, 2))}"
            return _integrate("log", expr, depth, "not_integrable" if negative else "integrable")
        return make

    def radical(root, depth, negative=False):
        def make(rng):
            expr = _radical_expr(rng, root)
            if negative:  # 1/x in the r^0 slice integrates to log x
                expr += f" + {_nonzero(rng, -9, 9)}/x"
            return _integrate(f"radical:{root}", expr, depth,
                              "not_integrable" if negative else "integrable")
        return make

    return [
        rational(1, 2), rational(2, 2), rational(3, 2), rational(4, 1), rational(2, 3),
        quadratic(2), quadratic(3), stable, unstable,
        exp(1), exp(3), exp("inf"), exp("inf", True), exp(2, True),
        log(4), log(3), log("inf"), log("inf", True), log(2, True),
    ] + [radical(2, 2), radical(3, 1), radical(3, "inf"), radical(2, "inf", True),
         radical(3, 2, True)]


def _make_integrate(rng: random.Random, size: int):
    templates = _integrate_templates()
    warmup = [templates[i](rng) for i in (0, 11, 16, 21)]
    pool = [templates[i % len(templates)](rng) for i in range(size)]
    return warmup, pool


# -- expand_verify -----------------------------------------------------------------

# Entry kinds per tuple position: c = nonzero constant, l = linear polynomial,
# q = quotient of polynomials of degree <= 2 (the criterion-4 entry kinds).
# Costs grow steeply with length; with three equally common lengths the median
# request is a length-4 one, not a boundary between two lengths.
_TUPLE_SHAPES = ("clq", "lqcl", "qlcql")


def _entry(rng: random.Random, kind: str) -> str:
    if kind == "c":
        return _q(Fraction(_nonzero(rng, -5, 5), rng.randint(1, 3)))
    if kind == "l":
        return _poly(_rand_poly(rng, 1, -5, 5))
    num, den = (_poly(_rand_poly(rng, rng.randint(1, 2), -5, 5)) for _ in range(2))
    return f"{num}/{den}"


def _expand_request(rng: random.Random, shape: str) -> dict:
    fs = [_entry(rng, k) for k in shape]
    return {"kind": "expand_verify", "tuple": "(" + ", ".join(fs) + ")", "files": {},
            "expect": {"type": "expand_verify", "fs": fs}}


def _make_expand_verify(rng: random.Random, size: int):
    warmup = [_expand_request(rng, "clq")]
    pool = [_expand_request(rng, _TUPLE_SHAPES[i % len(_TUPLE_SHAPES)]) for i in range(size)]
    return warmup, pool


_MAKERS = {
    "construct_full": _make_construct_full,
    "construct_subgroup": _make_construct_subgroup,
    "integrate": _make_integrate,
    "expand_verify": _make_expand_verify,
}
