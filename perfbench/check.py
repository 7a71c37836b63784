"""Reference checks of diffgal's answers, with sympy and the request's own
construction as the only references.

`check(expect, result)` returns None when the answer is right and a one-line
reason when it is not. `result` is the worker's canonical result: the exit
code and the JSON reports with `timing_ms` removed, or a traceback.

Rational functions are compared as elements of sympy's fraction fields
(`QQ.frac_field`), which are canonical, so equality is exact and cheap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

import sympy as sp
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

X = sp.Symbol("x")
QX = sp.QQ.frac_field(X)
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
FACETS = ("companion_shape", "base_field_coefficients", "annihilation_mod_ideal",
          "fundamental_identity", "differential_ideal")


def sym(text: str):
    """Parse diffgal's expression syntax (`^` for powers) into sympy; every
    name becomes a plain symbol."""
    names = {n: sp.Symbol(n) for n in set(_NAME.findall(text))}
    return parse_expr(text.replace("^", "**"), local_dict=names,
                      transformations=standard_transformations)


def check(expect: dict, result: dict) -> str | None:
    if result.get("code") is None:
        return "traceback: " + result.get("traceback", "").strip().splitlines()[-1]
    if result["code"] in (2, 3):
        return f"exit code {result['code']}"
    reports = result["reports"]
    if not all(isinstance(r, dict) for r in reports):
        return "output is not a JSON report"
    return _CHECKS[expect["type"]](expect, result["code"], reports)


def _certificate(code: int, rep: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    bad = [f for f in FACETS if not rep.get("certificate", {}).get(f)]
    return f"certificate facets not green: {bad}" if bad else None


def _check_construct_full(expect, code, reports):
    rep = reports[0]
    why = _certificate(code, rep)
    if why:
        return why
    n, poles = expect["n"], [sp.Rational(c) for c in expect["poles"]]
    f = rep["outputs"]["f"]
    if len(f) != n:
        return f"f has {len(f)} entries, expected {n}"
    # f_k = x - c_{n+1-k} for k = 2..n; f_1 = 1/(f_2 ... f_n) makes L monic
    for k in range(2, n + 1):
        if QX.from_sympy(sym(f[k - 1])) != QX.from_sympy(X - poles[n - k]):
            return f"f_{k} = {f[k - 1]}, expected x - {poles[n - k]}"
    if QX.from_sympy(sym(f[0])) != QX.from_sympy(1 / sp.prod([X - c for c in poles])):
        return f"f_1 = {f[0]} does not make L monic"
    return None


def _exp_nilpotent(mat: list[list[int]], t: Fraction) -> sp.Matrix:
    m = sp.Matrix(mat) * sp.Rational(t.numerator, t.denominator)
    out, term = sp.eye(m.rows), sp.eye(m.rows)
    for k in range(1, m.rows):
        term = term * m / k
        out += term
    return out


def _check_construct_subgroup(expect, code, reports):
    rep = reports[0]
    why = _certificate(code, rep)
    if why:
        return why
    gens = [sym(g) for g in rep["outputs"]["groebner_basis"]]
    if not gens:
        return "empty Groebner basis for a proper subgroup"
    n = expect["n"]
    for t in (Fraction(1, 2), Fraction(-3), Fraction(5, 7)):
        point = _exp_nilpotent(expect["N"], t)
        subs = {sp.Symbol(f"Z_{i}_{j}"): point[i - 1, j - 1]
                for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        for g in gens:
            if sp.cancel(g.xreplace(subs)) != 0:
                return f"generator {g} does not vanish on exp({t} N)"
    return None


def _derivation(decls: list[dict]):
    """The witness tower as a rational function field with d/dx on it.

    Logs and exponentials become independent variables L with
    L' = a'/a or L' = a' L. A radical r = x^(1/root) is removed by writing
    everything in y with x = y^root, r = y, so d/dx = 1/(root y^(root-1)) d/dy.
    Returns (text -> field element, derivation).
    """
    radical = [d for d in decls if d["kind"] == "radical"]
    if radical:
        root, y = int(radical[0]["root"]), sp.Symbol("y")
        field = sp.QQ.frac_field(y)
        subs = {sp.Symbol(radical[0]["name"]): y, X: y**root}
        (yg,) = field.field.gens
        dy = field.from_sympy(1 / (root * y ** (root - 1)))
        return lambda t: field.from_sympy(sym(t).xreplace(subs)), lambda e: e.diff(yg) * dy
    syms = [X] + [sp.Symbol(d["name"]) for d in decls]
    field = sp.QQ.frac_field(*syms)
    gens = field.field.gens
    images = []
    for d, g in zip(decls, gens[1:]):
        a = field.from_sympy(sym(d["arg"]))
        if d["kind"] == "log":
            images.append((g, a.diff(gens[0]) / a))
        elif d["kind"] == "exp":
            images.append((g, g * a.diff(gens[0])))
        else:
            raise ValueError(f"unexpected generator kind {d['kind']!r}")

    def derive(e):
        out = e.diff(gens[0])
        for g, img in images:
            out += img * e.diff(g)
        return out

    return lambda t: field.from_sympy(sym(t)), derive


def _check_integrate(expect, code, reports):
    out = reports[0]["outputs"]
    status = expect["status"]
    if out["status"] != status:
        return f"status {out['status']}, expected {status}"
    if code != (0 if status == "integrable" else 1):
        return f"exit code {code} for status {status}"
    if status != "integrable" or expect["depth"] == "inf":
        return None
    if out["witness"] is None:
        return "no witness for a finite depth"
    field = expect["field"]
    if field == "rational":  # the witness brings its own logarithms
        decls = out["witness_tower"]
    elif field.startswith("radical:"):
        decls = [{"name": "r", "kind": "radical", "root": field.split(":")[1]}]
    else:
        decls = [{"name": "t" if field == "exp" else "L", "kind": field, "arg": "x"}]
    element, derive = _derivation(decls)
    w = element(out["witness"])
    for _ in range(int(expect["depth"])):
        w = derive(w)
    if w != element(expect["expr"]):
        return f"witness {out['witness']} does not differentiate back to the input"
    return None


def _skew_expand(fs: list) -> dict[int, object]:
    """f1*D*f2*D*...*fn*D in Q(x)[D] with D*f = f*D + f', as {power: coefficient}."""
    (xg,) = QX.field.gens
    op = {0: fs[0]}
    for f in list(fs[1:]) + [None]:
        op = {i + 1: c for i, c in op.items()}  # right product with D
        if f is None:
            break
        derivs = [f]
        for _ in range(max(op)):
            derivs.append(derivs[-1].diff(xg))
        out: dict[int, object] = {}
        for i, a in op.items():  # right product with f
            for k in range(i + 1):
                out[i - k] = out.get(i - k, QX.zero) + a * comb(i, k) * derivs[k]
        op = {i: c for i, c in out.items() if c}
    return op


def _check_expand_verify(expect, code, reports):
    if code != 0 or len(reports) != 2:
        return f"exit code {code} after {len(reports)} of 2 commands"
    fs = [QX.from_sympy(sym(f)) for f in expect["fs"]]
    expand, verify = reports[0]["outputs"], reports[1]["outputs"]
    n = len(fs)
    for label, flags in (("expand", expand["annihilated"]), ("verify", verify["annihilated"])):
        if len(flags) != n or not all(flags):
            return f"{label} annihilated = {flags}"
    want = _skew_expand(fs)
    got = {m[0]: QX.from_sympy(c)
           for m, c in sp.Poly(sym(expand["L"]), sp.Symbol("D"), domain=QX).terms()}
    if got != want:
        return "L differs from the expansion of f1*D*...*fn*D"
    return None


_CHECKS = {
    "construct_full": _check_construct_full,
    "construct_subgroup": _check_construct_subgroup,
    "integrate": _check_integrate,
    "expand_verify": _check_expand_verify,
}
