"""Command-line interface: construct, expand, integrate, verify, selftest.

All structured output is JSON (text mode prints the same data line by line).
Exit codes: 0 success, 1 semantic negative (not integrable, verification
false, certificate not green), 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction

from ._record import Record
from .diffop import FMatrix, SkewOp, build_Lf, shape_matrix
from .errors import BudgetExceeded, DiffgalError, NotSupported, ParseError
from .integrab import (
    IntegrabilityVerdict,
    classify_exp,
    classify_log,
    classify_radical,
    elementary_n_witness,
    infinity_integrable_in_Cx,
)
from .mpoly import DEFAULT_BUDGET, DEFAULT_CYCLIC_BUDGET, MPoly
from .parsing import MAX_DEPTH, _integer, parse_expr, parse_over_qx, parse_ratfunc
from .ratfield import RatFunc, memo_scope
from .tower import (Tower, TowerExpr, apply_operator, nested_solutions,
                    rows_satisfy_T_prime_eq_AT)

CONFIG_ENV = "DIFFGAL_CONFIG"

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _expect(value, kind: type, what: str):
    """`value` if it is a JSON value of the given kind, else a ParseError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _field(data: dict, key: str, owner: str):
    """`data[key]`, or a ParseError naming the missing field and its owner."""
    if key not in data:
        raise ParseError(f"{owner} has no {key!r}")
    return data[key]


def _load_json(path: str, what: str) -> dict:
    """The JSON object held by the file at `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _expect(json.load(fh), dict, what)


class Config(Record):
    _fields = ("groebner_budget", "cyclic_search_budget", "output_format")

    def __init__(self, groebner_budget: int = DEFAULT_BUDGET,
                 cyclic_search_budget: int = DEFAULT_CYCLIC_BUDGET, output_format: str = "json"):
        self.groebner_budget = groebner_budget
        self.cyclic_search_budget = cyclic_search_budget
        self.output_format = output_format

    @classmethod
    def load(cls, path: str | None) -> "Config":
        cfg = cls()
        path = path or os.environ.get(CONFIG_ENV)
        if path:
            data = _load_json(path, "the config file")
            for key in ("groebner_budget", "cyclic_search_budget", "output_format"):
                if key in data:
                    setattr(cfg, key, data[key])
        for key in ("groebner_budget", "cyclic_search_budget"):
            v = getattr(cfg, key)
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise ValueError(f"{key} must be a positive integer, got {v!r}")
        if cfg.output_format not in ("json", "text"):
            raise ValueError(f"output_format must be 'json' or 'text', got {cfg.output_format!r}")
        return cfg


def _matrix_strings(m: FMatrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.rows]


def _report(command: str, inputs: dict, outputs: dict, started: float,
            certificate: dict | None = None) -> dict:
    rep = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
    }
    if certificate is not None:
        rep["certificate"] = certificate
    rep["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    return rep


def _emit(report: dict, cfg: Config, out_path: str | None = None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if cfg.output_format == "text":
        _emit_text(report)
    else:
        print(text)


def _emit_text(report: dict, prefix: str = "") -> None:
    for key, val in report.items():
        if isinstance(val, dict):
            print(f"{prefix}{key}:")
            _emit_text(val, prefix + "  ")
        else:
            print(f"{prefix}{key}: {val}")


# -- construct ---------------------------------------------------------------


def _parse_group_spec(data: dict) -> inverse.GroupSpec:
    from . import inverse

    n = _field(data, "n", "the spec")
    if not isinstance(n, int) or n < 2:
        raise ParseError("'n' must be an integer >= 2")
    ideal = None
    if "ideal" in data:
        ring = inverse.z_ring(n, coeff="rational")
        atoms = {name: ring.var(name) for name in ring.names}
        ideal = []
        for s in _expect(data["ideal"], list, "'ideal'"):
            val = parse_expr(s, atoms, ring.const)
            if not isinstance(val, MPoly):
                val = ring.const(val)
            ideal.append(val)
    basis = None
    if "lie_basis" in data:
        basis = []
        known: dict[int, Fraction] = {}  # each int entry is converted once
        for raw in _expect(data["lie_basis"], list, "'lie_basis'"):
            mat = []
            for row in _expect(raw, list, "a Lie basis matrix"):
                mat.append(tuple(_rational_entry(e, known)
                                 for e in _expect(row, list, "a matrix row")))
            basis.append(tuple(mat))
    a = None
    if "a" in data:
        a = [parse_ratfunc(s) for s in _expect(data["a"], list, "'a'")]
    l = data.get("l")
    if l is not None:
        _expect(l, int, "'l'")
    return inverse.GroupSpec(n=n, ideal_gens=ideal, lie_basis=basis, l=l, a_choices=a)


def _rational_entry(e, known: dict[int, Fraction]) -> Fraction:
    if isinstance(e, str):
        val = parse_ratfunc(e)
        if not val.is_constant():
            raise ParseError(f"matrix entry {e!r} is not a rational constant")
        return val.as_fraction()
    if isinstance(e, int) and not isinstance(e, bool):
        q = known.get(e)
        if q is None:
            q = known[e] = Fraction(e)
        return q
    raise ParseError(f"matrix entry {e!r} must be an integer or a rational string")


def cmd_construct(args, cfg: Config) -> int:
    from . import inverse

    started = time.monotonic()
    data = _load_json(args.spec, "the spec file")
    spec = _parse_group_spec(data)
    result = inverse.run_pipeline(spec, groebner_budget=cfg.groebner_budget,
                                  cyclic_budget=cfg.cyclic_search_budget)
    outputs = {
        "A_u": _matrix_strings(result.A_u),
        "B": _matrix_strings(result.B),
        "A_c": _matrix_strings(result.A_c.matrix()),
        "f": [str(f) for f in result.f_tuple],
        "A": _matrix_strings(result.A),
        "L": str(result.L),
        "groebner_basis": [str(g) for g in result.groebner_basis],
    }
    report = _report("construct", {"spec": data}, outputs, started,
                     certificate=result.certificate.as_dict())
    _emit(report, cfg, args.out)
    return 0 if result.certificate.all_green() else 1


# -- expand -------------------------------------------------------------------


def _parse_tuple(text: str) -> list[RatFunc]:
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    if not inner.strip():
        raise ParseError("empty tuple")
    parts = inner.split(",")
    for i, p in enumerate(parts, 1):
        if not p.strip():
            raise ParseError(f"tuple entry {i} is empty")
    return [parse_ratfunc(p) for p in parts]


def cmd_expand(args, cfg: Config) -> int:
    started = time.monotonic()
    fs = _parse_tuple(args.tuple)
    f_next = parse_ratfunc(args.fnext)
    op = build_Lf(fs)
    full = op * SkewOp.const(f_next)
    solutions = nested_solutions(fs, f_next)
    tower = solutions[0].tower
    annihilated = [apply_operator(full, v).is_zero() for v in solutions]
    outputs = {
        "L": str(op),
        "L_times_fnext": str(full),
        "A": _matrix_strings(shape_matrix(fs[1:])) if len(fs) > 1 else [["0"]],
        "tower": _tower_decls(tower),
        "solutions": [str(v) for v in solutions],
        "annihilated": annihilated,
    }
    report = _report("expand", {"tuple": args.tuple, "fnext": args.fnext},
                     outputs, started)
    _emit(report, cfg, args.out)
    return 0 if all(annihilated) else 1


def _tower_decls(tower: Tower) -> list[dict]:
    out = []
    for g in tower.gens:
        decl = {"name": g.name, "kind": g.kind}
        if g.kind == "radical":
            decl["root"] = g.root
        else:
            decl["arg"] = str(g.argument)
        out.append(decl)
    return out


# -- integrate -----------------------------------------------------------------


def _standard_tower(field: str) -> Tower:
    """The one-generator tower of an `integrate --field`, shared by every call
    with the same kind and root: `radical:007` and `radical:7` get one tower."""
    if field in ("exp", "log"):
        return _built_tower(field, None)
    if field.startswith("radical:"):
        root = field.split(":", 1)[1]
        if not re.fullmatch("[0-9]+", root):
            raise ParseError(f"field {field!r} needs a root of decimal digits")
        return _built_tower("radical", _integer(root))
    raise ParseError(f"unknown field {field!r}")


@functools.cache
def _built_tower(kind: str, root: int | None) -> Tower:
    """Built once per process.  A root outside 2..MAX_POWER_DEGREE raises and is
    not cached, so the cache holds at most MAX_POWER_DEGREE + 1 towers.  Callers
    only parse in the tower and classify; none adds a generator to it."""
    tower = Tower()
    if kind == "exp":
        tower.add_exp("t", tower.x())
    elif kind == "log":
        tower.add_log("L", RatFunc.x())
    else:
        tower.add_radical("r", root)
    return tower


def cmd_integrate(args, cfg: Config) -> int:
    started = time.monotonic()
    depth: int | None
    if args.depth == "inf":
        depth = None
    else:
        # ASCII digits only: int() would also take "1_0", "+2", " 2" and other scripts' digits.
        depth = _integer(args.depth) if re.fullmatch("[0-9]+", args.depth) else 0
        if not 1 <= depth <= MAX_DEPTH:
            raise ParseError(f"depth must be a positive integer at most {MAX_DEPTH} or 'inf'")
    field = args.field
    witness_tower: list[dict] = []
    if field == "rational":
        g = parse_ratfunc(args.expr)
        if depth is None:
            verdict = infinity_integrable_in_Cx(g)
        else:
            try:
                w = elementary_n_witness(g, depth)
                verdict = IntegrabilityVerdict.integrable(witness=w)
            except NotSupported as exc:
                verdict = IntegrabilityVerdict.not_supported(str(exc))
    else:
        tower = _standard_tower(field)
        g = tower.parse(args.expr)
        classify = {"exp": classify_exp, "log": classify_log,
                    "radical": classify_radical}[tower.gens[0].kind]
        verdict = classify(g, depth=depth)
    if isinstance(verdict.witness, TowerExpr):
        witness_tower = _tower_decls(verdict.witness.tower)
    outputs = {
        "status": verdict.status,
        "witness": None if verdict.witness is None else str(verdict.witness),
        "witness_tower": witness_tower,
        "obstruction": None if verdict.obstruction is None else str(verdict.obstruction),
        "step": verdict.step,
        "reason": verdict.reason,
    }
    report = _report("integrate", {"field": field, "expr": args.expr,
                                   "depth": args.depth}, outputs, started)
    _emit(report, cfg, args.out)
    return 0 if verdict.is_integrable else 1


# -- verify ---------------------------------------------------------------------


def _load_tower(path: str) -> tuple[Tower, dict]:
    data = _load_json(path, "the tower file")
    tower = Tower()
    for i, decl in enumerate(_expect(data.get("generators", []), list, "'generators'"), 1):
        owner = f"generator {i}"
        decl = _expect(decl, dict, owner)
        kind = _field(decl, "kind", owner)
        name = _expect(_field(decl, "name", owner), str, f"name of {owner}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ParseError(f"name of {owner} must be an identifier, got {name!r}")
        if name in ("x", "D") or re.fullmatch(r"Z_\d+_\d+", name) or name in tower.ring.names:
            raise ParseError(f"name of {owner} clashes with x, D, a Z_i_j or an "
                             f"earlier generator: {name!r}")
        if kind == "log":
            tower.add_log(name, tower.parse(_field(decl, "arg", owner)))
        elif kind == "exp":
            tower.add_exp(name, tower.parse(_field(decl, "arg", owner)))
        elif kind == "radical":
            tower.add_radical(name, _expect(_field(decl, "root", owner), int, f"root of {owner}"))
        elif kind == "integral":
            tower.add_integral(name, tower.parse(_field(decl, "arg", owner)))
        else:
            raise ParseError(f"unknown generator kind {kind!r}")
    return tower, data


def _parse_operator(text: str) -> SkewOp:
    val = parse_over_qx(text, {"D": SkewOp.D()})
    return val if isinstance(val, SkewOp) else SkewOp.const(val)


def cmd_verify(args, cfg: Config) -> int:
    started = time.monotonic()
    tower, data = _load_tower(args.tower)
    outputs: dict
    if args.operator:
        op = _parse_operator(args.operator)
        if op.is_zero():
            raise ParseError("the zero operator annihilates every expression")
        sols = [tower.parse(s) for s in _expect(data.get("solutions", []), list, "'solutions'")]
        if not sols:
            raise ParseError("tower file has no 'solutions'")
        checks = [apply_operator(op, s).is_zero() for s in sols]
        outputs = {"operator": str(op), "annihilated": checks}
        ok = all(checks)
    else:
        mdata = _load_json(args.matrix, "the matrix file")
        a = FMatrix([[parse_ratfunc(e) for e in _expect(row, list, "a matrix row")]
                     for row in _expect(_field(mdata, "matrix", "the matrix file"), list,
                                        "'matrix'")])
        t_rows = [[tower.parse(e) for e in _expect(row, list, "a matrix row")]
                  for row in _expect(_field(data, "matrix_T", "the tower file"), list,
                                     "'matrix_T'")]
        checks = rows_satisfy_T_prime_eq_AT(a, t_rows)
        outputs = {"matrix": _matrix_strings(a), "rows_satisfy_T_prime_eq_AT": checks}
        ok = all(checks)
    report = _report("verify", {"operator": args.operator, "matrix": args.matrix,
                                "tower": args.tower}, outputs, started)
    _emit(report, cfg, args.out)
    return 0 if ok else 1


# -- selftest --------------------------------------------------------------------


def cmd_selftest(args, cfg: Config) -> int:
    from . import inverse

    started = time.monotonic()
    results: dict[str, bool] = {}
    x = RatFunc.x()

    def E(n, i, j):
        return tuple(tuple(Fraction(1 if (r, c) == (i - 1, j - 1) else 0)
                           for c in range(n)) for r in range(n))

    ring = inverse.z_ring(3, coeff="rational")
    spec = inverse.GroupSpec(n=3, ideal_gens=[ring.var("Z_2_3")],
                             lie_basis=[E(3, 1, 2), E(3, 1, 3)], l=2,
                             a_choices=[1 / x, 1 / (x - 1)])
    res = inverse.run_pipeline(spec)
    golden = (SkewOp.D(3) + SkewOp.const(2 * (1 / x + 1 / (x - 1))) * SkewOp.D(2)
              + SkewOp.const(2 / (x * (x - 1))) * SkewOp.D())
    results["unipotent_3x3_golden"] = (
        res.L == golden and res.certificate.all_green()
        and res.f_partial == (-(x - 1) ** 2, x)
    )

    spec_full = inverse.GroupSpec(
        n=3, ideal_gens=[], lie_basis=[E(3, 1, 2), E(3, 2, 3), E(3, 1, 3)], l=2,
        a_choices=[1 / (x - 3), 1 / (x - 2)])
    res_full = inverse.run_pipeline(spec_full)
    results["full_u3"] = (
        res_full.f_partial == (x - 2, x - 3) and res_full.certificate.all_green()
    )

    tower = Tower()
    lg = tower.add_log("L", x)
    eta = lg * RatFunc.from_fraction(Fraction(1, 2)) * x * x
    results["log_power_identity"] = (eta.derive_n(3) - tower.expr(1 / x)).is_zero()

    results["stable_rational"] = (
        infinity_integrable_in_Cx(x ** 2).is_integrable
        and not infinity_integrable_in_Cx(1 / x).is_integrable
    )

    tw = Tower()
    t = tw.add_exp("t", tw.x())
    results["exp_classifier"] = (
        classify_exp(tw.x() * t + t ** -1).is_integrable
        and not classify_exp(t / tw.x()).is_integrable
    )

    _emit(_report("selftest", {}, {k: bool(v) for k, v in results.items()}, started), cfg)
    return 0 if all(results.values()) else 1


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffgal",
        description="Exact construction and verification of linear ODEs with "
                    "unipotent differential Galois groups, and integrability "
                    "deciders over Q(x) and its elementary towers.")
    parser.add_argument("--config", help="path to a JSON config file "
                        f"(or set ${CONFIG_ENV})")
    parser.add_argument("--format", choices=("json", "text"), dest="format",
                        help="output format override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the inverse-problem pipeline on a spec file")
    p.add_argument("--spec", required=True, help="JSON group spec")
    p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("expand", help="expand an operator tuple and its solutions")
    p.add_argument("tuple", help="comma-separated rational functions, e.g. \"(1,1)\"")
    p.add_argument("--fnext", default="1", help="trailing factor f_{n+1} (default 1)")
    p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("integrate", help="decide integrability / produce witnesses")
    p.add_argument("--field", required=True,
                   help="rational | exp | log | radical:N")
    p.add_argument("--expr", required=True, help="expression in the field")
    p.add_argument("--depth", required=True,
                   help=f"positive integer up to {MAX_DEPTH}, or 'inf'")
    p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("verify", help="check annihilation or T' = A T")
    p.add_argument("--operator", help="operator text, e.g. \"D^2 + (1/x)*D\"")
    p.add_argument("--matrix", help="JSON file with a matrix over Q(x)")
    p.add_argument("--tower", required=True, help="JSON tower/solutions file")
    p.add_argument("--out", help="write the JSON report to this path")

    sub.add_parser("selftest", help="run the built-in golden corpus")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and never changes it."""
    return build_parser()


@memo_scope()
def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config.load(args.config)
        if args.format:
            cfg.output_format = args.format
        if args.command == "construct":
            return cmd_construct(args, cfg)
        if args.command == "expand":
            return cmd_expand(args, cfg)
        if args.command == "integrate":
            return cmd_integrate(args, cfg)
        if args.command == "verify":
            if bool(args.operator) == bool(args.matrix):
                parser.error("verify needs exactly one of --operator / --matrix")
            return cmd_verify(args, cfg)
        if args.command == "selftest":
            return cmd_selftest(args, cfg)
        parser.error(f"unknown command {args.command}")
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DiffgalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
