"""Golden CLI reports: every case's JSON report, with `timing_ms` removed,
must match `tests/golden/<case>.json` byte for byte.

The golden files record the exit code and the report. Regenerate them only
when a change of output is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _e(n, *cells):
    """n x n matrix with ones at the given 1-based (row, column) cells."""
    return [[1 if (i + 1, j + 1) in cells else 0 for j in range(n)] for i in range(n)]


def _verify_matrix_case(t13: str):
    """T' = A T for the shape matrix of (x + 1, 1/(x - 2)), with T_13 given."""
    tower = {"generators": [{"name": "t_1_2", "kind": "integral", "arg": "x - 2"},
                            {"name": "t_2_3", "kind": "integral", "arg": "1/(x + 1)"},
                            {"name": "t_1_3", "kind": "integral", "arg": "(x - 2)*t_2_3"}],
             "matrix_T": [["1", "t_1_2", t13], ["0", "1", "t_2_3"], ["0", "0", "1"]]}
    matrix = {"matrix": [["0", "x - 2", "0"], ["0", "0", "1/(x + 1)"], ["0", "0", "0"]]}
    return (["verify", "--matrix", "matrix.json", "--tower", "tower.json"],
            {"tower.json": tower, "matrix.json": matrix})


def _full_u6_poles_spec():
    """Full U(6) with five seeded, distinct rational poles for the a_i."""
    rng = random.Random(6)
    poles = []
    while len(poles) < 5:
        p = Fraction(rng.randint(-9, 9), rng.randint(2, 7))
        if p not in poles:
            poles.append(p)
    return {"n": 6, "ideal": [],
            "a": [f"1/(x - {p})" if p >= 0 else f"1/(x + {-p})" for p in poles]}


def _seeded_unipotent(rng, n):
    """I + N for a seeded strictly upper N, with its inverse sum_k (-N)^k."""
    nil = [[rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    p = [[ident[i][j] + nil[i][j] for j in range(n)] for i in range(n)]
    p_inv, power = [row[:] for row in ident], ident
    for k in range(1, n):
        power = _matmul(power, nil)
        p_inv = [[e + (-1) ** k * f for e, f in zip(r, q)] for r, q in zip(p_inv, power)]
    return p, p_inv


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _block_u6_spec():
    """u(3) + u(3) block-diagonally in u(6), conjugated by a seeded unipotent P."""
    p, p_inv = _seeded_unipotent(random.Random(66), 6)
    blocks = [_e(6, c) for c in ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))]
    return {"n": 6, "lie_basis": [_matmul(_matmul(p, m), p_inv) for m in blocks]}


def _one_parameter_spec(n):
    """One-parameter subgroup of U(n), given by a seeded Lie basis only."""
    rng = random.Random(n)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = rng.choice((-2, -1, 1, 2)) if j == i + 1 else rng.randint(-3, 3)
    return {"n": n, "lie_basis": [mat]}


# case name -> (argv, files written to the working directory first)
CASES = {
    "construct_full_u4": (["construct", "--spec", "spec.json"],
                          {"spec.json": {"n": 4, "ideal": []}}),
    "construct_full_u6_poles": (["construct", "--spec", "spec.json"],
                                {"spec.json": _full_u6_poles_spec()}),
    "construct_lie_only_one_parameter_u5": (["construct", "--spec", "spec.json"],
                                            {"spec.json": _one_parameter_spec(5)}),
    "construct_lie_only_one_parameter_u9": (["construct", "--spec", "spec.json"],
                                            {"spec.json": _one_parameter_spec(9)}),
    "construct_lie_only_block_u6": (["construct", "--spec", "spec.json"],
                                    {"spec.json": _block_u6_spec()}),
    "construct_lie_only_heisenberg": (
        ["construct", "--spec", "spec.json"],
        {"spec.json": {"n": 4, "lie_basis": [_e(4, (1, 2)), _e(4, (2, 3)), _e(4, (1, 3))]}}),
    "construct_lie_only_one_parameter": (
        ["construct", "--spec", "spec.json"],
        {"spec.json": {"n": 4, "lie_basis": [_e(4, (1, 2), (2, 3), (3, 4))]}}),
    "construct_ideal_only": (["construct", "--spec", "spec.json"],
                             {"spec.json": {"n": 3, "ideal": ["Z_2_3"]}}),
    "construct_ideal_only_u4": (["construct", "--spec", "spec.json"],
                                {"spec.json": {"n": 4, "ideal": ["Z_1_2 - Z_3_4", "Z_2_3"]}}),
    "integrate_rational_logs": (["integrate", "--field", "rational",
                                 "--expr", "1/(x - 3)^2 + 2/x", "--depth", "2"], {}),
    "integrate_rational_logs_split": (["integrate", "--field", "rational",
                                       "--expr", "1/(x^2-1)", "--depth", "2"], {}),
    "integrate_radical_rationalised": (["integrate", "--field", "radical:3",
                                        "--expr", "(x+1)/(r+1)", "--depth", "2"], {}),
    "integrate_radical_obstruction": (["integrate", "--field", "radical:3",
                                       "--expr", "1/(r^2+1)", "--depth", "inf"], {}),
    "integrate_exp_slices": (["integrate", "--field", "exp",
                              "--expr", "(x^2 - 1)*t^2 + 3*t + x/t", "--depth", "3"], {}),
    "integrate_exp_obstruction": (["integrate", "--field", "exp",
                                   "--expr", "t/x", "--depth", "2"], {}),
    "integrate_log_by_parts": (["integrate", "--field", "log",
                                "--expr", "(x^2 + 1/x)*L^2 + L/x", "--depth", "3"], {}),
    "integrate_log_obstruction": (["integrate", "--field", "log",
                                   "--expr", "L/(x+1)", "--depth", "inf"], {}),
    "expand_three": (["expand", "(1,x,x^2)", "--fnext", "x+1"], {}),
    "verify_operator": (
        ["verify", "--operator", "D*x*D", "--tower", "tower.json"],
        {"tower.json": {"generators": [{"name": "th", "kind": "log", "arg": "x"}],
                        "solutions": ["th", "1", "th^2"]}}),
    "verify_matrix": _verify_matrix_case("t_1_3"),
    "verify_matrix_one_row_fails": _verify_matrix_case("t_1_3 + x"),
}


def run_case(name: str) -> str:
    """The case's canonical golden text: exit code and report minus timing_ms."""
    from diffgal.cli import main

    argv, files = CASES[name]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, content in files.items():
            Path(tmp, fname).write_text(json.dumps(content))
        os.chdir(tmp)
        try:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
        finally:
            os.chdir(cwd)
    report = json.loads(buf.getvalue())
    report.pop("timing_ms")
    return json.dumps({"exit": code, "report": report}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert run_case(name) == (GOLDEN / f"{name}.json").read_text()


CONSTRUCT_CASES = sorted(name for name, (argv, _) in CASES.items() if argv[0] == "construct")


def test_buchberger_only_checks_given_ideals_over_q(monkeypatch):
    """The pipeline's basis is the graph of exp; Buchberger runs once per
    given ideal, over Q, to check it against that basis."""
    import diffgal.inverse as inverse
    import diffgal.mpoly as mpoly

    real, calls = mpoly.buchberger, []

    def spy(gens, ring=None, budget=mpoly.DEFAULT_BUDGET):
        calls.append((ring.coeff, {g.ring.coeff for g in gens}))
        return real(gens, ring, budget)

    monkeypatch.setattr(mpoly, "buchberger", spy)
    monkeypatch.setattr(inverse, "buchberger", spy)
    for name in CONSTRUCT_CASES:
        calls.clear()
        assert run_case(name) == (GOLDEN / f"{name}.json").read_text()
        spec = CASES[name][1]["spec.json"]
        given = spec["ideal"] if "ideal" in spec else None
        expected = [] if given is None else [("rational", {"rational"} if given else set())]
        assert calls == expected, name


@pytest.mark.parametrize("name", CONSTRUCT_CASES)
def test_groebner_basis_reparses_as_ideal(name, tmp_path):
    """Each printed `groebner_basis`, given back as `ideal`, is accepted and
    printed unchanged."""
    from diffgal.cli import main

    report = json.loads((GOLDEN / f"{name}.json").read_text())["report"]
    basis = report["outputs"]["groebner_basis"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": report["inputs"]["spec"]["n"], "ideal": basis}))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["construct", "--spec", str(spec)]) == 0
    assert json.loads(buf.getvalue())["outputs"]["groebner_basis"] == basis


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.json").write_text(run_case(case))
        print(f"wrote {case}", file=sys.stderr)
