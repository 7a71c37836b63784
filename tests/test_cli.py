"""CLI: commands, exit codes, JSON reports, round trips, determinism."""

import json
import time

import pytest

from diffgal.cli import main
from diffgal.parsing import parse_ratfunc
from diffgal.ratfield import RatFunc

X = RatFunc.x()

GOLDEN_SPEC = {
    "n": 3,
    "ideal": ["Z_2_3"],
    "lie_basis": [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ],
    "l": 2,
    "a": ["1/x", "1/(x-1)"],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOLDEN_SPEC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestConstruct:
    def test_golden_spec(self, capsys, spec_file):
        code, rep = run_json(capsys, "construct", "--spec", spec_file)
        assert code == 0
        out = rep["outputs"]
        assert parse_ratfunc(out["f"][2]) == X
        assert parse_ratfunc(out["f"][1]) == -((X - 1) ** 2)
        assert parse_ratfunc(out["A"][0][1]) == 1 / X
        assert parse_ratfunc(out["A"][1][2]) == -1 / (X - 1) ** 2
        assert all(rep["certificate"][k] for k in (
            "companion_shape", "base_field_coefficients", "annihilation_mod_ideal",
            "fundamental_identity", "differential_ideal"))

    def test_output_strings_reparse(self, capsys, spec_file):
        code, rep = run_json(capsys, "construct", "--spec", spec_file)
        for row in rep["outputs"]["A_u"] + rep["outputs"]["B"] + rep["outputs"]["A"]:
            for entry in row:
                parse_ratfunc(entry)  # must not raise

    def test_determinism_modulo_timing(self, capsys, spec_file, tmp_path):
        _, rep1 = run_json(capsys, "construct", "--spec", spec_file)
        _, rep2 = run_json(capsys, "construct", "--spec", spec_file)
        rep1.pop("timing_ms")
        rep2.pop("timing_ms")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_out_file(self, capsys, spec_file, tmp_path):
        out_path = tmp_path / "result.json"
        code, _ = run_cli(capsys, "construct", "--spec", spec_file,
                          "--out", str(out_path))
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["command"] == "construct"

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["construct", "--spec", str(bad)])
        assert code == 2

    def test_missing_file_exit_2(self):
        assert main(["construct", "--spec", "/nonexistent/spec.json"]) == 2

    def test_schema_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ideal": ["Z_2_3"]}))
        assert main(["construct", "--spec", str(bad)]) == 2

    def test_float_and_bool_matrix_entries_exit_2(self, capsys, tmp_path):
        # 0.1 would otherwise become 3602879701896397/36028797018963968.
        path = tmp_path / "spec.json"
        for entry in (0.1, True):
            spec = {"n": 3, "lie_basis": [[[0, entry, 0], [0, 0, 0], [0, 0, 0]]]}
            path.write_text(json.dumps(spec))
            assert main(["construct", "--spec", str(path)]) == 2
            assert "must be an integer or a rational string" in capsys.readouterr().err

    def test_full_u3_spec(self, capsys, tmp_path):
        spec = {
            "n": 3,
            "ideal": [],
            "lie_basis": [
                [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            ],
            "l": 2,
            "a": ["1/(x-3)", "1/(x-2)"],
        }
        path = tmp_path / "full.json"
        path.write_text(json.dumps(spec))
        code, rep = run_json(capsys, "construct", "--spec", str(path))
        assert code == 0
        fs = [parse_ratfunc(s) for s in rep["outputs"]["f"]]
        assert fs[1:] == [X - 2, X - 3]

    FULL_U3 = [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
               [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
               [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]

    def full_u3_certificate(self, capsys, tmp_path, a):
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"n": 3, "lie_basis": self.FULL_U3, "a": a}))
        code, rep = run_json(capsys, "construct", "--spec", str(path))
        return code, rep["certificate"]

    def test_dependent_a_fails_the_certificate(self, capsys, tmp_path):
        # 2*a_1 - a_2 = (1/x)', so the group of L is not all of U(3).
        code, cert = self.full_u3_certificate(capsys, tmp_path, ["1/x", "2/x + 1/x^2"])
        assert code == 1
        assert cert.pop("a_independence_verified") is False
        assert all(cert.values())

    def test_independent_a_with_a_shared_pole(self, capsys, tmp_path):
        code, cert = self.full_u3_certificate(capsys, tmp_path, ["1/x", "1/x + 1/(x-1)"])
        assert code == 0
        assert all(cert.values()) and cert["a_independence_verified"] is True

    def test_rational_string_lie_basis_entry(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"n": 3, "lie_basis": [[[0, "1/2", 0], [0, 0, 0], [0, 0, 0]]], "l": 1}))
        code, rep = run_json(capsys, "construct", "--spec", str(path))
        assert code == 0
        assert rep["outputs"]["f"] == ["1/(x - 1)", "1/2", "2*x - 2"]

    def test_non_constant_lie_basis_entry_exit_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"n": 3, "lie_basis": [[[0, "x", 0], [0, 0, 0], [0, 0, 0]]], "l": 1}))
        assert main(["construct", "--spec", str(path)]) == 2
        assert "is not a rational constant" in capsys.readouterr().err


class TestExpand:
    def test_trivial_tuple(self, capsys):
        code, rep = run_json(capsys, "expand", "(1,1)")
        assert code == 0
        assert rep["outputs"]["L"] == "D^2"
        assert rep["outputs"]["annihilated"] == [True, True]

    def test_golden_tuple(self, capsys):
        code, rep = run_json(capsys, "expand",
                             "(-1/(x*(x-1)^2), -(x-1)^2, x)")
        assert code == 0
        want = "D^3 + ((4*x - 2)/(x^2 - x))*D^2 + (2/(x^2 - x))*D"
        assert rep["outputs"]["L"] == want

    def test_zero_entry_exit_2(self, capsys):
        assert main(["expand", "(1,0)"]) == 2

    def test_fnext_factor(self, capsys):
        code, rep = run_json(capsys, "expand", "(1, x-2)", "--fnext", "x")
        assert code == 0
        assert rep["outputs"]["annihilated"] == [True, True]
        assert parse_ratfunc(rep["outputs"]["solutions"][0]) == 1 / X


class TestIntegrate:
    def test_rational_depth3(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "rational",
                             "--expr", "1/x", "--depth", "3")
        assert code == 0
        assert rep["outputs"]["status"] == "integrable"
        assert rep["outputs"]["witness"] == "(1/2*x^2)*L1"
        assert rep["outputs"]["witness_tower"] == [
            {"name": "L1", "kind": "log", "arg": "x"}]

    def test_exp_not_integrable_exit_1(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "exp",
                             "--expr", "t/x", "--depth", "inf")
        assert code == 1
        assert rep["outputs"]["status"] == "not_integrable"

    def test_rational_inf(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "rational",
                             "--expr", "x^2", "--depth", "inf")
        assert code == 0
        assert rep["outputs"]["status"] == "integrable"

    def test_radical_field(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "radical:2",
                             "--expr", "r", "--depth", "2")
        assert code == 0
        assert rep["outputs"]["status"] == "integrable"

    def test_not_supported(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "rational",
                             "--expr", "1/(x^2-2)", "--depth", "1")
        assert code == 1
        assert rep["outputs"]["status"] == "not_supported"

    def test_log_field_witness_roundtrip(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "log",
                             "--expr", "L/x", "--depth", "2")
        assert code == 0
        assert rep["outputs"]["status"] == "integrable"
        assert rep["outputs"]["witness"]

    def test_bad_depth_exit_2(self, capsys):
        assert main(["integrate", "--field", "rational",
                     "--expr", "x", "--depth", "-1"]) == 2

    def test_depth_bound(self, capsys):
        from diffgal.parsing import MAX_DEPTH

        code, _ = run_json(capsys, "integrate", "--field", "rational",
                           "--expr", "x", "--depth", str(MAX_DEPTH))
        assert code == 0
        assert main(["integrate", "--field", "exp", "--expr", "t",
                     "--depth", str(MAX_DEPTH + 1)]) == 2
        assert f"at most {MAX_DEPTH}" in capsys.readouterr().err

    def test_radical_root_bound(self, capsys):
        from diffgal.parsing import MAX_POWER_DEGREE

        code, rep = run_json(capsys, "integrate", "--field", f"radical:{MAX_POWER_DEGREE}",
                             "--expr", "1/(r+1)", "--depth", "1")
        assert code == 1 and rep["outputs"]["status"] == "not_integrable"
        assert main(["integrate", "--field", f"radical:{MAX_POWER_DEGREE + 1}",
                     "--expr", "1/(r+1)", "--depth", "1"]) == 2
        assert f"at most {MAX_POWER_DEGREE}" in capsys.readouterr().err
        assert main(["integrate", "--field", "radical:1000000000",
                     "--expr", "1/(r+1)", "--depth", "1"]) == 2

    def test_rationalized_radical_denominator_answers_fast(self, capsys):
        # Rationalizing this denominator reduces many Q(x) sums to lowest terms;
        # with the PRS behind every one of them it took 20-26 s.
        started = time.monotonic()
        code, rep = run_json(capsys, "integrate", "--field", "radical:40",
                             "--expr", "(r^3+x)/(r^4-2*r+x^2)", "--depth", "1")
        assert code == 1 and rep["outputs"]["status"] == "not_integrable"
        assert time.monotonic() - started < 5

    def test_unknown_field_exit_2(self, capsys):
        assert main(["integrate", "--field", "foo", "--expr", "x", "--depth", "1"]) == 2
        assert "unknown field" in capsys.readouterr().err

    def test_large_residue_answers(self, capsys):
        # The resultant's end coefficients have large divisor counts; its
        # squarefree part's do not.
        code, rep = run_json(capsys, "integrate", "--field", "rational", "--expr",
                             "20000038*x/(x^2-2) + 6*x/(x^2-3)", "--depth", "1")
        assert code == 0
        assert rep["outputs"]["witness"] == "3*L1 + 10000019*L2"

    def test_answer_past_the_printing_limit_exit_2_fast(self, capsys, int_str_limit):
        nines = "9" * 4000
        started = time.monotonic()
        assert main(["integrate", "--field", "rational", "--expr",
                     f"({nines})*({nines})*x", "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a coefficient of the answer has 8000 digits, "
                                "more than the 4300 that can be printed\n")
        assert time.monotonic() - started < 1

    @pytest.mark.parametrize("expr, depth, limit_s", [
        ("1/(x-1)^3 + 2/(x-2)^2 + 3/(x+5) + x^5", "13", 1.0),
        ("1/(x-1)^3 + 2/(x-2)^2 + 3/(x+5) + x^5", "30", 1.0),
        ("1/(x-100000000003) + 2/(x-100000000019)", "1", 0.1),
        ("20000000000074*x/(x^2-2) + 6*x/(x^2-3)", "1", 0.1),
        ("5040*x/(x^2-2) + x/(5040*(x^2-3))", "1", 0.1),
    ])
    def test_rational_poles_answer_fast(self, capsys, expr, depth, limit_s):
        # The residues at rational poles are read off at the poles, and those
        # on irrational poles are the resultant's roots lifted modulo a prime:
        # no search over the divisors of the resultant's end coefficients.
        started = time.monotonic()
        code, rep = run_json(capsys, "integrate", "--field", "rational", "--expr", expr,
                             "--depth", depth)
        assert time.monotonic() - started < limit_s
        assert code == 0 and rep["outputs"]["status"] == "integrable"

    def test_root_search_budget_exit_3(self, capsys):
        # No root search has a budget: inputs that once exited 3 here answer.
        for expr, witness in [("20000000000074*x/(x^2-2) + 6*x/(x^2-3)",
                               "3*L1 + 10000000000037*L2"),
                              ("5040*x/(x^2-2) + x/(5040*(x^2-3))",
                               "(1/10080)*L1 + 2520*L2")]:
            code, rep = run_json(capsys, "integrate", "--field", "rational", "--expr", expr,
                                 "--depth", "1")
            assert code == 0 and rep["outputs"]["witness"] == witness
            assert [g["arg"] for g in rep["outputs"]["witness_tower"]] == ["x^2 - 3", "x^2 - 2"]


class TestVerify:
    def test_operator_annihilation(self, capsys, tmp_path):
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps({
            "generators": [{"name": "th", "kind": "log", "arg": "x"}],
            "solutions": ["th", "1"],
        }))
        code, rep = run_json(capsys, "verify", "--operator", "D*x*D",
                             "--tower", str(tower))
        assert code == 0
        assert rep["outputs"]["annihilated"] == [True, True]

    def test_operator_failure_exit_1(self, capsys, tmp_path):
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps({
            "generators": [{"name": "th", "kind": "log", "arg": "x"}],
            "solutions": ["th"],
        }))
        code, rep = run_json(capsys, "verify", "--operator", "D^2",
                             "--tower", str(tower))
        assert code == 1
        assert rep["outputs"]["annihilated"] == [False]

    def test_operator_on_fraction_image_tower(self, capsys, tmp_path):
        # M = log(L) and N = log(t + M) have fraction derivatives
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps({
            "generators": [{"name": "L", "kind": "log", "arg": "x"},
                           {"name": "M", "kind": "log", "arg": "L"},
                           {"name": "t", "kind": "integral", "arg": "M/L"},
                           {"name": "N", "kind": "log", "arg": "t + M"}],
            "solutions": ["L", "1", "3*L - 2", "M", "N"],
        }))
        code, rep = run_json(capsys, "verify", "--operator", "D*x*D",
                             "--tower", str(tower))
        assert code == 1
        assert rep["outputs"]["annihilated"] == [True, True, True, False, False]

    def test_matrix_mode(self, capsys, tmp_path):
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps({
            "generators": [{"name": "i1", "kind": "integral", "arg": "1"}],
            "matrix_T": [["1", "i1"], ["0", "1"]],
        }))
        mat = tmp_path / "matrix.json"
        mat.write_text(json.dumps({"matrix": [["0", "1"], ["0", "0"]]}))
        code, rep = run_json(capsys, "verify", "--matrix", str(mat),
                             "--tower", str(tower))
        assert code == 0
        assert rep["outputs"]["rows_satisfy_T_prime_eq_AT"] == [True, True]

    def test_matrix_size_mismatch_exit_2(self, capsys, tmp_path):
        # a 3x3 A against a 2x2 T used to check only the top-left block, and
        # empty matrices used to verify vacuously
        tower = tmp_path / "tower.json"
        mat = tmp_path / "matrix.json"
        t_2x2 = {"generators": [{"name": "i1", "kind": "integral", "arg": "1"}],
                 "matrix_T": [["1", "i1"], ["0", "1"]]}
        a_3x3 = {"matrix": [["0", "1", "0"], ["0", "0", "x"], ["0", "0", "0"]]}
        for t, a in ((t_2x2, a_3x3), ({"matrix_T": []}, {"matrix": []})):
            tower.write_text(json.dumps(t))
            mat.write_text(json.dumps(a))
            assert main(["verify", "--matrix", str(mat), "--tower", str(tower)]) == 2

    def test_requires_exactly_one_mode(self, capsys, tmp_path):
        tower = tmp_path / "t.json"
        tower.write_text("{}")
        with pytest.raises(SystemExit):
            main(["verify", "--tower", str(tower)])

    def test_golden_matrix_mode(self, capsys, tmp_path):
        # the 3x3 golden A against its tower-built fundamental matrix
        from diffgal.diffop import shape_matrix
        from diffgal.tower import fundamental_T

        fs = [-((X - 1) ** 2), X]
        t_mat = fundamental_T(fs)
        tw = t_mat[0][0].tower
        decls = []
        for g in tw.gens:
            decls.append({"name": g.name, "kind": "integral",
                          "arg": str(g.argument)})
        tower_file = tmp_path / "tower.json"
        tower_file.write_text(json.dumps({
            "generators": decls,
            "matrix_T": [[str(e) for e in row] for row in t_mat],
        }))
        a = shape_matrix(fs)
        mat_file = tmp_path / "matrix.json"
        mat_file.write_text(json.dumps(
            {"matrix": [[str(e) for e in row] for row in a.rows]}))
        code, rep = run_json(capsys, "verify", "--matrix", str(mat_file),
                             "--tower", str(tower_file))
        assert code == 0
        assert rep["outputs"]["rows_satisfy_T_prime_eq_AT"] == [True, True, True]


class TestJsonShape:
    """JSON files of the wrong shape are input errors (exit 2), not tracebacks."""

    def run_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        return captured.err

    def construct(self, capsys, tmp_path, spec, config=None):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["construct", "--spec", str(spec_path)]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg)] + argv
        self.run_exit_2(capsys, argv)

    def verify(self, capsys, tmp_path, tower):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(tower))
        return self.run_exit_2(capsys, ["verify", "--operator", "D", "--tower", str(path)])

    def verify_matrix(self, capsys, tmp_path, tower, matrix):
        tower_path, matrix_path = tmp_path / "tower.json", tmp_path / "matrix.json"
        tower_path.write_text(json.dumps(tower))
        matrix_path.write_text(json.dumps(matrix))
        return self.run_exit_2(capsys, ["verify", "--matrix", str(matrix_path),
                                        "--tower", str(tower_path)])

    def test_config_holding_a_number(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, GOLDEN_SPEC, config=5)

    def test_config_holding_a_list(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, GOLDEN_SPEC, config=[])

    def test_spec_holding_a_number(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, 5)

    def test_lie_basis_entry_not_a_matrix(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, {"n": 3, "lie_basis": [5]})

    def test_ideal_not_a_list(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, {"n": 3, "ideal": 5})

    def test_ideal_entry_not_a_string(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, {"n": 3, "ideal": [5]})

    def test_l_not_an_integer(self, capsys, tmp_path):
        self.construct(capsys, tmp_path, dict(GOLDEN_SPEC, l="2"))

    def test_tower_holding_a_number(self, capsys, tmp_path):
        self.verify(capsys, tmp_path, 5)

    def test_generator_not_an_object(self, capsys, tmp_path):
        self.verify(capsys, tmp_path, {"generators": [5], "solutions": ["1"]})

    def test_solutions_not_a_list(self, capsys, tmp_path):
        self.verify(capsys, tmp_path, {"solutions": 5})

    def test_tower_without_solutions(self, capsys, tmp_path):
        assert "has no 'solutions'" in self.verify(capsys, tmp_path, {"generators": []})

    def test_unknown_generator_kind(self, capsys, tmp_path):
        tower = {"generators": [{"name": "s", "kind": "sin", "arg": "x"}], "solutions": ["1"]}
        assert "unknown generator kind 'sin'" in self.verify(capsys, tmp_path, tower)

    # A radical root must be a JSON integer; "3" used to be accepted and 2.5 ran as 2.
    def radical_root(self, capsys, tmp_path, root):
        tower = {"generators": [{"name": "r", "kind": "radical", "root": root}],
                 "solutions": ["r"]}
        assert "root of generator 1 must be an integer" in self.verify(
            capsys, tmp_path, tower)

    def test_radical_root_float(self, capsys, tmp_path):
        self.radical_root(capsys, tmp_path, 2.5)

    def test_radical_root_string(self, capsys, tmp_path):
        self.radical_root(capsys, tmp_path, "3")

    def test_radical_root_bool(self, capsys, tmp_path):
        self.radical_root(capsys, tmp_path, True)

    def test_radical_root_above_bound(self, capsys, tmp_path):
        from diffgal.parsing import MAX_POWER_DEGREE

        tower = {"generators": [{"name": "r", "kind": "radical", "root": MAX_POWER_DEGREE + 1}],
                 "solutions": ["r"]}
        assert f"at most {MAX_POWER_DEGREE}" in self.verify(capsys, tmp_path, tower)

    # A missing field is named together with its owner.
    def missing_generator_field(self, capsys, tmp_path, decl, field):
        tower = {"generators": [{"name": "L", "kind": "log", "arg": "x"}, decl],
                 "solutions": ["1"]}
        assert f"generator 2 has no '{field}'" in self.verify(capsys, tmp_path, tower)

    def test_generator_without_name(self, capsys, tmp_path):
        self.missing_generator_field(capsys, tmp_path, {"kind": "log", "arg": "L"}, "name")

    def test_generator_without_kind(self, capsys, tmp_path):
        self.missing_generator_field(capsys, tmp_path, {"name": "M", "arg": "L"}, "kind")

    def test_generator_without_arg(self, capsys, tmp_path):
        self.missing_generator_field(capsys, tmp_path, {"name": "M", "kind": "exp"}, "arg")

    def test_generator_without_root(self, capsys, tmp_path):
        self.missing_generator_field(capsys, tmp_path, {"name": "r", "kind": "radical"}, "root")

    # Generator names must parse back as atoms and clash with nothing.
    def generator_name(self, capsys, tmp_path, names):
        tower = {"generators": [{"name": name, "kind": "log", "arg": "x + 2"} for name in names],
                 "solutions": ["1"]}
        return self.verify(capsys, tmp_path, tower)

    @pytest.mark.parametrize("name", ["", "1", "a b", "t+1"])
    def test_generator_name_not_an_identifier(self, capsys, tmp_path, name):
        assert "must be an identifier" in self.generator_name(capsys, tmp_path, [name])

    @pytest.mark.parametrize("name", ["x", "D", "Z_1_2"])
    def test_generator_name_reserved(self, capsys, tmp_path, name):
        assert "clashes" in self.generator_name(capsys, tmp_path, [name])

    def test_generator_name_repeated(self, capsys, tmp_path):
        assert "clashes" in self.generator_name(capsys, tmp_path, ["L", "M", "L"])

    def test_tower_without_matrix_T(self, capsys, tmp_path):
        err = self.verify_matrix(capsys, tmp_path, {"generators": []}, {"matrix": [["0"]]})
        assert "the tower file has no 'matrix_T'" in err

    def test_matrix_file_without_matrix(self, capsys, tmp_path):
        err = self.verify_matrix(capsys, tmp_path, {"matrix_T": [["1"]]}, {"A": [["0"]]})
        assert "the matrix file has no 'matrix'" in err


class TestSpecNotOneGroup:
    """Ideal and Lie data that do not describe one connected unipotent group
    are input errors (exit 2) with no report, not red or green certificates."""

    E12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    E23 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]

    def construct_exit_2(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["construct", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        return captured.err

    def test_ideal_disagrees_with_lie_basis(self, capsys, tmp_path):
        err = self.construct_exit_2(capsys, tmp_path, {
            "n": 3, "ideal": ["Z_1_3 - Z_1_2*Z_2_3"], "lie_basis": [self.E12]})
        assert "spanned by the Lie basis" in err

    def test_ideal_not_radical(self, capsys, tmp_path):
        err = self.construct_exit_2(capsys, tmp_path, {"n": 3, "ideal": ["Z_1_2^2"]})
        assert "tangent space" in err

    def test_ideal_of_two_components(self, capsys, tmp_path):
        err = self.construct_exit_2(capsys, tmp_path, {"n": 3, "ideal": ["Z_2_3*(Z_2_3 - 1)"]})
        assert "tangent space" in err

    def test_tangent_space_not_a_subalgebra(self, capsys, tmp_path):
        err = self.construct_exit_2(capsys, tmp_path, {"n": 3, "ideal": ["2*Z_1_3 - Z_1_2*Z_2_3"]})
        assert "tangent space does not span a subalgebra" in err

    def test_lie_basis_not_a_subalgebra(self, capsys, tmp_path):
        err = self.construct_exit_2(capsys, tmp_path, {"n": 3, "lie_basis": [self.E12, self.E23]})
        assert "Lie basis does not span a subalgebra" in err


class TestParserNesting:
    def test_deep_parentheses_exit_2(self, capsys):
        expr = "(" * 5000 + "x" + ")" * 5000
        assert main(["integrate", "--field", "rational", "--expr", expr, "--depth", "1"]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_many_unary_signs_exit_2(self, capsys):
        expr = "x*" + "-" * 5000 + "x"
        assert main(["integrate", "--field", "rational", "--expr", expr, "--depth", "1"]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_huge_power_exit_2_fast(self, capsys):
        started = time.monotonic()
        assert main(["integrate", "--field", "rational", "--expr", "(x+1)^2000000",
                     "--depth", "1"]) == 2
        assert "power of degree above" in capsys.readouterr().err
        assert time.monotonic() - started < 1

    def test_long_product_exit_2_fast(self, capsys):
        started = time.monotonic()
        assert main(["integrate", "--field", "rational", "--expr", "*".join(["(x+1)^1000"] * 8),
                     "--depth", "1"]) == 2
        assert "product of degree above" in capsys.readouterr().err
        assert time.monotonic() - started < 1

    def test_long_sum_of_powers_exit_2_fast(self, capsys):
        started = time.monotonic()
        expr = "+".join("(x+%d)^1000" % k for k in range(1, 9))
        assert main(["integrate", "--field", "rational", "--expr", expr, "--depth", "1"]) == 2
        assert "work exceeds one power" in capsys.readouterr().err
        assert time.monotonic() - started < 1


class TestConfigAndSelftest:
    def test_selftest_passes(self, capsys):
        code, out = run_cli(capsys, "--format", "text", "selftest")
        assert code == 0
        assert "False" not in out and out.count(": True") == 5

    def test_selftest_prints_one_json_report(self, capsys):
        code, report = run_json(capsys, "selftest")
        assert code == 0
        assert report["command"] == "selftest" and report["inputs"] == {}
        assert report["outputs"] == dict.fromkeys(
            ("exp_classifier", "full_u3", "log_power_identity", "stable_rational",
             "unipotent_3x3_golden"), True)

    def test_config_file(self, capsys, tmp_path, spec_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_format": "text", "seed": 7}))
        code, out = run_cli(capsys, "--config", str(cfg),
                            "construct", "--spec", spec_file)
        assert code == 0
        assert out.startswith("certificate:") or "command: construct" in out

    def test_bad_budget_rejected(self, capsys, tmp_path, spec_file):
        cfg = tmp_path / "cfg.json"
        for key in ("groebner_budget", "cyclic_search_budget"):
            for budget in (0, "10", None, True):
                cfg.write_text(json.dumps({key: budget}))
                assert main(["--config", str(cfg), "construct", "--spec", spec_file]) == 2

    def test_bad_output_format_rejected(self, capsys, tmp_path, spec_file):
        cfg = tmp_path / "cfg.json"
        for fmt in (5, "xml", None):
            cfg.write_text(json.dumps({"output_format": fmt}))
            assert main(["--config", str(cfg), "construct", "--spec", spec_file]) == 2
            assert capsys.readouterr().out == ""

    def test_env_config(self, capsys, tmp_path, spec_file, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_format": "text"}))
        monkeypatch.setenv("DIFFGAL_CONFIG", str(cfg))
        code, out = run_cli(capsys, "construct", "--spec", spec_file)
        assert code == 0
        assert "command: construct" in out

    def test_budget_exceeded_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"groebner_budget": 1}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n": 3,
            "ideal": ["Z_1_2 - Z_2_3", "Z_2_3^2 - 2*Z_1_3"],
            "l": 1,
        }))
        assert main(["--config", str(cfg), "construct", "--spec", str(spec)]) == 3

    def test_witness_string_roundtrips(self, capsys):
        _, rep = run_json(capsys, "integrate", "--field", "rational",
                          "--expr", "1/(x^2-1)", "--depth", "2")
        from diffgal.tower import Tower

        tw = Tower()
        for decl in rep["outputs"]["witness_tower"]:
            assert decl["kind"] == "log"
            tw.add_log(decl["name"], tw.parse(decl["arg"]))
        w = tw.parse(rep["outputs"]["witness"])
        g = tw.expr(parse_ratfunc("1/(x^2-1)"))
        assert (w.derive_n(2) - g).is_zero()


class TestOperatorInputErrors:
    """Operators that cannot be checked end in exit 2 and one `error:` line."""

    @pytest.fixture
    def tower(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({
            "generators": [{"name": "th", "kind": "log", "arg": "x"}],
            "solutions": ["th", "1"],
        }))
        return str(path)

    @pytest.mark.parametrize("text", ["1/D", "x/(x*D)", "2/0", "D/0"])
    def test_division_exit_2(self, capsys, tower, text):
        assert main(["verify", "--operator", text, "--tower", tower]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ["0", "D - D", "0*D", "x*(D - D)"])
    def test_zero_operator_exit_2(self, capsys, tower, text):
        # the zero operator annihilates everything, so its check proves nothing
        assert main(["verify", "--operator", text, "--tower", tower]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "zero operator" in captured.err


class TestParserReuse:
    def test_calls_around_an_argparse_failure_match_fresh_calls(self, capsys, spec_file):
        from diffgal.cli import _parser, build_parser

        argvs = (["expand", "(1,x)", "--fnext", "x"],
                 ["--format", "json", "construct", "--spec", spec_file],
                 ["integrate", "--field", "log", "--expr", "L", "--depth", "2"])
        first = []
        for argv in argvs:
            code, rep = run_json(capsys, *argv)
            rep.pop("timing_ms")
            first.append((code, rep))
        with pytest.raises(SystemExit):
            main(["expand", "--no-such-flag"])
        with pytest.raises(SystemExit):
            main(["verify", "--tower", spec_file])  # parser.error inside main
        capsys.readouterr()
        for argv, expected in zip(argvs, first):
            code, rep = run_json(capsys, *argv)
            rep.pop("timing_ms")
            assert (code, rep) == expected
            assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
        assert _parser() is _parser()


def test_one_independence_check_per_construct(capsys, spec_file, monkeypatch):
    from diffgal import inverse

    calls = []
    original = inverse._independent

    def counted(mats, n):
        calls.append(n)
        return original(mats, n)

    monkeypatch.setattr(inverse, "_independent", counted)
    code, _ = run_cli(capsys, "construct", "--spec", spec_file)
    assert code == 0
    assert calls == [3]


class TestTupleEntries:
    @pytest.mark.parametrize("text, entry", [("(x,,x)", 2), ("(x,)", 2), ("(,x)", 1), ("1, ,x", 2)])
    def test_empty_entry_exit_2(self, capsys, text, entry):
        assert main(["expand", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tuple entry {entry} is empty\n"

    @pytest.mark.parametrize("text, order", [("(1,x)", 2), ("(1, x-2)", 2), ("x, x", 2), ("(x)", 1)])
    def test_full_tuples_unchanged(self, capsys, text, order):
        code, rep = run_json(capsys, "expand", text)
        assert code == 0
        assert len(rep["outputs"]["solutions"]) == order


class TestRadicalField:
    @pytest.mark.parametrize("field", ["radical:3_0", "radical:٣", "radical:x", "radical:",
                                       "radical: 3", "radical:+3", "radical:3.0"])
    def test_root_not_decimal_digits_exit_2(self, capsys, field):
        assert main(["integrate", "--field", field, "--expr", "r", "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: field {field!r} needs a root of decimal digits\n"

    @pytest.mark.parametrize("root", ["2", "1000", "03"])
    def test_decimal_roots_run(self, capsys, root):
        code, rep = run_json(capsys, "integrate", "--field", f"radical:{root}",
                             "--expr", "r", "--depth", "1")
        assert code == 0 and rep["outputs"]["status"] == "integrable"

    def test_root_above_bound_exit_2(self, capsys):
        assert main(["integrate", "--field", "radical:1001", "--expr", "r", "--depth", "1"]) == 2
        assert "at most 1000" in capsys.readouterr().err
        assert main(["integrate", "--field", "radical:" + "9" * 5000, "--expr", "r",
                     "--depth", "1"]) == 2
        assert "too long" in capsys.readouterr().err

    @pytest.mark.parametrize("root, message", [("1", "radical root must be >= 2"),
                                               ("0", "radical root must be >= 2"),
                                               ("1001", "radical root must be at most 1000")])
    def test_bad_root_exit_2_every_time(self, capsys, root, message):
        # A refused root is not cached: the second run raises the same error.
        for _ in range(2):
            assert main(["integrate", "--field", f"radical:{root}", "--expr", "r",
                         "--depth", "1"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


class TestStandardTowers:
    @pytest.mark.parametrize("field, same", [("exp", "exp"), ("log", "log"),
                                             ("radical:7", "radical:007")])
    def test_one_tower_per_kind_and_root(self, field, same):
        from diffgal.cli import _standard_tower

        assert _standard_tower(field) is _standard_tower(same)

    @pytest.mark.parametrize("field, expr", [("exp", "x^2*t^3 + 1/t"), ("log", "L^2/x"),
                                             ("radical:3", "r^2/x + x*r"),
                                             ("log", "L/(x+1)")])
    @pytest.mark.parametrize("depth", ["inf", "3"])
    def test_classify_leaves_the_tower_as_built(self, capsys, field, expr, depth):
        from diffgal.cli import _standard_tower

        tower = _standard_tower(field)
        gens, ring = list(tower.gens), tower.ring
        assert main(["integrate", "--field", field, "--expr", expr, "--depth", depth]) in (0, 1)
        capsys.readouterr()
        assert tower.gens == gens and tower.ring is ring and _standard_tower(field) is tower


class TestDepthDigits:
    MESSAGE = "error: depth must be a positive integer at most 100 or 'inf'\n"

    @pytest.mark.parametrize("depth", ["1_0", "٣", "+2", " 2", "2 ", "2\n", "-1", "0x3",
                                       "", "0", "00", "101", "Inf", "1.0"])
    def test_not_ascii_digits_in_range_exit_2(self, capsys, depth):
        assert main(["integrate", "--field", "rational", "--expr", "x", "--depth", depth]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.MESSAGE

    @pytest.mark.parametrize("depth, runs", [("1", 1), ("02", 2), ("100", 100)])
    def test_ascii_digits_run(self, capsys, depth, runs):
        code, rep = run_json(capsys, "integrate", "--field", "rational",
                             "--expr", "x^2", "--depth", depth)
        assert code == 0 and rep["inputs"]["depth"] == depth
        # the witness of x^2 at depth n is 2 x^(n+2)/(n+2)!
        assert f"x^{runs + 2}" in rep["outputs"]["witness"]

    def test_inf_runs(self, capsys):
        code, rep = run_json(capsys, "integrate", "--field", "exp", "--expr", "t", "--depth", "inf")
        assert code == 0 and rep["outputs"]["status"] == "integrable"

    def test_long_digit_string_exit_2(self, capsys):
        assert main(["integrate", "--field", "rational", "--expr", "x",
                     "--depth", "1" + "0" * 5000]) == 2
        assert "too long" in capsys.readouterr().err
