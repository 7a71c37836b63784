"""The per-request memo of Q(x) arithmetic: where scopes open and close, that
memoized results equal computed ones, and that no memo crosses threads."""

import json
import random
import threading
from fractions import Fraction

import pytest

from conftest import rand_ratfunc
import diffgal.cli as cli
import diffgal.inverse as inverse
from diffgal.inverse import GroupSpec, run_pipeline
from diffgal.ratfield import _MEMO, RatFunc, UPoly, memo_scope

X = RatFunc.x()


def fields(f: RatFunc) -> tuple:
    return f.num.ints, f.num.denom, f.den.ints, f.den.denom


# -- scopes ---------------------------------------------------------------------------


def test_scope_is_dropped_on_exit_and_shared_when_nested():
    assert _MEMO.get() is None
    with memo_scope():
        outer = _MEMO.get()
        assert outer == {}
        with memo_scope():
            assert _MEMO.get() is outer
        assert _MEMO.get() is outer
    assert _MEMO.get() is None


def test_scope_is_dropped_when_the_block_raises():
    with pytest.raises(KeyError):
        with memo_scope():
            raise KeyError("x")
    assert _MEMO.get() is None


@pytest.fixture
def budget_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groebner_budget": 1}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 3, "ideal": ["Z_1_2 - Z_2_3", "Z_2_3^2 - 2*Z_1_3"],
                                "l": 1}))
    return str(cfg), str(spec)


def test_cli_main_runs_in_a_scope_and_leaves_none(capsys, monkeypatch, budget_files):
    seen = []
    run_integrate = cli.cmd_integrate

    def recording(args, cfg):
        seen.append(_MEMO.get())
        return run_integrate(args, cfg)

    monkeypatch.setattr(cli, "cmd_integrate", recording)
    cfg, spec = budget_files
    cases = [
        (["integrate", "--field", "rational", "--expr", "1/x^2", "--depth", "1"], 0),
        (["integrate", "--field", "exp", "--expr", "t/x", "--depth", "inf"], 1),
        (["integrate", "--field", "rational", "--expr", "1/", "--depth", "1"], 2),
        (["--config", cfg, "construct", "--spec", spec], 3),
    ]
    for argv, code in cases:
        assert cli.main(argv) == code
        assert _MEMO.get() is None
    assert len(seen) == 3 and all(isinstance(m, dict) for m in seen)
    # one scope per command: no memo is carried from one command to the next
    assert len({id(m) for m in seen}) == 3
    capsys.readouterr()


def test_cli_main_leaves_no_scope_through_system_exit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["integrate", "--no-such-flag"])
    assert _MEMO.get() is None
    # raised by parser.error inside the command's scope
    with pytest.raises(SystemExit):
        cli.main(["verify", "--tower", "t.json"])
    assert _MEMO.get() is None
    capsys.readouterr()


def test_run_pipeline_opens_a_scope_or_reuses_the_open_one(monkeypatch):
    seen = []
    build = inverse.build_Au

    def recording(spec):
        seen.append(_MEMO.get())
        return build(spec)

    monkeypatch.setattr(inverse, "build_Au", recording)
    spec = GroupSpec(n=3, ideal_gens=[])
    run_pipeline(spec)
    assert isinstance(seen[0], dict) and _MEMO.get() is None
    with memo_scope():
        run_pipeline(spec)
        assert seen[1] is _MEMO.get() and seen[1]


# -- results --------------------------------------------------------------------------


def test_errors_are_not_stored():
    with memo_scope():
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                RatFunc.one() / RatFunc.zero()
        assert not _MEMO.get()


@pytest.mark.parametrize("seed", range(3))
def test_memoized_results_equal_computed_ones(seed):
    rng = random.Random(f"memo/{seed}")
    corpus = [rand_ratfunc(rng, 4) for _ in range(12)] + [RatFunc.zero(), RatFunc.one(), X]
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(60)]

    def results():
        out = []
        for a, b in pairs:
            out += [fields(a + b), fields(a * b), fields(a - b), fields(a.derive())]
            if not b.is_zero():
                out.append(fields(a / b))
            out += [fields(a + 3), fields(Fraction(1, 2) * a)]
        return out

    plain = results()
    with memo_scope():
        first = results()
        assert _MEMO.get()
        again = results()  # read back from the memo
    assert first == plain and again == plain


def test_a_second_derivative_of_one_value_takes_no_gcd(monkeypatch):
    calls = []
    cofactors = UPoly.cofactors

    def counting(self, other):
        calls.append(1)
        return cofactors(self, other)

    monkeypatch.setattr(UPoly, "cofactors", counting)
    f = (X**2 + 1) / (X**3 - 2 * X + 5) ** 2
    with memo_scope():
        first = f.derive()
        n_first = len(calls)
        assert n_first > 0
        assert f.derive() is first
        assert len(calls) == n_first


# -- threads --------------------------------------------------------------------------


def test_a_thread_started_in_a_scope_sees_no_memo():
    seen = []
    with memo_scope():
        assert _MEMO.get() is not None
        t = threading.Thread(target=lambda: seen.append(_MEMO.get()))
        t.start()
        t.join()
    assert seen == [None]


def _summary(res) -> tuple:
    return tuple(str(f) for f in res.f_tuple), str(res.L), res.certificate.all_green()


def test_concurrent_pipelines_match_sequential_runs():
    specs = [GroupSpec(n=4, ideal_gens=[], a_choices=[1 / (X - k) for k in (1, 2, 3)]),
             GroupSpec(n=4, lie_basis=[((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))])]
    want = [_summary(run_pipeline(s)) for s in specs]
    got: list = [None, None]
    errors: list = []

    def work(k):
        try:
            for _ in range(3):
                got[k] = _summary(run_pipeline(specs[k]))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert got == want


# -- gcds -----------------------------------------------------------------------------


def _cofactor_fields(out) -> tuple:
    return tuple((p.ints, p.denom) for p in out)


@pytest.mark.parametrize("seed", range(3))
def test_memoized_cofactors_equal_computed_ones(seed):
    rng = random.Random(f"memo-gcd/{seed}")
    corpus = []
    for _ in range(8):
        common = UPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
        p = common * UPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
        # equal `ints` over another `denom`: its cofactor differs from p's
        corpus += [p, p * Fraction(1, rng.choice((3, 7))), common]
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(60)]
    plain = [_cofactor_fields(a.cofactors(b)) for a, b in pairs]
    with memo_scope():
        first = [_cofactor_fields(a.cofactors(b)) for a, b in pairs]
        again = [_cofactor_fields(a.cofactors(b)) for a, b in pairs]
    assert first == plain and again == plain


def test_a_repeated_gcd_in_one_scope_runs_no_gcd(monkeypatch):
    import diffgal.ratfield as ratfield

    calls = []
    for name in ("_heu_gcd", "_prs_gcd"):
        run = getattr(ratfield, name)
        monkeypatch.setattr(ratfield, name, lambda *a, _run=run: calls.append(1) or _run(*a))
    a = (UPoly([1, 1]) * UPoly([-2, 0, 1])) ** 2
    b = UPoly([1, 1]) * UPoly([3, 1])
    with memo_scope():
        first = a.cofactors(b)
        n_first = len(calls)
        assert n_first > 0
        assert a.cofactors(b) is first
        assert len(calls) == n_first
    a.cofactors(b)  # outside a scope every call computes
    assert len(calls) == 2 * n_first
