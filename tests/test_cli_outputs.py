"""`scripts/cli_outputs.py --compare`: the ids of the requests whose answers
differ from a saved file, and exit status 1 when there are any."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import cli_outputs  # noqa: E402

ANSWERS = {
    "integrate:1:a": {"code": 0, "report": {"outputs": {"witness": "x"}}},
    "integrate:1:b": {"code": 1, "report": {"outputs": {"witness": None}}},
}


@pytest.fixture
def fake_pool(monkeypatch):
    """One workload and seed whose answers are ANSWERS, without running the CLI."""
    monkeypatch.setattr(cli_outputs, "WORKLOADS", {"integrate": None})
    monkeypatch.setattr(cli_outputs, "outputs", lambda workload, seed: (dict(ANSWERS), 0))


def _run(capsys, tmp_path, old, *extra):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    code = cli_outputs.main(["--workloads", "integrate", "--compare", str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.out.split(), captured.err


def test_same_answers_exit_0(capsys, tmp_path, fake_pool):
    code, ids, err = _run(capsys, tmp_path, ANSWERS)
    assert (code, ids) == (0, [])
    assert "0 of 2 requests differ" in err


def test_changed_missing_and_extra_ids_exit_1(capsys, tmp_path, fake_pool):
    old = {"integrate:1:a": {"code": 0, "report": {"outputs": {"witness": "2*x"}}},
           "integrate:1:c": {"code": 0, "report": {}}}
    code, ids, err = _run(capsys, tmp_path, old)
    assert code == 1
    assert ids == ["integrate:1:a", "integrate:1:b", "integrate:1:c"]
    assert "3 of 3 requests differ" in err


def test_compare_and_out_together(capsys, tmp_path, fake_pool):
    out = tmp_path / "new.json"
    code, ids, _ = _run(capsys, tmp_path, ANSWERS, "--out", str(out))
    assert (code, ids) == (0, [])
    assert json.loads(out.read_text()) == ANSWERS


def test_needs_out_or_compare(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_outputs.main(["--seeds", "1"])
    assert exc.value.code == 2
    assert "give --out, --compare or both" in capsys.readouterr().err
