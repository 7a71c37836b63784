"""`scripts/fuzz.py`: seeded requests, well formed and not, end in an exit code
of the CLI (or run over time), never in a traceback."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import fuzz  # noqa: E402


def test_seeded_requests_end_in_an_exit_code():
    reported = []
    counts = fuzz.fuzz(0, 300, alarm=1, report=reported.append)
    assert sum(counts.values()) == 300
    # A known slow input may run over time; the fuzzer lists it, and it is no crash.
    assert set(counts) <= {"0", "1", "2", "3", fuzz.OVER_TIME}, reported
    assert all(fuzz.TRACEBACK not in line for line in reported), reported
    assert len(set(counts) & {"0", "1", "2"}) == 3


def test_requests_are_seeded():
    assert fuzz.requests(7, 50) == fuzz.requests(7, 50)
    assert fuzz.requests(7, 50) != fuzz.requests(8, 50)


def test_a_raise_is_a_traceback_and_usage_errors_exit_2(monkeypatch):
    assert fuzz.run_one(["integrate", "--field=rational"], alarm=1) == 2

    def crash(argv):
        raise KeyError("boom")

    monkeypatch.setattr(fuzz.cli, "main", crash)
    outcome = fuzz.run_one(["selftest"], alarm=1)
    assert outcome.startswith(fuzz.TRACEBACK) and "KeyError: 'boom'" in outcome
