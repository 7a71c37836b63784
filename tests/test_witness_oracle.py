"""Every finite-depth request of the seed-1 integrate benchmark pool: the
witness the library returns passes the generic check, differentiated through
the tower's derivation, and is the witness the command line printed.  Each
rational witness is also the one `witness_oracle` assembles by generic tower
sums."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import diffgal.cli as cli  # noqa: E402
import witness_oracle  # noqa: E402
from diffgal.errors import NotSupported  # noqa: E402
from diffgal.integrab import (classify_exp, classify_log, classify_radical,  # noqa: E402
                              elementary_n_witness)
from diffgal.parsing import parse_ratfunc  # noqa: E402
from worker import run_request  # noqa: E402
from workloads import generate  # noqa: E402

CLASSIFY = {"exp": classify_exp, "log": classify_log, "radical": classify_radical}


def _library(field: str, text: str, depth: int):
    """(status, witness, g in the witness's tower) from the library alone."""
    if field == "rational":
        g = parse_ratfunc(text)
        try:
            w = elementary_n_witness(g, depth)
        except NotSupported:
            return "not_supported", None, None
        return "integrable", w, w.tower.expr(g)
    tower = cli._standard_tower(field)
    g = tower.parse(text)
    verdict = CLASSIFY[tower.gens[0].kind](g, depth=depth)
    return verdict.status, verdict.witness, g


def test_pool_witnesses_rederive_and_match_the_cli(tmp_path):
    checked = 0
    for req in generate("integrate", 1)["pool"]:
        field, text, depth = (req["expect"][k] for k in ("field", "expr", "depth"))
        if depth == "inf":
            continue
        _, (out,) = run_request(cli, req, str(tmp_path))
        printed = json.loads(out)["outputs"]
        status, w, g = _library(field, text, depth)
        assert status == printed["status"], req["argv"]
        if w is None:
            assert printed["witness"] is None, req["argv"]
            continue
        assert (w.derive_n(depth) - g).is_zero(), req["argv"]
        assert str(w) == printed["witness"], req["argv"]
        checked += 1
    assert checked >= 500


def test_rational_witnesses_match_the_generic_sums():
    """The witness assembled as one normal-form polynomial in the L_j has the
    numerator, denominator and text of the one built by generic sums."""
    checked = 0
    for req in generate("integrate", 1)["pool"]:
        field, text, depth = (req["expect"][k] for k in ("field", "expr", "depth"))
        if field != "rational" or depth == "inf":
            continue
        g = parse_ratfunc(text)
        try:
            want = witness_oracle.elementary_n_witness(g, depth)
        except NotSupported:
            with pytest.raises(NotSupported):
                elementary_n_witness(g, depth)
            continue
        got = elementary_n_witness(g, depth)
        assert (got.num, got.den, str(got)) == (want.num, want.den, str(want)), text
        checked += 1
    assert checked >= 200
