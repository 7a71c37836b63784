"""Tests of the benchmark itself: seeded inputs, repeatable traced counts and
a span recorder that leaves the program as it found it.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _program_inputs(plan: dict) -> list:
    return [(r.get("argv"), r.get("tuple"), r["files"]) for r in plan["warmup"] + plan["pool"]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(workload):
    one = workloads.generate(workload, 1)
    assert one == workloads.generate(workload, 1)
    assert _program_inputs(one) != _program_inputs(workloads.generate(workload, 2))


def _traced(tmp_path: Path, workload: str, seed: int, requests: int, tag: str) -> dict:
    run_dir = tmp_path / tag
    plan_path, plan = run.write_plan(workload, seed, run_dir, run_dir / "spans.tsv.gz")
    plan["trace_requests"] = requests
    plan_path.write_text(json.dumps(plan))
    return run.worker("trace", plan_path, run_dir / "result.json")


@pytest.mark.parametrize("workload,requests", [
    ("construct_full", 1), ("construct_subgroup", 1), ("integrate", 24), ("expand_verify", 4)])
def test_traced_counts_repeat(tmp_path, workload, requests):
    """Two traced runs in fresh interpreters: same counts, same answers."""
    first = _traced(tmp_path, workload, 5, requests, "a")
    second = _traced(tmp_path, workload, 5, requests, "b")
    # verify reports echo the tower file path, which names the run directory
    answers = [json.dumps(r["outputs"]).replace(str(tmp_path / tag), "RUN")
               for r, tag in ((first, "a"), (second, "b"))]
    counts = [{k: v for k, v in r["layers"].items() if k.endswith((".calls", ".candidates"))}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    assert answers[0] == answers[1]
    assert first["inconsistent"] == second["inconsistent"] == []


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of every diffgal module and traced class."""
    import diffgal.cli  # noqa: F401  (loads every layer)

    out = {}
    holders = [m for n, m in sys.modules.items() if n == "diffgal" or n.startswith("diffgal.")]
    holders += [c for h in list(holders) for c in vars(h).values() if inspect.isclass(c)]
    for holder in holders:
        for attr, obj in vars(holder).items():
            out[(id(holder), attr)] = obj
    return out


def test_uninstall_restores_every_binding():
    import diffgal.cli as cli
    import diffgal.inverse as inverse
    import diffgal.mpoly as mpoly
    import diffgal.tower as tower

    before = _bindings()
    original_buchberger = mpoly.buchberger
    rec = spans.SpanRecorder()
    rec.install()
    try:
        # names re-bound by other modules are traced through the same wrapper
        assert inverse.buchberger is mpoly.buchberger is not original_buchberger
        assert inverse.normal_form is mpoly.normal_form
        assert tower.build_Lf is cli.build_Lf
        assert len(rec.patched()) > 50
    finally:
        rec.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert rec.patched() == []


def test_spans_record_parents():
    import diffgal.cli as cli

    rec = spans.SpanRecorder()
    rec.install()
    try:
        rec.begin_request("r0")
        with redirect_stdout(io.StringIO()):
            code = cli.main(["integrate", "--field", "rational",
                             "--expr", "1/(x - 3)^2 + 2/x", "--depth", "2"])
    finally:
        rec.uninstall()
    assert code == 0
    names = [rec.names[k] for k in rec.name_id]
    parent = {names[i]: (names[p] if p >= 0 else None) for i, p in enumerate(rec.parent)}
    assert parent["cli.main"] is None
    assert parent["cli.cmd_integrate"] == "cli.main"
    assert parent["integrab.elementary_n_witness"] == "cli.cmd_integrate"
    assert parent["integrab.rational_log_parts"] == "integrab.elementary_n_witness"
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    metrics = spans.layer_metrics(rec)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["parsing.parse.calls"] >= 1
    assert metrics["mpoly.buchberger.calls"] == 0


@pytest.mark.parametrize("workload,field,wrong", [
    ("construct_full", "f", lambda f: f[:1] + f[1:][::-1]),
    ("integrate", "witness", lambda w: w + " + x"),
    ("expand_verify", "L", lambda op: op + " + D"),
])
def test_checks_reject_wrong_answers(workload, field, wrong):
    """The reference checks pass the program's answer and fail a tampered one."""
    import diffgal.cli as cli
    import worker
    from check import check

    pool = workloads.generate(workload, 3)["pool"]
    req = next(r for r in pool if workload != "integrate" or (
        r["expect"]["depth"] != "inf" and r["expect"]["status"] == "integrable"))
    with TemporaryDirectory() as tmp:
        for name, content in req["files"].items():
            Path(tmp, name).write_text(json.dumps(content))
        result = worker._canonical(worker.run_request(cli, req, tmp))
    assert check(req["expect"], result) is None
    outputs = result["reports"][0]["outputs"]
    outputs[field] = wrong(outputs[field])
    assert check(req["expect"], result) is not None


def test_metric_lists_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    mapped = [m for entry in layer_map["layers"] for m in entry["metrics"]]
    assert declared == mapped == list(spans.PER_LAYER) + ["trace.overhead_ratio"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_above():
    values = [float(v) for v in range(100)]
    pct, value = run._tail_percentile(values)
    assert value == 89.0 and pct == 90.0
    assert sum(v > value for v in values) == 10
