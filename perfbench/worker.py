"""One workload in a fresh interpreter: set-up, then the measured requests.

Usage (from the repository root; `run.py` starts it):

    python3 perfbench/worker.py MODE PLAN RESULT [SECONDS]

MODE is `setup` (import diffgal and run the warm-up requests, nothing more),
`run` (closed loop over the request pool for SECONDS) or `trace` (the fixed
traced set, each request once with and once without the span recorder).
PLAN is the JSON request plan `run.py` wrote; RESULT is where this process
writes its measurements. Reference answers are not checked here, so this
process never imports sympy and its peak memory is the program's own.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.25  # closed loop: one speed probe per this much loop time
SETUP_PROBES = 9


def _call(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so a traced main is used
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_request(cli, req: dict, work: str) -> tuple[int, list[str]]:
    """Send one request; return the exit code and every report printed."""
    import json

    if req["kind"] == "cli":
        code, out = _call(cli, [a.replace("{work}", work) for a in req["argv"]])
        return code, [out]
    # expand, then verify --operator on the tower and solutions it printed
    code, out = _call(cli, ["expand", req["tuple"]])
    if code != 0:
        return code, [out]
    rep = json.loads(out)["outputs"]
    tower = Path(work) / "tower.json"
    tower.write_text(json.dumps({"generators": rep["tower"], "solutions": rep["solutions"]}))
    code, out2 = _call(cli, ["verify", "--operator", rep["L"], "--tower", str(tower)])
    return code, [out, out2]


def _timed(cli, req: dict, work: str) -> tuple[float, tuple | str]:
    """Wall time of one request and its result (or the traceback text)."""
    import traceback

    t0 = time.perf_counter()
    try:
        result = run_request(cli, req, work)
    except Exception:  # a traceback is a failed request; keep the loop running
        result = traceback.format_exc()
    return time.perf_counter() - t0, result


def _canonical(result) -> dict:
    """Exit code and reports with the run-dependent `timing_ms` removed."""
    import json

    if isinstance(result, str):
        return {"code": None, "traceback": result}
    code, outs = result
    reports = []
    for text in outs:
        try:
            rep = json.loads(text)
        except ValueError:
            reports.append(text)
            continue
        rep.pop("timing_ms", None)
        reports.append(rep)
    return {"code": code, "reports": reports}


class _Outputs:
    """First result of each distinct request, and requests whose repeats disagree."""

    def __init__(self):
        self.first: dict[str, dict] = {}
        self.inconsistent: list[str] = []

    def add(self, rid: str, result) -> None:
        canon = _canonical(result)
        seen = self.first.setdefault(rid, canon)
        if seen != canon and rid not in self.inconsistent:
            self.inconsistent.append(rid)


def main(argv: list[str]) -> int:
    mode, plan_path, result_path = argv[0], argv[1], argv[2]
    seconds = float(argv[3]) if len(argv) > 3 else 0.0

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import diffgal.cli as cli
    import_s = time.perf_counter() - t0

    import json

    plan = json.loads(Path(plan_path).read_text())
    work = plan["work"]
    outputs = _Outputs()
    warm_s = 0.0
    for req in plan["warmup"]:
        dt, result = _timed(cli, req, work)
        warm_s += dt
        outputs.add(req["id"], result)
    res: dict = {"setup_s": import_s + warm_s, "diffgal_file": sys.modules["diffgal"].__file__}
    from probe import probe  # this script's directory is on sys.path

    if mode == "setup":
        res["probes"] = [probe() for _ in range(SETUP_PROBES)]
    elif mode == "run":
        res.update(_closed_loop(cli, plan["pool"], work, seconds, outputs))
    elif mode == "trace":
        res.update(_traced(cli, plan, work, outputs))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import resource

    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["outputs"] = outputs.first
    res["inconsistent"] = outputs.inconsistent
    Path(result_path).write_text(json.dumps(res))
    return 0


def _closed_loop(cli, pool: list[dict], work: str, seconds: float,
                 outputs: _Outputs) -> dict:
    """One client: send the next request when the previous one has answered.
    Between requests, a speed probe runs every PROBE_EVERY_S, and once more
    after the last request; probe time is not loop time. `probe_before[i]`
    is the index of the last probe run before request i."""
    from probe import probe

    latencies: list[float] = []
    probes: list[float] = []
    probe_before: list[int] = []
    results = []
    start = next_probe = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        probe_before.append(len(probes) - 1)
        dt, result = _timed(cli, pool[i % len(pool)], work)
        latencies.append(dt)
        results.append(result)
        i += 1
    elapsed = time.perf_counter() - start - sum(probes)
    probes.append(probe())
    for k, result in enumerate(results):
        outputs.add(pool[k % len(pool)]["id"], result)
    return {"latencies": latencies, "elapsed_s": elapsed, "probes": probes,
            "probe_before": probe_before}


def _traced(cli, plan: dict, work: str, outputs: _Outputs) -> dict:
    """The fixed traced set. Each request runs traced and untraced, in
    alternating order, so drift on the host cancels in the overhead ratio."""
    from spans import SpanRecorder, layer_metrics

    recorder = SpanRecorder()
    reqs = plan["pool"][: plan["trace_requests"]]
    traced_s = untraced_s = 0.0
    for k, req in enumerate(reqs):
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                recorder.install()
                recorder.begin_request(req["id"])
                try:
                    dt, result = _timed(cli, req, work)
                finally:
                    recorder.uninstall()
                traced_s += dt
            else:
                dt, result = _timed(cli, req, work)
                untraced_s += dt
            outputs.add(req["id"], result)
    recorder.write(Path(plan["spans_file"]))
    metrics = layer_metrics(recorder)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {"layers": metrics, "requests": len(reqs), "traced_s": traced_s,
            "untraced_s": untraced_s}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
