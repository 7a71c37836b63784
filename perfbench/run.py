"""diffgal benchmark: one workload, end-to-end metrics or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. `--trace 0` times a closed loop (one client,
one request in flight) through `diffgal.cli.main` and prints the end-to-end
metrics; `--trace 1` runs a fixed set of requests with and without the span
recorder and prints the per-layer metrics. Every answer is checked against
its reference after the timed phase. The last line of standard output is the
JSON result; the lines before it give each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from probe import speed_factor
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def _tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it: (percentile, value)."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)  # index of the sample with ten above it
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def worker(mode: str, plan_path: Path, result_path: Path, seconds: float = 0.0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(plan_path), str(result_path)]
    if mode == "run":
        cmd.append(repr(seconds))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed:\n{proc.stderr.strip()}")
    res = json.loads(result_path.read_text())
    src = (ROOT / "src" / "diffgal").resolve()
    if Path(res["diffgal_file"]).resolve().parent != src:
        raise RuntimeError(f"imported diffgal from {res['diffgal_file']}, not {src}")
    return res


def write_plan(workload: str, seed: int, run_dir: Path, spans_file: Path) -> tuple[Path, dict]:
    """Generate the requests, write their spec files and the plan into run_dir."""
    plan = generate(workload, seed)
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    for req in plan["warmup"] + plan["pool"]:
        for name, content in req["files"].items():
            (run_dir / name).write_text(json.dumps(content))
    plan["work"] = os.path.relpath(run_dir, ROOT)
    plan["spans_file"] = str(spans_file)
    path = run_dir / "plan.json"
    path.write_text(json.dumps(plan))
    return path, plan


def _check_all(plan: dict, res: dict) -> tuple[int, int, list[str]]:
    """Check every distinct answer; a request counts once per time it ran."""
    from check import check

    expect = {r["id"]: r["expect"] for r in plan["warmup"] + plan["pool"]}
    runs = {r["id"]: 1 for r in plan["warmup"]}
    pool = plan["pool"]
    if "latencies" in res:
        for k in range(len(res["latencies"])):
            rid = pool[k % len(pool)]["id"]
            runs[rid] = runs.get(rid, 0) + 1
    else:
        for req in pool[: res["requests"]]:
            runs[req["id"]] = runs.get(req["id"], 0) + 2
    failed, reasons = 0, []
    for rid, count in runs.items():
        try:
            why = check(expect[rid], res["outputs"][rid])
        except Exception as exc:  # an answer the reference cannot even read
            why = f"unreadable answer: {exc!r}"
        if why is None and rid in res["inconsistent"]:
            why = "repeats of the request gave different answers"
        if why is not None:
            failed += count
            reasons.append(f"{rid}: {why}")
    return sum(runs.values()), failed, reasons


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diffgal" / "__init__.py").is_file():
        print(f"error: no diffgal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import sympy  # noqa: F401  (reference checks)
    except ImportError:
        print("error: the reference checks need sympy", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-s{args.seed}"
    try:
        plan_path, plan = write_plan(args.workload, args.seed, run_dir,
                                     WORK / f"spans-{args.workload}.tsv.gz")
        # The first fresh import compiles bytecode; it is not a set-up sample.
        worker("setup", plan_path, run_dir / "prime.json")
        if args.trace:
            res = worker("trace", plan_path, run_dir / "result.json")
        else:
            setups = [worker("setup", plan_path, run_dir / f"setup{i}.json")
                      for i in range(SETUP_SAMPLES)]
            res = worker("run", plan_path, run_dir / "result.json", args.seconds)
        attempted, failed, reasons = _check_all(plan, res)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for why in reasons[:20]:
        print(f"FAILED {why}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} requests)")
    if args.trace:
        metrics = {name: {"value": v, "unit": _layer_unit(name)}
                   for name, v in res["layers"].items()}
        print(f"traced set: {res['requests']} requests, each traced and untraced; "
              f"{res['traced_s']:.3f} s traced, {res['untraced_s']:.3f} s untraced")
    else:
        metrics, raw = _end_to_end(res, setups)
        lat = res["latencies"]
        pct, _ = _tail_percentile(lat)
        print(f"{len(lat)} requests in {res['elapsed_s']:.3f} s; latency_tail_ms is "
              f"p{pct:.1f} of {len(lat)} samples; setup_s is the median of {len(setups)}")
        print(f"host speed factor {speed_factor(res['probes']):.4f} from {len(res['probes'])} "
              f"probes; times below are at reference speed, raw wall values in brackets")
    for name, m in metrics.items():
        extra = f"  [{raw[name]:.6g}]" if not args.trace and name in raw else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _scaled_latencies(res: dict) -> list[float]:
    """Each request's wall time divided by the speed factor of the probes
    around it (see probe.py), because the host's speed changes within
    seconds: the two probes before the request and the two after it, so one
    stray probe does not move the factor."""
    probes = res["probes"]
    return [t / speed_factor(probes[max(k - 1, 0):k + 3])
            for t, k in zip(res["latencies"], res["probe_before"])]


def _end_to_end(res: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the raw wall-clock values.

    Request times are scaled by the probes around each request, each set-up
    sample by the probes run right after it in the same process.
    """
    lat = res["latencies"]
    scaled = _scaled_latencies(res)
    raw = {
        "requests_per_s": len(lat) / res["elapsed_s"],
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * _tail_percentile(lat)[1],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    metrics = {
        "requests_per_s": {"value": raw["requests_per_s"] * sum(lat) / sum(scaled),
                           "unit": "1/s"},
        "latency_p50_ms": {"value": 1000.0 * statistics.median(scaled), "unit": "ms"},
        "latency_tail_ms": {"value": 1000.0 * _tail_percentile(scaled)[1], "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(s["setup_s"] / speed_factor(s["probes"])
                                               for s in setups), "unit": "s"},
    }
    return metrics, raw


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
