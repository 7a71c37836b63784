"""Run the benchmark on several workloads and seeds and summarise the runs.

    python3 perfbench/all.py                          # every workload, seed 1
    python3 perfbench/all.py --trace 1                # per-layer metrics instead
    python3 perfbench/all.py --seeds 1-10 --out runs.json

Each run is a separate `run.py` process. Runs go seed by seed, each seed
through every workload. The summary gives, per workload and metric, the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(interquartile range over median) next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1", help="comma list or range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run and the summary as JSON")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            print(f"== {w} seed {seed}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs[w].append(result)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict[str, dict] = {}
    print(f"\n{'workload':20s} {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w, results in runs.items():
        summary[w] = {"attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": {}}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            unit = results[0]["metrics"][metric]["unit"]
            summary[w]["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                             "spread": spread, "unit": unit}
            bound = bounds.get(metric)
            print(f"{w:20s} {metric:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(f"{w:20s} {'fail_ratio':36s} "
              f"{summary[w]['failed'] / summary[w]['attempted']:12.6g}")
    if args.out:
        host = {"machine": platform.machine(), "processor": _cpu_model(),
                "python": platform.python_version()}
        Path(args.out).write_text(json.dumps(
            {"host": host, "seconds": args.seconds, "trace": args.trace, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
