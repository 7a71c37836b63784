"""Every benchmark pool request through `diffgal.cli.main`, as one canonical JSON.

    python3 scripts/cli_outputs.py --seeds 1-10 --workloads integrate,expand_verify --out FILE

Run from the repository root of a checkout; its `src` is imported. Requests
come from `perfbench/workloads.py` and run in-process through
`perfbench/worker.py`'s `run_request`, exactly as in the benchmark. Each
report keeps its exit code and JSON with `timing_ms` removed, and the
temporary work directory (it holds the spec files and the `tower.json` that
`verify` reads) is written as `{work}`. Two checkouts that print the same
answers therefore give byte-identical files:

    cmp parent.json change.json

or, with no file written:

    python3 scripts/cli_outputs.py --seeds 1-10 --compare parent.json

`--compare OLD.json` prints the id of each request whose answer differs from
the one in OLD.json, or that only one of the two has, and exits 1 when any
does. The exit status is also 1 when a request raised an exception instead of
answering, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import diffgal.cli as cli  # noqa: E402
from worker import _canonical, run_request  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """`1-10`, `3` or `1,4,7`."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _scrub(value, work: str):
    """`value` with every occurrence of the work directory written as {work}."""
    if isinstance(value, str):
        return value.replace(work, "{work}")
    if isinstance(value, list):
        return [_scrub(v, work) for v in value]
    if isinstance(value, dict):
        return {k: _scrub(v, work) for k, v in value.items()}
    return value


def outputs(workload: str, seed: int) -> tuple[dict[str, dict], int]:
    """Canonical answer of each pool request, and how many raised."""
    plan = generate(workload, seed)
    answers: dict[str, dict] = {}
    raised = 0
    with tempfile.TemporaryDirectory() as work:
        for req in plan["pool"]:
            for name, content in req["files"].items():
                (Path(work) / name).write_text(json.dumps(content))
        for req in plan["pool"]:
            try:
                result = _canonical(run_request(cli, req, work))
            except Exception as exc:  # report it and keep going
                result = {"code": None, "exception": f"{type(exc).__name__}: {exc}"}
                raised += 1
            answers[f"{workload}:{seed}:{req['id']}"] = _scrub(result, work)
    return answers, raised


def differing(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """Sorted ids whose answers differ, counting an id that one side lacks."""
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="e.g. 1-10, 3 or 1,4,7")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated subset of " + ", ".join(WORKLOADS))
    ap.add_argument("--out", help="where to write the JSON")
    ap.add_argument("--compare", metavar="OLD.json",
                    help="print the ids whose answers differ from this file's; exit 1 if any do")
    args = ap.parse_args(argv)
    if not (args.out or args.compare):
        ap.error("give --out, --compare or both")
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads: {', '.join(unknown)}")
    answers: dict[str, dict] = {}
    raised = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            got, bad = outputs(workload, seed)
            answers.update(got)
            raised += bad
            print(f"{workload} seed {seed}: {len(got)} requests, {bad} raised", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    status = 1 if raised else 0
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        changed = differing(old, answers)
        for key in changed:
            print(key)
        print(f"{len(changed)} of {len(old.keys() | answers.keys())} requests differ",
              file=sys.stderr)
        if changed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
