"""Lines of `src/diffgal` that neither tier-1 nor the benchmark pools reach.

    python3 scripts/unreached.py --seeds 1-2 > unreached.txt

Run from the repository root of a checkout; its `src` is imported.  The
standard library's `trace` module counts the lines run by the tier-1 suite
in-process (`pytest.main` on `tests`) and then by every pool request of the
four benchmark workloads for `--seeds`, as `scripts/cli_outputs.py` runs
them.  Each line of the package that `trace` marks as executable and missed
is printed as `file:line: text`; the output of the runs themselves goes to
stderr.  Processes that a test starts are not traced.

Tracing makes the suite several times slower (minutes, not seconds), so this
is a tool for finding dead branches and is not part of CI.  The exit status
is 1 when a test failed or a pool request raised, since the listing then
reflects an incomplete run, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diffgal"
MISSED = ">>>>>> "  # how `CoverageResults.write_results` marks a line never run


def run(seeds: str) -> bool:
    """Run tier-1 and the pools; True when a test failed or a request raised."""
    import cli_outputs
    import pytest

    failed = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]) != 0
    for workload in cli_outputs.WORKLOADS:
        for seed in cli_outputs.parse_seeds(seeds):
            failed |= cli_outputs.outputs(workload, seed)[1] > 0
    return failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="pool seeds, as for scripts/cli_outputs.py")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "scripts"))  # cli_outputs puts `src` first
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    env = {"run": run, "seeds": args.seeds}
    with contextlib.redirect_stdout(sys.stderr):
        tracer.runctx("failed = run(seeds)", env, env)
    if Path(sys.modules["diffgal"].__file__).resolve().parent != PACKAGE:
        ap.error("diffgal was imported from outside this checkout's src")
    results = tracer.results()
    results.counts = {key: n for key, n in results.counts.items()
                      if Path(key[0]).parent == PACKAGE}
    missed = 0
    with tempfile.TemporaryDirectory() as out:
        results.write_results(show_missing=True, coverdir=out)
        for cover in sorted(Path(out).glob("diffgal.*.cover")):
            path = PACKAGE.relative_to(ROOT) / (cover.stem.split(".", 1)[1] + ".py")
            for line, text in enumerate(cover.read_text().splitlines(), 1):
                if text.startswith(MISSED):
                    missed += 1
                    print(f"{path}:{line}: {text[len(MISSED):].strip()}")
    print(f"{missed} lines unreached", file=sys.stderr)
    return 1 if env["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
