"""Seeded fuzzer for the four commands of `diffgal.cli`.

    python3 scripts/fuzz.py --seeds 1-5

Run from the repository root of a checkout; its `src` is imported. Each seed
generates COUNT (2000) requests for `integrate` (fields rational, exp, log
and radical:N with N up to 1000), `expand`, `verify` (operator and matrix)
and `construct`, with the files they read. Most are well formed; the rest
are mutated: malformed JSON, long literals, deep nesting, unknown names and
wrong types. Each request runs in-process through `cli.main` under an alarm
of ALARM (5) seconds and ends as exit 0, 1, 2 or 3, a traceback, or over
time. The script caps its own address space at 2 GiB, so a request that
asks for unbounded memory ends in a MemoryError traceback instead of taking
the host's memory.

Every traceback and over-time request is printed as one JSON line with its
seed, index and argv, then one JSON line counts each outcome per seed. The
exit status is 1 when any request ended in a traceback, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import diffgal.cli as cli  # noqa: E402

OVER_TIME = "over time"
TRACEBACK = "traceback"
MEMORY_CAP = 2 * 2**30  # bytes of address space
COUNT = 2000  # requests per seed
ALARM = 5  # seconds before a request counts as over time

_GENS = {"exp": ["t"], "log": ["L"], "radical": ["r"], "rational": []}
_NAMES = ["y", "foo", "Z_1_2", "D", "sin", "t", "L", "r", "x1", "_"]


# -- generation -------------------------------------------------------------------------


def _int(rng: random.Random) -> str:
    return str(rng.randint(-9, 9)) if rng.random() < 0.9 else str(rng.randint(10, 10**12))


def _expr(rng: random.Random, atoms: list[str], depth: int = 3, x: bool = True) -> str:
    """A random expression in the atoms, small integers and, if `x`, x."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(["x", "x"] * x + [_int(rng)] + atoms * 2)
    a, b = _expr(rng, atoms, depth - 1, x), _expr(rng, atoms, depth - 1, x)
    if roll < 0.45:
        return f"({a})^{rng.randint(0, 4)}" if rng.random() < 0.9 else f"1/({a})^{rng.randint(1, 3)}"
    if roll < 0.55:
        return f"-({a})"
    return f"({a}){rng.choice('+-*/')}({b})"


def _mutate(rng: random.Random, text: str) -> str:
    """`text` broken in one of the ways a careless or hostile input breaks."""
    kind = rng.randrange(9)
    if kind == 0:  # truncated
        return text[: rng.randrange(len(text) + 1)]
    if kind == 1:  # a stray character
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice("()+-*/^,.;=@ \t1x") + text[i:]
    if kind == 2:  # a long literal
        return f"{text}+{rng.randint(1, 9)}{'9' * rng.randint(20, 5000)}"
    if kind == 3:  # deep nesting
        k = rng.choice((50, 99, 100, 101, 300, 3000))
        return "(" * k + text + ")" * k
    if kind == 4:  # an unknown or misplaced name
        return f"{text}*{rng.choice(_NAMES)}"
    if kind == 5:  # a large power
        return f"({text})^{rng.choice((999, 1000, 1001, 10**6, -(10**6)))}"
    if kind == 6:  # a zero divisor
        return f"({text})/(x-x)"
    if kind == 7:  # a long product
        return "*".join([text] * rng.randint(2, 40))
    return rng.choice(["", " ", "()", "x^", "1/", "x**2", "2x", "1e5", "0.5", "∞", "x^x"])


def _maybe_mutate(rng: random.Random, text: str, p: float = 0.25) -> str:
    return _mutate(rng, text) if rng.random() < p else text


def _field(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.97:
        kind = rng.choice(["rational", "exp", "log", "radical"])
        if kind != "radical":
            return kind
        return f"radical:{rng.choice([2, 2, 3, 4, 5, 7, 10, rng.randint(2, 1000)])}"
    return rng.choice(["radical:1", "radical:0", "radical:1001", "radical:x", "radical:",
                       "radical:007", "sin", "Exp", ""])


def _integrate(rng: random.Random) -> tuple[list[str], dict]:
    field = _field(rng)
    atoms = _GENS.get(field.split(":")[0], [])
    depth = rng.choice(["1", "1", "2", "3", "inf", "inf", str(rng.randint(1, 100))])
    if rng.random() < 0.05:
        depth = rng.choice(["0", "-1", "101", "1.5", "", "Inf", " 2", "٣"])
    argv = ["integrate", f"--field={field}", f"--expr={_maybe_mutate(rng, _expr(rng, atoms))}",
            f"--depth={depth}"]
    return argv, {}


def _tuple(rng: random.Random) -> str:
    entries = [_expr(rng, [], 2) for _ in range(rng.randint(1, 4))]
    return "(" + ", ".join(_maybe_mutate(rng, e, 0.1) for e in entries) + ")"


def _expand(rng: random.Random) -> tuple[list[str], dict]:
    argv = ["expand", _maybe_mutate(rng, _tuple(rng), 0.1)]
    if rng.random() < 0.4:
        argv.append(f"--fnext={_maybe_mutate(rng, _expr(rng, [], 2), 0.1)}")
    return argv, {}


def _json_text(rng: random.Random, value) -> str:
    """`value` as JSON, or now and then as text that is not JSON or not an object."""
    roll = rng.random()
    if roll < 0.9:
        return json.dumps(value)
    if roll < 0.95:
        text = json.dumps(value)
        return text[: rng.randrange(len(text) + 1)]
    return json.dumps(rng.choice([[value], "x", 3, None, "[" * 2000 + "]" * 2000]))


def _generators(rng: random.Random) -> list[dict]:
    gens: list[dict] = []
    atoms: list[str] = []
    for i in range(rng.randint(0, 3)):
        kind = rng.choice(["log", "exp", "integral", "radical"])
        name = f"g{i}" if rng.random() < 0.95 else rng.choice(_NAMES + ["1a", ""])
        decl: dict = {"name": name, "kind": kind}
        if kind == "radical":
            decl["root"] = rng.choice([2, 3, 5, 0, 1, "2", 1001])
        else:
            decl["arg"] = _maybe_mutate(rng, _expr(rng, atoms, 2), 0.1)
        if rng.random() < 0.03:
            decl.pop(rng.choice(sorted(decl)))
        gens.append(decl)
        atoms.append(name)
    return gens


def _verify(rng: random.Random) -> tuple[list[str], dict]:
    gens = _generators(rng)
    atoms = [g.get("name", "") for g in gens]
    tower: dict = {"generators": gens}
    files = {}
    argv = ["verify", "--tower", "{work}/tower.json"]
    if rng.random() < 0.5:
        tower["solutions"] = [_maybe_mutate(rng, _expr(rng, atoms, 2), 0.1)
                              for _ in range(rng.randint(0, 3))]
        op = " + ".join(f"({_expr(rng, [], 1)})*D^{k}" for k in range(rng.randint(1, 3)))
        argv.append(f"--operator={_maybe_mutate(rng, op, 0.1)}")
    else:
        n = rng.randint(1, 3)
        matrix = [[_expr(rng, [], 1) if j > i else "0" for j in range(n)] for i in range(n)]
        tower["matrix_T"] = [[_expr(rng, atoms, 1) for _ in range(n)] for _ in range(n)]
        files["matrix.json"] = _json_text(rng, {"matrix": matrix})
        argv += ["--matrix", "{work}/matrix.json"]
    files["tower.json"] = _json_text(rng, tower)
    if rng.random() < 0.03:
        argv.append(rng.choice(["--operator", "--matrix"]))
    return argv, files


def _lie_matrix(rng: random.Random, n: int) -> list[list]:
    return [[(rng.choice([0, 0, 1, -1, 2, "1/2"]) if j > i else 0) for j in range(n)]
            for i in range(n)]


def _construct(rng: random.Random) -> tuple[list[str], dict]:
    n = rng.randint(2, 5)
    spec: dict = {"n": n}
    if rng.random() < 0.8:  # one matrix spans a subalgebra; more may not
        spec["lie_basis"] = [_lie_matrix(rng, n) for _ in range(rng.choice([1, 1, 0, 2, 3]))]
    if rng.random() < 0.4:
        zs = [f"Z_{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        spec["ideal"] = [_maybe_mutate(rng, _expr(rng, zs, 2, x=False), 0.1)
                         for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        spec["l"] = rng.choice([1, 2, 0, -1, "1"])
    if rng.random() < 0.3:
        spec["a"] = [_maybe_mutate(rng, _expr(rng, [], 1), 0.1) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.03:
        spec["n"] = rng.choice([1, "3", 2.5, None, 10**6])
    return ["construct", "--spec", "{work}/spec.json"], {"spec.json": _json_text(rng, spec)}


_MAKERS = [_integrate, _integrate, _integrate, _expand, _verify, _construct]


def requests(seed: int, count: int) -> list[tuple[list[str], dict]]:
    """`count` requests of the seed: (argv, {file name: text}), where argv
    writes the work directory as {work}."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        argv, files = rng.choice(_MAKERS)(rng)
        if rng.random() < 0.02:  # an unknown option or a missing argument
            argv = argv[:-1] if rng.random() < 0.5 else argv + ["--bogus"]
        out.append((argv, files))
    return out


# -- running ------------------------------------------------------------------------


class _OverTime(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` takes it."""


def _on_alarm(signum, frame):
    raise _OverTime


def run_one(argv: list[str], alarm: float) -> "int | str":
    """The exit code of one request, or TRACEBACK or OVER_TIME."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, alarm)
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code
    except _OverTime:
        return OVER_TIME
    except Exception:
        return TRACEBACK + ":\n" + traceback.format_exc()


def fuzz(seed: int, count: int, alarm: float, report=print) -> dict[str, int]:
    """Run the seed's requests; report each traceback and over-time request as
    one JSON line, and return how many requests ended in each outcome."""
    counts: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as work:
        for index, (argv, files) in enumerate(requests(seed, count)):
            for name, text in files.items():
                (Path(work) / name).write_text(text, encoding="utf-8")
            outcome = run_one([a.replace("{work}", work) for a in argv], alarm)
            key = outcome.partition(":")[0] if isinstance(outcome, str) else str(outcome)
            counts[key] = counts.get(key, 0) + 1
            if isinstance(outcome, str):
                report(json.dumps({"seed": seed, "index": index, "outcome": outcome,
                                   "argv": argv, "files": files}))
    return counts


def parse_seeds(text: str) -> list[int]:
    """`1-5`, `3` or `1,4,7`."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-5, 3 or 1,4,7")
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    failed = False
    for seed in parse_seeds(args.seeds):
        counts = fuzz(seed, COUNT, ALARM)
        print(json.dumps({"seed": seed, "count": COUNT, "outcomes": counts}), flush=True)
        failed = failed or TRACEBACK in counts
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
