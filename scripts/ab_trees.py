#!/usr/bin/env python3
"""Time this tree's solvers against another checkout's, in one process.

tropt is loaded twice, from this tree's src/ as package `tropt_this`
and from OTHER_TREE/src as `tropt_other`, so both run in the same
interpreter on the same draws.  The draws come from perfbench/gen.py,
imported and never changed: `feasible_schedule` draws for
`solve_schedule`, and `feasible_problem` draws of all six kinds for
`solve_problem`, at each order given.  The schedule ledger,
`solve_schedule_detailed`, runs at orders 6 and 12 on the schedule
draws as they are (int) and with each datum v as v/10 (decimal).  The
grid oracle, `oracle.grid_minimize`, runs at order 3 on the
`feasible_problem` draws, each over the window-1 grid around its
closed-form canonical point that `tropt verify --window 1` scans.  The
request path, `cli.main`, runs in process on draws written to a temp
dir: `solve` at order 4 on the `feasible_problem` draws, exact and
--float, and `schedule --emit-intermediates` at order 6 on the schedule
draws.  Each round times every draw once on each tree, the tree that
goes first alternating from round to round.  For each solver and order
the script prints the fastest milliseconds per solve (per scan for the
grid oracle, per request for the CLI) of each tree over the rounds, the
median over rounds of this tree's time over the other's, the rounds
each tree won, and how many answers differ: by repr, for the ledger by
its `serialize.dumps` text, which is what the CLI prints, and for a
request by its exit code and stdout.

Usage:
    python3 scripts/ab_trees.py OTHER_TREE [--sizes 12 32 64] [--rounds 15] [--draws 6]
"""

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

NEG = float("-inf")
LEDGER_SIZES = (6, 12)
GRID_ORDER = 3
# (subcommand, order, flags) of the request rows
CLI_REQUESTS = (("solve", 4, ()), ("solve", 4, ("--float",)),
                ("schedule", 6, ("--emit-intermediates",)))


def load_tropt(tree: Path, name: str):
    """The tropt package of `tree`/src, imported as `name`."""
    init = tree / "src" / "tropt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # relative imports look the package up there
    spec.loader.exec_module(module)
    return module


def schedule_calls(tropt, n: int, count: int, solve=None, datum=lambda v: v) -> list:
    """`solve` (`solve_schedule` when None) on `count` feasible
    schedules of order n, each finite datum v given as datum(v)."""
    def mat(rows):
        return tropt.Matrix(tuple(tuple(NEG if v is None else datum(v) for v in r) for r in rows))

    def vec(values):
        return tropt.Vector(tuple(NEG if v is None else datum(v) for v in values))

    calls = []
    for i in range(count):
        draw = gen.feasible_schedule(gen.instance_rng("ab-schedule", n, i), n)
        spec = tropt.ScheduleSpec(
            start_finish=mat(draw.start_finish),
            start_start=mat(draw.start_start),
            earliest_start=vec(draw.earliest_start),
            latest_start=vec(draw.latest_start),
            window_lower=vec(draw.window_lower),
            window_upper=vec(draw.window_upper),
        )
        calls.append((solve or tropt.solve_schedule, spec))
    return calls


def ledger_calls(decimal: bool):
    """The builder of `solve_schedule_detailed` calls on int draws, or
    on the same draws in tenths."""
    def build(tropt, n: int, count: int) -> list:
        return schedule_calls(tropt, n, count, tropt.solve_schedule_detailed,
                              (lambda v: Fraction(v, 10)) if decimal else (lambda v: v))
    return build


def answer_text(tropt, answer) -> str:
    """repr of an answer; a ledger's result by repr and its items as
    `serialize.dumps` writes them."""
    if isinstance(answer, tuple) and isinstance(answer[1], dict):
        result, ledger = answer
        return repr(result) + importlib.import_module(tropt.__name__ + ".serialize").dumps(ledger)
    return repr(answer)


def problem_calls(tropt, n: int, count: int) -> list:
    """`solve_problem` on `count` feasible problems of order n, the six
    kinds in turn."""
    serialize = importlib.import_module(tropt.__name__ + ".serialize")
    calls = []
    for i in range(count):
        kind = gen.KINDS[i % len(gen.KINDS)]
        doc = gen.feasible_problem(gen.instance_rng("ab-problem", n, i), kind, n)
        calls.append((tropt.solve_problem, serialize.parse_problem(doc)))
    return calls


def grid_calls(tropt, n: int, count: int) -> list:
    """`oracle.grid_minimize` on the `problem_calls` draws, each over
    the grid `cli._verify_window` builds for `tropt verify --window 1`:
    one unit, in whole default steps, on each side of the closed-form
    canonical point."""
    cli = importlib.import_module(tropt.__name__ + ".cli")
    oracle = importlib.import_module(tropt.__name__ + ".oracle")
    step = oracle.default_step(n)
    calls = []
    for solve, problem in problem_calls(tropt, n, count):
        box = cli._verify_window(problem, 1, step, solve(problem).canonical)
        calls.append((functools.partial(oracle.grid_minimize, problem),
                      oracle.GridSpec(*box, step)))
    return calls


def request(main, argv: list) -> tuple[int, str]:
    """The exit code and stdout of main(argv); stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def cli_calls(command: str, flags: tuple, workdir: Path):
    """The builder of `cli.main` requests `command FILE *flags`, each
    FILE a draw written to workdir: a schedule, or a feasible problem of
    the six kinds in turn."""
    def build(tropt, n: int, count: int) -> list:
        main = functools.partial(request, importlib.import_module(tropt.__name__ + ".cli").main)
        calls = []
        for i in range(count):
            if command == "schedule":
                doc = gen.feasible_schedule(gen.instance_rng("ab-schedule", n, i), n).to_json()
            else:
                kind = gen.KINDS[i % len(gen.KINDS)]
                doc = gen.feasible_problem(gen.instance_rng("ab-problem", n, i), kind, n)
            path = workdir / f"{command}-{n}-{i}.json"
            path.write_text(json.dumps(doc))
            calls.append((main, [command, str(path), *flags]))
        return calls
    return build


def timed(calls) -> tuple[float, list]:
    """Seconds per call over one run of the calls, and their answers."""
    start = time.perf_counter()
    answers = [solve(arg) for solve, arg in calls]
    return (time.perf_counter() - start) / len(calls), answers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    parser.add_argument("--sizes", type=int, nargs="+", default=[12, 32, 64])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--draws", type=int, default=6, help="draws per solver and order")
    args = parser.parse_args()
    if not (args.other / "src" / "tropt" / "__init__.py").is_file():
        parser.error(f"{args.other} has no src/tropt package")
    if min(args.sizes) < 1 or args.rounds < 1 or args.draws < 1:
        parser.error("--sizes, --rounds and --draws must be at least 1")
    trees = {"this": load_tropt(ROOT, "tropt_this"),
             "other": load_tropt(args.other.resolve(), "tropt_other")}
    print(f"this = {ROOT}, other = {args.other.resolve()}")
    rows = [("solve_schedule", n, schedule_calls) for n in args.sizes]
    rows += [("solve_problem", n, problem_calls) for n in args.sizes]
    rows += [(f"solve_schedule_detailed {data}", n, ledger_calls(data == "decimal"))
             for n in LEDGER_SIZES for data in ("int", "decimal")]
    rows.append(("grid_minimize", GRID_ORDER, grid_calls))
    with tempfile.TemporaryDirectory(prefix="ab_trees-") as workdir:
        rows += [(" ".join(("cli.main", command, *flags)), n,
                  cli_calls(command, flags, Path(workdir)))
                 for command, n, flags in CLI_REQUESTS]
        for label, n, build in rows:
            compare(trees, label, n, build, args.rounds, args.draws)
    return 0


def compare(trees: dict, label: str, n: int, build, rounds: int, draws: int) -> None:
    """Time one row's calls on both trees over the rounds; print its line."""
    calls = {name: build(tropt, n, draws) for name, tropt in trees.items()}
    best = dict.fromkeys(trees, float("inf"))
    wins = dict.fromkeys(trees, 0)
    ratios = []
    answers = {}
    for r in range(rounds):
        order = ("this", "other") if r % 2 else ("other", "this")
        took = {}
        for name in order:
            took[name], answers[name] = timed(calls[name])
            best[name] = min(best[name], took[name])
        wins[min(took, key=took.get)] += 1
        ratios.append(took["this"] / took["other"])
    differ = sum(answer_text(trees["this"], a) != answer_text(trees["other"], b)
                 for a, b in zip(answers["this"], answers["other"]))
    unit = {"grid_minimize": "scan", "cli.main": "request"}.get(label.split()[0], "solve")
    print(f"{label} n={n}: other {best['other'] * 1e3:.3f} ms, "
          f"this {best['this'] * 1e3:.3f} ms per {unit} (fastest round), "
          f"median this/other {statistics.median(ratios):.3f}; "
          f"this won {wins['this']} of {rounds} rounds; "
          f"{differ} of {draws} answers differ")


if __name__ == "__main__":
    sys.exit(main())
