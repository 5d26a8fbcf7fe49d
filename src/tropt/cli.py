"""Command line front end.

Subcommands:

  solve       closed-form minimum of a span objective problem
  schedule    project schedule with flow-time guarantee
  solve-ineq  two-sided inequality systems (lower fixpoint, upper bound)
  eig         spectral radius of a matrix
  star        closure (truncated power sum) of a matrix
  verify      closed form against an exhaustive grid scan

Results go to stdout as JSON (or to --output); the schedule command adds
a human summary on stderr.  Exit codes: 0 success, 2 the instance is
`Unsolvable` (a named feasibility or degeneracy condition failed), 1
anything wrong with the input.

The CLI only dispatches.  Every handler reads its input through `_load`:
the file named by the positional argument ('-' for stdin), parsed in the
mode the flags pick; `serialize` turns it into tropt values, the library
answers, and `serialize.dumps` encodes the handler's document.

One parser serves a process: `main` builds it on its first call and
reuses it after.  That is safe because `parse_args` returns a fresh
Namespace each call, and usage errors and --help look up sys.stderr
and sys.stdout when they print.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import serialize
from .errors import (
    InfeasibleConstraints,
    NoFeasiblePoint,
    TooManyDigits,
    TroptError,
    Unsolvable,
)
from .linalg import Vector, _compared, _dust, _star_trace
from .linsolve import solve_combined, solve_fixpoint_lower, solve_upper_bounded
from .optimize import Problem, solve_problem
from .schedule import collapse_solution_line, solve_schedule, solve_schedule_detailed
from .semifield import MAXPLUS


def _mode(args) -> bool:
    """True in exact mode; --epsilon implies --float, and is checked
    as the solvers check their eps, for every subcommand."""
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None:
        _dust(epsilon, 1, False)
        return False
    return not getattr(args, "approx", False)


def _eps(args) -> float:
    """--epsilon, the solvers' dust tolerance, or their default."""
    return 1e-9 if args.epsilon is None else args.epsilon


def _load(args) -> tuple[object, bool]:
    """The input document ('-' reads stdin) and its mode, True for
    exact; without mode flags (verify) that is exact mode."""
    exact = _mode(args)
    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    return serialize.loads(text, exact), exact


def _emit(doc, args) -> None:
    """Write the answer; a float-mode one has only floats for numbers."""
    text = serialize.dumps(doc, floats=not _mode(args))
    if getattr(args, "output", None):
        Path(args.output).write_text(text + "\n")
    else:
        print(text, flush=True)  # a closed pipe shows here, not at exit


def _cmd_solve(args) -> int:
    result = solve_problem(serialize.parse_problem(*_load(args)), eps=_eps(args))
    _emit(serialize.opt_document(result), args)
    return 0


def _format_cell(value) -> str:
    return str(serialize.encode_scalar(value))


def _schedule_summary(result) -> str:
    """Text table of the schedule; each numeric column is at least ten
    characters wide and one wider than its widest cell.  A flow time
    attains theta when it equals it on the answer's ints, float data
    within `linalg._compared`'s bound."""
    names = result.activities
    width = max(8, max(len(n) for n in names) + 2)
    columns = [
        ["start"] + [_format_cell(v) for v in result.adjusted_start.entries],
        ["finish"] + [_format_cell(v) for v in result.adjusted_finish.entries],
        ["flow"] + [_format_cell(v) for v in result.flow_times],
    ]
    widths = [max(10, max(len(c) for c in col) + 1) for col in columns]
    lines = [f"largest flow time: {_format_cell(result.theta)}"]
    (values, *_), bound = _compared((Vector((result.theta, *result.flow_times)),
                                     result.adjusted_start, result.adjusted_finish), len(names))
    theta, *flows = values.entries
    for i, name in enumerate(["activity"] + list(names)):
        flag = "  *" if i and abs(flows[i - 1] - theta) <= bound else ""
        cells = "".join(f"{col[i]:>{w}}" for col, w in zip(columns, widths))
        lines.append(f"{name:<{width}}{cells}{flag}")
    lines.append("(* attains the largest flow time)")
    return "\n".join(lines)


def _cmd_schedule(args) -> int:
    spec = serialize.parse_schedule(*_load(args))
    if args.emit_intermediates:
        result, intermediates = solve_schedule_detailed(spec, eps=_eps(args))
    else:
        result = solve_schedule(spec, eps=_eps(args))
    collapse = collapse_solution_line(result.solutions)
    doc = serialize.schedule_document(result, collapse)
    if args.emit_intermediates:
        doc["intermediates"] = intermediates
    _emit(doc, args)
    print(_schedule_summary(result), file=sys.stderr)
    return 0


def _cmd_solve_ineq(args) -> int:
    a, b, d = serialize.parse_system(*_load(args))
    if b is None:
        doc = {"greatest": solve_upper_bounded(a, d)}
    else:
        eps = _eps(args)
        sol = solve_fixpoint_lower(a, b, eps) if d is None else solve_combined(a, b, d, eps)
        doc = {"generator": sol.generator, "lower": sol.lower}
        if sol.upper is not None:
            doc["upper"] = sol.upper
    _emit(doc, args)
    return 0


def _cmd_eig(args) -> int:
    a = serialize.parse_operand(*_load(args))
    _emit({"spectralRadius": a.spectral_radius()}, args)
    return 0


def _cmd_star(args) -> int:
    star, trace = _star_trace(serialize.parse_operand(*_load(args)))
    _emit({"star": star, "traceSum": trace}, args)
    return 0


def _parse_step(text: str) -> Fraction:
    try:
        step = Fraction(text)
        if step > 0:
            return step
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"--step must be a positive fraction such as 1/12, got {text!r}")


def _verify_window(problem: Problem, window: int, step: Fraction,
                   center: Optional[Vector]) -> tuple[Vector, Vector]:
    """The scan box: `window` rounded out to whole steps on each side of
    the canonical point, so that the point lies on the lattice, or of 0
    widened to g and h when there is none."""
    n = problem.dim
    reach = math.ceil(window / step) * step
    if center is not None:
        low = [Fraction(v) - reach for v in center.entries]
        high = [Fraction(v) + reach for v in center.entries]
    else:
        low = [-reach] * n
        high = [reach] * n
        for i in range(n):
            if problem.g is not None and not MAXPLUS.is_zero(problem.g.entries[i]):
                low[i] = min(low[i], Fraction(problem.g.entries[i]))
            if problem.h is not None and not MAXPLUS.is_zero(problem.h.entries[i]):
                high[i] = max(high[i], Fraction(problem.h.entries[i]))
    return Vector(tuple(low)), Vector(tuple(high))


def _cmd_verify(args) -> int:
    """One solve and one scan, then one verdict on the pair: they agree
    when both find no feasible point (exit 2), or when the scan's
    minimum is the closed form's and its argmin lies in the family
    (exit 0); anything else is a disagreement (exit 1)."""
    from .oracle import GridSpec, default_step, grid_minimize  # only verify scans
    if args.window < 0:
        raise ValueError(f"--window must be at least 0, got {args.window}")
    problem = serialize.parse_problem(*_load(args))
    step = default_step(problem.dim) if args.step is None else _parse_step(args.step)
    try:
        closed = solve_problem(problem)
    except InfeasibleConstraints as exc:
        closed, infeasible = None, str(exc)
    center = None if closed is None else closed.canonical
    grid_spec = GridSpec(*_verify_window(problem, args.window, step, center), step)
    try:
        scan = grid_minimize(problem, grid_spec)
    except NoFeasiblePoint:
        scan = None
    if closed is None:
        form = {"infeasible": infeasible}
        grid = "noFeasiblePoint" if scan is None else "feasiblePointFound"
        agree = scan is None
    else:
        form = {"minimum": closed.minimum, "canonical": closed.canonical}
        grid, agree = "noFeasiblePoint", False
        if scan is not None:
            best, argmin = scan
            member = closed.solutions.contains(argmin)
            grid = {"minimum": best, "argmin": argmin, "argminInFamily": member}
            agree = best == closed.minimum and member
    _emit({"closedForm": form, "grid": grid, "agree": agree}, args)
    if not agree:
        return 1
    return 2 if closed is None else 0


def _add_mode_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--exact",
        action="store_true",
        help="exact rational arithmetic (the default)",
    )
    group.add_argument(
        "--float",
        dest="approx",
        action="store_true",
        help="float input and answers, each the exact one rounded once",
    )
    sub.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="dust tolerance: a positive cycle of at most this weight passes the "
        "feasibility gates; finite and >= 0; implies --float (default 1e-9)",
    )
    sub.add_argument("--output", help="write the JSON result to a file")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the code for bad input, not argparse's 2,
    which this CLI keeps for infeasible instances.  Subparsers share
    the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # --epsilon implies --float, so it cannot join --exact
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "exact", False) and getattr(namespace, "epsilon", None) is not None:
            self.error("argument --epsilon: not allowed with argument --exact")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropt",
        description="closed-form tropical optimization and scheduling",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="minimize a span objective")
    sub.add_argument("input", metavar="problem", help="problem JSON file ('-' for stdin)")
    _add_mode_flags(sub)
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("schedule", help="solve a project schedule")
    sub.add_argument("input", metavar="spec", help="schedule JSON file ('-' for stdin)")
    sub.add_argument(
        "--emit-intermediates",
        action="store_true",
        help="include every intermediate quantity in the JSON result",
    )
    _add_mode_flags(sub)
    sub.set_defaults(func=_cmd_schedule)

    sub = subs.add_parser(
        "solve-ineq", help="solve A x <= x style inequality systems"
    )
    sub.add_argument(
        "input", metavar="system", help="JSON file with A and b and/or d ('-' for stdin)"
    )
    _add_mode_flags(sub)
    sub.set_defaults(func=_cmd_solve_ineq)

    sub = subs.add_parser("eig", help="spectral radius")
    sub.add_argument("input", metavar="matrix", help="matrix JSON file ('-' for stdin)")
    _add_mode_flags(sub)
    sub.set_defaults(func=_cmd_eig)

    sub = subs.add_parser("star", help="matrix closure")
    sub.add_argument("input", metavar="matrix", help="matrix JSON file ('-' for stdin)")
    _add_mode_flags(sub)
    sub.set_defaults(func=_cmd_star)

    sub = subs.add_parser(
        "verify", help="check the closed form against a grid scan"
    )
    sub.add_argument("input", metavar="problem", help="problem JSON file ('-' for stdin)")
    sub.add_argument(
        "--window",
        type=int,
        default=2,
        help="half-width of the scan box around the canonical solution, "
        "rounded up to a whole number of steps",
    )
    sub.add_argument(
        "--step", default=None, help="grid step, a positive fraction such as 1/12"
    )
    sub.add_argument("--output", help="write the JSON result to a file")
    sub.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def _drop_stdout() -> None:
    """Point stdout's descriptor at devnull, so that the interpreter's
    final flush of what a closed pipe refused is silent (the recipe of
    the `signal` docs).  An in-memory stdout has no descriptor."""
    try:
        fd = sys.stdout.fileno()
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped early, which is not a failed request
        _drop_stdout()
        return 0
    except Unsolvable as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except TooManyDigits as exc:
        print(f"error: exact value longer than {exc.limit} digits", file=sys.stderr)
        return 1
    except (TroptError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
