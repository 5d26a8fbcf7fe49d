#!/usr/bin/env python3
"""Random cross-check of every closed-form solver against the grid oracle.

Draws random integer instances for each problem kind plus the scheduling
front end, solves them in exact rational mode, and re-minimizes each one
by brute force on a rational lattice around the reported optimum.  Any
disagreement (different minimum, or a grid argmin outside the reported
solution family) is a bug and flips the exit code.  Each kept draw is
also solved with its data as floats divided by 10: its minimum and
canonical point, and every number of a schedule's answer, must be the
exact answer on those floats' own (dyadic) values, rounded once to
floats.  The inequality solvers' exact family is compared with
perfbench/check.py's literal star, and their floats/10 draw with the
exact answer rounded once, in the same way; so are `star` and
`trace_sum` themselves, with check.py's literal sums.

Usage:
    python3 scripts/audit_random.py [--count N] [--seed S] [--radius R]
"""

import argparse
import dataclasses
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from check import inequality_expectation, star, trace_sum  # noqa: E402
from tropt import oracle  # noqa: E402
from tropt.errors import (  # noqa: E402
    DegenerateProblem,
    InfeasibleConstraints,
    InfeasibleSchedule,
    NoRegularSolution,
    ZeroSpectralRadius,
)
from tropt.linalg import Matrix, Vector  # noqa: E402
from tropt.linsolve import solve_combined, solve_fixpoint_lower  # noqa: E402
from tropt.optimize import ProblemKind, solve_problem  # noqa: E402
from tropt.oracle import GridSpec, default_step, grid_minimize, grid_minimize_schedule  # noqa: E402
from tropt.schedule import solve_schedule  # noqa: E402

SKIP = (
    ZeroSpectralRadius,
    DegenerateProblem,
    InfeasibleConstraints,
)


def _entries(x, f):
    """x with f applied to each finite entry when it is a Matrix, a
    Vector or a finite scalar; any other x as it is."""
    zero = float("-inf")
    if isinstance(x, Matrix):
        return Matrix(tuple(tuple(v if v == zero else f(v) for v in r) for r in x.rows), x.sf)
    if isinstance(x, Vector):
        return Vector(tuple(v if v == zero else f(v) for v in x.entries), x.sf)
    if isinstance(x, (int, float, Fraction)) and x != zero:
        return f(x)
    return x


def _mapped(item, f):
    """The Problem or ScheduleSpec with f applied to each finite entry."""
    return dataclasses.replace(
        item, **{fld.name: _entries(getattr(item, fld.name), f)
                 for fld in dataclasses.fields(item)}
    )


def tenth(v) -> float:
    """v / 10 as the float nearest to it."""
    return v / 10


def float_mismatch(floats):
    """None when the float problem solves to the exact answer on its
    floats' own values, rounded once (or the exact solve fails); else
    (float answer, rounded exact answer), each its minimum and canonical
    point."""
    try:
        want = solve_problem(_mapped(floats, Fraction))
    except SKIP:
        return None  # rounding by 10 can turn a zero cycle positive
    got = solve_problem(floats)
    got = (got.minimum, got.canonical.entries)
    want = (float(want.minimum), tuple(map(float, want.canonical.entries)))
    return None if repr(got) == repr(want) else (got, want)


def window(center: Vector, radius: int) -> GridSpec:
    low = Vector(tuple(Fraction(v) - radius for v in center.entries), center.sf)
    high = Vector(tuple(Fraction(v) + radius for v in center.entries), center.sf)
    return GridSpec(low, high, default_step(center.dim))


def audit_kind(kind: ProblemKind, count: int, seed: int, radius: int):
    rng = random.Random(seed)
    kept = skipped = 0
    mismatches = []
    while kept < count:
        problem = oracle.sample_problem(rng, kind)
        try:
            res = solve_problem(problem)
        except SKIP:
            skipped += 1
            continue
        kept += 1
        best, argmin = grid_minimize(problem, window(res.canonical, radius))
        sf = problem.A.sf
        if not sf.eq(best, res.minimum):
            mismatches.append((problem, "minimum", res.minimum, best))
        elif not res.solutions.contains(argmin):
            mismatches.append((problem, "membership", res.minimum, argmin))
        found = float_mismatch(_mapped(problem, tenth))
        if found is not None:
            mismatches.append((problem, "float tenths", *found))
    return kept, skipped, mismatches


def audit_schedule(count: int, seed: int, radius: int):
    rng = random.Random(seed)
    kept = skipped = 0
    mismatches = []
    while kept < count:
        spec = oracle.sample_schedule(rng)
        try:
            res = solve_schedule(spec)
        except InfeasibleSchedule:
            skipped += 1
            continue
        kept += 1
        best, argmin = grid_minimize_schedule(spec, window(res.initiation, radius))
        sf = spec.start_finish.sf
        if not sf.eq(best, res.theta):
            mismatches.append((spec, "minimum", res.theta, best))
        elif not res.solutions.contains(argmin):
            mismatches.append((spec, "membership", res.theta, argmin))
        floats = _mapped(spec, tenth)
        try:
            want = _rounded(_schedule_answer(_mapped(floats, Fraction)))
        except InfeasibleSchedule:
            continue  # rounding by 10 can turn a zero cycle positive
        got = _schedule_answer(floats)
        if repr(got) != repr(want):
            mismatches.append((spec, "float tenths", got, want))
    return kept, skipped, mismatches


def _schedule_answer(spec) -> list:
    """Every number `solve_schedule` gives, entries as check.py lists
    them: theta, x, y, s, t, the flow times, G and the parameter box."""
    res = solve_schedule(spec)
    sols = res.solutions
    vectors = (res.initiation, res.completion, res.adjusted_start, res.adjusted_finish)
    return [res.theta, *(_plain(v.entries) for v in vectors), _plain(res.flow_times),
            list(map(_plain, sols.generator.rows)), _plain(sols.lower.entries),
            sols.upper and _plain(sols.upper.entries)]


def _plain(values) -> list:
    """Entries as check.py lists them: None for zero, the rest as they
    are."""
    return [None if v == float("-inf") else v for v in values]


def _ineq_answer(a, b, d):
    """The family of A x (+) b <= x (<= d) as check.py's fields, or the
    failed gate's condition."""
    try:
        sol = solve_fixpoint_lower(a, b) if d is None else solve_combined(a, b, d)
    except NoRegularSolution as err:
        return err.condition
    doc = {"generator": list(map(_plain, sol.generator.rows)), "lower": _plain(sol.lower.entries)}
    if sol.upper is not None:
        doc["upper"] = _plain(sol.upper.entries)
    return doc


def _rounded(doc):
    """The answer with each finite exact value as the nearest float."""
    if isinstance(doc, dict):
        return {k: _rounded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rounded(v) for v in doc]
    return doc if doc is None else float(doc)


def audit_inequalities(count: int, seed: int):
    """solve-ineq's two families on integer draws, half with d: each
    exact answer or condition is check.py's, and the draw in floats
    divided by 10 solves to the exact answer on its floats' values,
    rounded once."""
    rng = random.Random(seed)
    kept = skipped = 0
    mismatches = []
    while kept < count:
        n = rng.choice((2, 3, 4))
        a = oracle.random_trace_bounded(rng, n) if rng.random() < 0.8 else \
            oracle.random_matrix(rng, n)
        b = oracle.random_vector(rng, n, zero_p=0.2)
        d = oracle.random_vector(rng, n, lo=0, hi=8) if rng.random() < 0.5 else None
        system = {"A": list(map(_plain, a.rows)), "b": _plain(b.entries)}
        if d is not None:
            system["d"] = list(d.entries)
        condition, want = inequality_expectation(system)
        got = _ineq_answer(a, b, d)
        if got != (condition or want):
            mismatches.append((system, "family", got, condition or want))
        if condition is not None:
            skipped += 1
            continue
        kept += 1
        if d is None and all(v is None for v in system["b"] + sum(system["A"], [])):
            continue  # no finite entry: the same draw in either mode
        floats = [_entries(x, tenth) for x in (a, b, d)]
        exact = _ineq_answer(*[_entries(x, Fraction) for x in floats])
        if isinstance(exact, str):
            continue  # rounding by 10 can turn a zero cycle positive
        got = _ineq_answer(*floats)
        if repr(got) != repr(_rounded(exact)):
            mismatches.append((system, "float tenths", got, _rounded(exact)))
    return kept, skipped, mismatches


def _star_answer(a):
    """`star` and `trace_sum` of a as check.py lists them."""
    return [list(map(_plain, a.star().rows)), _plain((a.trace_sum(),))[0]]


def audit_star(count: int, seed: int):
    """`star` and `trace_sum` on integer draws, about half of them with
    a positive cycle: each equals check.py's literal sum, and the draw
    in floats divided by 10 gives the exact answer on its floats'
    values, rounded once."""
    rng = random.Random(seed)
    mismatches = []
    for _ in range(count):
        n = rng.randint(1, 5)
        a = oracle.random_trace_bounded(rng, n) if rng.random() < 0.5 else \
            oracle.random_matrix(rng, n)
        rows = list(map(_plain, a.rows))
        got, want = _star_answer(a), [star(rows), trace_sum(rows)]
        if got != want:
            mismatches.append((rows, "star", got, want))
        if all(v is None for r in rows for v in r):
            continue  # no finite entry: the same draw in either mode
        floats = _entries(a, tenth)
        got, want = _star_answer(floats), _rounded(_star_answer(_entries(floats, Fraction)))
        if repr(got) != repr(want):
            mismatches.append((rows, "float tenths", got, want))
    return count, 0, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100,
                        help="feasible instances per solver (default 100)")
    parser.add_argument("--seed", type=int, default=2024,
                        help="base RNG seed (default 2024)")
    parser.add_argument("--radius", type=int, default=1,
                        help="grid half-width around the optimum (default 1)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.radius < 0:
        parser.error("--radius must be at least 0")

    failures = 0
    started = time.perf_counter()
    rows = [(kind.value, lambda s, k=kind: audit_kind(k, args.count, s, args.radius))
            for kind in ProblemKind]
    rows.append(("Schedule", lambda s: audit_schedule(args.count, s, args.radius)))
    rows.append(("Inequalities", lambda s: audit_inequalities(args.count, s)))
    rows.append(("Star", lambda s: audit_star(args.count, s)))
    for offset, (label, runner) in enumerate(rows):
        kept, skipped, mismatches = runner(args.seed + offset)
        status = "ok" if not mismatches else f"{len(mismatches)} MISMATCH"
        print(f"  {label:<22} {kept:>4} checked  {skipped:>4} skipped  {status}")
        for item, what, reported, found in mismatches:
            failures += 1
            print(f"    {what}: reported {reported!r}, oracle found {found!r}")
            print(f"    instance: {item!r}")
    elapsed = time.perf_counter() - started
    verdict = "all solvers agree with the oracle" if not failures else \
        f"{failures} disagreement(s)"
    print(f"{verdict} ({elapsed:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
