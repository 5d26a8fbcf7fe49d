#!/usr/bin/env python3
"""Random cross-check of every closed-form solver against the grid oracle.

Draws random integer instances for each problem kind plus the scheduling
front end, solves them in exact rational mode, and re-minimizes each one
by brute force on a rational lattice around the reported optimum.  Any
disagreement (different minimum, or a grid argmin outside the reported
solution family) is a bug and flips the exit code.

Usage:
    python3 scripts/audit_random.py [--count N] [--seed S] [--radius R]
"""

import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tropt import oracle
from tropt.errors import (
    DegenerateProblem,
    InfeasibleConstraints,
    InfeasibleSchedule,
    ZeroSpectralRadius,
)
from tropt.linalg import Vector
from tropt.optimize import ProblemKind, solve_problem
from tropt.oracle import GridSpec, default_step, grid_minimize, grid_minimize_schedule
from tropt.schedule import solve_schedule

SKIP = (
    ZeroSpectralRadius,
    DegenerateProblem,
    InfeasibleConstraints,
)


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
    return kept, skipped, mismatches


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
