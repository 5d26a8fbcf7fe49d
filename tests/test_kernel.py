"""Differential tests of the shared minimization kernel.

Every kind's minimum is the spectral radius of Bhat* Ahat on the
bordered matrices.  These tests hold it against the chain/closure
closed form the solvers used before the kernel, against simple-cycle
enumeration, and against the schedule's intermediate ledger.
"""

import random
from fractions import Fraction

from _samplers import sample_problem, sample_schedule
from tropt import oracle
from tropt.errors import (
    DegenerateProblem,
    InfeasibleConstraints,
    InfeasibleSchedule,
    ZeroSpectralRadius,
)
from tropt.linalg import Matrix, RowVector, Vector, closure_sums
from tropt.optimize import ProblemKind, solve_problem, verify_solution
from tropt.schedule import solve_schedule, solve_schedule_detailed

SKIP = (ZeroSpectralRadius, DegenerateProblem, InfeasibleConstraints)
DRAWS = 500


def _reference_minimum(problem):
    """The chain/closure closed form of the General kind; every
    narrower kind's own formula is this one with its absent data set to
    zero, and with B absent both families reduce to powers of A:

      r (+) (+)_k tr(S_k)^(1/k) (+) (+)_k (h^- T_k g)^(1/k)
        (+) (+)_k (q^- T_k g (+) h^- T_k p)^(1/(k+1))
        (+) (+)_k (q^- T_k p)^(1/(k+2))

    with S_k the chain sums and T_k the closure sums of (A, B)."""
    a = problem.A
    sf = a.sf
    n = a.n_rows
    if problem.B is None:
        chains = a.powers(n)
        closures = chains[:n]
    else:
        closures = closure_sums(a, problem.B)
        # S_(k+1) = A T_k, one table build instead of two
        chains = [Matrix.identity(n, sf)] + [a @ t for t in closures]
    zero_row = RowVector((sf.zero,) * n, sf)
    p = problem.p if problem.p is not None else Vector.zeros(n, sf)
    g = problem.g if problem.g is not None else Vector.zeros(n, sf)
    qc = problem.q.conj() if problem.q is not None else zero_row
    hc = problem.h.conj() if problem.h is not None else zero_row
    r = problem.r if problem.r is not None else sf.zero

    theta = r
    for k in range(1, n + 1):
        theta = sf.add(theta, sf.power(chains[k].trace(), Fraction(1, k)))
    for k in range(1, n):
        theta = sf.add(theta, sf.power(hc @ closures[k] @ g, Fraction(1, k)))
    for k in range(n):
        row = closures[k]
        cross = sf.add(qc @ row @ g, hc @ row @ p)
        theta = sf.add(theta, sf.power(cross, Fraction(1, k + 1)))
        theta = sf.add(theta, sf.power(qc @ row @ p, Fraction(1, k + 2)))
    return theta


def test_kernel_matches_chain_closure_formulas():
    for offset, kind in enumerate(ProblemKind):
        rng = random.Random(2600 + offset)
        kept = 0
        for draw in range(DRAWS):
            problem = sample_problem(rng, kind, rng.randint(2, 6))
            try:
                res = solve_problem(problem)
            except SKIP:
                continue
            kept += 1
            want = _reference_minimum(problem)
            assert res.minimum == want, (kind, draw, res.minimum, want)
            ok, reason = verify_solution(problem, res, res.canonical)
            assert ok, (kind, draw, reason)
        assert kept >= DRAWS // 3, f"{kind.value}: only {kept} feasible draws"


def test_basic_minimum_is_max_cycle_mean():
    rng = random.Random(2700)
    for _ in range(DRAWS):
        problem = sample_problem(rng, ProblemKind.BASIC, rng.randint(2, 6))
        want = oracle.max_cycle_mean(problem.A)
        if problem.A.sf.is_zero(want):
            try:
                solve_problem(problem)
            except ZeroSpectralRadius:
                continue
            raise AssertionError("acyclic matrix solved")
        assert solve_problem(problem).minimum == want


def test_ledger_theta_matches_solved_theta():
    rng = random.Random(2800)
    checked = 0
    while checked < 200:
        spec = sample_schedule(rng, rng.randint(2, 5))
        try:
            result, ledger = solve_schedule_detailed(spec)
        except InfeasibleSchedule:
            continue
        checked += 1
        assert ledger["theta"] == result.theta == solve_schedule(spec).theta
        assert ledger["generator"] == result.solutions.generator
