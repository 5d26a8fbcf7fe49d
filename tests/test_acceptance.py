"""Acceptance gates for the library.

Each test here is one pass/fail gate over an externally visible claim:

  1. the bundled three-activity project solves end to end, exactly in
     rational mode and within 1e-9 in float mode, in under a second;
  2. the CLI intermediate ledger for that project is bit-exact;
  3. every closed-form solver agrees with the brute-force grid oracle
     on hundreds of random integer instances;
  4. the core algebraic identities hold on >= 500 random cases each;
  5. the specialization lattice between problem kinds holds on >= 100
     random instances per reduction;
  6. constructed infeasible instances raise the named condition error
     and the grid oracle independently confirms emptiness.

Run with `pytest tests/test_acceptance.py -v` to get one line per gate.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

import _frozen as frozen
from _samplers import (
    random_matrix,
    random_trace_bounded,
    random_vector,
    sample_problem,
    sample_schedule,
)
from _words import enum_cumulative_sum, enum_cumulative_trace
from tropt import serialize
from tropt.cli import main
from tropt.errors import (
    DegenerateProblem,
    InfeasibleConstraints,
    InfeasibleSchedule,
    NoFeasiblePoint,
    NoRegularSolution,
    ZeroSpectralRadius,
)
from tropt.linalg import Matrix, Vector, chain_sums, closure_sums, outer
from tropt.optimize import Problem, ProblemKind, solve_problem
from tropt.oracle import GridSpec, default_step, grid_minimize, grid_minimize_schedule
from tropt.schedule import collapse_solution_line, solve_schedule

NEG = float("-inf")

# domain outcomes that mean "this random draw is outside the solver's
# precondition"; draws hitting them are redrawn, never silently passed
SKIP = (
    ZeroSpectralRadius,
    DegenerateProblem,
    InfeasibleConstraints,
    NoRegularSolution,
)

KINDS = (
    ProblemKind.BASIC,
    ProblemKind.EXTENDED,
    ProblemKind.LINEAR_CONSTRAINED,
    ProblemKind.BOX_CONSTRAINED,
    ProblemKind.FIXPOINT_CONSTRAINED,
    ProblemKind.GENERAL,
)


def _window(center: Vector, radius: int) -> GridSpec:
    """Grid box of the given radius around a regular rational point,
    on the lattice that provably carries every closed-form optimum."""
    low = Vector(tuple(Fraction(v) - radius for v in center.entries), center.sf)
    high = Vector(tuple(Fraction(v) + radius for v in center.entries), center.sf)
    return GridSpec(low, high, default_step(center.dim))


def _integer_box(n: int, radius: int) -> GridSpec:
    low = Vector(tuple(Fraction(-radius) for _ in range(n)))
    high = Vector(tuple(Fraction(radius) for _ in range(n)))
    return GridSpec(low, high, Fraction(1))


def _with_field(problem: Problem, **changes) -> Problem:
    return dataclasses.replace(problem, **changes)


def _set_entry(m: Matrix, i: int, j: int, value) -> Matrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] = value
    return Matrix(tuple(tuple(r) for r in rows), m.sf)


# -- gate 1: bundled project end to end ---------------------------------------


def test_gate_project_walkthrough(fixtures_dir):
    started = time.perf_counter()

    text = (fixtures_dir / "three_activity_project.json").read_text()
    spec = serialize.parse_schedule(serialize.loads(text, exact=True))
    res = solve_schedule(spec)
    assert res.theta == frozen.THETA
    assert res.initiation == Vector(frozen.X_CANONICAL)
    assert res.completion == Vector(frozen.Y_COMPLETION)
    assert res.flow_times == frozen.FLOW_TIMES
    assert res.solutions.lower == Vector(frozen.LOWER_U)
    assert res.solutions.upper == Vector(frozen.UPPER_U)
    line = collapse_solution_line(res.solutions)
    assert line is not None
    direction, (low, high) = line
    assert direction == Vector(frozen.COLLAPSE_DIRECTION)
    assert (low, high) == frozen.COLLAPSE_INTERVAL
    # the interval collapses to a point, so the optimal start is unique
    assert low == high
    assert res.solutions.generator @ res.solutions.upper == res.initiation

    fspec = serialize.parse_schedule(serialize.loads(text, exact=False))
    fres = solve_schedule(fspec)
    assert abs(fres.theta - 4.0) <= 1e-9
    for got, want in zip(fres.initiation.entries, frozen.X_CANONICAL):
        assert abs(got - want) <= 1e-9
    for got, want in zip(fres.solutions.lower.entries, frozen.LOWER_U):
        assert abs(got - want) <= 1e-9
    for got, want in zip(fres.solutions.upper.entries, frozen.UPPER_U):
        assert abs(got - want) <= 1e-9
    fline = collapse_solution_line(fres.solutions)
    assert fline is not None
    flow, fhigh = fline[1]
    assert abs(flow - 1.0) <= 1e-9 and abs(fhigh - 1.0) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"project walkthrough: exact + float agree, {elapsed * 1e3:.0f} ms")


# -- gate 2: CLI intermediate ledger ------------------------------------------


def test_gate_intermediate_ledger(fixtures_dir, capsys):
    code = main(
        [
            "schedule",
            str(fixtures_dir / "three_activity_project.json"),
            "--emit-intermediates",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["intermediates"] == frozen.EXPECTED_INTERMEDIATES
    assert doc["theta"] == frozen.THETA
    print(
        "intermediate ledger: "
        f"{len(frozen.EXPECTED_INTERMEDIATES)} named quantities bit-exact"
    )


# -- gate 3: closed-form solvers vs the grid oracle ----------------------------


def _check_problem_against_grid(problem: Problem) -> bool:
    """Solve and cross-check one instance; False when the draw misses
    the solver's precondition."""
    try:
        res = solve_problem(problem)
    except SKIP:
        return False
    best, argmin = grid_minimize(problem, _window(res.canonical, 1))
    assert best == res.minimum, (problem, best, res.minimum)
    assert res.solutions.contains(argmin), (problem, argmin)
    return True


def _check_schedule_against_grid(spec) -> bool:
    try:
        res = solve_schedule(spec)
    except InfeasibleSchedule:
        return False
    best, argmin = grid_minimize_schedule(spec, _window(res.initiation, 1))
    assert best == res.theta, (spec, best, res.theta)
    assert res.solutions.contains(argmin), (spec, argmin)
    return True


def test_gate_grid_oracle_equivalence():
    started = time.perf_counter()
    target = 200
    counts = {}
    for seed_base, kind in enumerate(KINDS):
        rng = random.Random(101 + seed_base)
        kept = attempts = 0
        while kept < target:
            attempts += 1
            assert attempts < 40 * target, f"{kind.value}: feasibility rate too low"
            if _check_problem_against_grid(sample_problem(rng, kind)):
                kept += 1
        counts[kind.value] = kept
    rng = random.Random(900)
    kept = attempts = 0
    while kept < target:
        attempts += 1
        assert attempts < 40 * target, "schedule: feasibility rate too low"
        if _check_schedule_against_grid(sample_schedule(rng)):
            kept += 1
    counts["Schedule"] = kept
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    total = sum(counts.values())
    print(
        f"grid oracle equivalence: {total} instances across "
        f"{len(counts)} solvers, exact, {elapsed:.1f} s"
    )


# -- gate 4: algebraic identity suites -----------------------------------------

CASES = 500


def test_gate_identity_suites():
    rng = random.Random(4242)

    # cumulative power sums against literal term-by-term enumeration
    for _ in range(CASES):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        m = rng.randint(1, n)
        joined = a + b
        acc, cur = joined, joined
        for _ in range(m - 1):
            cur = cur @ joined
            acc = acc + cur
        assert acc == enum_cumulative_sum(a, b, m)

    # trace version, plus the cyclic and additive trace laws
    sf = Matrix.identity(1).sf
    for _ in range(CASES):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        m = rng.randint(1, n)
        joined = a + b
        acc, cur = joined.trace(), joined
        for _ in range(m - 1):
            cur = cur @ joined
            acc = sf.add(acc, cur.trace())
        assert acc == enum_cumulative_trace(a, b, m)
        assert (a @ b).trace() == (b @ a).trace()
        assert (a + b).trace() == sf.add(a.trace(), b.trace())

    # Kleene star is a fixpoint whenever the trace sum allows a star
    for _ in range(CASES):
        n = rng.randint(2, 4)
        a = random_trace_bounded(rng, n)
        star = a.star()
        assert star == Matrix.identity(n) + a @ star

    # chain sums grow out of closure sums one multiplication at a time
    for _ in range(CASES):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        chains = chain_sums(a, b)
        closures = closure_sums(a, b)
        for k in range(n):
            assert chains[k + 1] == a @ closures[k]

    # every chain sum dominates the bare matrix power
    for _ in range(CASES):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        chains = chain_sums(a, b)
        for k in range(n + 1):
            assert a.power(k).leq(chains[k])

    # conjugate transpose: x^- x is the unit, x x^- dominates the identity
    for _ in range(CASES):
        n = rng.randint(1, 5)
        x = random_vector(rng, n)
        if rng.random() < 0.5:
            x = x.scale(Fraction(rng.randint(-3, 3), rng.randint(2, 5)))
        assert x.conj() @ x == x.sf.one
        assert Matrix.identity(n).leq(outer(x, x.conj()))

    print(f"identity suites: 6 families x {CASES} random cases, zero failures")


# -- gate 5: specialization lattice --------------------------------------------

PAIRS = 100


def _solve_or_error(problem: Problem):
    try:
        return solve_problem(problem), None
    except SKIP as exc:
        return None, exc


def _assert_same_family(left, right, with_upper=True):
    assert left.minimum == right.minimum
    assert left.canonical == right.canonical
    assert left.solutions.generator == right.solutions.generator
    assert left.solutions.lower == right.solutions.lower
    if with_upper:
        assert left.solutions.upper == right.solutions.upper


def test_gate_specialization_lattice():
    rng = random.Random(777)

    def run_pairs(make_pair, with_upper=True, minimum_only=False):
        kept = attempts = 0
        while kept < PAIRS:
            attempts += 1
            assert attempts < 40 * PAIRS, "equivalence sampling starved"
            pair = make_pair(rng.choice((2, 3, 4)))
            if pair is None:
                continue
            narrow, wide = pair
            left, lerr = _solve_or_error(narrow)
            right, rerr = _solve_or_error(wide)
            if lerr is not None or rerr is not None:
                # a reduction may only fail where its image fails
                assert (lerr is None) == (rerr is None), (narrow, lerr, rerr)
                continue
            if minimum_only:
                assert left.minimum == right.minimum
                assert left.solutions.generator == right.solutions.generator
                assert left.solutions.lower == right.solutions.lower
            else:
                _assert_same_family(left, right, with_upper)
            kept += 1
        return kept

    def boxed(n):
        box = sample_problem(rng, ProblemKind.BOX_CONSTRAINED, n)
        wide = Problem(
            kind=ProblemKind.GENERAL,
            A=box.A,
            B=Matrix.zeros(n, n),
            p=box.p,
            q=box.q,
            g=box.g,
            h=box.h,
            r=box.r,
        )
        return box, wide

    def unboxed(n):
        fix = sample_problem(rng, ProblemKind.FIXPOINT_CONSTRAINED, n)
        wide = Problem(
            kind=ProblemKind.GENERAL,
            A=fix.A,
            B=fix.B,
            p=fix.p,
            q=fix.q,
            g=Vector.zeros(n),
            h=Vector(tuple(1000 for _ in range(n))),
            r=fix.r,
        )
        return fix, wide

    def unchained(n):
        ext = sample_problem(rng, ProblemKind.EXTENDED, n)
        # the unconstrained solver insists on a cycle in A, the fixpoint
        # one only on the joint scale bound; compare on the shared domain
        if ext.A.sf.is_zero(ext.A.spectral_radius()):
            return None
        wide = Problem(
            kind=ProblemKind.FIXPOINT_CONSTRAINED,
            A=ext.A,
            B=Matrix.zeros(n, n),
            p=ext.p,
            q=ext.q,
            r=ext.r,
        )
        return ext, wide

    def bare(n):
        basic = sample_problem(rng, ProblemKind.BASIC, n)
        wide = Problem(
            kind=ProblemKind.EXTENDED,
            A=basic.A,
            p=Vector.zeros(n),
            q=Vector(tuple(1000 for _ in range(n))),
            r=NEG,
        )
        return basic, wide

    done = {
        "general(B=0) == box": run_pairs(boxed),
        "general(g=0, h huge) == fixpoint": run_pairs(unboxed),
        "fixpoint(B=0) == extended": run_pairs(unchained),
        "extended(p=0, q huge, r=0) == basic": run_pairs(bare, minimum_only=True),
    }
    assert all(v >= PAIRS for v in done.values())
    print(
        "specialization lattice: "
        + ", ".join(f"{k} x{v}" for k, v in done.items())
    )


# -- gate 6: infeasibility dichotomy -------------------------------------------

TRIALS = 25


def _assert_named_and_empty(problem: Problem, fragment: str):
    with pytest.raises(InfeasibleConstraints) as caught:
        solve_problem(problem)
    assert fragment in str(caught.value)
    with pytest.raises(NoFeasiblePoint):
        grid_minimize(problem, _integer_box(problem.dim, 12))


def test_gate_infeasibility_dichotomy():
    rng = random.Random(31337)

    # a positive diagonal lag makes x >= B x circular for every x
    for kind in (
        ProblemKind.LINEAR_CONSTRAINED,
        ProblemKind.FIXPOINT_CONSTRAINED,
        ProblemKind.GENERAL,
    ):
        for _ in range(TRIALS):
            base = sample_problem(rng, kind)
            i = rng.randrange(base.dim)
            bad = _with_field(base, B=_set_entry(base.B, i, i, rng.randint(1, 4)))
            _assert_named_and_empty(bad, "Tr(B) <= 1")

    # a long forced lag drives one coordinate past its deadline
    for _ in range(TRIALS):
        base = sample_problem(rng, ProblemKind.GENERAL, 2)
        lag = rng.randint(5, 8)
        floor = rng.randint(5, 7)
        bad = _with_field(
            base,
            B=_set_entry(Matrix.zeros(2, 2), 0, 1, lag),
            g=Vector((rng.randint(-3, -1), floor)),
            h=Vector((rng.randint(-2, 0), floor + rng.randint(0, 4))),
        )
        _assert_named_and_empty(bad, "h^- B* g <= 1")

    # crossed box corners leave no start at all
    for _ in range(TRIALS):
        base = sample_problem(rng, ProblemKind.BOX_CONSTRAINED)
        g = [0 if base.A.sf.is_zero(v) else v for v in base.g.entries]
        h = list(base.h.entries)
        i = rng.randrange(base.dim)
        g[i] = rng.randint(1, 3)
        h[i] = g[i] - rng.randint(1, 3)
        bad = _with_field(base, g=Vector(tuple(g)), h=Vector(tuple(h)))
        _assert_named_and_empty(bad, "h^- g <= 1")

    # the same two conditions surface through the scheduling front end
    for _ in range(TRIALS):
        spec = sample_schedule(rng, 2)
        i = rng.randrange(2)
        looped = dataclasses.replace(
            spec,
            start_start=_set_entry(spec.start_start, i, i, rng.randint(1, 4)),
        )
        with pytest.raises(InfeasibleSchedule) as caught:
            solve_schedule(looped)
        assert "Tr(B) <= 1" in str(caught.value)
        with pytest.raises(NoFeasiblePoint):
            grid_minimize_schedule(looped, _integer_box(2, 12))

        lag = rng.randint(5, 8)
        floor = rng.randint(5, 7)
        chained = dataclasses.replace(
            spec,
            start_start=_set_entry(Matrix.zeros(2, 2), 0, 1, lag),
            earliest_start=Vector((rng.randint(-2, 0), floor)),
            latest_start=Vector((0, floor + rng.randint(0, 4))),
        )
        with pytest.raises(InfeasibleSchedule) as caught:
            solve_schedule(chained)
        assert "h^- B* g <= 1" in str(caught.value)
        with pytest.raises(NoFeasiblePoint):
            grid_minimize_schedule(chained, _integer_box(2, 12))

    print(
        "infeasibility dichotomy: named condition raised and grid-confirmed "
        f"empty on {TRIALS} trials per construction"
    )
