import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

import _frozen as frozen
from _samplers import sample_problem, sample_schedule
from _words import (
    enum_chain_sum,
    enum_closure_sum,
    enum_cumulative_sum,
    enum_cumulative_trace,
)
from tropt import (
    GridTooLarge,
    Matrix,
    NoFeasiblePoint,
    NotRegularVector,
    Problem,
    ProblemKind,
    ScheduleSpec,
    TooLarge,
    TroptError,
    Vector,
    solve_problem,
    solve_schedule,
)
from tropt import oracle
from tropt.oracle import (
    GridSpec,
    critical_nodes,
    default_step,
    grid_minimize,
    grid_minimize_schedule,
    max_cycle_mean,
)

NEG = float("-inf")


class TestGridSpec:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GridSpec(Vector((0, 0)), Vector((1, 1, 1)), Fraction(1))

    def test_corners_must_be_finite(self):
        with pytest.raises(ValueError):
            GridSpec(Vector((NEG, 0)), Vector((1, 1)), Fraction(1))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec(Vector((0, 0)), Vector((1, 1)), Fraction(0))

    def test_corners_must_be_ordered(self):
        with pytest.raises(ValueError):
            GridSpec(Vector((2, 0)), Vector((1, 1)), Fraction(1))


class TestGridMinimize:
    def test_analytic_one_dimensional_minimum(self):
        # max(0, 2 - x, x) over [-3, 3] dips to 1 at x = 1.
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((0,),)),
            p=Vector((2,)),
            q=Vector((0,)),
            g=Vector((-3,)),
            h=Vector((3,)),
            r=NEG,
        )
        best, arg = grid_minimize(
            prob, GridSpec(Vector((-3,)), Vector((3,)), Fraction(1, 2))
        )
        assert best == 1
        assert arg.entries == (1,)

    def test_span_is_translation_invariant(self):
        prob = Problem(ProblemKind.BASIC, A=Matrix(((2,),)))
        best, _ = grid_minimize(
            prob, GridSpec(Vector((-1,)), Vector((1,)), Fraction(1))
        )
        assert best == 2

    def test_rational_data_is_scanned_exactly(self):
        prob = Problem(ProblemKind.BASIC, A=Matrix(((Fraction(1, 2),),)))
        best, _ = grid_minimize(
            prob, GridSpec(Vector((0,)), Vector((1,)), Fraction(1, 4))
        )
        assert best == Fraction(1, 2)

    def test_constraints_filter_points(self):
        # Fixpoint constraint 1 (*) x2 <= x1 cuts the unconstrained dip.
        prob = Problem(
            ProblemKind.FIXPOINT_CONSTRAINED,
            A=Matrix(((NEG, 0), (0, NEG))),
            B=Matrix(((NEG, 1), (NEG, NEG))),
            p=Vector((0, 0)),
            q=Vector((0, 0)),
            r=NEG,
        )
        best, arg = grid_minimize(
            prob, GridSpec(Vector((-2, -2)), Vector((2, 2)), Fraction(1))
        )
        sf = prob.A.sf
        assert arg.entries[0] >= arg.entries[1] + 1
        # every reported value is reproducible by hand at the argmin
        x1, x2 = arg.entries
        span = max(x2 - x1, x1 - x2)
        extra = max(-x1, -x2, x1, x2)
        assert best == max(span, extra)

    def test_no_feasible_point(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((0,),)),
            p=Vector((0,)),
            q=Vector((0,)),
            g=Vector((5,)),
            h=Vector((0,)),
            r=NEG,
        )
        with pytest.raises(NoFeasiblePoint):
            grid_minimize(
                prob, GridSpec(Vector((0,)), Vector((5,)), Fraction(1))
            )

    def test_budget_guard(self):
        prob = Problem(ProblemKind.BASIC, A=Matrix(frozen.A_ROWS))
        with pytest.raises(GridTooLarge):
            grid_minimize(
                prob,
                GridSpec(
                    Vector((0, 0, 0)),
                    Vector((50, 50, 50)),
                    Fraction(1, 100),
                ),
            )

    def test_budget_counts_the_uncut_grid(self):
        # g and h leave 101^3 points of the window, under the budget;
        # the window itself has 5001^3, over it
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(frozen.A_ROWS),
            p=Vector((0, 0, 0)),
            q=Vector((0, 0, 0)),
            g=Vector((0, 0, 0)),
            h=Vector((1, 1, 1)),
            r=0,
        )
        with pytest.raises(GridTooLarge):
            grid_minimize(
                prob,
                GridSpec(
                    Vector((0, 0, 0)),
                    Vector((50, 50, 50)),
                    Fraction(1, 100),
                ),
            )

    def test_zero_entries_stay_zero_at_huge_coordinates(self):
        big = 10**15
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((0, NEG), (NEG, 0))),
            p=Vector((0, big)),
            q=Vector((0, big)),
            g=Vector((0, big)),
            h=Vector((1, big + 1)),
            r=0,
        )
        best, arg = grid_minimize(
            prob,
            GridSpec(
                Vector((-1, big - 1)), Vector((1, big + 1)), Fraction(1, 12)
            ),
        )
        assert best == 0
        assert arg.entries == (0, big)

    def test_objective_without_finite_terms_is_zero(self):
        # x^- A x with A all zero is the tropical zero at every point:
        # the minimum is zero, at the first feasible point
        prob = Problem(
            ProblemKind.LINEAR_CONSTRAINED,
            A=Matrix(((NEG, NEG), (NEG, NEG))),
            B=Matrix(((NEG, 1), (NEG, NEG))),
            g=Vector((NEG, -1)),
        )
        best, arg = grid_minimize(
            prob, GridSpec(Vector((-2, -2)), Vector((2, 2)), Fraction(1))
        )
        assert best == NEG
        assert arg.entries == (0, -1)

    def test_zero_q_entry_is_rejected(self):
        prob = Problem(
            ProblemKind.EXTENDED,
            A=Matrix(((0,),)),
            p=Vector((0,)),
            q=Vector((NEG,)),
            r=0,
        )
        with pytest.raises(NotRegularVector):
            grid_minimize(prob, GridSpec(Vector((0,)), Vector((1,)), Fraction(1)))

    def test_zero_h_entry_admits_no_point(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((0, NEG), (NEG, 0))),
            p=Vector((0, 0)),
            q=Vector((0, 0)),
            g=Vector((NEG, NEG)),
            h=Vector((3, NEG)),
            r=0,
        )
        with pytest.raises(NoFeasiblePoint):
            grid_minimize(
                prob, GridSpec(Vector((0, 0)), Vector((2, 2)), Fraction(1))
            )

    def test_exact_scalars_required(self):
        prob = Problem(ProblemKind.BASIC, A=Matrix(((0.5,),)))
        with pytest.raises(TypeError):
            grid_minimize(
                prob, GridSpec(Vector((0,)), Vector((1,)), Fraction(1))
            )

    def test_a_float_anywhere_in_the_data_is_rejected(self):
        # a float 0.0 in p, and a float r beside Fraction data (the
        # semifield zero -inf, a float too, is no datum)
        grid = GridSpec(Vector((0,)), Vector((1,)), Fraction(1, 12))
        for p, r in ((0.0, 0), (Fraction(1, 3), 0.5)):
            prob = Problem(
                ProblemKind.EXTENDED,
                A=Matrix(((Fraction(5, 7),),)),
                p=Vector((p,)),
                q=Vector((0,)),
                r=r,
            )
            with pytest.raises(TypeError, match="oracle needs exact scalars"):
                grid_minimize(prob, grid)

    def test_a_float_schedule_datum_is_rejected(self, project_spec):
        spec = dataclasses.replace(project_spec, window_upper=Vector((7.5, 8, 9)))
        grid = GridSpec(Vector((0, 0, 0)), Vector((1, 1, 1)), Fraction(1))
        with pytest.raises(TypeError, match="oracle needs exact scalars"):
            grid_minimize_schedule(spec, grid)


class TestGridMinimizeSchedule:
    def test_single_activity(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((5,),)),
            start_start=Matrix(((NEG,),)),
            earliest_start=Vector((0,)),
            latest_start=Vector((10,)),
            window_lower=Vector((0,)),
            window_upper=Vector((6,)),
        )
        best, arg = grid_minimize_schedule(
            spec, GridSpec(Vector((-1,)), Vector((2,)), Fraction(1))
        )
        assert best == 6
        assert arg.entries == (0,)

    def test_project_fixture(self, project_spec):
        best, arg = grid_minimize_schedule(
            project_spec,
            GridSpec(Vector((0, 0, 0)), Vector((3, 3, 3)), default_step(3)),
        )
        assert best == frozen.THETA
        assert arg.entries == frozen.X_CANONICAL


class TestDefaultStep:
    def test_divides_all_root_denominators(self):
        assert default_step(2) == Fraction(1, 6)
        assert default_step(3) == Fraction(1, 12)
        assert default_step(4) == Fraction(1, 60)


class TestCycleEnumeration:
    def test_frozen_spectral_radius(self):
        assert max_cycle_mean(Matrix(frozen.A_ROWS)) == frozen.SPECTRAL_RADIUS_A
        assert critical_nodes(Matrix(frozen.A_ROWS)) == frozen.CRITICAL_NODES_A

    def test_precedence_matrix_cycles(self):
        b = Matrix(frozen.B_ROWS)
        assert max_cycle_mean(b) == 0
        assert critical_nodes(b) == frozenset({0, 1, 2})

    def test_acyclic(self):
        m = Matrix(((NEG, 3), (NEG, NEG)))
        assert max_cycle_mean(m) == NEG
        assert critical_nodes(m) == frozenset()

    def test_order_guard(self):
        big = Matrix.zeros(9, 9)
        with pytest.raises(TooLarge):
            max_cycle_mean(big)


class TestCompositionEnumeration:
    def test_zero_b_reduces_to_powers(self):
        a = Matrix(frozen.A_ROWS)
        z = Matrix.zeros(3, 3)
        for k in range(4):
            assert enum_chain_sum(a, z, k) == a.power(k)
        for k in range(3):
            assert enum_closure_sum(a, z, k) == a.power(k)

    def test_frozen_families(self):
        a, b = Matrix(frozen.A_ROWS), Matrix(frozen.B_ROWS)
        assert enum_chain_sum(a, b, 1).rows == frozen.CHAIN_1
        assert enum_chain_sum(a, b, 2).rows == frozen.CHAIN_2
        assert enum_closure_sum(a, b, 0).rows == frozen.B_STAR
        assert enum_closure_sum(a, b, 1).rows == frozen.CLOSURE_1

    def test_cumulative_sum_small_case(self):
        a = Matrix(((1, NEG), (NEG, NEG)))
        b = Matrix(((NEG, 0), (0, NEG)))
        s = a + b
        lhs = s + s @ s
        assert enum_cumulative_sum(a, b, 2) == lhs

    def test_cumulative_trace_small_case(self):
        a = Matrix(((1, NEG), (NEG, NEG)))
        b = Matrix(((NEG, 0), (0, NEG)))
        s = a + b
        sf = a.sf
        expected = sf.add(s.trace(), (s @ s).trace())
        assert enum_cumulative_trace(a, b, 2) == expected


class TestSamplers:
    def test_problems_validate(self):
        rng = random.Random(1)
        for kind in ProblemKind:
            for _ in range(20):
                sample_problem(rng, kind).validate()

    def test_schedules_validate(self):
        rng = random.Random(2)
        for _ in range(40):
            sample_schedule(rng).validate()


# -- the dense O(n^2)-per-point scan, kept as the reference -------------------
#
# A copy of the scan the incremental one replaced: every lattice point of
# the uncut window, every row recomputed, zeros stood in for by a fixed
# integer.  Data here stays far from that integer, so it is exact.

_REF_SENTINEL = -(10**15)
_SPAN_ONLY = (ProblemKind.BASIC, ProblemKind.LINEAR_CONSTRAINED)


def _vec(v):
    """Fraction entries, None for the zero; None for no vector."""
    if v is None:
        return None
    return [oracle._exact(x, v.sf.zero) for x in v.entries]


def _denoms(*structures):
    """The lcm of the denominators of Fractions, nested in lists."""
    out = 1
    for s in structures:
        if isinstance(s, Fraction):
            out = math.lcm(out, s.denominator)
        elif isinstance(s, list):
            out = math.lcm(out, _denoms(*s))
    return out


def _ref_scale_mat(m, scale):
    if m is None:
        return None
    return [[_REF_SENTINEL if v is None else int(v * scale) for v in row] for row in m]


def _ref_scale_vec(v, scale):
    if v is None:
        return None
    return [_REF_SENTINEL if x is None else int(x * scale) for x in v]


def _ref_axes(grid, scale):
    step = int(grid.step * scale)
    return [
        range(int(Fraction(lo) * scale), int(Fraction(up) * scale) + 1, step)
        for lo, up in zip(grid.lower.entries, grid.upper.entries)
    ]


def _ref_grid_minimize(problem, grid):
    n = problem.dim
    kind = problem.kind
    a, b = oracle._mat(problem.A), oracle._mat(problem.B)
    p, q = _vec(problem.p), _vec(problem.q)
    g, h = _vec(problem.g), _vec(problem.h)
    r = None if problem.r is None else oracle._exact(problem.r, problem.A.sf.zero)
    corners = [
        grid.step,
        [Fraction(v) for v in grid.lower.entries],
        [Fraction(v) for v in grid.upper.entries],
    ]
    scale = _denoms(a, b, p, q, g, h, r, *corners)
    a_s, b_s = _ref_scale_mat(a, scale), _ref_scale_mat(b, scale)
    p_s, q_s = _ref_scale_vec(p, scale), _ref_scale_vec(q, scale)
    g_s, h_s = _ref_scale_vec(g, scale), _ref_scale_vec(h, scale)
    r_s = _REF_SENTINEL if r is None else int(r * scale)
    check_fix = kind in (
        ProblemKind.LINEAR_CONSTRAINED,
        ProblemKind.GENERAL,
        ProblemKind.FIXPOINT_CONSTRAINED,
    )
    check_lower = g_s is not None and kind is not ProblemKind.FIXPOINT_CONSTRAINED
    check_upper = h_s is not None
    extended = kind not in _SPAN_ONLY
    rng_n = range(n)
    best = arg = None
    for xs in itertools.product(*_ref_axes(grid, scale)):
        if check_fix and any(
            max(b_s[i][j] + xs[j] for j in rng_n) > xs[i] for i in rng_n
        ):
            continue
        if check_lower and any(g_s[i] > xs[i] for i in rng_n):
            continue
        if check_upper and any(xs[i] > h_s[i] for i in rng_n):
            continue
        value = max(max(a_s[i][j] + xs[j] for j in rng_n) - xs[i] for i in rng_n)
        if extended:
            for i in rng_n:
                value = max(value, p_s[i] - xs[i], xs[i] - q_s[i])
            value = max(value, r_s)
        if best is None or value < best:
            best, arg = value, xs
    if best is None:
        raise NoFeasiblePoint("reference: no feasible point")
    return Fraction(best, scale), tuple(Fraction(x, scale) for x in arg)


def _ref_grid_minimize_schedule(spec, grid):
    n = spec.dim
    a, b = oracle._mat(spec.start_finish), oracle._mat(spec.start_start)
    g, h = _vec(spec.earliest_start), _vec(spec.latest_start)
    q, p = _vec(spec.window_lower), _vec(spec.window_upper)
    corners = [
        grid.step,
        [Fraction(v) for v in grid.lower.entries],
        [Fraction(v) for v in grid.upper.entries],
    ]
    scale = _denoms(a, b, g, h, q, p, *corners)
    a_s, b_s = _ref_scale_mat(a, scale), _ref_scale_mat(b, scale)
    g_s, h_s = _ref_scale_vec(g, scale), _ref_scale_vec(h, scale)
    q_s, p_s = _ref_scale_vec(q, scale), _ref_scale_vec(p, scale)
    rng_n = range(n)
    best = arg = None
    for xs in itertools.product(*_ref_axes(grid, scale)):
        if any(
            max(b_s[i][j] + xs[j] for j in rng_n) > xs[i]
            or g_s[i] > xs[i]
            or xs[i] > h_s[i]
            for i in rng_n
        ):
            continue
        worst = max(
            max(max(a_s[i][j] + xs[j] for j in rng_n), p_s[i]) - min(xs[i], q_s[i])
            for i in rng_n
        )
        if best is None or worst < best:
            best, arg = worst, xs
    if best is None:
        raise NoFeasiblePoint("reference: no feasible point")
    return Fraction(best, scale), tuple(Fraction(x, scale) for x in arg)


# points per axis, so that the dense reference stays cheap at every order
_AXIS_POINTS = {1: 24, 2: 11, 3: 6, 4: 4}


def _random_window(rng, n, g, h, center):
    """A lattice window of random step.  Half the windows hold the given
    center (when there is one) and half have a random anchor; about one
    in six lies wholly outside [g, h] on some axis, and the others often
    stick out of it."""
    step = rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
    size = _AXIS_POINTS[n]
    if center is not None and rng.random() < 0.5:
        lower = [Fraction(c) - rng.randint(0, size // 2) * step for c in center]
    else:
        anchor = rng.choice((0, 0, Fraction(1, 4), Fraction(-2, 3)))
        lower = [anchor + rng.randint(-6, 3) for _ in range(n)]
    upper = [
        lo + rng.randint(0, size) * step + rng.choice((0, Fraction(1, 5)))
        for lo in lower
    ]
    if rng.random() < 1 / 6:
        i = rng.randrange(n)
        if h is not None and (g is None or g[i] is None or rng.random() < 0.5):
            lower[i] = Fraction(h[i]) + rng.choice((Fraction(1, 3), 1, 2))
            upper[i] = lower[i] + rng.randint(0, 3) * step
        elif g is not None and g[i] is not None:
            upper[i] = Fraction(g[i]) - rng.choice((Fraction(1, 3), 1, 2))
            lower[i] = upper[i] - rng.randint(0, 3) * step
    return GridSpec(Vector(tuple(lower)), Vector(tuple(upper)), step)


def _outcome(scan, *args):
    try:
        best, arg = scan(*args)
    except NoFeasiblePoint:
        return "infeasible"
    return best, tuple(getattr(arg, "entries", arg))


def _bounds(*vectors):
    """Entries of each vector with None for zero; None for no vector."""
    return [
        None if v is None else [None if x == NEG else x for x in v.entries]
        for v in vectors
    ]


def _closed_form(solve):
    """The closed-form point's entries, None when the draw has none."""
    try:
        return solve().entries
    except TroptError:
        return None


def test_incremental_scan_matches_dense_reference():
    """(minimum, argmin) and NoFeasiblePoint agree with the dense scan on
    seeded draws of every kind and of schedules, n = 1..4."""
    rng = random.Random(20261018)
    outcomes = {"feasible": 0, "infeasible": 0}
    draws = 0
    for n in (1, 2, 3, 4):
        for kind in list(ProblemKind) + ["schedule"]:
            for _ in range(26):
                if kind == "schedule":
                    instance = sample_schedule(rng, n)
                    g, h = _bounds(instance.earliest_start, instance.latest_start)
                    scans = (grid_minimize_schedule, _ref_grid_minimize_schedule)
                    center = _closed_form(lambda: solve_schedule(instance).initiation)
                else:
                    instance = sample_problem(rng, kind, n)
                    g, h = _bounds(instance.g, instance.h)
                    scans = (grid_minimize, _ref_grid_minimize)
                    center = _closed_form(lambda: solve_problem(instance).canonical)
                grid = _random_window(rng, n, g, h, center)
                if kind in _SPAN_ONLY and all(
                    v == NEG for row in instance.A.rows for v in row
                ):
                    continue  # no finite term: the reference scores the sentinel
                got = _outcome(scans[0], instance, grid)
                assert got == _outcome(scans[1], instance, grid), (instance, grid)
                outcomes["infeasible" if got == "infeasible" else "feasible"] += 1
                draws += 1
    assert draws >= 600
    assert outcomes["infeasible"] >= 60 and outcomes["feasible"] >= 400, outcomes


def _thirds_and_sevenths(rng, x):
    """x with each finite entry v, of a Matrix, a Vector or a scalar,
    moved by 0, 1/3 or 5/7 at random."""
    def move(v):
        return v if v == NEG else v + rng.choice((0, Fraction(1, 3), Fraction(5, 7)))

    if isinstance(x, Matrix):
        return Matrix(tuple(tuple(map(move, row)) for row in x.rows))
    if isinstance(x, Vector):
        return Vector(tuple(map(move, x.entries)))
    return None if x is None else move(x)


def test_mixed_denominators_match_the_dense_reference():
    """Data in thirds and sevenths, on a window of step 1/12 whose
    corners hold both: (minimum, argmin) and NoFeasiblePoint agree with
    the dense scans, n = 1..3, every kind and schedules."""
    rng = random.Random(20261021)
    step = Fraction(1, 12)
    seen = {"feasible": 0, "infeasible": 0}
    for n in (1, 2, 3):
        for kind in list(ProblemKind) + ["schedule"]:
            for _ in range(8):
                if kind == "schedule":
                    base = sample_schedule(rng, n)
                    instance = dataclasses.replace(
                        base,
                        **{
                            f.name: _thirds_and_sevenths(rng, getattr(base, f.name))
                            for f in dataclasses.fields(base)
                            if f.name != "activities"
                        },
                    )
                    scans = (grid_minimize_schedule, _ref_grid_minimize_schedule)
                else:
                    base = sample_problem(rng, kind, n)
                    fields = ("A", "B", "p", "q", "g", "h", "r")
                    instance = dataclasses.replace(
                        base, **{f: _thirds_and_sevenths(rng, getattr(base, f)) for f in fields}
                    )
                    scans = (grid_minimize, _ref_grid_minimize)
                    if kind in _SPAN_ONLY and all(
                        v == NEG for row in instance.A.rows for v in row
                    ):
                        continue  # no finite term: the reference scores the sentinel
                lower = [Fraction(rng.randint(-4, 1)) + Fraction(1, 3) for _ in range(n)]
                lower[0] += Fraction(5, 7) - Fraction(1, 3)
                upper = [lo + {1: 30, 2: 10, 3: 5}[n] * step for lo in lower]
                grid = GridSpec(Vector(tuple(lower)), Vector(tuple(upper)), step)
                got = _outcome(scans[0], instance, grid)
                assert got == _outcome(scans[1], instance, grid), (instance, grid)
                seen["infeasible" if got == "infeasible" else "feasible"] += 1
    assert seen["feasible"] >= 60 and seen["infeasible"] >= 5, seen


# -- the closed-form scan against a literal one ------------------------------


def _literal_scan(axes, objective, constraints):
    """Every lattice point in lexicographic order, every term evaluated."""
    best = arg = None
    for point in itertools.product(*axes):
        x = point + (0,)
        if any(c + x[j] - x[i] > 0 for c, j, i in constraints):
            continue
        value = max(c + x[j] - x[i] for c, j, i in objective)
        if best is None or value < best:
            best, arg = value, point
    if best is None:
        raise NoFeasiblePoint("literal: no feasible point")
    return best, arg


def _slope(n, j, i):
    """The slope of c + x_j - x_i in (x_(n-2), x_(n-1))."""
    return ((j == n - 2) - (i == n - 2), (j == n - 1) - (i == n - 1))


def _random_terms(rng, n, count):
    """`count` terms (c, j, i), index n for no variable.  Half the time
    they come from a random subset of the slope classes only, so that
    whole classes go missing."""
    pairs = list(itertools.product(range(n + 1), repeat=2))
    if rng.random() < 0.5:
        kept = {_slope(n, j, i) for j, i in pairs if rng.random() < 0.5}
        pairs = [(j, i) for j, i in pairs if _slope(n, j, i) in kept] or [(n, n)]
    return [(rng.randint(-6, 6), *rng.choice(pairs)) for _ in range(count)]


def test_scan_matches_a_literal_scan():
    """(minimum, argmin) and NoFeasiblePoint of `_scan` agree with a
    point-by-point scan on random axes and terms, n = 1..4: empty and
    single-point axes, steps 1..3, terms of no variable and self-terms
    (c, i, i), constraints on x_(n-2) alone and empty slope classes."""
    rng = random.Random(20261019)
    points = {1: 16, 2: 9, 3: 6, 4: 4}
    seen = {"feasible": 0, "infeasible": 0, "no rise": 0, "no fall": 0, "no const": 0}
    for n in (1, 2, 3, 4):
        for _ in range(750):
            axes = []
            for _ in range(n):
                step, start = rng.randint(1, 3), rng.randint(-6, 4)
                size = rng.choice((0, 1, points[n] // 2) + (points[n],) * 5)
                axes.append(range(start, start + size * step, step))
            objective = _random_terms(rng, n, rng.randint(1, 6))
            constraints = _random_terms(rng, n, rng.choice((0, 1, 2, 4)))
            if n > 1 and rng.random() < 0.3:  # x_(n-2) alone, from either side
                constraints.append((rng.randint(-6, 6), n - 2, n))
                constraints.append((rng.randint(-6, 6), n, n - 2))
            got = _outcome(oracle._scan, axes, objective, constraints)
            want = _outcome(_literal_scan, axes, objective, constraints)
            assert got == want, (axes, objective, constraints)
            seen["infeasible" if got == "infeasible" else "feasible"] += 1
            slopes = {_slope(n, j, i)[1] for _, j, i in objective}
            for name, dt in (("no rise", 1), ("no fall", -1), ("no const", 0)):
                seen[name] += dt not in slopes
    assert min(seen.values()) >= 300, seen


def _v_terms(rng, n):
    """Constant terms p_i - x_i and x_i - q_i (q_i >= p_i) for i = 0 and
    i = n - 2: a V in x_0, which is a prefix axis for n >= 3, and in
    s = x_(n-2), so a best point found early rules out whole prefixes
    and cuts the s axis."""
    terms = []
    for i in {0, n - 2}:
        p = rng.randint(-4, 8)
        terms += [(p, n, i), (-(p + rng.randint(0, 3)), i, n)]
    return terms


def test_pruned_scan_matches_a_literal_scan_on_wide_axes():
    """On wide axes, where the bound skips prefixes and cuts the s axis,
    (minimum, argmin) and NoFeasiblePoint of `_scan` agree with a
    point-by-point scan, n = 2..4, with and without constraints."""
    rng = random.Random(20261020)
    draws = {2: 60, 3: 24, 4: 8}
    sizes = {2: (13, 25), 3: (13, 20), 4: (13, 13)}
    seen = {"feasible": 0, "infeasible": 0, "constrained": 0}
    for n, count in draws.items():
        for k in range(count):
            axes = []
            for _ in range(n):
                step, start = rng.randint(1, 2), rng.randint(-8, 0)
                axes.append(range(start, start + rng.randint(*sizes[n]) * step, step))
            objective = _v_terms(rng, n) + _random_terms(rng, n, rng.randint(0, 4))
            constraints = _random_terms(rng, n, rng.choice((1, 2, 3))) if k % 2 else []
            got = _outcome(oracle._scan, axes, objective, constraints)
            want = _outcome(_literal_scan, axes, objective, constraints)
            assert got == want, (axes, objective, constraints)
            seen["infeasible" if got == "infeasible" else "feasible"] += 1
            seen["constrained"] += bool(constraints)
    assert seen["feasible"] >= 60 and seen["infeasible"] >= 5, seen
    assert seen["constrained"] >= 40, seen


def test_the_bound_skips_prefixes(monkeypatch):
    """On a V in x_0 every x_0 builds the objective's lines, and a
    pruned one not the constraints': at least one line set per x_0 and
    fewer than two.  The answer is the literal scan's."""
    built = []
    lines = oracle._lines

    def counted(classes, values):
        built.append(values)
        return lines(classes, values)

    monkeypatch.setattr(oracle, "_lines", counted)
    axes = [range(0, 21), range(-10, 11), range(-10, 11)]
    objective = [(10, 3, 0), (-10, 0, 3), (0, 1, 2), (0, 2, 1), (-3, 1, 3)]
    constraints = [(-15, 1, 3), (-15, 2, 3)]
    got = _outcome(oracle._scan, axes, objective, constraints)
    assert got == _outcome(_literal_scan, axes, objective, constraints)
    prefixes = len(axes[0])
    assert prefixes < len(built) < 2 * prefixes, len(built)


# -- the incumbent seeded at the grid's centre -------------------------------


def _centre(axes):
    return tuple(axis[len(axis) // 2] for axis in axes)


def _random_axes(rng, n):
    """Nonempty axes of 2 to 7 points and step 1..3, so that the centre
    is an inner point or, on two points, the second one."""
    axes = []
    for _ in range(n):
        step, start = rng.randint(1, 3), rng.randint(-6, 4)
        axes.append(range(start, start + rng.randint(2, 7) * step, step))
    return axes


def test_an_optimal_centre_keeps_the_earlier_tie():
    """max(x_0 - c_0, 0, |x_i - c_i| for i >= 1) is 0 at the centre c
    and at every earlier x_0 with x_i = c_i: the argmin is the first of
    them, x_0 at the axis start, not the centre, n = 1..4, with and
    without constraints."""
    rng = random.Random(20261022)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            axes = _random_axes(rng, n)
            c = _centre(axes)
            objective = [(0, n, n), (-c[0], 0, n)]
            for i in range(1, n):
                objective += [(-c[i], i, n), (c[i], n, i)]
            # x_i <= c_i, which the tied points meet
            constraints = [(-c[i], i, n) for i in range(1, n) if rng.random() < 0.5]
            got = _outcome(oracle._scan, axes, objective, constraints)
            assert got == _outcome(_literal_scan, axes, objective, constraints)
            assert got == (0, (axes[0][0], *c[1:])), (axes, constraints)


def test_an_infeasible_centre_leaves_the_scan_unseeded():
    """A constraint x_k <= c_k - 1 rules out the centre: the answer is
    the literal scan's, n = 1..4."""
    rng = random.Random(20261023)
    seen = {"feasible": 0, "infeasible": 0}
    for n in (1, 2, 3, 4):
        for _ in range(60):
            axes = _random_axes(rng, n)
            k = rng.randrange(n)
            objective = _random_terms(rng, n, rng.randint(1, 5))
            constraints = [(1 - _centre(axes)[k], k, n)]
            constraints += _random_terms(rng, n, rng.choice((0, 1, 2)))
            got = _outcome(oracle._scan, axes, objective, constraints)
            assert got == _outcome(_literal_scan, axes, objective, constraints)
            seen["infeasible" if got == "infeasible" else "feasible"] += 1
    assert seen["feasible"] >= 150 and seen["infeasible"] >= 10, seen


def test_an_off_centre_window_finds_its_minimum():
    """The objective's V sits at a random point of the window, often on
    its edge, far from the centre: the answer is the literal scan's,
    n = 1..4."""
    rng = random.Random(20261024)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            axes = _random_axes(rng, n)
            target = [rng.choice((axis[0], axis[-1], rng.choice(axis))) for axis in axes]
            objective = []
            for i, v in enumerate(target):
                objective += [(-v, i, n), (v, n, i)]
            objective += _random_terms(rng, n, rng.randint(0, 3))
            constraints = _random_terms(rng, n, rng.choice((0, 1, 2)))
            got = _outcome(oracle._scan, axes, objective, constraints)
            assert got == _outcome(_literal_scan, axes, objective, constraints)
