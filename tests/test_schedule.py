import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

import _frozen as frozen
from _perfbench import gen
from _samplers import sample_schedule
from tropt import (
    InfeasibleSchedule,
    Matrix,
    ProblemKind,
    ScheduleSpec,
    SpecValidation,
    TroptError,
    Vector,
    build_problem,
    collapse_solution_line,
    solve_problem,
    solve_schedule,
    solve_schedule_detailed,
)
from tropt import linalg, optimize, schedule, serialize

NEG = float("-inf")


class TestProjectFixture:
    def test_theta_and_canonical_plan(self, project_spec):
        res = solve_schedule(project_spec)
        assert res.theta == frozen.THETA
        assert res.initiation.entries == frozen.X_CANONICAL
        assert res.completion.entries == frozen.Y_COMPLETION
        assert res.adjusted_start.entries == frozen.S_ADJUSTED_START
        assert res.adjusted_finish.entries == frozen.T_ADJUSTED_FINISH
        assert res.flow_times == frozen.FLOW_TIMES
        assert res.activities == frozen.ACTIVITIES

    def test_solution_family(self, project_spec):
        res = solve_schedule(project_spec)
        assert res.solutions.generator.rows == frozen.GENERATOR
        assert res.solutions.lower == Vector(frozen.LOWER_U)
        assert res.solutions.upper == Vector(frozen.UPPER_U)

    def test_intermediates(self, project_spec):
        _, inter = solve_schedule_detailed(project_spec)
        assert inter["A_pow"]["2"].rows == frozen.A2
        assert inter["A_pow"]["3"].rows == frozen.A3
        assert inter["B_pow"]["2"].rows == frozen.B2
        assert inter["B_pow"]["3"].rows == frozen.B3
        assert inter["B_star"].rows == frozen.B_STAR
        assert inter["trace_sum_B"] == frozen.TRACE_SUM_B
        assert inter["h_Bstar_g"] == frozen.H_BSTAR_G
        assert [m.rows for m in inter["chain_sums"]] == [
            frozen.IDENTITY,
            frozen.CHAIN_1,
            frozen.CHAIN_2,
            frozen.A3,
        ]
        assert [m.rows for m in inter["closure_sums"]] == [
            frozen.B_STAR,
            frozen.CLOSURE_1,
            frozen.A2,
        ]
        for key, expected in (
            ("h_closure_g", frozen.H_CLOSURE_G),
            ("q_chain_g", frozen.Q_CHAIN_G),
            ("h_closure_p", frozen.H_CLOSURE_P),
            ("q_chain_p", frozen.Q_CHAIN_P),
        ):
            assert {int(k): v for k, v in inter[key].items()} == expected
        assert inter["sum_trace_roots"] == frozen.SUM_TRACE_ROOTS
        assert inter["sum_h_closure_g"] == frozen.SUM_H_CLOSURE_G
        assert inter["sum_q_chain_g"] == frozen.SUM_Q_CHAIN_G
        assert inter["sum_h_closure_p"] == frozen.SUM_H_CLOSURE_P
        assert inter["sum_q_chain_p"] == frozen.SUM_Q_CHAIN_P
        assert inter["theta"] == frozen.THETA
        assert inter["scaled_sum"].rows == frozen.SCALED_SUM
        assert inter["scaled_sum_pow"]["2"].rows == frozen.SCALED_SUM_SQ
        assert inter["generator"].rows == frozen.GENERATOR
        assert inter["lower_u"] == Vector(frozen.LOWER_U)
        assert inter["upper_u"] == Vector(frozen.UPPER_U)

    def test_collapse_line(self, project_spec):
        res = solve_schedule(project_spec)
        line = collapse_solution_line(res.solutions)
        assert line is not None
        direction, (low, high) = line
        assert direction.entries == frozen.COLLAPSE_DIRECTION
        assert (low, high) == frozen.COLLAPSE_INTERVAL

    def test_default_activity_names(self, project_spec):
        spec = ScheduleSpec(
            project_spec.start_finish,
            project_spec.start_start,
            project_spec.earliest_start,
            project_spec.latest_start,
            project_spec.window_lower,
            project_spec.window_upper,
        )
        res = solve_schedule(spec)
        assert res.activities == ("a1", "a2", "a3")


    def test_float_parse_runs_floats(self, fixtures_dir):
        text = (fixtures_dir / "three_activity_project.json").read_text()
        spec = serialize.parse_schedule(serialize.loads(text, exact=False), exact=False)
        parsed = [
            *(v for row in spec.start_finish.rows for v in row),
            *(v for row in spec.start_start.rows for v in row),
            *spec.earliest_start.entries,
            *spec.latest_start.entries,
            *spec.window_lower.entries,
            *spec.window_upper.entries,
        ]
        assert all(isinstance(v, float) for v in parsed)
        theta = solve_schedule(spec).theta
        assert isinstance(theta, float)
        assert abs(theta - 4) <= 1e-9


class TestSingleActivity:
    def test_window_floor_dominates(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((5,),)),
            start_start=Matrix(((NEG,),)),
            earliest_start=Vector((0,)),
            latest_start=Vector((10,)),
            window_lower=Vector((0,)),
            window_upper=Vector((6,)),
        )
        res = solve_schedule(spec)
        assert res.theta == 6
        assert res.initiation.entries == (0,)
        assert res.flow_times == (6,)
        assert res.solutions.lower.entries == (0,)
        assert res.solutions.upper.entries == (1,)
        line = collapse_solution_line(res.solutions)
        assert line is not None
        direction, (low, high) = line
        assert direction.entries == (0,)
        assert (low, high) == (0, 1)


class TestReduction:
    def test_fixture_reduction(self, project_spec, general_problem):
        reduced = build_problem(project_spec)
        assert reduced.kind is ProblemKind.GENERAL
        assert reduced.q == general_problem.q
        assert reduced.r == frozen.REDUCED_R
        assert solve_problem(reduced).minimum == frozen.THETA

    def test_random_agreement_with_reduced_route(self):
        rng = random.Random(77)
        solved = 0
        while solved < 100:
            spec = sample_schedule(rng)
            try:
                res = solve_schedule(spec)
            except InfeasibleSchedule:
                continue
            red = solve_problem(build_problem(spec))
            assert red.minimum == res.theta
            assert red.solutions.generator == res.solutions.generator
            assert red.solutions.lower == res.solutions.lower
            assert red.solutions.upper == res.solutions.upper
            solved += 1

    def test_flow_times_follow_from_the_plan(self):
        rng = random.Random(78)
        solved = 0
        while solved < 100:
            spec = sample_schedule(rng)
            try:
                res = solve_schedule(spec)
            except InfeasibleSchedule:
                continue
            x = res.initiation
            y = spec.start_finish @ x
            assert y == res.completion
            assert x.meet(spec.window_lower) == res.adjusted_start
            assert (y + spec.window_upper) == res.adjusted_finish
            assert max(res.flow_times) == res.theta
            solved += 1


class TestGates:
    def test_positive_cycle_in_precedences(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((1,),)),
            start_start=Matrix(((1,),)),
            earliest_start=Vector((0,)),
            latest_start=Vector((10,)),
            window_lower=Vector((0,)),
            window_upper=Vector((0,)),
        )
        with pytest.raises(InfeasibleSchedule) as err:
            solve_schedule(spec)
        assert err.value.condition == "Tr(B) <= 1"

    def test_deadline_window_conflict(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((1, 0), (0, 1))),
            start_start=Matrix(((NEG, 5), (NEG, NEG))),
            earliest_start=Vector((0, 0)),
            latest_start=Vector((2, 2)),
            window_lower=Vector((0, 0)),
            window_upper=Vector((1, 1)),
        )
        with pytest.raises(InfeasibleSchedule) as err:
            solve_schedule(spec)
        assert err.value.condition == "h^- B* g <= 1"


class TestSpecValidation:
    def test_problems_are_collected(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((1, NEG), (2, NEG))),
            start_start=Matrix(((NEG, NEG), (NEG, NEG))),
            earliest_start=Vector((0, 0)),
            latest_start=Vector((2, NEG)),
            window_lower=Vector((0, 0)),
            window_upper=Vector((NEG, 1)),
        )
        with pytest.raises(SpecValidation) as err:
            spec.validate()
        assert len(err.value.problems) >= 2

    def test_non_square_start_finish_stops_the_checks(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((1, 0),)),
            start_start=Matrix(((NEG,),)),
            earliest_start=Vector((0,)),
            latest_start=Vector((2,)),
            window_lower=Vector((0,)),
            window_upper=Vector((1,)),
        )
        with pytest.raises(SpecValidation) as err:
            spec.validate()
        assert err.value.problems == ["start-finish lag matrix must be square, order >= 1"]

    def test_vector_of_the_wrong_length_is_named(self):
        spec = ScheduleSpec(
            start_finish=Matrix(((1, 0), (0, 1))),
            start_start=Matrix(((NEG, NEG), (NEG, NEG))),
            earliest_start=Vector((0, 0)),
            latest_start=Vector((2, 2)),
            window_lower=Vector((0,)),
            window_upper=Vector((1, 1)),
        )
        with pytest.raises(SpecValidation) as err:
            spec.validate()
        assert err.value.problems == ["windowLower must have one entry per activity"]

    def test_dimension_conflicts_are_reported(self):
        with pytest.raises(SpecValidation):
            ScheduleSpec(
                start_finish=Matrix(((1, 0), (0, 1))),
                start_start=Matrix(((NEG,),)),
                earliest_start=Vector((0, 0)),
                latest_start=Vector((2, 2)),
                window_lower=Vector((0, 0)),
                window_upper=Vector((1, 1)),
            ).validate()

    def test_name_count_checked(self, project_spec):
        spec = ScheduleSpec(
            project_spec.start_finish,
            project_spec.start_start,
            project_spec.earliest_start,
            project_spec.latest_start,
            project_spec.window_lower,
            project_spec.window_upper,
            activities=("only", "two"),
        )
        with pytest.raises(SpecValidation):
            spec.validate()

    def test_names_must_be_distinct(self, project_spec):
        spec = ScheduleSpec(
            project_spec.start_finish,
            project_spec.start_start,
            project_spec.earliest_start,
            project_spec.latest_start,
            project_spec.window_lower,
            project_spec.window_upper,
            activities=("cut", "weld", "cut"),
        )
        with pytest.raises(SpecValidation) as err:
            spec.validate()
        assert err.value.problems == ["activity names must be distinct"]


class TestCollapseDetection:
    def test_full_rank_generator_has_no_line(self):
        from tropt import SolutionSet

        gen = Matrix(((0, NEG), (NEG, 0)))
        sol = SolutionSet(gen, Vector((0, 0)), upper=Vector((1, 1)))
        assert collapse_solution_line(sol) is None

    def test_unbounded_family_yields_open_interval(self):
        from tropt import SolutionSet, outer

        gen = outer(Vector((0, 1)), Vector((0, 1)).conj())
        sol = SolutionSet(gen, Vector((0, 0)))
        line = collapse_solution_line(sol)
        assert line is not None
        direction, (low, high) = line
        assert direction.entries == (-1, 0)
        assert low == 1
        assert high is None


# -- one exact path: the rewrite, the solve and y = A x on one scan ---------


def _spec_mapped(spec: ScheduleSpec, f) -> ScheduleSpec:
    """The spec with f applied to each finite entry."""
    def conv(x):
        if isinstance(x, Matrix):
            return Matrix(tuple(tuple(v if v == NEG else f(v) for v in r) for r in x.rows), x.sf)
        if isinstance(x, Vector):
            return Vector(tuple(v if v == NEG else f(v) for v in x.entries), x.sf)
        return x

    return dataclasses.replace(spec, **{fld.name: conv(getattr(spec, fld.name))
                                        for fld in dataclasses.fields(spec)})


def _numbers(res) -> tuple:
    """Every number of a schedule result, each finite one as a float:
    theta, x, y, s, t, the flow times, G and the parameter box."""
    def f(values):
        return tuple(v if v == NEG else float(v) for v in values)

    sols = res.solutions
    return (float(res.theta), f(res.initiation.entries), f(res.completion.entries),
            f(res.adjusted_start.entries), f(res.adjusted_finish.entries), f(res.flow_times),
            tuple(map(f, sols.generator.rows)), f(sols.lower.entries),
            sols.upper and f(sols.upper.entries))


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_float_schedules_give_the_rounded_exact_answer():
    # each finite entry times S plus a fraction in [-1/2, 1/2), as a
    # float: every number is the exact answer on those floats' values,
    # rounded once, and the float verdict is the exact one
    rng = random.Random(151)
    draws = [sample_schedule(rng, 1 + i % 6) for i in range(960)]
    draws += [serialize.parse_schedule(gen.feasible_schedule(rng, n).to_json())
              for n in (6, 12) for _ in range(30)]
    seen = Counter()
    for i, spec in enumerate(draws):
        scale = (1e-1, 1e3, 1.4e8)[i % 3]
        floats = _spec_mapped(spec, lambda v: float(v * scale + rng.random() - 0.5))
        exact = _spec_mapped(floats, Fraction)
        try:
            want = solve_schedule(exact)
        except TroptError as err:
            with pytest.raises(type(err)) as got:
                solve_schedule(floats)
            assert getattr(got.value, "condition", None) == getattr(err, "condition", None), i
            seen["infeasible"] += 1
            continue
        got = solve_schedule(floats)
        assert type(got.theta) is float, (i, floats)
        assert repr(_numbers(got)) == repr(_numbers(want)), (i, floats)
        seen[scale] += 1
        seen["n >= 6"] += spec.dim >= 6
    assert min(seen[s] for s in (1e-1, 1e3, 1.4e8)) > 100 and seen["n >= 6"] > 30, seen


@pytest.mark.parametrize("solve", [solve_schedule, solve_schedule_detailed])
def test_one_scan_of_the_spec_and_no_general_problem(monkeypatch, project_spec, solve):
    scanned = []

    def scan(items, zero):
        scanned.append(items)
        return linalg._scan(items, zero)

    def refuse(*args):
        raise AssertionError("the schedule went through a General Problem")

    monkeypatch.setattr(schedule, "_scan", scan)
    monkeypatch.setattr(optimize, "_scan", scan)
    monkeypatch.setattr(schedule, "build_problem", refuse)
    monkeypatch.setattr(optimize, "solve_problem", refuse)
    spec = project_spec
    solve(spec)
    assert [list(map(id, items)) for items in scanned] == [list(map(id, (
        spec.start_finish, spec.start_start, spec.window_upper,
        spec.window_lower, spec.earliest_start, spec.latest_start)))]


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_bordered_lists_are_the_tables_finite_entries(monkeypatch):
    # the schedule extends the spec's lists by the border instead of
    # listing the bordered pair again; Karp and the family read them
    # in order, so they must be `_finite` of the tables, order included
    checked = []

    def optimum(kind, scanned, dust):
        tables, lists, *_ = scanned
        assert lists == tuple(linalg._finite(t.rows, NEG) for t in tables)
        checked.append(kind)
        return real(kind, scanned, dust)

    real = schedule._optimum
    monkeypatch.setattr(schedule, "_optimum", optimum)
    rng = random.Random(153)
    for i in range(200):
        spec = sample_schedule(rng, 1 + i % 6)
        try:
            solve_schedule(_spec_mapped(spec, lambda v: v / 10) if i % 2 else spec)
        except InfeasibleSchedule:
            pass
    assert len(checked) == 200
