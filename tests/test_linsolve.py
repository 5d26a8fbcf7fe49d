import random

import pytest

import _frozen as frozen
from tropt import (
    Matrix,
    NoRegularSolution,
    NotColumnRegular,
    NotRegularVector,
    Problem,
    ProblemKind,
    ShapeMismatch,
    SolutionSet,
    Vector,
    solve_combined,
    solve_fixpoint_lower,
    solve_problem,
    solve_upper_bounded,
)
from tropt.oracle import random_matrix, random_trace_bounded, random_vector
from tropt.semifield import MaxPlus

NEG = float("-inf")


class TestUpperBounded:
    def test_greatest_solution_on_frozen_data(self):
        a = Matrix(frozen.A_ROWS)
        d = Vector((6, 6, 4))
        u = solve_upper_bounded(a, d)
        assert (a @ u).leq(d)
        assert u.entries == (2, 3, 1)

    def test_solution_is_greatest(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.choice((2, 3))
            a = random_matrix(rng, n, zero_p=0.2)
            if not a.is_column_regular():
                continue
            d = random_vector(rng, n)
            u = solve_upper_bounded(a, d)
            assert (a @ u).leq(d)
            for i in range(n):
                bumped = list(u.entries)
                bumped[i] = a.sf.mul(bumped[i], 1)
                assert not (a @ Vector(tuple(bumped))).leq(d)

    def test_rectangular_system(self):
        a = Matrix(((0, 1), (2, NEG), (NEG, 0)))
        d = Vector((5, 5, 5))
        u = solve_upper_bounded(a, d)
        assert u.entries == (3, 4)

    def test_column_regularity_required(self):
        a = Matrix(((1, NEG), (2, NEG)))
        with pytest.raises(NotColumnRegular):
            solve_upper_bounded(a, Vector((0, 0)))

    def test_regular_bound_required(self):
        a = Matrix(((1, 0), (0, 1)))
        with pytest.raises(NotRegularVector):
            solve_upper_bounded(a, Vector((0, NEG)))

    def test_shape_guard(self):
        a = Matrix(((1, 0), (0, 1)))
        with pytest.raises(ShapeMismatch):
            solve_upper_bounded(a, Vector((0, 0, 0)))


class TestFixpointLower:
    def test_family_on_frozen_data(self):
        b = Matrix(frozen.B_ROWS)
        g = Vector(frozen.G)
        sol = solve_fixpoint_lower(b, g)
        assert sol.generator.rows == frozen.B_STAR
        assert sol.lower == g
        assert sol.upper is None

    def test_members_satisfy_the_system(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.choice((2, 3))
            b = random_trace_bounded(rng, n)
            g = random_vector(rng, n)
            sol = solve_fixpoint_lower(b, g)
            u = random_vector(rng, n, lo=0, hi=5)
            x = sol.generator @ (g + u)
            assert (b @ x + g).leq(x)

    def test_gate(self):
        b = Matrix(((1, NEG), (NEG, NEG)))
        with pytest.raises(NoRegularSolution) as err:
            solve_fixpoint_lower(b, Vector((0, 0)))
        assert "Tr" in err.value.condition


class TestCombined:
    def test_frozen_bounds(self):
        b = Matrix(frozen.B_ROWS)
        sol = solve_combined(b, Vector(frozen.G), Vector(frozen.H))
        assert sol.generator.rows == frozen.B_STAR
        assert sol.lower.entries == frozen.G
        assert sol.upper.entries == (2, 3, 1)

    def test_every_generated_point_is_a_solution(self):
        rng = random.Random(21)
        checked = 0
        while checked < 200:
            n = rng.choice((2, 3))
            b = random_trace_bounded(rng, n)
            g = random_vector(rng, n, lo=-5, hi=0)
            d = random_vector(rng, n, lo=1, hi=6)
            try:
                sol = solve_combined(b, g, d)
            except NoRegularSolution:
                continue
            for u in (sol.lower, sol.upper, sol.lower.meet(sol.upper)):
                x = sol.generator @ u
                assert (b @ x + g).leq(x)
                assert x.leq(d)
            checked += 1

    def test_gate_names_the_condition(self):
        b = Matrix(((NEG, 3), (NEG, NEG)))
        with pytest.raises(NoRegularSolution) as err:
            solve_combined(b, Vector((4, 4)), Vector((0, 0)))
        assert "d^-" in err.value.condition

    def test_float_dust_widens_the_box(self):
        # 0.1 + 0.2 lies one ulp above 0.3, so (d^- A*)^- falls below b
        # by float dust; the box is widened, as solve does on the same
        # system posed as a BoxConstrained problem
        sf = MaxPlus()
        a = Matrix(((NEG,),), sf)
        b, d = Vector((0.1 + 0.2,), sf), Vector((0.3,), sf)
        with pytest.warns(RuntimeWarning, match="parameter box widened") as record:
            sol = solve_combined(a, b, d)
        assert record[0].filename == __file__
        assert sol.upper.entries == sol.lower.entries == (0.30000000000000004,)
        box = Problem(
            ProblemKind.BOX_CONSTRAINED, a, p=Vector((NEG,), sf),
            q=Vector((100.0,), sf), g=b, h=d, r=0.0,
        )
        with pytest.warns(RuntimeWarning, match="parameter box widened"):
            res = solve_problem(box)
        assert res.solutions.lower == sol.lower
        assert res.solutions.upper.entries == sol.upper.entries


class TestSolutionSet:
    def test_contains_respects_bounds(self):
        b = Matrix(frozen.B_ROWS)
        sol = solve_combined(b, Vector(frozen.G), Vector(frozen.H))
        inside = sol.generator @ sol.lower
        assert sol.contains(inside)
        assert not sol.contains(Vector((100, 100, 100)))

    def test_contains_rejects_wrong_dimension(self):
        sol = SolutionSet(Matrix.identity(2), Vector((0, 0)))
        assert not sol.contains(Vector((0, 0, 0)))

    def test_contains_rejects_irregular(self):
        sol = SolutionSet(Matrix.identity(2), Vector((0, 0)))
        assert not sol.contains(Vector((0, NEG)))

    def test_canonical_is_member(self):
        b = Matrix(frozen.B_ROWS)
        sol = solve_combined(b, Vector(frozen.G), Vector(frozen.H))
        assert sol.contains(sol.canonical())

    def test_canonical_lifts_zero_lower_entries(self):
        sol = SolutionSet(
            Matrix.identity(2), Vector((NEG, 1)), upper=Vector((5, 5))
        )
        assert sol.canonical().entries == (5, 1)

    def test_residual_recovers_parameters(self):
        b = Matrix(frozen.B_ROWS)
        sol = solve_combined(b, Vector(frozen.G), Vector(frozen.H))
        x = sol.generator @ sol.upper
        assert sol.generator @ sol.residual(x) == x

    def test_repr_is_the_dataclass_default(self):
        sol = SolutionSet(Matrix.identity(1), Vector((0,)))
        assert repr(sol) == (
            "SolutionSet(generator=Matrix([[0]]), lower=Vector([0]), "
            "upper=None, minimum=None)"
        )
