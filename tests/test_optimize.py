from fractions import Fraction

import pytest

import _frozen as frozen
from tropt import (
    DegenerateProblem,
    EmptyParameterBox,
    InfeasibleConstraints,
    Matrix,
    NotRegularVector,
    NotSquare,
    OptResult,
    Problem,
    ProblemKind,
    ScheduleSpec,
    ShapeMismatch,
    SolutionSet,
    Vector,
    ZeroSpectralRadius,
    build_problem,
    minimize_basic,
    minimize_box_constrained,
    minimize_extended,
    minimize_fixpoint_constrained,
    minimize_general,
    minimize_linear_constrained,
    objective_value,
    solve_problem,
    solve_schedule,
    verify_solution,
)
from tropt.errors import TroptError
from tropt.optimize import _FIELDS, _tighten_box
from tropt.semifield import MaxPlus

NEG = float("-inf")


def project_matrices():
    return Matrix(frozen.A_ROWS), Matrix(frozen.B_ROWS)


class TestBasic:
    def test_minimum_is_spectral_radius(self):
        res = minimize_basic(Matrix(((1, 3), (2, 0))))
        assert res.minimum == Fraction(5, 2)
        assert res.canonical.entries == (Fraction(1, 2), 0)
        assert res.solutions.upper is None

    def test_canonical_attains_it(self):
        a, _ = project_matrices()
        prob = Problem(ProblemKind.BASIC, A=a)
        res = solve_problem(prob)
        assert res.minimum == frozen.SPECTRAL_RADIUS_A
        assert objective_value(prob, res.canonical) == res.minimum

    def test_acyclic_matrix_rejected(self):
        with pytest.raises(ZeroSpectralRadius):
            minimize_basic(Matrix(((NEG, 3), (NEG, NEG))))


class TestExtended:
    def test_project_data(self):
        a, _ = project_matrices()
        res = minimize_extended(a, Vector(frozen.P), Vector(frozen.Q), 2)
        assert res.minimum == 4
        assert res.solutions.lower.entries == (0, 0, -1)
        assert res.solutions.upper.entries == (7, 6, 5)

    def test_root_term_can_dominate(self):
        # q^- p = 12 forces mu = 12^(1/2) = 6 over lambda = 1.
        a = Matrix(((1, NEG), (NEG, 1)))
        res = minimize_extended(a, Vector((6, 6)), Vector((-6, -6)), NEG)
        assert res.minimum == 6

    def test_requires_regular_q(self):
        a, _ = project_matrices()
        with pytest.raises(NotRegularVector):
            minimize_extended(a, Vector(frozen.P), Vector((3, NEG, 1)), 2)


class TestLinearConstrained:
    def test_project_data(self):
        a, b = project_matrices()
        prob = Problem(ProblemKind.LINEAR_CONSTRAINED, A=a, B=b, g=Vector(frozen.G))
        res = solve_problem(prob)
        assert res.minimum == 4
        assert res.solutions.generator.rows == frozen.GENERATOR
        assert res.solutions.lower.entries == frozen.G
        assert res.solutions.upper is None

    def test_trace_gate(self):
        a, _ = project_matrices()
        b = Matrix(((1, NEG, NEG), (NEG, NEG, NEG), (NEG, NEG, NEG)))
        prob = Problem(ProblemKind.LINEAR_CONSTRAINED, A=a, B=b, g=Vector(frozen.G))
        with pytest.raises(InfeasibleConstraints) as err:
            solve_problem(prob)
        assert err.value.condition == "Tr(B) <= 1"


class TestBoxConstrained:
    def test_two_activity_case(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((1, 2), (NEG, 0))),
            p=Vector((3, 1)),
            q=Vector((0, 1)),
            g=Vector((-1, -1)),
            h=Vector((2, 2)),
            r=0,
        )
        res = solve_problem(prob)
        assert res.minimum == Fraction(3, 2)
        assert res.canonical.entries == (Fraction(3, 2), Fraction(-1, 2))
        assert res.solutions.lower.entries == (Fraction(3, 2), Fraction(-1, 2))
        assert res.solutions.upper.entries == (Fraction(3, 2), 1)

    def test_empty_box_rejected(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((0,),)),
            p=Vector((0,)),
            q=Vector((0,)),
            g=Vector((5,)),
            h=Vector((0,)),
            r=0,
        )
        with pytest.raises(InfeasibleConstraints) as err:
            solve_problem(prob)
        assert err.value.condition == "h^- g <= 1"

    def test_degenerate_rejected(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((NEG,),)),
            p=Vector((NEG,)),
            q=Vector((0,)),
            g=Vector((0,)),
            h=Vector((1,)),
            r=NEG,
        )
        with pytest.raises(DegenerateProblem):
            solve_problem(prob)


class TestFixpointConstrained:
    def test_project_data(self):
        a, b = project_matrices()
        prob = Problem(
            ProblemKind.FIXPOINT_CONSTRAINED,
            A=a,
            B=b,
            p=Vector(frozen.P),
            q=Vector(frozen.Q),
            r=2,
        )
        res = solve_problem(prob)
        assert res.minimum == 4
        assert res.solutions.generator.rows == frozen.GENERATOR
        assert res.solutions.lower.entries == (0, 0, -1)
        assert res.solutions.upper.entries == (5, 6, 4)

    def test_trace_gate(self):
        b = Matrix(((2,),))
        prob = Problem(
            ProblemKind.FIXPOINT_CONSTRAINED,
            A=Matrix(((0,),)),
            B=b,
            p=Vector((0,)),
            q=Vector((0,)),
            r=0,
        )
        with pytest.raises(InfeasibleConstraints) as err:
            solve_problem(prob)
        assert err.value.condition == "Tr(B) <= 1"


class TestGeneral:
    def test_project_fixture(self, general_problem):
        res = solve_problem(general_problem)
        assert res.minimum == frozen.THETA
        assert res.canonical.entries == frozen.X_CANONICAL
        assert res.solutions.generator.rows == frozen.GENERATOR
        assert res.solutions.lower.entries == frozen.LOWER_U
        assert res.solutions.upper.entries == frozen.UPPER_U

    def test_box_feasibility_gate(self):
        prob = Problem(
            ProblemKind.GENERAL,
            A=Matrix(((0,),)),
            B=Matrix(((NEG,),)),
            p=Vector((0,)),
            q=Vector((0,)),
            g=Vector((5,)),
            h=Vector((0,)),
            r=0,
        )
        with pytest.raises(InfeasibleConstraints) as err:
            solve_problem(prob)
        assert err.value.condition == "h^- B* g <= 1"

    def test_chained_lower_bound_breaks_the_box(self):
        # B pushes g through an arc above h even though g <= h holds.
        prob = Problem(
            ProblemKind.GENERAL,
            A=Matrix(((0, 0), (0, 0))),
            B=Matrix(((NEG, 5), (NEG, NEG))),
            p=Vector((0, 0)),
            q=Vector((0, 0)),
            g=Vector((0, 0)),
            h=Vector((2, 2)),
            r=0,
        )
        with pytest.raises(InfeasibleConstraints) as err:
            solve_problem(prob)
        assert err.value.condition == "h^- B* g <= 1"


class TestValidation:
    def test_missing_field(self):
        a, b = project_matrices()
        prob = Problem(ProblemKind.LINEAR_CONSTRAINED, A=a, B=b)
        with pytest.raises(ValueError):
            prob.validate()

    def test_superfluous_field(self):
        a, _ = project_matrices()
        prob = Problem(ProblemKind.BASIC, A=a, p=Vector(frozen.P))
        with pytest.raises(ValueError):
            prob.validate()

    def test_dimension_mismatch(self):
        a, b = project_matrices()
        prob = Problem(ProblemKind.LINEAR_CONSTRAINED, A=a, B=b, g=Vector((0, 0)))
        with pytest.raises(ShapeMismatch):
            prob.validate()

    def test_non_square_rejected(self):
        prob = Problem(ProblemKind.BASIC, A=Matrix(((1, 2, 3), (4, 5, 6))))
        with pytest.raises(NotSquare):
            prob.validate()


class TestObjectiveValue:
    def test_span_only_kinds(self):
        a, _ = project_matrices()
        prob = Problem(ProblemKind.BASIC, A=a)
        x = Vector(frozen.X_CANONICAL)
        assert objective_value(prob, x) == 4

    def test_extended_terms(self, general_problem):
        x = Vector(frozen.X_CANONICAL)
        assert objective_value(general_problem, x) == frozen.THETA
        lopsided = Vector((0, -5, 5))
        assert objective_value(general_problem, lopsided) > frozen.THETA

    def test_rejects_irregular_point(self, general_problem):
        with pytest.raises(NotRegularVector):
            objective_value(general_problem, Vector((1, NEG, 1)))


class TestVerifySolution:
    def test_accepts_canonical(self, general_problem):
        res = solve_problem(general_problem)
        ok, reason = verify_solution(general_problem, res, res.canonical)
        assert ok and reason == ""

    def test_rejects_wrong_dimension(self, general_problem):
        res = solve_problem(general_problem)
        ok, reason = verify_solution(general_problem, res, Vector((0, 0)))
        assert not ok and "dimension" in reason

    def test_rejects_irregular_vector(self, general_problem):
        res = solve_problem(general_problem)
        ok, reason = verify_solution(general_problem, res, Vector((0, NEG, 0)))
        assert not ok and "regular" in reason

    def test_rejects_box_violation(self, general_problem):
        res = solve_problem(general_problem)
        scaled = 1 * res.canonical
        ok, reason = verify_solution(general_problem, res, scaled)
        assert not ok
        assert reason == "constraint x <= h violated"

    def test_rejects_fixpoint_violation(self):
        a, b = project_matrices()
        prob = Problem(
            ProblemKind.FIXPOINT_CONSTRAINED,
            A=a,
            B=b,
            p=Vector(frozen.P),
            q=Vector(frozen.Q),
            r=2,
        )
        res = solve_problem(prob)
        ok, reason = verify_solution(prob, res, Vector((0, 0, 0)))
        assert not ok
        assert reason == "constraint B x (+) g <= x violated"

    def test_rejects_lower_bound_violation(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((1, 2), (NEG, 0))),
            p=Vector((3, 1)),
            q=Vector((0, 1)),
            g=Vector((-1, -1)),
            h=Vector((2, 2)),
            r=0,
        )
        res = solve_problem(prob)
        ok, reason = verify_solution(prob, res, Vector((-5, 0)))
        assert not ok
        assert reason == "constraint g <= x violated"

    def test_rejects_wrong_objective(self):
        prob = Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((1, 2), (NEG, 0))),
            p=Vector((3, 1)),
            q=Vector((0, 1)),
            g=Vector((-1, -1)),
            h=Vector((2, 2)),
            r=0,
        )
        res = solve_problem(prob)
        ok, reason = verify_solution(prob, res, Vector((2, 2)))
        assert not ok
        assert reason == "objective differs from the minimum"

    def test_rejects_point_outside_family(self, general_problem):
        doctored = OptResult(
            minimum=frozen.THETA,
            solutions=SolutionSet(
                Matrix.identity(3), Vector((5, 5, 5)), upper=Vector((6, 6, 6))
            ),
            canonical=Vector((5, 5, 5)),
        )
        ok, reason = verify_solution(
            general_problem, doctored, Vector(frozen.X_CANONICAL)
        )
        assert not ok
        assert reason == "not in the solution family"


class TestDispatch:
    def test_every_kind_routes(self, general_problem):
        assert solve_problem(general_problem).minimum == frozen.THETA

    def test_validate_runs_first(self):
        a, _ = project_matrices()
        prob = Problem(ProblemKind.GENERAL, A=a)
        with pytest.raises(ValueError):
            solve_problem(prob)


# each case fails two gates; the earlier one in solve_problem's order wins
GATE_ORDER_CASES = [
    (
        Problem(
            ProblemKind.FIXPOINT_CONSTRAINED,
            A=Matrix(((0,),)),
            B=Matrix(((1,),)),
            p=Vector((0,)),
            q=Vector((NEG,)),
            r=0,
        ),
        NotRegularVector,
        None,
    ),
    (
        Problem(
            ProblemKind.GENERAL,
            A=Matrix(((0,),)),
            B=Matrix(((1,),)),
            p=Vector((0,)),
            q=Vector((0,)),
            g=Vector((5,)),
            h=Vector((0,)),
            r=0,
        ),
        InfeasibleConstraints,
        "Tr(B) <= 1",
    ),
    (
        Problem(
            ProblemKind.LINEAR_CONSTRAINED,
            A=Matrix(((NEG, 3), (NEG, NEG))),
            B=Matrix(((1, NEG), (NEG, NEG))),
            g=Vector((0, 0)),
        ),
        InfeasibleConstraints,
        "Tr(B) <= 1",
    ),
    (
        Problem(
            ProblemKind.BOX_CONSTRAINED,
            A=Matrix(((NEG,),)),
            p=Vector((NEG,)),
            q=Vector((0,)),
            g=Vector((5,)),
            h=Vector((0,)),
            r=NEG,
        ),
        InfeasibleConstraints,
        "h^- g <= 1",
    ),
]

MINIMIZERS = {
    ProblemKind.LINEAR_CONSTRAINED: minimize_linear_constrained,
    ProblemKind.GENERAL: minimize_general,
    ProblemKind.BOX_CONSTRAINED: minimize_box_constrained,
    ProblemKind.FIXPOINT_CONSTRAINED: minimize_fixpoint_constrained,
}


@pytest.mark.parametrize("prob, error, condition", GATE_ORDER_CASES)
def test_gate_order(prob, error, condition):
    fields = ("A",) + _FIELDS[prob.kind]
    args = [getattr(prob, name) for name in fields]
    for solve in (lambda: solve_problem(prob), lambda: MINIMIZERS[prob.kind](*args)):
        with pytest.raises(error) as err:
            solve()
        if condition is not None:
            assert err.value.condition == condition


def test_scale_gate_skips_spectral_radius_when_r_is_finite(monkeypatch, general_problem):
    # a finite r already decides the scale gate, so the only spectral
    # radius a General solve computes is the kernel's theta
    calls = []
    radius = Matrix.spectral_radius

    def counted(self):
        calls.append(self.n_rows)
        return radius(self)

    monkeypatch.setattr(Matrix, "spectral_radius", counted)
    solve_problem(general_problem)
    assert calls == [general_problem.dim + 1]


class TestParameterBox:
    def test_float_dust_is_absorbed(self):
        sf = MaxPlus(eps=1e-9)
        lower = Vector((1.0, 2.0), sf)
        with pytest.warns(RuntimeWarning):
            upper = _tighten_box(lower, Vector((1.0 - 1e-12, 5.0), sf))
        assert upper.entries == (1.0, 5.0)

    def test_empty_box_is_a_named_error(self):
        sf = MaxPlus(eps=1e-9)
        with pytest.raises(EmptyParameterBox) as err:
            _tighten_box(Vector((1.0, 2.0), sf), Vector((1.0, 1.5), sf))
        assert isinstance(err.value, TroptError)

    def test_widening_warning_names_the_caller(self):
        # float data near 1e8 whose upper parameter bound rounds to just
        # below the lower one; every entry point reports the line here
        sf = MaxPlus(eps=1e-9)
        spec = ScheduleSpec(
            start_finish=Matrix(
                ((280000000.9101924, 420000000.9589238), (NEG, 420000000.1159132)), sf
            ),
            start_start=Matrix(((NEG, NEG), (NEG, NEG)), sf),
            earliest_start=Vector((-279999999.58247805, 0.5736672878536785), sf),
            latest_start=Vector((-139999999.22216937, 140000000.48389688), sf),
            window_lower=Vector((420000000.3231373, -279999999.0496417), sf),
            window_upper=Vector((420000000.38515985, 140000000.49170455), sf),
        )
        prob = build_problem(spec)
        args = [getattr(prob, name) for name in ("A",) + _FIELDS[prob.kind]]
        for solve in (
            lambda: solve_schedule(spec),
            lambda: solve_problem(prob),
            lambda: minimize_general(*args),
        ):
            with pytest.warns(RuntimeWarning, match="parameter box widened") as record:
                solve()
            assert record[0].filename == __file__
