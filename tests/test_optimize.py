import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import _frozen as frozen
from _perfbench import gen as perfgen
from _samplers import (
    random_matrix,
    random_trace_bounded,
    random_vector,
    sample_problem,
    sample_schedule,
)
from tropt import (
    DegenerateProblem,
    EmptyParameterBox,
    InfeasibleConstraints,
    Matrix,
    NoRegularSolution,
    NotRegularVector,
    NotSquare,
    OptResult,
    Problem,
    ProblemKind,
    RowVector,
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
    solve_combined,
    solve_fixpoint_lower,
    solve_problem,
    solve_schedule,
    solve_schedule_detailed,
    verify_solution,
)
from tropt import linalg, linsolve, optimize
from tropt.errors import TroptError
from tropt.linsolve import _tighten_box
from tropt.optimize import _FIELDS
from tropt.oracle import max_cycle_mean
from tropt.semifield import MAXPLUS
from tropt.serialize import parse_problem

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

    def test_b_of_another_order(self):
        a, _ = project_matrices()
        prob = Problem(ProblemKind.LINEAR_CONSTRAINED, A=a, B=Matrix.identity(a.n_rows - 1),
                       g=Vector((0,) * a.n_rows))
        with pytest.raises(ShapeMismatch, match="B order differs from A"):
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
    # a finite r already decides the scale gate, so the only Karp pass a
    # General solve makes is theta's, relaxed through Bhat, on the
    # bordered pair of order n+1; lambda(A) would be a pass of order n
    # through Matrix.spectral_radius, which runs the same kernel
    calls = []
    kernel = linalg._karp

    def counted(tables, nzs, n, starred):
        calls.append((n, starred))
        return kernel(tables, nzs, n, starred)

    monkeypatch.setattr(linalg, "_karp", counted)
    monkeypatch.setattr(optimize, "_karp", counted)
    solve_problem(general_problem)
    assert calls == [(general_problem.dim + 1, True)]


@pytest.mark.parametrize("kind", ["ExtendedUnconstrained", "LinearConstrained"])
def test_cycle_gate_makes_no_karp_pass(monkeypatch, kind):
    # A's no-cycle gate is an O(n^2) acyclicity test on Ahat's finite
    # entries, so theta's walk is the solve's only Karp pass
    calls = []
    kernel = linalg._karp

    def counted(tables, nzs, n, starred):
        calls.append((n, starred))
        return kernel(tables, nzs, n, starred)

    monkeypatch.setattr(linalg, "_karp", counted)
    monkeypatch.setattr(optimize, "_karp", counted)
    doc = perfgen.feasible_problem(perfgen.instance_rng("cycle-gate", 12, 0), kind, 12)
    solve_problem(parse_problem(doc))
    assert calls == [(13, True)]


class TestParameterBox:
    def test_float_dust_is_absorbed(self):
        # ints at scale D = 2^52: upper falls short of lower by 2^12,
        # about 1e-12 of the data's values, within eps (x) D
        scale = 2**52
        lower = Vector((scale, 2 * scale))
        dust = Fraction(1e-9) * scale
        with pytest.warns(RuntimeWarning):
            upper = _tighten_box(lower, Vector((scale - 2**12, 5 * scale)), dust)
        assert upper.entries == (scale, 5 * scale)
        with pytest.raises(EmptyParameterBox):
            _tighten_box(lower, Vector((scale - 2**12, 5 * scale)), 0)

    def test_empty_box_is_a_named_error(self):
        with pytest.raises(EmptyParameterBox) as err:
            _tighten_box(Vector((1.0, 2.0)), Vector((1.0, 1.5)), 1e-9)
        assert isinstance(err.value, TroptError)

    def test_widening_warning_names_the_caller(self):
        # the dust cycle of `test_float_gate_tolerance` passes its gate
        # and leaves the parameter box empty by dust; every entry point
        # reports the line here
        zeros = Vector((0.0, 0.0))
        spec = ScheduleSpec(
            start_finish=Matrix(((0.0, NEG), (NEG, 0.0))),
            start_start=Matrix(((NEG, 1e-16), (NEG, NEG))),
            earliest_start=Vector((NEG, 0.0)),
            latest_start=zeros,
            window_lower=zeros,
            window_upper=zeros,
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


# -- one bordered gate against the three separate formulas ---------------

GATED_KINDS = (
    ProblemKind.LINEAR_CONSTRAINED,
    ProblemKind.FIXPOINT_CONSTRAINED,
    ProblemKind.BOX_CONSTRAINED,
    ProblemKind.GENERAL,
)


def _at_most_one(v) -> bool:
    """v <= one, a float within the default eps of 1e-9."""
    return v <= (1e-9 if isinstance(v, float) else 0)


def _failed_conditions(prob):
    """Every one of the three separate gate formulas that fails, in the
    order they were once checked: Tr(B) <= 1 on B*, then h^- B* g <= 1,
    or h^- g <= 1 without B."""
    b, g, h = prob.B, prob.g, prob.h
    bstar = None if b is None else b.star()
    failed = []
    if b is not None and not _at_most_one((b @ bstar).trace()):
        failed.append("Tr(B) <= 1")
    if g is not None and h is not None:
        row = h.conj() if b is None else h.conj() @ bstar
        if not _at_most_one(row @ g):
            failed.append("h^- g <= 1" if b is None else "h^- B* g <= 1")
    return failed


def _reference_outcome(prob):
    """(error class, condition) the separate gates and then the kind's
    no-cycle rule give, or None when the problem passes them all."""
    failed = _failed_conditions(prob)
    if failed:
        return InfeasibleConstraints, failed[0]
    sf = MAXPLUS
    if prob.kind is ProblemKind.LINEAR_CONSTRAINED:
        if sf.is_zero(prob.A.spectral_radius()):
            return ZeroSpectralRadius, None
    elif sf.is_zero(sf.add(sf.power(prob.q.conj() @ prob.p, Fraction(1, 2)), prob.r)):
        if sf.is_zero(prob.A.spectral_radius()):
            return DegenerateProblem, None
    return None


def _outcome(prob):
    try:
        solve_problem(prob)
    except (InfeasibleConstraints, ZeroSpectralRadius, DegenerateProblem) as err:
        return type(err), getattr(err, "condition", None)
    return None


def _gate_draw(rng, kind):
    """Integer draw with an untrimmed B (its cycles are often positive)
    and g, h drawn apart, so that they often cross."""
    n = rng.randint(1, 5)
    need = _FIELDS[kind]
    fields = {"A": random_matrix(rng, n, zero_p=0.3)}
    if "B" in need:
        fields["B"] = random_matrix(rng, n, zero_p=0.5, hi=rng.choice((5, 1, -1)))
    for name, zero_p in (("p", 0.2), ("q", 0.0), ("g", 0.2), ("h", 0.0)):
        if name in need:
            fields[name] = random_vector(rng, n, zero_p=zero_p)
    if "r" in need:
        fields["r"] = rng.choice((NEG, rng.randint(-5, 5)))
    return Problem(kind, **fields)


def test_bordered_gate_matches_the_separate_formulas():
    rng = random.Random(808)
    seen = Counter()
    for i in range(1200):
        prob = _gate_draw(rng, GATED_KINDS[i % len(GATED_KINDS)])
        want = _reference_outcome(prob)
        assert _outcome(prob) == want, prob
        seen[want] += 1
    for condition in ("Tr(B) <= 1", "h^- B* g <= 1", "h^- g <= 1"):
        assert seen[InfeasibleConstraints, condition] >= 50, seen
    assert seen[None] >= 200, seen


def test_both_conditions_failing_name_the_trace():
    prob = Problem(
        ProblemKind.GENERAL,
        A=Matrix(((0, NEG, NEG), (NEG, 1, NEG), (NEG, NEG, 2))),
        B=Matrix(((NEG, 1, NEG), (NEG, NEG, 1), (1, NEG, NEG))),
        p=Vector((0, 0, 0)),
        q=Vector((0, 0, 0)),
        g=Vector((3, NEG, NEG)),
        h=Vector((0, 0, 0)),
        r=0,
    )
    assert _failed_conditions(prob) == ["Tr(B) <= 1", "h^- B* g <= 1"]
    assert _outcome(prob) == (InfeasibleConstraints, "Tr(B) <= 1")


def test_positive_cycle_through_every_node_of_the_border():
    # the cycle border -> 0 -> 1 -> 2 -> border weighs -h_0 + 1 + 1 + g_2
    # = 1; every shorter cycle through the border weighs at most 0, and
    # B alone is acyclic
    prob = Problem(
        ProblemKind.GENERAL,
        A=Matrix(((0, NEG, NEG), (NEG, 0, NEG), (NEG, NEG, 0))),
        B=Matrix(((NEG, 1, NEG), (NEG, NEG, 1), (NEG, NEG, NEG))),
        p=Vector((0, 0, 0)),
        q=Vector((0, 0, 0)),
        g=Vector((NEG, NEG, -1)),
        h=Vector((0, 0, 0)),
        r=0,
    )
    assert _failed_conditions(prob) == ["h^- B* g <= 1"]
    assert _outcome(prob) == (InfeasibleConstraints, "h^- B* g <= 1")
    # lowering h_0 by the cycle's weight makes it the heaviest, at 0
    feasible = Problem(**{**prob.__dict__, "h": Vector((1, 0, 0))})
    assert _failed_conditions(feasible) == []
    assert _outcome(feasible) is None


# a passing dust cycle leaves a parameter box that is empty by dust too
@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
@pytest.mark.parametrize("weight, passes", [(1e-16, True), (1e-6, False)])
def test_float_gate_tolerance(weight, passes):
    # one cycle border -> 0 -> 1 -> border of weight -h_0 + B_01 + g_1
    prob = Problem(
        ProblemKind.GENERAL,
        A=Matrix(((0.0, NEG), (NEG, 0.0))),
        B=Matrix(((NEG, weight), (NEG, NEG))),
        p=Vector((0.0, 0.0)),
        q=Vector((0.0, 0.0)),
        g=Vector((NEG, 0.0)),
        h=Vector((0.0, 0.0)),
        r=0.0,
    )
    assert _failed_conditions(prob) == ([] if passes else ["h^- B* g <= 1"])
    assert _outcome(prob) == (None if passes else (InfeasibleConstraints, "h^- B* g <= 1"))


def test_feasible_general_solve_stars_once(monkeypatch, general_problem):
    # Karp's walk relaxes through Bhat, which settles: no closure of
    # Bhat; the one Floyd-Warshall pass is the family's, over the
    # bordered theta^-1 Ahat (+) Bhat with pivots at the n activities
    calls = []
    kernel = linalg._floyd_warshall

    def counted(d, stop, start=0):
        calls.append((len(d), start, stop))
        return kernel(d, stop, start)

    # the read-off looks the kernel up in linalg; any other pass, there
    # or in optimize, would be counted too
    for module in (linalg, optimize):
        monkeypatch.setattr(module, "_floyd_warshall", counted)
    assert solve_problem(general_problem).minimum == frozen.THETA
    n = general_problem.dim
    assert calls == [(n + 1, 0, n)]


def test_feasible_general_solve_scans_its_data_once(monkeypatch):
    # a feasible int General solve walks each bordered matrix once: the
    # scan builds their finite-entry lists and keeps the int tables as
    # they are; Karp reads those lists and builds none, and nothing else
    # in the solve builds any
    doc = perfgen.feasible_problem(perfgen.instance_rng("one-scan", 12, 0), "General", 12)
    prob = parse_problem(doc)
    events = []
    scan, kernel, finite = linalg._scan, linalg._karp, linalg._finite

    def scanned(matrices):
        out = scan(matrices)
        kept = all(x is y for x, y in zip(out[0], matrices))
        events.append(("scan", [m.n_rows for m in matrices], kept, out[1]))
        return out

    def counted(tables, nzs, n, starred):
        events.append(("karp", nzs))
        return kernel(tables, nzs, n, starred)

    def built(rows):
        events.append(("finite", len(rows)))
        return finite(rows)

    for module in (linalg, optimize):
        monkeypatch.setattr(module, "_scan", scanned)
        monkeypatch.setattr(module, "_karp", counted)
        monkeypatch.setattr(module, "_finite", built)
    result = solve_problem(prob)
    assert result.solutions.generator.n_rows == 12
    assert [event[0] for event in events] == ["scan", "karp"], events
    (_, orders, kept, lists), (_, read) = events
    assert orders == [13, 13] and kept
    assert len(read) == 2 and all(x is y for x, y in zip(read, lists))


class _PowerSum(Exception):
    pass


# the dust cycle passes its gate, and leaves a parameter box empty by dust
@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_no_solver_reaches_the_power_sum(monkeypatch):
    # every positive-cycle gate reads the Floyd-Warshall pass itself
    def refused(self, m):
        raise _PowerSum

    monkeypatch.setattr(Matrix, "power", refused)
    a, zeros = Matrix(((0, NEG), (NEG, 0))), Vector((0, 0))

    def general(b, g):
        return Problem(ProblemKind.GENERAL, a, Matrix(b), zeros, zeros, g, zeros, 0)

    cases = [
        (general(((NEG, 1), (1, NEG)), zeros), "Tr(B) <= 1"),
        (Problem(ProblemKind.LINEAR_CONSTRAINED, a, Matrix(((1, NEG), (NEG, NEG))), g=zeros),
         "Tr(B) <= 1"),
        (general(((NEG, 1), (NEG, NEG)), Vector((NEG, 0))), "h^- B* g <= 1"),
        (Problem(ProblemKind.BOX_CONSTRAINED, a, None, zeros, zeros, Vector((1, 0)), zeros, 0),
         "h^- g <= 1"),
    ]
    for prob, condition in cases:
        assert _outcome(prob) == (InfeasibleConstraints, condition)
    cyclic = Matrix(((NEG, 1), (0, NEG)))
    with pytest.raises(NoRegularSolution, match=r"^Tr\(A\) <= 1$"):
        solve_fixpoint_lower(cyclic, zeros)
    with pytest.raises(NoRegularSolution, match=r"^Tr\(A\) \(\+\) d\^- A\* b <= 1$"):
        solve_combined(cyclic, zeros, zeros)
    test_float_gate_tolerance(1e-16, True)
    assert random_trace_bounded(random.Random(17), 4).trace_sum() <= 0
    # the public truncated star still takes the power sum past a positive cycle
    with pytest.raises(_PowerSum):
        cyclic.star()


# -- theta from the factored pair; the family at theta's scale -------------


def _star_and_cycle(m: Matrix) -> tuple[Matrix, object]:
    """(m*, heaviest cycle weight) off `linalg._family`'s one pass over
    m bordered by zeros, in m's own arithmetic."""
    n = m.n_rows
    table = [list(r) for r in linalg._border(m, n, None, None, None).rows]
    cycle, star, _, _ = linalg._family(table, n)
    return star, cycle


def _bordered_pair(prob: Problem) -> tuple[Matrix, Matrix]:
    """Bhat* and Ahat, as `solve_problem` builds them."""
    n = prob.dim
    qc = None if prob.q is None else prob.q.conj()
    hc = None if prob.h is None else prob.h.conj()
    b_star = optimize._border(prob.B, n, prob.g, hc, None).star()
    return b_star, optimize._border(prob.A, n, prob.p, qc, prob.r)


def _in_floats(prob: Problem) -> Problem:
    """The same problem read as float mode reads it."""

    def conv(x):
        if x is None:
            return None
        if isinstance(x, Matrix):
            return Matrix(tuple(tuple(map(float, r)) for r in x.rows))
        if isinstance(x, Vector):
            return Vector(tuple(map(float, x.entries)))
        return float(x)

    fields = ("A", "B", "p", "q", "g", "h", "r")
    return Problem(prob.kind, *(conv(getattr(prob, f)) for f in fields))


def test_theta_from_the_factored_pair_matches_the_product():
    rng = random.Random(109)
    kinds = list(ProblemKind)
    fractional = 0
    for i in range(600):
        prob = sample_problem(rng, kinds[i % len(kinds)], rng.randint(2, 6))
        for p in (prob, _in_floats(prob)):
            b_star, a_hat = _bordered_pair(p)
            got = linalg._max_cycle(b_star, a_hat)[0]
            want = (b_star @ a_hat).spectral_radius()
            # exact: equal values of equal type; float: the same bits
            assert repr(got) == repr(want), (i, p)
        fractional += type(got) is float and not float(got).is_integer()
    assert fractional > 50


def _answer(prob: Problem):
    """What `solve_problem` gives, as text: the error and its message,
    or the minimum and the family, types included."""
    try:
        res = solve_problem(prob)
    except (TroptError, ValueError) as err:
        return type(err).__name__, str(err)
    sols = res.solutions
    return repr((res.minimum, sols.generator.rows, sols.lower, sols.upper, res.canonical))


def _closure_path_answer(prob: Problem, monkeypatch):
    """`_answer` with theta's relaxed walk replaced by the closure path:
    Bhat's closure gates, and Karp runs on (Bhat*, Ahat).  The walk the
    solver starts must reach the patch, or the answer would be the
    relaxed path's own."""
    kernel, hits = linalg._karp, []

    def closed(tables, nzs, n, starred):
        if not starred:
            return kernel(tables, nzs, n, False)
        hits.append(n)
        b_star, cycle = _star_and_cycle(Matrix._built(tables[0]))
        if cycle > 0:
            return None
        lists = (linalg._finite(b_star.rows), nzs[1])
        return kernel((b_star.rows, tables[1]), lists, n, False)

    with monkeypatch.context() as m:
        m.setattr(optimize, "_karp", closed)
        answer = _answer(prob)
    assert hits == [prob.dim + 1], (hits, prob)
    return answer


def _mapped(prob: Problem, f) -> Problem:
    """The problem with f(field, i, j, entry) applied to each finite
    entry (j None for vectors, i and j None for r)."""
    zero = MAXPLUS.zero

    def conv(name, x):
        if x is None:
            return None
        if isinstance(x, Matrix):
            return Matrix(tuple(
                tuple(w if w == zero else f(name, i, j, w) for j, w in enumerate(r))
                for i, r in enumerate(x.rows)))
        if isinstance(x, Vector):
            return Vector(tuple(w if w == zero else f(name, i, None, w)
                                for i, w in enumerate(x.entries)))
        return x if x == zero else f(name, None, None, x)

    fields = ("A", "B", "p", "q", "g", "h", "r")
    return Problem(prob.kind, *(conv(name, getattr(prob, name)) for name in fields))


def _shifted(prob: Problem, d) -> Problem:
    """The problem in the variables x_i + d_i: a_ij and b_ij gain
    d_i - d_j, and p, q, g, h gain d_i.  Every cycle of Ahat (+) Bhat
    keeps its weight, so the verdict and theta stay, while the walk
    values through Bhat carry offsets the size of d."""
    def f(name, i, j, w):
        if name == "r":
            return w
        return w + d[i] - (0 if j is None else d[j])

    return _mapped(prob, f)


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_theta_relaxed_through_bhat_matches_the_closure_path(monkeypatch):
    # 600 sample draws and 200 untrimmed-B gate draws, which add
    # infeasible ones, then 600 more sample draws, since most walks now
    # exit early on the finite support; each also in turn with its data
    # divided by 3 or by 10, or moved to offsets of 1e9 or 1e16 by a
    # change of variables
    rng = random.Random(113)
    kinds = list(ProblemKind)
    draws = [sample_problem(rng, kinds[i % 6], rng.randint(2, 6)) for i in range(600)]
    draws += [_gate_draw(rng, GATED_KINDS[i % len(GATED_KINDS)]) for i in range(200)]
    more = random.Random(114)
    draws += [sample_problem(more, kinds[i % 6], more.randint(2, 6)) for i in range(600)]
    early = []
    tail = linalg._cycle_mean

    def recording(tables, steps, v):
        early.append(isinstance(steps, itertools.repeat))
        return tail(tables, steps, v)

    monkeypatch.setattr(linalg, "_cycle_mean", recording)
    seen = Counter()
    for i, base in enumerate(draws):
        n = base.dim
        big = rng.choice((10**9, 10**16))
        d = [rng.choice((0, big, -big, 3 * big)) + rng.randint(-5, 5) for _ in range(n)]
        label, moved = (
            ("thirds", lambda: _mapped(base, lambda *a: Fraction(a[-1], 3))),
            ("tenths", lambda: _mapped(base, lambda *a: Fraction(a[-1], 10))),
            ("offset", lambda: _shifted(base, d)),
        )[i % 3]
        for label, prob in (("whole", base), (label, moved())):
            got = _answer(prob)
            assert got == _closure_path_answer(prob, monkeypatch), (i, label, prob)
            # a change of variables keeps the verdict, its condition and theta
            if label == "offset":
                assert _outcome(prob) == _outcome(base), (i, prob)
            qc = None if prob.q is None else prob.q.conj()
            hc = None if prob.h is None else prob.h.conj()
            b_hat = optimize._border(prob.B, n, prob.g, hc, None)
            a_hat = optimize._border(prob.A, n, prob.p, qc, prob.r)
            b_star, cycle = _star_and_cycle(b_hat)
            del early[:]
            found = linalg._max_cycle(b_hat, a_hat, starred=True)
            full = early == [False]
            if found is None:
                # settling decides the gate exactly
                assert cycle > 0, (i, label, prob)
                seen["infeasible"] += 1
                continue
            assert cycle <= 0, (i, label, prob)
            lam, nodes = found
            assert repr(lam) == repr(linalg._max_cycle(b_star, a_hat)[0]), (i, label, prob)
            # the witness is a cycle of Bhat* Ahat with mean theta
            prod = (b_star @ a_hat).rows
            arcs = [prod[u][v] for u, v in zip(nodes, nodes[1:] + nodes[:1])]
            mean = MAXPLUS.power(sum(arcs[1:], arcs[0]), Fraction(1, len(nodes))) if nodes else NEG
            assert repr(mean) == repr(lam), (i, label, prob, nodes)
            seen["fractional"] += Fraction(lam).denominator > 1 if nodes else 0
            seen["full formula"] += full
            seen[label] += 1
    assert seen["infeasible"] > 300 and seen["fractional"] > 400, seen
    assert seen["full formula"] > 600, seen
    assert min(seen["thirds"], seen["tenths"], seen["offset"]) > 150, seen


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_float_data_gate_on_the_closure(monkeypatch):
    zeros = Vector((0.0, 0.0, 0.0))
    a = Matrix(((NEG, NEG, NEG), (NEG, 5.0, NEG), (NEG, NEG, NEG)))

    def linear(b01, b12, b21=0.0):
        b = Matrix(((NEG, b01, NEG), (NEG, NEG, b12), (NEG, b21, NEG)))
        return Problem(ProblemKind.LINEAR_CONSTRAINED, a, b, g=zeros)

    # the cycle 1 -> 2 -> 1 gains less than half a unit in the last place
    # of the walk value 1e16 (or 1e9) that reaches it: a relaxation in
    # floats would round the gain away and settle, one on the exact ints
    # does not
    for offset, weight in ((1e16, 1.0), (1e9, 3e-8)):
        assert _outcome(linear(offset, weight)) == (InfeasibleConstraints, "Tr(B) <= 1")
    # 0.2 + 0.1 - 0.1 rounds above 0.2, so a relaxation in floats would
    # raise node 1 around the zero cycle 1 -> 2 -> 1 again and again; on
    # the exact ints the cycle weighs 0 and the walk settles
    zero_cycle = linear(0.2, 0.1, -0.1)
    assert linalg._relax([0.0] * 3, linalg._finite(zero_cycle.B.rows)) is None
    assert solve_problem(zero_cycle).minimum == 5.0
    # the starred flag of each Karp walk the solver starts
    kernel, starred = linalg._karp, []

    def counted(tables, nzs, n, flag):
        starred.append(flag)
        return kernel(tables, nzs, n, flag)

    def theta(prob):
        try:
            return solve_problem(prob).minimum
        except EmptyParameterBox:
            return None
        except (InfeasibleConstraints, ZeroSpectralRadius, DegenerateProblem) as err:
            return type(err), getattr(err, "condition", None)

    monkeypatch.setattr(optimize, "_karp", counted)
    # the dust cycle stops the relaxed walk and passes the closure's
    # gate, and Karp then runs on (Bhat*, Ahat); the near-range pair
    # settles in the relaxed walk
    two = Vector((0.0, 0.0))
    dust = Problem(
        ProblemKind.GENERAL, Matrix(((0.0, NEG), (NEG, 0.0))),
        Matrix(((NEG, 1e-16), (NEG, NEG))), two, two, Vector((NEG, 0.0)), two, 0.0)
    near = Problem(
        ProblemKind.FIXPOINT_CONSTRAINED, Matrix(((0.0, NEG), (NEG, 1e308))),
        Matrix(((NEG, 1e308), (NEG, NEG))), two, two, r=0.0)
    assert theta(dust) == 2e-16 and theta(near) == 1e308
    assert starred == [True, False, True]
    # every float draw, whole at offsets of 1e9 or in tenths, starts the
    # relaxed walk, and every one gets the exact draw's verdict; whole
    # data at 1e9 are exact in floats, so theta is the exact one, up to
    # its one rounding
    rng = random.Random(131)
    kinds = list(ProblemKind)
    seen = Counter()
    for i in range(400):
        if i % 2:
            base = sample_problem(rng, kinds[i % 6], rng.randint(2, 5))
        else:
            base = _gate_draw(rng, GATED_KINDS[i % len(GATED_KINDS)])
        d = [rng.choice((0, 10**9, -10**9)) + rng.randint(-5, 5) for _ in range(base.dim)]
        want = theta(base)
        del starred[:]
        offset = theta(_in_floats(_shifted(base, d)))
        tenths = theta(_mapped(_in_floats(base), lambda *a: a[-1] / 10))
        assert starred.count(True) == 2, (i, base)
        if type(want) is tuple:
            assert offset == tenths == want, (i, base)
            seen["gated"] += 1
            continue
        assert type(offset) is not tuple and type(tenths) is not tuple, (i, base)
        if offset is not None:
            assert abs(offset - want) < 1e-12, (i, base)
            seen["offset"] += 1
        if tenths is not None:
            assert abs(tenths * 10 - want) < 1e-9, (i, base)
            seen["tenths"] += 1
    assert min(seen.values()) > 100, seen


def test_infeasible_float_data_weigh_their_cycles_in_one_pass(monkeypatch):
    # infeasible draws as whole floats, in tenths and at 1.4e8 plus a
    # fraction: each names the exact draw's condition, from one pass
    # over one copy of Bhat's table, pivots at the activities
    passes = []
    kernel = linalg._floyd_warshall

    def counted(d, stop, start=0):
        passes.append((id(d), len(d), start, stop))
        return kernel(d, stop, start)

    monkeypatch.setattr(linalg, "_floyd_warshall", counted)
    monkeypatch.setattr(optimize, "_floyd_warshall", counted)
    rng = random.Random(157)
    seen = Counter()
    for i in range(600):
        base = _gate_draw(rng, GATED_KINDS[i % len(GATED_KINDS)])
        n = base.dim
        label = ("whole", "tenths", "1.4e8")[i % 3]
        if label == "whole":
            floats, exact = _in_floats(base), base
        elif label == "tenths":
            # the dust tolerance reads float tenths as the decimals they stand for
            floats, exact = _mapped(_in_floats(base), lambda *a: a[-1] / 10), base
        else:
            floats = _mapped(_in_floats(base), lambda *a: a[-1] * 1.4e8 + rng.random())
            exact = _exact_values(floats)
        want = _outcome(exact)
        del passes[:]
        got = _outcome(floats)
        assert got == want, (i, label, floats)
        if got is None or got[0] is not InfeasibleConstraints:
            continue
        table = passes[0][0] if passes else None
        assert passes == [(table, n + 1, 0, n)], (i, label, passes)
        seen[label] += 1
        seen[got[1]] += 1
    assert min(seen.values()) > 40, seen


def test_infeasible_exact_data_weigh_their_cycles_in_one_pass(monkeypatch):
    # every condition, from draws with B, g and h all given and from
    # draws that lack B, g or h: one pass over Bhat's table, pivots at
    # the activities, names the separate formulas' condition
    passes = []
    kernel = linalg._floyd_warshall

    def counted(d, stop, start=0):
        passes.append((len(d), start, stop))
        return kernel(d, stop, start)

    for module in (linalg, optimize):
        monkeypatch.setattr(module, "_floyd_warshall", counted)
    rng = random.Random(167)
    seen = Counter()
    for i in range(800):
        prob = _gate_draw(rng, GATED_KINDS[i % len(GATED_KINDS)])
        want = _reference_outcome(prob)
        del passes[:]
        assert _outcome(prob) == want, (i, prob)
        if want is None or want[0] is not InfeasibleConstraints:
            continue
        assert passes == [(prob.dim + 1, 0, prob.dim)], (i, prob, passes)
        given = "B, g, h" if None not in (prob.B, prob.g, prob.h) else "one absent"
        seen[want[1], given] += 1
    for condition in ("Tr(B) <= 1", "h^- B* g <= 1"):
        assert seen[condition, "B, g, h"] >= 30, seen
    for condition in ("Tr(B) <= 1", "h^- g <= 1"):
        assert seen[condition, "one absent"] >= 30, seen


def _unscaled_family(prob: Problem, theta):
    """G, the parameter box and the canonical point in the data's own
    arithmetic, theta^-1 (x) A (+) B with a Fraction theta, as the
    solvers built them before the family ran at theta's scale."""
    n = prob.dim
    inv_t = MAXPLUS.inv(theta)
    scaled = prob.A.scale(inv_t)
    gen = (scaled if prob.B is None else scaled + prob.B).star()
    lower = Vector.zeros(n)
    if prob.p is not None:
        lower = lower + prob.p.scale(inv_t)
    if prob.g is not None:
        lower = lower + prob.g
    w = None if prob.q is None else prob.q.conj().scale(inv_t)
    if prob.h is not None:
        w = prob.h.conj() if w is None else w + prob.h.conj()
    upper = None if w is None else _tighten_box(lower, (w @ gen).conj(), 0)
    canonical = SolutionSet(generator=gen, lower=lower, upper=upper).canonical()
    return gen, lower, upper, canonical


@pytest.mark.parametrize("kind", [k.value for k in ProblemKind] + ["schedule"])
def test_fractional_theta_family_matches_the_unscaled_path(kind):
    rng = random.Random(f"fractional/{kind}")
    found = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        if kind == "schedule":
            prob = build_problem(sample_schedule(rng, n))
        else:
            prob = sample_problem(rng, ProblemKind(kind), n)
        try:
            result = solve_problem(prob)
        except TroptError:
            continue
        if type(result.minimum) is not Fraction:
            continue
        sols = result.solutions
        gen, lower, upper, canonical = _unscaled_family(prob, result.minimum)
        assert sols.generator.rows == gen.rows, prob
        assert sols.lower.entries == lower.entries, prob
        assert (sols.upper is None) == (upper is None), prob
        assert upper is None or sols.upper.entries == upper.entries, prob
        assert result.canonical.entries == canonical.entries, prob
        # the scaled star ran in ints: no entry carries a whole Fraction
        entries = [v for r in sols.generator.rows for v in r] + list(result.canonical.entries)
        assert not any(isinstance(v, Fraction) and v.denominator == 1 for v in entries)
        found += 1
        if found == 8:
            break
    assert found == 8


# -- decimal and float data on the one integer path ------------------------


def _draw(rng, source, n):
    """A sample draw of one of the six kinds, or a schedule's General
    rewrite."""
    if source == "schedule":
        return build_problem(sample_schedule(rng, n))
    return sample_problem(rng, ProblemKind(source), n)


def _unscaled_answer(prob: Problem):
    """The answer in the data's own arithmetic, with no common scale:
    Bhat's closure gates, theta is the best cycle mean of Bhat* Ahat by
    cycle enumeration, and the family is `_unscaled_family`'s; the gate
    condition alone for an infeasible draw."""
    n = prob.dim
    qc = None if prob.q is None else prob.q.conj()
    hc = None if prob.h is None else prob.h.conj()
    b_star, cycle = _star_and_cycle(optimize._border(prob.B, n, prob.g, hc, None))
    if cycle > 0:
        return InfeasibleConstraints
    theta = max_cycle_mean(b_star @ optimize._border(prob.A, n, prob.p, qc, prob.r))
    gen, lower, upper, canonical = _unscaled_family(prob, theta)
    return theta, gen.rows, lower.entries, upper and upper.entries, canonical.entries


def test_decimal_data_match_the_unscaled_path():
    # tenths, hundredths, and each objective entry over its own
    # denominator with the constraints in tenths: every value is the one
    # the data's own Fractions give
    sources = [k.value for k in ProblemKind] + ["schedule"]
    rng = random.Random(137)
    seen = Counter()
    for i in range(420):
        base = _draw(rng, sources[i % 7], rng.randint(2, 6))
        label = ("tenths", "hundredths", "mixed")[i % 3]
        if label == "mixed":
            # B, g and h keep their feasibility in tenths
            prob = _mapped(base, lambda f, i, j, w: Fraction(
                w, rng.choice((2, 3, 7, 12, 100)) if f in "Apqr" else 10))
        else:
            prob = _mapped(base, lambda *a: Fraction(a[-1], 10 if label == "tenths" else 100))
        try:
            res = solve_problem(prob)
        except InfeasibleConstraints:
            assert _unscaled_answer(prob) is InfeasibleConstraints, (i, prob)
            seen["infeasible"] += 1
            continue
        except TroptError:
            continue
        sols = res.solutions
        got = (res.minimum, sols.generator.rows, sols.lower.entries,
               sols.upper and sols.upper.entries, res.canonical.entries)
        assert got == _unscaled_answer(prob), (i, label, prob)
        seen[label] += 1
        seen["fractional"] += Fraction(res.minimum).denominator > 1
    assert min(seen.values()) > 30, seen


def _exact_values(prob: Problem) -> Problem:
    """The float problem with each finite entry as the Fraction it is."""
    return _mapped(prob, lambda *a: Fraction(a[-1]))


def _rounded(res) -> tuple:
    """minimum, generator, box and canonical point of an exact answer,
    each finite value rounded to the nearest float once."""
    def f(values):
        return tuple(v if v == NEG else float(v) for v in values)

    sols = res.solutions
    return (float(res.minimum), tuple(map(f, sols.generator.rows)), f(sols.lower.entries),
            sols.upper and f(sols.upper.entries), f(res.canonical.entries))


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_float_data_give_the_rounded_exact_answer():
    # each finite entry times S plus a random fraction, in floats: the
    # float answer is the exact answer on those floats' values, rounded
    # once, and the float verdict is the exact one
    sources = [k.value for k in ProblemKind] + ["schedule"]
    rng = random.Random(139)
    seen = Counter()
    for i in range(1050):
        scale = (1e-1, 1e3, 1.4e8)[i % 3]
        base = _draw(rng, sources[i // 3 % 7], rng.randint(2, 6))
        floats = _mapped(_in_floats(base), lambda *a: a[-1] * scale + rng.random())
        exact = _exact_values(floats)
        radius = floats.A.spectral_radius()
        want = exact.A.spectral_radius()
        assert repr(radius) == repr(NEG if want == NEG else float(want)), (i, floats)
        try:
            res = solve_problem(exact)
        except TroptError as err:
            assert _outcome(floats) == (type(err), getattr(err, "condition", None)), (i, floats)
            seen["error"] += 1
            continue
        got = solve_problem(floats)
        assert repr(_rounded(got)) == repr(_rounded(res)), (i, floats)
        seen[scale] += 1
    assert min(seen.values()) > 100 and seen[1e-1] + seen[1e3] + seen[1.4e8] > 500, seen


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-9])
def test_solvers_reject_a_bad_eps(eps, general_problem, project_spec):
    message = f"^--epsilon must be finite and at least 0, got {eps}$"
    b, g, h = general_problem.B, general_problem.g, general_problem.h
    for call in (lambda: solve_problem(general_problem, eps=eps),
                 lambda: solve_schedule(project_spec, eps=eps),
                 lambda: solve_schedule_detailed(project_spec, eps=eps),
                 lambda: solve_fixpoint_lower(b, g, eps=eps),
                 lambda: solve_combined(b, g, h, eps=eps)):
        with pytest.raises(ValueError, match=message):
            call()


def test_found_repro_verifies():
    # at 1.4e8 one ulp is about 3e-8: an absolute 1e-9 rejected this
    # correctly rounded answer
    prob = parse_problem({"kind": "ExtendedUnconstrained", "A": [[0]], "p": [140000000.1],
                          "q": [0.3], "r": 0}, exact=False)
    res = solve_problem(prob)
    assert (res.minimum, res.canonical.entries) == (69999999.89999999, (70000000.2,))
    assert verify_solution(prob, res, res.canonical) == (True, "")


def _stated_bound(n: int, *items) -> Fraction:
    """The checks' bound on float data, in the data's units:
    1e-9 (n + 1) max(1, the largest finite magnitude of the items)."""
    top = 1
    for x in items:
        rows = x.rows if isinstance(x, Matrix) else (x.entries,) if x is not None else ()
        top = max([top] + [abs(Fraction(v)) for r in rows for v in r if v != NEG])
    return Fraction(1, 10**9) * (n + 1) * top


def _excess(prob: Problem, theta, x: Vector):
    """How far x, on exact data, breaks a constraint or exceeds the
    minimum theta: the largest of those differences."""
    worst = objective_value(prob, x) - theta
    lhs = prob.B @ x if prob.B is not None else None
    if prob.g is not None:
        lhs = prob.g if lhs is None else lhs + prob.g
    pairs = [] if lhs is None else list(zip(lhs.entries, x.entries))
    pairs += [] if prob.h is None else list(zip(x.entries, prob.h.entries))
    return max([worst] + [a - b for a, b in pairs if a != NEG])


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_checks_accept_float_answers_and_reject_beyond_the_bound():
    # feasible draws with each finite datum v as the float v S + U[-1/2,
    # 1/2), S = 1e-1, 1e3 or 1.4e8: `verify_solution` and `contains`
    # accept the canonical point and members G u, box corners included,
    # and reject a point whose exact excess over a constraint or the
    # minimum is above twice the bound, which puts it more than the
    # bound from every member
    rng = random.Random(157)
    kinds = [k.value for k in ProblemKind]
    seen = Counter()
    for i in range(960):
        scale = (1e-1, 1e3, 1.4e8)[i % 3]
        doc = perfgen.feasible_problem(rng, kinds[i // 3 % 6], rng.choice((3, 5, 8)))
        floats = _mapped(parse_problem(doc, exact=False),
                         lambda *a: a[-1] * scale + rng.random() - 0.5)
        try:
            res, exact = solve_problem(floats), solve_problem(_exact_values(floats))
        except TroptError:
            seen["error"] += 1
            continue
        sols, n = res.solutions, floats.dim
        # the box from the corner the canonical point lifts to, zeros of
        # the lower bound at the upper one or at one, to its far corner
        up = sols.upper.entries if sols.upper is not None else (None,) * n
        lift = [u if lo == NEG else lo for lo, u in zip(sols.lower.entries, up)]
        lift = [0.0 if v is None else v for v in lift]
        top = [v + 3 * scale if u is None else u for v, u in zip(lift, up)]
        members = [res.canonical]
        if NEG not in lift + top:
            for t in (1.0, rng.random(), rng.random()):
                u = Vector(tuple(lo + t * (hi - lo) for lo, hi in zip(lift, top)))
                members.append(sols.generator @ u)
        for x in members:
            assert verify_solution(floats, res, x) == (True, ""), (i, floats, x)
            assert sols.contains(x), (i, floats, x)
            seen["members"] += 1
        bound = _stated_bound(n, floats.A, floats.B, floats.p, floats.q, floats.g, floats.h,
                              sols.generator, sols.lower, sols.upper, res.canonical,
                              Vector((res.minimum,)))
        for k in (3, -3, 30, -30):
            j = rng.randrange(n)
            moved = list(res.canonical.entries)
            moved[j] += float(k * bound)
            x = Vector(tuple(moved))
            if _excess(_exact_values(floats), exact.minimum, _exact_values_of(x)) > 2.5 * bound:
                assert not verify_solution(floats, res, x)[0], (i, floats, x)
                assert not sols.contains(x), (i, floats, x)
                seen["outside"] += 1
        seen[scale] += 1
    assert min(seen[s] for s in (1e-1, 1e3, 1.4e8)) > 140, seen
    assert sum(seen[s] for s in (1e-1, 1e3, 1.4e8)) >= 600, seen
    assert seen["members"] > 2000 and seen["outside"] > 1000, seen


def _exact_values_of(x: Vector) -> Vector:
    return Vector(tuple(v if v == NEG else Fraction(v) for v in x.entries))


# -- the family read off one Floyd-Warshall pass ----------------------------


def _three_pass(prob: Problem):
    """theta, G, the parameter box and the canonical point by the
    paper's formulas, one pass each, on the ints `solve_problem` scales
    the data to: theta = lambda(Bhat* Ahat), G = (theta^-1 A (+) B)*,
    theta^-1 p (+) g <= u <= ((theta^-1 q^- (+) h^-) G)^- tightened,
    and `SolutionSet.canonical`, all divided once by l D.  Returns
    their repr and the branches taken (a zero in the lower bound,
    l > 1, float data), or None when Bhat has a positive cycle."""
    n = prob.dim
    zero = MAXPLUS.zero
    qc = None if prob.q is None else prob.q.conj()
    hc = None if prob.h is None else prob.h.conj()
    pair = (optimize._border(prob.B, n, prob.g, hc, None),
            optimize._border(prob.A, n, prob.p, qc, prob.r))
    (b_hat, a_hat), _, scale, floating = linalg._scan(pair)
    if _star_and_cycle(b_hat)[1] > 0:
        return None
    w, ell = (b_hat.star() @ a_hat).spectral_radius().as_integer_ratio()

    def split(m):
        """Corner, last column and last row of a bordered matrix, times l."""
        rows = [[v if v == zero else v * ell for v in r] for r in m.rows]
        return (Matrix([r[:n] for r in rows[:n]]), Vector([r[n] for r in rows[:n]]),
                RowVector(rows[n][:n]))

    a, p, q_c = split(a_hat)
    b, g, h_c = split(b_hat)
    gen = (a.scale(-w) + b).star()
    lower = p.scale(-w) + g
    row = q_c.scale(-w) + h_c
    dust = Fraction(1e-9) * ell * scale if floating else 0
    upper = None if row.is_zero() else _tighten_box(lower, (row @ gen).conj(), dust)
    canonical = SolutionSet(generator=gen, lower=lower, upper=upper).canonical()
    answer = linalg._unscale((w, gen, lower, upper, canonical), ell * scale, floating)
    return repr(answer), zero in lower.entries, ell > 1, floating


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_one_pass_family_matches_the_three_pass_formulas():
    # 1,050 sample draws and perfbench draws at orders 12 and 48, each
    # kind with int, decimal and float data: the solver's theta, G, box
    # and canonical point are those of the three passes, types included
    rng = random.Random(149)
    kinds = list(ProblemKind)
    draws = [(kinds[i % 6], (i // 6) % 3, sample_problem(rng, kinds[i % 6], rng.randint(2, 6)))
             for i in range(1050)]
    for n in (12, 48):
        for index, kind in enumerate(perfgen.KINDS):
            doc = perfgen.feasible_problem(perfgen.instance_rng("family-pass", n, index), kind, n)
            draws += [(ProblemKind(kind), data, parse_problem(doc)) for data in range(3)]
    seen = Counter()
    for i, (kind, data, base) in enumerate(draws):
        if data == 1:
            prob = _mapped(base, lambda *a: Fraction(a[-1], 10))
        elif data == 2:
            prob = _in_floats(base)
            if i % 2:
                prob = _mapped(prob, lambda *a: a[-1] / 10)
        else:
            prob = base
        try:
            res = solve_problem(prob)
        except TroptError:
            seen["gated"] += 1
            continue
        want = _three_pass(prob)
        if want is None:
            # a dust cycle of float data passed the gate: G is no star there
            assert data == 2, (i, prob)
            seen["dust"] += 1
            continue
        sols = res.solutions
        got = repr((res.minimum, sols.generator, sols.lower, sols.upper, res.canonical))
        assert got == want[0], (i, prob)
        zero_lower, fractional, floating = want[1:]
        seen["zero in lower" if zero_lower else "regular lower"] += 1
        seen["l > 1"] += fractional
        seen["float"] += floating
        seen[kind, data] += 1
    assert all(seen[kind, data] >= 20 for kind in kinds for data in range(3)), seen
    assert min(seen["zero in lower"], seen["regular lower"], seen["l > 1"],
               seen["float"]) > 100, seen



# -- Karp's early exit on the finite support -------------------------------


@pytest.mark.parametrize("kind, steps", [
    ("Basic", [5, 13, 13, 11, 3, 7, 5, 5]),
    ("LinearConstrained", [2, 2, 3, 2, 3, 2, 2, 2]),
])
def test_karp_exits_on_the_finite_support(monkeypatch, kind, steps):
    # the border node has no arc into it in Bhat* Ahat for these kinds,
    # so D_k is never finite everywhere, and the walk ran all 13 steps;
    # it now exits once D_k grows by one constant where it is finite.
    # Each step relaxes once through Bhat
    counts = []
    relax = linalg._relax

    def counted(*args):
        counts[-1] += 1
        return relax(*args)

    monkeypatch.setattr(linalg, "_relax", counted)
    for i in range(len(steps)):
        doc = perfgen.feasible_problem(perfgen.instance_rng("karp-support", 12, i), kind, 12)
        counts.append(0)
        solve_problem(parse_problem(doc))
    assert counts == steps


def _karp_formula(m: Matrix):
    """lambda(m) by Karp's formula with every step of the walk taken, in
    Fractions: the max over v of the min over k < N of
    (D_N(v) - D_k(v)) / (N - k), finite terms only."""
    rows, size = m.rows, m.n_rows
    walks = [[Fraction(0)] * size]
    for _ in range(size):
        d = walks[-1]
        walks.append([
            max((d[u] + Fraction(rows[u][v]) for u in range(size)
                 if d[u] != NEG and rows[u][v] != NEG), default=NEG)
            for v in range(size)
        ])
    return max(
        (min((walks[size][v] - walks[k][v]) / (size - k)
             for k in range(size) if walks[k][v] != NEG)
         for v in range(size) if walks[size][v] != NEG),
        default=NEG,
    )


def test_theta_and_witness_where_the_walk_exits_on_the_support(monkeypatch):
    exits = Counter()
    tail = linalg._cycle_mean

    def recording(tables, steps, v):
        if isinstance(steps, itertools.repeat):
            exits["early"] += 1
        return tail(tables, steps, v)

    monkeypatch.setattr(linalg, "_cycle_mean", recording)
    rng = random.Random(139)
    kinds = (ProblemKind.BASIC, ProblemKind.LINEAR_CONSTRAINED)
    for i in range(400):
        prob = sample_problem(rng, kinds[i % 2], rng.randint(2, 6))
        try:
            theta = solve_problem(prob).minimum
        except (InfeasibleConstraints, ZeroSpectralRadius, DegenerateProblem):
            continue
        exits[prob.kind] += 1
        b_star, a_hat = _bordered_pair(prob)
        product = b_star @ a_hat
        assert theta == _karp_formula(product), (i, prob)
        b_hat = optimize._border(prob.B, prob.dim, prob.g, None, None)
        lam, nodes = linalg._max_cycle(b_hat, a_hat, starred=True)
        arcs = [product.rows[u][v] for u, v in zip(nodes, nodes[1:] + nodes[:1])]
        assert lam == theta == Fraction(sum(arcs), len(arcs)), (i, prob, nodes)
    assert min(exits[kinds[0]], exits[kinds[1]]) > 100 and exits["early"] > 300, exits


def test_objective_value_names_a_point_of_the_wrong_size():
    prob = Problem(ProblemKind.BASIC, Matrix(((0, 1, 2), (2, 3, 4), (1, 1, 1))))
    with pytest.raises(ShapeMismatch) as info:
        objective_value(prob, Vector((1, 2)))
    assert str(info.value) == "x dim 2, order 3"
