import random
from collections import Counter
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
from tropt import linalg, optimize
from tropt.errors import TroptError
from tropt.optimize import _FIELDS, _tighten_box
from tropt.oracle import random_matrix, random_vector, sample_problem, sample_schedule
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
    # a finite r already decides the scale gate, so the only Karp pass a
    # General solve makes is theta's, on the bordered pair of order n+1;
    # lambda(A) would be a pass of order n through Matrix.spectral_radius
    calls = []
    kernel = linalg._max_cycle

    def counted(*factors):
        calls.append(factors[0].n_rows)
        return kernel(*factors)

    monkeypatch.setattr(linalg, "_max_cycle", counted)
    monkeypatch.setattr(optimize, "_max_cycle", counted)
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


# -- one bordered gate against the three separate formulas ---------------

GATED_KINDS = (
    ProblemKind.LINEAR_CONSTRAINED,
    ProblemKind.FIXPOINT_CONSTRAINED,
    ProblemKind.BOX_CONSTRAINED,
    ProblemKind.GENERAL,
)


def _failed_conditions(prob):
    """Every one of the three separate gate formulas that fails, in the
    order they were once checked: Tr(B) <= 1 on B*, then h^- B* g <= 1,
    or h^- g <= 1 without B."""
    sf = prob.A.sf
    b, g, h = prob.B, prob.g, prob.h
    bstar = None if b is None else b.star()
    failed = []
    if b is not None and not sf.leq_tol((b @ bstar).trace(), sf.one):
        failed.append("Tr(B) <= 1")
    if g is not None and h is not None:
        row = h.conj() if b is None else h.conj() @ bstar
        if not sf.leq_tol(row @ g, sf.one):
            failed.append("h^- g <= 1" if b is None else "h^- B* g <= 1")
    return failed


def _reference_outcome(prob):
    """(error class, condition) the separate gates and then the kind's
    no-cycle rule give, or None when the problem passes them all."""
    sf = prob.A.sf
    failed = _failed_conditions(prob)
    if failed:
        return InfeasibleConstraints, failed[0]
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
    sf = MaxPlus(eps=1e-9)
    prob = Problem(
        ProblemKind.GENERAL,
        A=Matrix(((0.0, NEG), (NEG, 0.0)), sf),
        B=Matrix(((NEG, weight), (NEG, NEG)), sf),
        p=Vector((0.0, 0.0), sf),
        q=Vector((0.0, 0.0), sf),
        g=Vector((NEG, 0.0), sf),
        h=Vector((0.0, 0.0), sf),
        r=0.0,
    )
    assert _failed_conditions(prob) == ([] if passes else ["h^- B* g <= 1"])
    assert _outcome(prob) == (None if passes else (InfeasibleConstraints, "h^- B* g <= 1"))


def test_feasible_general_solve_stars_twice(monkeypatch, general_problem):
    # one star of Bhat serves the gate and theta; the other is G
    calls = []
    star = Matrix.star

    def counted(self):
        calls.append(self.n_rows)
        return star(self)

    monkeypatch.setattr(Matrix, "star", counted)
    assert solve_problem(general_problem).minimum == frozen.THETA
    assert calls == [general_problem.dim + 1, general_problem.dim]


# -- theta from the factored pair; the family at theta's scale -------------


def _bordered_pair(prob: Problem) -> tuple[Matrix, Matrix]:
    """Bhat* and Ahat, as `solve_problem` builds them."""
    n, sf = prob.dim, prob.A.sf
    qc = None if prob.q is None else prob.q.conj()
    hc = None if prob.h is None else prob.h.conj()
    b_star = optimize._border(prob.B, n, sf, prob.g, hc, None).star()
    return b_star, optimize._border(prob.A, n, sf, prob.p, qc, prob.r)


def _in_floats(prob: Problem) -> Problem:
    """The same problem read as float mode reads it."""
    sf = MaxPlus(eps=1e-9)

    def conv(x):
        if x is None:
            return None
        if isinstance(x, Matrix):
            return Matrix(tuple(tuple(map(float, r)) for r in x.rows), sf)
        if isinstance(x, Vector):
            return Vector(tuple(map(float, x.entries)), sf)
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


def _unscaled_family(prob: Problem, theta):
    """G, the parameter box and the canonical point in the data's own
    arithmetic, theta^-1 (x) A (+) B with a Fraction theta, as the
    solvers built them before the family ran at theta's scale."""
    n, sf = prob.dim, prob.A.sf
    inv_t = sf.inv(theta)
    scaled = prob.A.scale(inv_t)
    gen = (scaled if prob.B is None else scaled + prob.B).star()
    lower = Vector.zeros(n, sf)
    if prob.p is not None:
        lower = lower + prob.p.scale(inv_t)
    if prob.g is not None:
        lower = lower + prob.g
    w = None if prob.q is None else prob.q.conj().scale(inv_t)
    if prob.h is not None:
        w = prob.h.conj() if w is None else w + prob.h.conj()
    upper = None if w is None else _tighten_box(lower, (w @ gen).conj())
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
