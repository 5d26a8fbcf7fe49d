import random
from collections import Counter
from fractions import Fraction

import pytest

import _frozen as frozen
from _samplers import random_matrix, random_trace_bounded, random_vector
from tropt import (
    MAXPLUS,
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
from tropt import linalg, linsolve, optimize

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
        sf = MAXPLUS
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

    def test_contains_rejects_a_residual_above_the_box(self):
        # x = G u for u = x, inside the lower bound but above upper
        sol = SolutionSet(Matrix.identity(2), Vector((0, 0)), upper=Vector((1, 1)))
        assert sol.contains(Vector((1, 0)))
        assert not sol.contains(Vector((2, 0)))

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

    def test_equality_compares_every_field(self):
        g = Matrix(((0, 1), (NEG, 0)))
        assert 2 * g == g.scale(2)
        assert (2 * g).rows == ((2, 3), (NEG, 2))

        def family(gen=g, lower=(0, 1), upper=(2, 3), minimum=4):
            up = None if upper is None else Vector(upper)
            return SolutionSet(gen, Vector(lower), up, minimum)

        base = family()
        assert base == family()
        assert base != family(gen=2 * g)
        assert base != family(lower=(0, 2))
        assert base != family(upper=(2, 4))
        assert base != family(minimum=5)
        for other in (family(upper=None), family(minimum=None)):
            assert base != other and other != base
        assert family(upper=None, minimum=None) == family(upper=None, minimum=None)
        dust = 1e-12
        near = family(
            gen=Matrix(((0.0, 1.0 + dust), (NEG, -dust))),
            lower=(dust, 1.0),
            upper=(2.0, 3.0 - dust),
            minimum=4.0 + dust,
        )
        # exact, as every `==` is: float dust is a different family
        assert near != base and base != near
        assert base != family(upper=(2.0, 3.001)) and base != family(minimum=4.001)
        assert (base == "family") is False and base != g

    def test_repr_is_the_dataclass_default(self):
        sol = SolutionSet(Matrix.identity(1), Vector((0,)))
        assert repr(sol) == (
            "SolutionSet(generator=Matrix([[0]]), lower=Vector([0]), "
            "upper=None, minimum=None)"
        )


# -- the optimizers' one scan and one pass ----------------------------------


def test_each_solver_makes_one_pass_over_the_bordered_table(monkeypatch):
    # Bhat = [[A, b], [d^-, 0]] of order n+1, pivots at the n activities,
    # in `linalg._family`; no other pass, so no closure of A
    passes = []
    kernel = linalg._floyd_warshall

    def counted(d, stop, zero, start=0):
        passes.append((len(d), start, stop))
        return kernel(d, stop, zero, start)

    # the kernel's one home; optimize holds the only other reference
    for module in (linalg, optimize):
        monkeypatch.setattr(module, "_floyd_warshall", counted)
    assert not hasattr(linsolve, "_floyd_warshall")
    a, g, h = Matrix(frozen.B_ROWS), Vector(frozen.G), Vector(frozen.H)
    n = a.n_rows
    for solve, args in ((solve_fixpoint_lower, (a, g)), (solve_combined, (a, g, h))):
        del passes[:]
        assert solve(*args).generator.rows == frozen.B_STAR
        assert passes == [(n + 1, 0, n)], solve
        del passes[:]
        with pytest.raises(NoRegularSolution):
            solve(Matrix(((1, NEG), (NEG, NEG))), *[Vector((0, 0))] * (len(args) - 1))
        assert passes == [(3, 0, 2)], solve


def _mapped(x, f):
    """The Matrix or Vector x with f applied to each finite entry; None
    stays None."""
    if x is None:
        return None
    if isinstance(x, Matrix):
        return Matrix([[v if v == NEG else f(v) for v in r] for r in x.rows])
    return Vector([v if v == NEG else f(v) for v in x.entries])


def _answer(a, b, d):
    """The family's generator rows, lower and upper bound entries, or
    the failed gate's condition."""
    try:
        sol = solve_fixpoint_lower(a, b) if d is None else solve_combined(a, b, d)
    except NoRegularSolution as err:
        return err.condition
    return sol.generator.rows, sol.lower.entries, sol.upper and sol.upper.entries


def _rounded(answer):
    """Each finite exact value of an answer as the nearest float."""
    if isinstance(answer, str) or answer is None:
        return answer
    if isinstance(answer, tuple):
        return tuple(map(_rounded, answer))
    return answer if answer == NEG else float(answer)


@pytest.mark.filterwarnings("ignore:parameter box widened:RuntimeWarning")
def test_float_data_give_the_rounded_exact_answer():
    # each finite entry times S plus a random fraction in [-1/2, 1/2),
    # in floats, so that cycles of weight zero turn positive or
    # negative: the float answer is the exact answer on those floats'
    # values, rounded once, and the float verdict and condition are the
    # exact ones
    rng = random.Random(163)
    seen = Counter()
    for i in range(600):
        scale = (1e-1, 1e3, 1.4e8)[i % 3]
        n = rng.randint(2, 6)
        base = [random_trace_bounded(rng, n), random_vector(rng, n, zero_p=0.2, hi=0)]
        base.append(None if i % 2 else random_vector(rng, n, lo=0, hi=6))
        floats = [_mapped(x, lambda v: v * scale + rng.random() - 0.5) for x in base]
        exact = [_mapped(x, Fraction) for x in floats]
        want, got = _answer(*exact), _answer(*floats)
        assert repr(got) == repr(_rounded(want)), (i, floats)
        seen["gated" if isinstance(want, str) else scale] += 1
        seen["combined" if floats[2] is not None else "fixpoint"] += 1
    assert min(seen.values()) > 50 and seen[1e-1] + seen[1e3] + seen[1.4e8] > 300, seen
