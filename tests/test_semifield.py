from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropt import (
    MAXPLUS,
    InversionOfZero,
    Matrix,
    NoRegularSolution,
    SolutionSet,
    UndefinedPower,
    Vector,
    solve_fixpoint_lower,
)

NEG = float("-inf")

scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.just(NEG),
)


class TestMaxPlus:
    def test_add_is_max(self):
        assert MAXPLUS.add(3, 5) == 5
        assert MAXPLUS.add(5, 3) == 5
        assert MAXPLUS.add(NEG, 2) == 2

    def test_mul_is_plus(self):
        assert MAXPLUS.mul(3, 5) == 8
        assert MAXPLUS.mul(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_zero_absorbs(self):
        assert MAXPLUS.mul(NEG, 7) == NEG
        assert MAXPLUS.mul(7, NEG) == NEG

    def test_one_is_neutral(self):
        assert MAXPLUS.mul(MAXPLUS.one, 9) == 9
        assert MAXPLUS.add(MAXPLUS.zero, 9) == 9

    def test_inv(self):
        assert MAXPLUS.inv(4) == -4
        assert MAXPLUS.inv(Fraction(1, 3)) == Fraction(-1, 3)
        with pytest.raises(InversionOfZero):
            MAXPLUS.inv(NEG)

    def test_inv_of_overflow_is_named(self):
        # +inf is no element of the carrier: it only arises from a float
        # overflow, and inverting it would hide that as the zero element
        with pytest.raises(ValueError, match="float overflow"):
            MAXPLUS.inv(float("inf"))

    def test_power_scales(self):
        assert MAXPLUS.power(6, Fraction(1, 2)) == 3
        assert MAXPLUS.power(6, 2) == 12
        assert MAXPLUS.power(5, 0) == 0
        assert MAXPLUS.power(4, Fraction(-1, 2)) == -2

    def test_power_of_zero(self):
        assert MAXPLUS.power(NEG, Fraction(1, 2)) == NEG
        assert MAXPLUS.power(NEG, 3) == NEG
        with pytest.raises(UndefinedPower):
            MAXPLUS.power(NEG, 0)
        with pytest.raises(UndefinedPower):
            MAXPLUS.power(NEG, -1)

    def test_leq_meet(self):
        assert MAXPLUS.leq(2, 5)
        assert not MAXPLUS.leq(5, 2)
        assert MAXPLUS.leq(NEG, -100)
        assert MAXPLUS.meet(2, 5) == 2

    def test_sum_prod(self):
        assert MAXPLUS.sum([1, 7, 3]) == 7
        assert MAXPLUS.sum([]) == NEG

    def test_is_zero(self):
        assert MAXPLUS.is_zero(NEG)
        assert not MAXPLUS.is_zero(0)


class TestEquality:
    """`==` on vectors is exact; a check on float data compares on the
    ints of one scan, within `linalg._compared`'s bound (8e-9 here),
    and eps is the solvers' dust tolerance."""

    def test_exact_pairs_compare_exactly(self):
        assert Vector((Fraction(4, 1),)) == Vector((4,))
        assert Vector((Fraction(4, 1),)) != Vector((Fraction(4000000001, 1000000000),))

    def test_float_pairs_compare_with_tolerance(self):
        point = SolutionSet(Matrix(((0.0,),)), Vector((4.0,)), Vector((4.0,)))
        assert Vector((4.0,)) != Vector((4.0 + 1e-12,))
        assert point.contains(Vector((4.0 + 1e-12,)))
        assert not point.contains(Vector((4.0 + 1e-6,)))

    def test_infinite_values(self):
        assert Vector((NEG,)) == Vector((NEG,))
        assert Vector((NEG,)) != Vector((-1e12,))

    def test_custom_epsilon(self):
        # a loop of weight 0.1 passes eps = 0.5 but not the default; one
        # of weight 1.0 passes neither
        b = Vector((0.0,))
        assert solve_fixpoint_lower(Matrix(((0.1,),)), b, eps=0.5).lower == b
        for weight, eps in ((0.1, 1e-9), (1.0, 0.5)):
            with pytest.raises(NoRegularSolution):
                solve_fixpoint_lower(Matrix(((weight,),)), b, eps=eps)

    def test_the_dust_gate_reads_a_loop_twice(self):
        # the gate compares eps with the diagonal of one Floyd-Warshall
        # pass, which goes round a loop of weight 0.3 twice: 0.6
        b = Vector((0.0,))
        with pytest.raises(NoRegularSolution):
            solve_fixpoint_lower(Matrix(((0.3,),)), b, eps=0.5)
        assert solve_fixpoint_lower(Matrix(((0.3,),)), b, eps=0.7).lower == b

    def test_leq_tol(self):
        below = SolutionSet(Matrix(((0.0,),)), Vector((NEG,)), Vector((4.0,)))
        assert below.contains(Vector((4.0 + 1e-12,)))
        assert not below.contains(Vector((4.1,)))


@given(scalars, scalars)
def test_add_commutes(x, y):
    assert MAXPLUS.add(x, y) == MAXPLUS.add(y, x)


@given(scalars, scalars, scalars)
def test_add_associates(x, y, z):
    assert MAXPLUS.add(MAXPLUS.add(x, y), z) == MAXPLUS.add(x, MAXPLUS.add(y, z))


@given(scalars)
def test_add_idempotent(x):
    assert MAXPLUS.add(x, x) == x


@given(scalars, scalars, scalars)
def test_mul_distributes(x, y, z):
    left = MAXPLUS.mul(x, MAXPLUS.add(y, z))
    right = MAXPLUS.add(MAXPLUS.mul(x, y), MAXPLUS.mul(x, z))
    assert left == right


@given(scalars, scalars)
def test_order_is_total(x, y):
    assert MAXPLUS.leq(x, y) or MAXPLUS.leq(y, x)


@given(scalars)
def test_double_inverse(x):
    if not MAXPLUS.is_zero(x):
        assert MAXPLUS.inv(MAXPLUS.inv(x)) == x
        assert MAXPLUS.mul(x, MAXPLUS.inv(x)) == MAXPLUS.one
