"""The carrier laws of the max-plus semifield, asserted on the kernels
the library runs: `+` and `@` on 1x1 matrices, `scale`, `conj`, `leq`
and `meet` on one-entry vectors, `trace`, `power` and
`spectral_radius` for the sums and roots.  MAXPLUS names only zero and
one; the rules live in these kernels."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropt import (
    MAXPLUS,
    AllZeroVector,
    Matrix,
    RowVector,
    UndefinedPower,
    Vector,
)

NEG = float("-inf")
INF = float("inf")

scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.just(NEG),
)


def m(x) -> Matrix:
    """The 1x1 matrix [x]."""
    return Matrix(((x,),))


def v(x) -> Vector:
    """The one-entry column (x)."""
    return Vector((x,))


class TestMaxPlus:
    def test_add_is_max(self):
        assert m(3) + m(5) == m(5)
        assert m(5) + m(3) == m(5)
        assert m(NEG) + m(2) == m(2)
        assert v(3) + v(5) == v(5)

    def test_mul_is_plus(self):
        assert m(3) @ m(5) == m(8)
        assert m(Fraction(1, 2)) @ m(Fraction(1, 3)) == m(Fraction(5, 6))
        assert m(3) @ v(5) == v(8)
        assert RowVector((3,)) @ v(5) == 8
        assert v(5).scale(3) == v(8) and m(5).scale(3) == m(8)

    def test_zero_absorbs(self):
        assert m(NEG) @ m(7) == m(NEG)
        assert m(7) @ m(NEG) == m(NEG)
        assert v(7).scale(NEG) == v(NEG) and v(NEG).scale(7) == v(NEG)
        assert RowVector((7,)) @ v(NEG) == NEG

    def test_one_is_neutral(self):
        assert m(MAXPLUS.one) @ m(9) == m(9) and Matrix.identity(1) == m(MAXPLUS.one)
        assert m(MAXPLUS.zero) + m(9) == m(9) and Matrix.zeros(1, 1) == m(MAXPLUS.zero)
        assert v(9).scale(MAXPLUS.one) == v(9)

    def test_inv(self):
        assert v(4).conj() == RowVector((-4,))
        assert m(Fraction(1, 3)).conj() == m(Fraction(-1, 3))
        # 0 - v, not -v: the inverse of 0.0 is 0.0, never -0.0
        assert math.copysign(1, m(0.0).conj().rows[0][0]) == 1
        # the zero has no inverse: a matrix keeps its zero entries, and
        # the all-zero vector has no conjugate
        assert m(NEG).conj() == m(NEG)
        with pytest.raises(AllZeroVector):
            v(NEG).conj()

    def test_inv_of_overflow_is_named(self):
        # +inf is no element of the carrier: it only arises from a float
        # overflow, and inverting it would hide that as the zero element
        for operand in (m(INF), v(INF), RowVector((0.0, INF))):
            with pytest.raises(ValueError, match="float overflow"):
                operand.conj()

    def test_power_scales(self):
        # A^k is k (x)-products; a cycle of weight w and length k has
        # mean w^(1/k) = w / k, a whole exact mean an int
        assert m(6).power(2) == m(12) and m(6).power(1) == m(6)
        assert m(5).power(0) == Matrix.identity(1)
        radius = Matrix(((NEG, 6), (0, NEG))).spectral_radius()
        assert radius == 3 and type(radius) is int
        assert Matrix(((NEG, 5), (0, NEG))).spectral_radius() == Fraction(5, 2)
        assert Matrix(((NEG, -4), (0, NEG))).spectral_radius() == -2

    def test_power_of_zero(self):
        assert m(NEG).power(3) == m(NEG)
        assert m(NEG).power(0) == Matrix.identity(1)
        assert m(NEG).spectral_radius() == NEG
        for exponent in (-1, Fraction(1, 2)):
            with pytest.raises(UndefinedPower):
                m(NEG).power(exponent)

    def test_leq_meet(self):
        assert m(2).leq(m(5))
        assert not m(5).leq(m(2))
        assert v(NEG).leq(v(-100))
        assert v(2).meet(v(5)) == v(2) and v(5).meet(v(2)) == v(2)

    def test_sum_prod(self):
        assert m(1) + m(7) + m(3) == m(7)
        for diagonal in ((7, 1, 3), (1, 7, 3), (1, 3, 7)):
            rows = [[NEG] * 3 for _ in diagonal]
            for i, x in enumerate(diagonal):
                rows[i][i] = x
            assert Matrix(rows).trace() == 7
        assert RowVector((1, 2, 3)) @ Vector((0, 5, 0)) == 7
        # the empty sum is the zero
        assert Matrix.zeros(2, 2).trace() == NEG
        assert RowVector((NEG, 1)) @ Vector((1, NEG)) == NEG

    def test_is_zero(self):
        assert v(NEG).is_zero() and not v(NEG).is_regular()
        assert not v(0).is_zero() and v(0).is_regular()
        assert not m(NEG).is_column_regular()


@given(scalars, scalars)
def test_add_commutes(x, y):
    assert m(x) + m(y) == m(y) + m(x)
    assert v(x) + v(y) == v(y) + v(x)


@given(scalars, scalars, scalars)
def test_add_associates(x, y, z):
    assert (m(x) + m(y)) + m(z) == m(x) + (m(y) + m(z))


@given(scalars)
def test_add_idempotent(x):
    assert m(x) + m(x) == m(x)
    assert v(x) + v(x) == v(x)


@given(scalars, scalars, scalars)
def test_mul_distributes(x, y, z):
    assert m(x) @ (m(y) + m(z)) == m(x) @ m(y) + m(x) @ m(z)
    assert (v(y) + v(z)).scale(x) == v(y).scale(x) + v(z).scale(x)


@given(scalars)
def test_zero_absorbs_every_element(x):
    assert m(x) @ m(NEG) == m(NEG) @ m(x) == m(NEG)
    assert v(x).scale(NEG) == v(NEG).scale(x) == v(NEG)


@given(scalars)
def test_one_is_neutral_for_every_element(x):
    assert m(x) @ m(MAXPLUS.one) == m(MAXPLUS.one) @ m(x) == m(x)
    assert v(x).scale(MAXPLUS.one) == v(x)
    assert m(x) + m(MAXPLUS.zero) == m(x)


@given(scalars, scalars)
def test_order_is_total(x, y):
    assert m(x).leq(m(y)) or m(y).leq(m(x))
    # the canonical order: x <= y iff x (+) y = y
    assert m(x).leq(m(y)) == (m(x) + m(y) == m(y))
    assert v(x).leq(v(y)) == (v(x).meet(v(y)) == v(x))


@given(scalars)
def test_double_inverse(x):
    assert m(x).conj().conj() == m(x)
    if x != NEG:
        assert v(x).conj().conj() == v(x)
        assert v(x).conj() @ v(x) == MAXPLUS.one


@given(scalars)
def test_overflow_is_named(x):
    for operand in (m(INF), Vector((x, INF)), RowVector((INF, x))):
        with pytest.raises(ValueError, match="float overflow"):
            operand.conj()
