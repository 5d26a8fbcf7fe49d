"""Idempotent semifield scalars.

The ground structure is the max-plus semifield: the reals extended with
-inf, addition x (+) y = max(x, y), multiplication x (*) y = x + y,
neutral elements zero = -inf and one = 0.  Addition is idempotent, every
nonzero element has a multiplicative inverse (-x), and rational powers
exist (x^r = r*x), so the structure is radicable.

Scalars are plain Python numbers: int or fractions.Fraction in exact
mode, float in float mode, with the zero element always carried as
float -inf.  Ints stay ints: `add`, `mul` and `inv` of ints are ints,
and a rational power that is a whole number is returned as an int, so
whole-number data never enters Fraction arithmetic.  The two modes
can mix; comparisons become approximate (absolute tolerance `eps`) as
soon as a finite float is involved, and stay exact on int/Fraction
operands.

MaxPlus is the one instance the solvers support: the matrix kernels
and the entrywise helpers inline its rules (max for (+), numeric order
for <=, negation for the inverse), so a further instance would need
them rewritten.  The methods here serve the scalar-level steps and the
float tolerance `eps`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import InversionOfZero, UndefinedPower

Scalar = Union[int, float, Fraction]

_EXACT_TYPES = (int, Fraction)


def is_exact(value: Scalar) -> bool:
    """True when the value carries no float rounding (int/Fraction).
    Floats are ruled out first, before the Fraction ABC check."""
    return not isinstance(value, float) and isinstance(value, _EXACT_TYPES)


class Semifield:
    """A linearly ordered, radicable, idempotent semifield.

    Concrete instances define `zero`, `one` and the numeric direction
    of the canonical order x <= y  iff  x (+) y = y.  Multiplication,
    inversion and rational powers live here because they hold for any
    instance on the extended reals under +.
    """

    zero: Scalar
    one: Scalar = 0

    def __init__(self, eps: float = 1e-9):
        self.eps = eps

    # -- order ---------------------------------------------------------

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        raise NotImplementedError

    def leq(self, x: Scalar, y: Scalar) -> bool:
        """Canonical order: x <= y iff x (+) y = y.  Exact."""
        return self.add(x, y) == y

    def eq(self, x: Scalar, y: Scalar) -> bool:
        """Equality; absolute eps tolerance once floats are involved."""
        if x == y:
            return True
        if is_exact(x) and is_exact(y):
            return False
        # one operand is a float; infinities already matched above
        if x in (float("inf"), float("-inf")) or y in (float("inf"), float("-inf")):
            return False
        return abs(x - y) <= self.eps

    def leq_tol(self, x: Scalar, y: Scalar) -> bool:
        """Order with eps slack for float feasibility gates."""
        return self.leq(x, y) or self.eq(x, y)

    def meet(self, x: Scalar, y: Scalar) -> Scalar:
        """Greatest lower bound in the canonical order."""
        return x if self.leq(x, y) else y

    # -- arithmetic ----------------------------------------------------

    def is_zero(self, x: Scalar) -> bool:
        return x == self.zero

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        if x == self.zero or y == self.zero:
            return self.zero
        return x + y

    def inv(self, x: Scalar) -> Scalar:
        if x == self.zero:
            raise InversionOfZero("inverse of the zero element")
        if x == float("inf"):
            raise ValueError("float overflow: a result is +inf")
        return 0 - x  # not -x: the inverse of 0.0 is 0.0, never -0.0

    def power(self, x: Scalar, r: Scalar) -> Scalar:
        """Rational power x^r, i.e. r*x on the extended-real carrier.

        zero^r = zero for r > 0; undefined (raises) for r <= 0.  An
        exact power that is a whole number comes back as an int, as
        `add`, `mul` and `inv` keep ints, so that whole-number data stays
        out of Fraction arithmetic.
        """
        if x == self.zero:
            if r > 0:
                return self.zero
            raise UndefinedPower(f"zero element raised to {r!r}")
        if r == 0:
            return self.one
        v = r * x
        if not isinstance(v, float) and isinstance(v, Fraction) and v.denominator == 1:
            return v.numerator
        return v

    # -- reductions ----------------------------------------------------

    def sum(self, values: Iterable[Scalar]) -> Scalar:
        """Idempotent sum; empty input gives the zero element."""
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc


class MaxPlus(Semifield):
    """(R u {-inf}, max, +): the modeling semifield for schedules."""

    zero = float("-inf")

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return x if y <= x else y


MAXPLUS = MaxPlus()
