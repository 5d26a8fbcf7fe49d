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
whole-number data never enters Fraction arithmetic.  Every method here
is exact on its operands.  The solvers compare on `linalg._scan`'s
ints, and a check on float data takes its one bound from
`linalg._compared`.

MAXPLUS is the one instance: the matrix kernels and the entrywise
helpers inline its rules (max for (+), numeric order for <=, negation
for the inverse).  The methods here serve the scalar-level steps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import InversionOfZero, UndefinedPower

Scalar = Union[int, float, Fraction]


class Semifield:
    """(R u {-inf}, max, +): a linearly ordered, radicable, idempotent
    semifield, the modeling semifield for schedules.  The canonical
    order x <= y iff x (+) y = y is the numeric one."""

    zero: Scalar = float("-inf")
    one: Scalar = 0

    # -- order ---------------------------------------------------------

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return x if y <= x else y

    def leq(self, x: Scalar, y: Scalar) -> bool:
        """Canonical order: x <= y iff x (+) y = y."""
        return self.add(x, y) == y

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


MAXPLUS = Semifield()
