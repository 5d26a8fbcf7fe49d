"""The max-plus semifield's carrier and its two neutral elements.

The ground structure is the max-plus semifield: the reals extended with
-inf, addition x (+) y = max(x, y), multiplication x (*) y = x + y,
neutral elements zero = -inf and one = 0.  Addition is idempotent, every
nonzero element has a multiplicative inverse (-x), and rational powers
exist (x^r = r*x), so the structure is radicable.

Scalars are plain Python numbers: int or fractions.Fraction in exact
mode, float in float mode, with the zero element always carried as
float -inf.  The code states these rules inline where it uses them,
the matrix kernels and entrywise helpers of `linalg` above all: max
for (+), + for (x), numeric order for <=, 0 - v for the inverse.
MAXPLUS, the one instance, names zero and one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]


class Semifield:
    """(R u {-inf}, max, +): a linearly ordered, radicable, idempotent
    semifield, the modeling semifield for schedules.  The canonical
    order x <= y iff x (+) y = y is the numeric one."""

    zero: Scalar = float("-inf")
    one: Scalar = 0


MAXPLUS = Semifield()
