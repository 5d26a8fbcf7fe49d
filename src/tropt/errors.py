"""Exception types shared across the library.

Every error raised on purpose derives from TroptError so callers can
distinguish domain failures from plain bugs.  Infeasibility errors carry
a `condition` string naming the violated requirement.  The CLI exits 2
on exactly the `Unsolvable` ones.
"""

from __future__ import annotations


class TroptError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(TroptError):
    """Operand dimensions are incompatible."""


class NotSquare(TroptError):
    """A square matrix was required."""


class IndexOutOfRange(TroptError):
    """A family index k lies outside its valid range."""


class AllZeroVector(TroptError):
    """Conjugate transpose of the all-zero vector is undefined."""


class InversionOfZero(TroptError):
    """The tropical zero has no multiplicative inverse."""


class UndefinedPower(TroptError):
    """pow(zero, r) is undefined for r <= 0."""


class NotColumnRegular(TroptError):
    """A matrix with an all-zero column was passed where column
    regularity is required."""


class NotRegularVector(TroptError):
    """A vector with a zero entry was passed where regularity is
    required."""


class Unsolvable(TroptError):
    """Base for an instance that is infeasible or outside the closed
    form's scope; the input itself is well formed."""


class _ConditionError(Unsolvable):
    """Base for errors that name a violated feasibility condition."""

    def __init__(self, condition: str, message: str | None = None):
        self.condition = condition
        super().__init__(message or condition)


class NoRegularSolution(_ConditionError):
    """The inequality system admits no regular solution."""


class InfeasibleConstraints(_ConditionError):
    """Optimization constraints admit no regular feasible point."""


class InfeasibleSchedule(_ConditionError):
    """Schedule constraints admit no feasible initiation vector."""


class ZeroSpectralRadius(Unsolvable):
    """The matrix has no cycle, so the objective has no positive
    lower bound of the required form."""


class DegenerateProblem(Unsolvable):
    """Every scale bound in the optimum formula is zero; the problem
    degenerates and the closed form does not apply."""


class EmptyParameterBox(TroptError):
    """Float rounding left the parameter box of a solution family empty
    beyond the dust tolerance eps."""


class SpecValidation(TroptError):
    """A schedule specification violates its invariants.

    `problems` lists every failed invariant, one human-readable line
    each.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class TooManyDigits(TroptError, ValueError):
    """An exact value is longer than the interpreter converts between
    int and decimal text.  The message is Python's own, as `json` gives
    it; `limit` is the limit in digits."""

    def __init__(self, message: str, limit: int):
        self.limit = limit
        super().__init__(message)


class GridTooLarge(TroptError):
    """The requested search grid exceeds the point budget."""


class NoFeasiblePoint(TroptError):
    """No grid point satisfies the problem constraints."""


class TooLarge(TroptError):
    """The instance exceeds a brute-force enumeration guard."""
