"""Closed-form solutions of linear tropical inequalities.

Three systems, each solved exactly:

  A x <= d            -> unique maximal solution (d^- A)^-
  A x (+) b <= x      -> all regular solutions x = A* u with u >= b,
                         nonempty iff the trace sum of A is at most one
  both at once        -> x = A* u with b <= u <= (d^- A*)^-, nonempty
                         iff Delta = TrSum(A) (+) d^- A* b <= one

Solution families are carried as SolutionSet objects: the image of a
box of parameter vectors under a generator matrix.  A float box that
rounding leaves empty by at most eps is widened to its lower corner,
with a RuntimeWarning; so is one that a dust cycle of the optimizers'
exact ints leaves empty.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    EmptyParameterBox,
    NoRegularSolution,
    NotColumnRegular,
    NotRegularVector,
    ShapeMismatch,
)
from .linalg import Matrix, Vector
from .semifield import Scalar


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """The family { x = G (x) u : lower <= u <= upper, u regular }.

    `upper` absent means the parameter box is unbounded above.
    `minimum` is filled by the optimizers with the objective value the
    family attains.
    """

    generator: Matrix
    lower: Vector
    upper: Optional[Vector] = None
    minimum: Optional[Scalar] = None

    @property
    def dim(self) -> int:
        return self.generator.n_rows

    def residual(self, x: Vector) -> Vector:
        """Greatest u with G (x) u <= x, by residuation: ((x^- G)^-)."""
        return (x.conj() @ self.generator).conj()

    def contains(self, x: Vector) -> bool:
        """Exact membership for regular x.

        The residual is the greatest parameter reproducing x, so x is a
        member iff the residual maps back onto x and sits in the box.
        The upper bound always has the residuated form (w G)^- here,
        which makes the residual test complete, not just sound.
        """
        if x.dim != self.dim or not x.is_regular():
            return False
        u = self.residual(x)
        if not (self.generator @ u) == x:
            return False
        if not self.lower.leq_tol(u):
            return False
        if self.upper is not None and not u.leq_tol(self.upper):
            return False
        return True

    def canonical(self) -> Vector:
        """Representative at the lower corner of the parameter box.

        Zero components of the lower bound (an unconstrained direction)
        are lifted to the upper bound when present, else to one, so the
        representative is regular whenever the family holds regular
        vectors.
        """
        sf = self.generator.sf
        zero = sf.zero
        lifted = []
        for i, v in enumerate(self.lower.entries):
            if v != zero:
                lifted.append(v)
            elif self.upper is not None:
                lifted.append(self.upper.entries[i])
            else:
                lifted.append(sf.one)
        return self.generator @ Vector(tuple(lifted), sf)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionSet):
            return NotImplemented
        if (self.upper is None) != (other.upper is None):
            return False
        if self.generator != other.generator or self.lower != other.lower:
            return False
        if self.upper is not None and not self.upper == other.upper:
            return False
        if (self.minimum is None) != (other.minimum is None):
            return False
        if self.minimum is not None and not self.generator.sf.eq(
            self.minimum, other.minimum
        ):
            return False
        return True


def _caller_level() -> int:
    """`stacklevel` for a warning issued by the calling function: it
    names the first frame outside the tropt package, so the warning
    points at user code whichever public entry point led there."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == "tropt":
        frame, level = frame.f_back, level + 1
    return level


def _tighten_box(lower: Vector, upper: Vector, unit: int | None = None) -> Vector:
    """Absorb float dust that pushed the upper parameter bound below the
    lower one: up to eps, or, on ints that stand for their values times
    `unit`, up to eps (x) unit, compared exactly.  Without a positive
    cycle the closed forms guarantee a nonempty box."""
    sf = lower.sf
    out = []
    widened = False
    for lo, up in zip(lower.entries, upper.entries):
        if lo <= up:
            out.append(up)
        elif sf.eq(lo, up) if unit is None else lo - up <= Fraction(sf.eps) * unit:
            out.append(lo)
            widened = True
        else:
            raise EmptyParameterBox("parameter box empty beyond tolerance")
    if widened:
        warnings.warn(
            "parameter box widened by eps to absorb float rounding",
            RuntimeWarning,
            stacklevel=_caller_level(),
        )
        return Vector(tuple(out), sf)
    return upper


def solve_upper_bounded(a: Matrix, d: Vector) -> Vector:
    """Maximal x with A (x) x <= d, namely (d^- A)^-.

    Needs every column of A nonzero and d regular; every solution then
    satisfies x <= (d^- A)^- and the bound itself solves the system.
    """
    if a.n_rows != d.dim:
        raise ShapeMismatch(f"{a.n_rows}x{a.n_cols} against bound dim {d.dim}")
    if not a.is_column_regular():
        raise NotColumnRegular("upper-bounded system needs column-regular A")
    if not d.is_regular():
        raise NotRegularVector("upper bound must be regular")
    return (d.conj() @ a).conj()


def solve_fixpoint_lower(a: Matrix, b: Vector) -> SolutionSet:
    """All regular x with A (x) x (+) b <= x.

    Exists iff the trace sum of A is at most one; then the family is
    x = A* u over regular u >= b.
    """
    n = a._require_square()
    if b.dim != n:
        raise ShapeMismatch(f"lower bound dim {b.dim} against order {n}")
    sf = a.sf
    star, cycle = a._closure()
    if not sf.leq_tol(cycle, sf.one):
        raise NoRegularSolution("Tr(A) <= 1")
    return SolutionSet(generator=star, lower=b)


def solve_combined(a: Matrix, b: Vector, d: Vector) -> SolutionSet:
    """All regular x with A (x) x (+) b <= x <= d.

    Feasibility index Delta = TrSum(A) (+) d^- A* b; solutions exist
    iff Delta <= one and then form x = A* u, b <= u <= (d^- A*)^-.
    """
    n = a._require_square()
    if b.dim != n or d.dim != n:
        raise ShapeMismatch("bound dims against matrix order")
    if not d.is_regular():
        raise NotRegularVector("upper bound must be regular")
    sf = a.sf
    star, cycle = a._closure()
    d_star = d.conj() @ star
    delta = sf.add(cycle, d_star @ b)
    if not sf.leq_tol(delta, sf.one):
        raise NoRegularSolution("Tr(A) (+) d^- A* b <= 1")
    upper = _tighten_box(b, d_star.conj())
    return SolutionSet(generator=star, lower=b, upper=upper)
