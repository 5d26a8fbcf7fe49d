"""Closed-form solutions of linear tropical inequalities.

Three systems, each solved exactly:

  A x <= d            -> unique maximal solution (d^- A)^-
  A x (+) b <= x      -> all regular solutions x = A* u with u >= b,
                         nonempty iff the trace sum of A is at most one
  both at once        -> x = A* u with b <= u <= (d^- A*)^-, nonempty
                         iff Delta = TrSum(A) (+) d^- A* b <= one

Solution families are carried as SolutionSet objects: the image of a
box of parameter vectors under a generator matrix.  The last two run
on the optimizers' path (`linalg._family`): one pass over Bhat = [[A, b],
[d^-, 0]], scanned to ints at one scale D, gives Delta, gated exactly
at dust (the `eps=` keyword (x) D on float data, else 0), A* and
d^- A*, each divided by D once.  A box that a dust cycle leaves empty
by at most dust is widened to its lower corner, with a RuntimeWarning.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import (
    EmptyParameterBox,
    NoRegularSolution,
    NotColumnRegular,
    NotRegularVector,
    ShapeMismatch,
)
from .linalg import Matrix, Vector, _border, _compared, _dust, _family, _scan, _unscale
from .semifield import MAXPLUS, Scalar


@dataclass(frozen=True)
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
        """Membership for regular x: exact on exact data, and on float
        data within `linalg._compared`'s bound of a member (`_near`)."""
        if x.dim != self.dim or not x.is_regular():
            return False
        (*family, x), bound = _compared((self.generator, self.lower, self.upper, x), self.dim)
        return SolutionSet(*family)._near(x, bound)

    def _near(self, x: Vector, bound: int) -> bool:
        """True when some member y = G v, lower <= v <= upper, has
        |x - y| <= bound in every entry, for regular x.  G v <= x + bound
        exactly when v <= u + bound, u the residual, so the greatest
        such v in the box, the meet of u + bound with upper, decides:
        it must lie above lower and reach x - bound."""
        v = self.residual(x).scale(bound)
        if self.upper is not None:
            v = v.meet(self.upper)
        if not self.lower.leq(v):
            return False
        return all(y >= t - bound for y, t in zip((self.generator @ v).entries, x.entries))

    def canonical(self) -> Vector:
        """Representative at the lower corner of the parameter box.

        Zero components of the lower bound (an unconstrained direction)
        are lifted to the upper bound when present, else to one, so the
        representative is regular whenever the family holds regular
        vectors.
        """
        zero = MAXPLUS.zero
        lifted = []
        for i, v in enumerate(self.lower.entries):
            if v != zero:
                lifted.append(v)
            elif self.upper is not None:
                lifted.append(self.upper.entries[i])
            else:
                lifted.append(MAXPLUS.one)
        return self.generator @ Vector(tuple(lifted))


def _caller_level() -> int:
    """`stacklevel` for a warning issued by the calling function: it
    names the first frame outside the tropt package, so the warning
    points at user code whichever public entry point led there."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == "tropt":
        frame, level = frame.f_back, level + 1
    return level


def _tighten_box(lower: Vector, upper: Vector, dust: Scalar) -> Vector:
    """Absorb dust that pushed the upper parameter bound below the lower
    one, up to `dust`, compared exactly.  Without a positive cycle the
    closed forms guarantee a nonempty box."""
    out, widened = [], False
    for lo, up in zip(lower.entries, upper.entries):
        if lo <= up:
            out.append(up)
        elif lo - up <= dust:
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
        return Vector(tuple(out))
    return upper


def _solve(a: Matrix, b: Vector, d: Optional[Vector], condition: str,
           eps: float) -> SolutionSet:
    """x = A* u, b <= u <= (d^- A*)^- (unbounded above without d), or
    NoRegularSolution naming `condition` when Delta exceeds dust."""
    n = a.n_rows
    dc = None if d is None else d.conj()
    (b_hat,), _, scale, floating = _scan((_border(a, n, b, dc, None),))
    dust = _dust(eps, scale, floating)
    delta, gen, lower, row = _family([list(r) for r in b_hat.rows], n)
    if delta > dust:
        raise NoRegularSolution(condition)
    upper = None if d is None else _tighten_box(lower, row.conj(), dust)
    gen, lower, upper = _unscale((gen, lower, upper), scale, floating)
    return SolutionSet(generator=gen, lower=lower, upper=upper)


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


def solve_fixpoint_lower(a: Matrix, b: Vector, eps: float = 1e-9) -> SolutionSet:
    """All regular x with A (x) x (+) b <= x.

    Exists iff the trace sum of A is at most one; then the family is
    x = A* u over regular u >= b.  Float data pass while the largest
    diagonal entry of one Floyd-Warshall pass over A is at most eps;
    with no positive cycle that entry is Tr(A), but the pass can go
    round a positive cycle more than once (a loop of weight w reads
    2w), so dust heavier than eps always fails and dust below it can
    fail too.
    """
    n = a._require_square()
    if b.dim != n:
        raise ShapeMismatch(f"lower bound dim {b.dim} against order {n}")
    return _solve(a, b, None, "Tr(A) <= 1", eps)


def solve_combined(a: Matrix, b: Vector, d: Vector, eps: float = 1e-9) -> SolutionSet:
    """All regular x with A (x) x (+) b <= x <= d.

    Feasibility index Delta = TrSum(A) (+) d^- A* b; solutions exist
    iff Delta <= one, and then form x = A* u, b <= u <= (d^- A*)^-.
    Float data pass while Delta, read as the largest diagonal entry of
    one Floyd-Warshall pass over [[A, b], [d^-, 0]], is at most eps;
    the pass can go round a positive cycle more than once (a loop of
    weight w reads 2w), so dust heavier than eps always fails and dust
    below it can fail too.
    """
    n = a._require_square()
    if b.dim != n or d.dim != n:
        raise ShapeMismatch("bound dims against matrix order")
    if not d.is_regular():
        raise NotRegularVector("upper bound must be regular")
    return _solve(a, b, d, "Tr(A) (+) d^- A* b <= 1", eps)
