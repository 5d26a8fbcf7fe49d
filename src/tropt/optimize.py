"""Closed-form minimization of tropical "span" objectives.

All problems minimize, over regular vectors x, an objective built from
a square matrix A and optional data p, q (vectors), r (scalar):

    x^- A x                                (plain span)
    x^- A x (+) x^- p (+) q^- x (+) r      (extended span)

subject to none, some, or all of the constraints

    B x (+) g <= x          (precedence / lower fixpoint)
    g <= x <= h             (box bounds)

Each solver returns the exact minimum together with the complete family
of minimizers, parameterized as x = G (x) u over a box of u.  One
path serves all six kinds: A and B are bordered by one extra node,
Ahat = [[A, p], [q^-, r]] and Bhat = [[B, g], [h^-, 0]] with absent
pieces zero.  One Floyd-Warshall pass of Bhat, no power sum, serves
twice: the constraints are solvable exactly when its heaviest cycle,
Tr(Bhat), is at most 1, and the minimum is theta = the spectral radius
of Bhat* Ahat, read off the two factors without their product.  When
an exact theta is a fraction w/l, the generator star, the parameter
box and the canonical point are computed for the data scaled by l,
where theta is the int w, and divided by l once: with whole-number data
that star runs in ints.  `solve_problem` holds that path; the
`minimize_*` functions only build a Problem and hand it over.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import (
    DegenerateProblem,
    InfeasibleConstraints,
    NotRegularVector,
    ShapeMismatch,
    ZeroSpectralRadius,
)
from .linalg import Matrix, RowVector, Vector, _max_cycle, _scaled_sum
from .linsolve import SolutionSet, _tighten_box
from .semifield import Scalar


class ProblemKind(str, Enum):
    BASIC = "Basic"
    EXTENDED = "ExtendedUnconstrained"
    LINEAR_CONSTRAINED = "LinearConstrained"
    GENERAL = "General"
    BOX_CONSTRAINED = "BoxConstrained"
    FIXPOINT_CONSTRAINED = "FixpointConstrained"


# fields each kind must carry; every other optional field must be absent
_FIELDS = {
    ProblemKind.BASIC: (),
    ProblemKind.EXTENDED: ("p", "q", "r"),
    ProblemKind.LINEAR_CONSTRAINED: ("B", "g"),
    ProblemKind.GENERAL: ("B", "p", "q", "g", "h", "r"),
    ProblemKind.BOX_CONSTRAINED: ("p", "q", "g", "h", "r"),
    ProblemKind.FIXPOINT_CONSTRAINED: ("B", "p", "q", "r"),
}


@dataclass(frozen=True)
class Problem:
    kind: ProblemKind
    A: Matrix
    B: Optional[Matrix] = None
    p: Optional[Vector] = None
    q: Optional[Vector] = None
    g: Optional[Vector] = None
    h: Optional[Vector] = None
    r: Optional[Scalar] = None

    def validate(self) -> None:
        n = self.A._require_square()
        required = _FIELDS[self.kind]
        for name in ("B", "p", "q", "g", "h", "r"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"kind {self.kind.value} needs field {name}")
            if name not in required and value is not None:
                raise ValueError(f"kind {self.kind.value} forbids field {name}")
        if self.B is not None and self.B._require_square() != n:
            raise ShapeMismatch("B order differs from A")
        for name in ("p", "q", "g", "h"):
            vec = getattr(self, name)
            if vec is not None and vec.dim != n:
                raise ShapeMismatch(f"field {name} has dim {vec.dim}, order is {n}")

    @property
    def dim(self) -> int:
        return self.A.n_rows


@dataclass(frozen=True)
class OptResult:
    minimum: Scalar
    solutions: SolutionSet
    canonical: Vector


def objective_value(problem: Problem, x: Vector) -> Scalar:
    """Evaluate the problem's objective at a regular x."""
    if x.dim != problem.dim:
        raise ShapeMismatch(f"x dim {x.dim}, order {problem.dim}")
    if not x.is_regular():
        raise NotRegularVector("objective needs a regular point")
    sf = problem.A.sf
    xc = x.conj()
    value = xc @ (problem.A @ x)
    if problem.p is None:
        return value
    value = sf.add(value, xc @ problem.p)
    value = sf.add(value, problem.q.conj() @ x)
    return sf.add(value, problem.r)


def _border(m: Optional[Matrix], n: int, sf, col: Optional[Vector],
            row: Optional[RowVector], corner: Optional[Scalar]) -> Matrix:
    """[[m, col], [row, corner]] of order n+1; absent pieces are zero."""
    zeros = (sf.zero,) * n
    rows = (zeros,) * n if m is None else m.rows
    col = zeros if col is None else col.entries
    last = (zeros if row is None else row.entries) + (
        sf.zero if corner is None else corner,
    )
    return Matrix(tuple(r + (c,) for r, c in zip(rows, col)) + (last,), sf)


# kinds whose optimum needs a cycle in A, and kinds that need only one
# nonzero scale bound: lambda(A), (q^- p)^(1/2) or r; for Basic a zero
# theta is the no-cycle gate
_NEEDS_CYCLE = (ProblemKind.EXTENDED, ProblemKind.LINEAR_CONSTRAINED)
_NEEDS_SCALE = (ProblemKind.BOX_CONSTRAINED, ProblemKind.FIXPOINT_CONSTRAINED,
                ProblemKind.GENERAL)


def solve_problem(problem: Problem) -> OptResult:
    """Validate the problem, run its gates and solve it in closed form.

    Every kind runs on the bordered pair Ahat = [[A, p], [q^-, r]] and
    Bhat = [[B, g], [h^-, 0]], absent data zero.  The gates run in this
    order: q and h regular; B x (+) g <= x <= h solvable, which holds
    exactly when Bhat has no positive cycle, Tr(Bhat) <= 1; then the
    kind's no-cycle rule.  A failed second gate is named by its part:
    Tr(B) <= 1 when B alone has a positive cycle, else h^- B* g <= 1
    (h^- g <= 1 without B).

    theta is the largest cycle mean of Bhat* Ahat: the maximum ratio of
    weight to A-arc count over the cycles of Ahat (+) Bhat.  The
    minimizers are x = G u, G = (theta^-1 A (+) B)*,
    theta^-1 p (+) g <= u and, when q or h is given,
    u <= ((theta^-1 q^- (+) h^-) G)^-.
    """
    problem.validate()
    a, b, p, q = problem.A, problem.B, problem.p, problem.q
    g, h, r = problem.g, problem.h, problem.r
    n, sf = a.n_rows, a.sf
    for name, vec in (("q", q), ("h", h)):
        if vec is not None and not vec.is_regular():
            raise NotRegularVector(f"{name} must be regular")
    qc = None if q is None else q.conj()
    hc = None if h is None else h.conj()
    b_hat = _border(b, n, sf, g, hc, None)
    b_star, cycle = b_hat._closure()  # Tr(Bhat) = cycle; theta needs Bhat*
    if not sf.leq_tol(cycle, sf.one):
        if b is None:
            raise InfeasibleConstraints("h^- g <= 1")
        # the border node lies on a cycle only when both g and h are given
        if g is None or h is None or not sf.leq_tol(b._closure()[1], sf.one):
            raise InfeasibleConstraints("Tr(B) <= 1")
        raise InfeasibleConstraints("h^- B* g <= 1")
    if problem.kind in _NEEDS_CYCLE and sf.is_zero(a.spectral_radius()):
        raise ZeroSpectralRadius("matrix has no cycle")
    if problem.kind in _NEEDS_SCALE:
        root = sf.power(qc @ p, Fraction(1, 2))
        # lambda(A) is a Karp pass of its own: compute it only when r and
        # the root leave the verdict open
        if sf.is_zero(sf.add(root, r)) and sf.is_zero(a.spectral_radius()):
            raise DegenerateProblem(
                "every scale bound is zero: no cycle, q^- p zero, r zero"
            )
    theta = _max_cycle(b_star, _border(a, n, sf, p, qc, r))[0]
    if sf.is_zero(theta):
        raise ZeroSpectralRadius("matrix has no cycle")
    # theta = w / l with l > 1: the family at data scale l, where theta
    # is the int w, divided by l once (a scale that makes decimal data
    # whole would multiply in here)
    scale = theta.denominator if type(theta) is Fraction else 1
    if scale == 1:
        family = _family(theta, a, b, p, qc, g, hc)
    else:
        data = _rescaled((a, b, p, qc, g, hc), lambda v: v * scale)
        family = _rescaled(_family(theta.numerator, *data), lambda v: _divide(v, scale))
    gen, lower, upper, canonical = family
    sols = SolutionSet(generator=gen, lower=lower, upper=upper, minimum=theta)
    return OptResult(minimum=theta, solutions=sols, canonical=canonical)


def _family(theta: Scalar, a: Matrix, b: Optional[Matrix], p: Optional[Vector],
            qc: Optional[RowVector], g: Optional[Vector], hc: Optional[RowVector]
            ) -> tuple[Matrix, Vector, Optional[Vector], Vector]:
    """(G, lower, upper, canonical point): G = (theta^-1 A (+) B)* and
    the parameter box theta^-1 p (+) g <= u <= ((theta^-1 q^- (+) h^-) G)^-,
    upper None when neither q nor h is given."""
    n, sf = a.n_rows, a.sf
    inv_t = sf.inv(theta)
    gen = _scaled_sum(inv_t, a, b)._closure()[0]
    lower = Vector.zeros(n, sf)
    if p is not None:
        lower = lower + p.scale(inv_t)
    if g is not None:
        lower = lower + g
    w = None if qc is None else qc.scale(inv_t)
    if hc is not None:
        w = hc if w is None else w + hc
    upper = None if w is None else _tighten_box(lower, (w @ gen).conj())
    canonical = SolutionSet(generator=gen, lower=lower, upper=upper).canonical()
    return gen, lower, upper, canonical


def _rescaled(items, f) -> tuple:
    """The Matrix, Vector and RowVector items with f applied to each
    finite entry; None items stay None."""
    out = []
    for x in items:
        if x is not None:
            zero = x.sf.zero
            if isinstance(x, Matrix):
                x = Matrix._built(
                    tuple(tuple(v if v == zero else f(v) for v in r) for r in x.rows), x.sf
                )
            else:
                x = type(x)(tuple(v if v == zero else f(v) for v in x.entries), x.sf)
        out.append(x)
    return tuple(out)


def _divide(v: Scalar, scale: int) -> Scalar:
    """v / scale, exact: an int when it is whole."""
    whole, rest = divmod(v, scale)
    return whole if not rest else Fraction(v, scale)


def minimize_basic(a: Matrix) -> OptResult:
    """min over regular x of x^- A x.

    The minimum is the spectral radius; minimizers are the images of
    the star of the radius-normalized matrix.
    """
    return solve_problem(Problem(ProblemKind.BASIC, a))


def minimize_extended(a: Matrix, p: Vector, q: Vector, r: Scalar) -> OptResult:
    """min over regular x of x^- A x (+) x^- p (+) q^- x (+) r."""
    return solve_problem(Problem(ProblemKind.EXTENDED, a, p=p, q=q, r=r))


def minimize_linear_constrained(a: Matrix, b: Matrix, g: Vector) -> OptResult:
    """min x^- A x subject to B x (+) g <= x."""
    return solve_problem(Problem(ProblemKind.LINEAR_CONSTRAINED, a, b, g=g))


def minimize_box_constrained(a: Matrix, p: Vector, q: Vector, g: Vector,
                             h: Vector, r: Scalar) -> OptResult:
    """min of the extended span objective subject to g <= x <= h."""
    return solve_problem(Problem(ProblemKind.BOX_CONSTRAINED, a, None, p, q, g, h, r))


def minimize_fixpoint_constrained(a: Matrix, b: Matrix, p: Vector, q: Vector,
                                  r: Scalar) -> OptResult:
    """min of the extended span objective subject to B x <= x."""
    return solve_problem(Problem(ProblemKind.FIXPOINT_CONSTRAINED, a, b, p, q, r=r))


def minimize_general(a: Matrix, b: Matrix, p: Vector, q: Vector, g: Vector,
                     h: Vector, r: Scalar) -> OptResult:
    """min of the extended span objective subject to both constraint
    blocks: B x (+) g <= x <= h.

    The minimum is the spectral radius of Bhat* Ahat with
    Ahat = [[A, p], [q^-, r]] and Bhat = [[B, g], [h^-, 0]], once the
    gate Tr(Bhat) <= 1 leaves Bhat no positive cycle.
    """
    return solve_problem(Problem(ProblemKind.GENERAL, a, b, p, q, g, h, r))


def _feasible(problem: Problem, x: Vector) -> Optional[str]:
    if problem.B is not None:
        bound = problem.B @ x
        if problem.g is not None:
            bound = bound + problem.g
        if not bound.leq_tol(x):
            return "constraint B x (+) g <= x violated"
    elif problem.g is not None and not problem.g.leq_tol(x):
        return "constraint g <= x violated"
    if problem.h is not None and not x.leq_tol(problem.h):
        return "constraint x <= h violated"
    return None


def verify_solution(problem: Problem, result: OptResult,
                    x: Vector) -> tuple[bool, str]:
    """Check a claimed minimizer: regular, feasible, attains the
    minimum, and lies in the returned family.  Returns (ok, reason);
    reason is empty on success."""
    if x.dim != problem.dim:
        return False, "dimension mismatch"
    if not x.is_regular():
        return False, "vector is not regular"
    reason = _feasible(problem, x)
    if reason is not None:
        return False, reason
    sf = problem.A.sf
    if not sf.eq(objective_value(problem, x), result.minimum):
        return False, "objective differs from the minimum"
    if not result.solutions.contains(x):
        return False, "not in the solution family"
    return True, ""
