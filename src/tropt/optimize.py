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
pieces zero.  The minimum is theta = the spectral radius of Bhat* Ahat,
and the constraints are solvable exactly when Bhat has no positive
cycle, Tr(Bhat) <= 1.  Every datum is first scaled to an int by one D,
the lcm of the denominators of the finite entries (1 for ints, a power
of two for floats), so float and decimal data take the exact path too.
That scan lists each bordered matrix's finite entries once, and
everything after it reads the lists: Karp's walk relaxed through Bhat
gives theta and, at its first step, the gate, with neither Bhat* nor
the product; one Floyd-Warshall pass over theta^-1 Ahat (+) Bhat
(`linalg._family`, which solve-ineq and `star` share) gives the
family.  When theta is a fraction w/l of the ints, that pass runs on
the ints scaled by l; theta and the family are then divided by l D
once, so a float answer is the correctly rounded exact answer on the
data's own values.
`solve_problem` scans the problem and divides its answers; everything
in between is `_optimum`, on the ints, which `schedule` also runs on
its own scan.  The `minimize_*` functions only build a Problem and
hand it over.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import (
    DegenerateProblem,
    InfeasibleConstraints,
    NotRegularVector,
    ShapeMismatch,
    ZeroSpectralRadius,
)
from .linalg import (
    Matrix, Vector, _acyclic, _border, _compared, _dust, _family, _finite, _floyd_warshall,
    _karp, _scan, _unscale,
)
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


# kinds whose optimum needs a cycle in A, and kinds that need only one
# nonzero scale bound: lambda(A), (q^- p)^(1/2) or r; for Basic a zero
# theta is the no-cycle gate
_NEEDS_CYCLE = (ProblemKind.EXTENDED, ProblemKind.LINEAR_CONSTRAINED)
_NEEDS_SCALE = (ProblemKind.BOX_CONSTRAINED, ProblemKind.FIXPOINT_CONSTRAINED,
                ProblemKind.GENERAL)


def solve_problem(problem: Problem, eps: float = 1e-9) -> OptResult:
    """Validate the problem, run its gates and solve it in closed form.

    Every kind runs on the bordered pair Ahat = [[A, p], [q^-, r]] and
    Bhat = [[B, g], [h^-, 0]], absent data zero, scaled to ints and
    walked once for their finite-entry lists (`linalg._scan`).  The
    gates run in this order: q and h regular; B x (+) g <= x <= h
    solvable, which holds exactly when Bhat has no positive cycle,
    Tr(Bhat) <= 1; then the kind's no-cycle rule, an acyclicity test of
    A's listed entries.  The second gate passes when the first step of
    theta's walk, relaxed through Bhat, settles.  When it does not, one
    Floyd-Warshall pass of Bhat with pivots at the activities weighs
    B's heaviest cycle, the corner's largest diagonal entry, and
    Bhat's heaviest cycle through the border, its last diagonal entry.
    A failed gate is named by its part: Tr(B) <= 1 when B alone has a
    positive cycle, else h^- B* g <= 1 (h^- g <= 1 without B).  Float
    data pass while those diagonal entries are at most eps (compared
    exactly at scale D); the pass can go round a positive cycle more
    than once (a loop of weight w reads 2w), so dust heavier than eps
    always fails and dust below it can fail too.  The border pivot then
    completes Bhat*, and theta is read off it.

    theta is the largest cycle mean of Bhat* Ahat: the maximum ratio of
    weight to A-arc count over the cycles of Ahat (+) Bhat.  The
    minimizers are x = G u, G = (theta^-1 A (+) B)*,
    theta^-1 p (+) g <= u and, when q or h is given,
    u <= ((theta^-1 q^- (+) h^-) G)^-.  `linalg._family` reads all
    of it off one pass over the bordered theta^-1 Ahat (+) Bhat, built
    from the two lists, whose last column is then G (theta^-1 p (+) g),
    the canonical point when that lower bound is regular (else
    `SolutionSet.canonical` lifts its zeros first).  Past a dust cycle
    of float data the border values can exceed those products by dust.
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
    # the one scan: each bordered matrix's finite entries, which Karp,
    # the cycle gates and the family table all read
    scanned = _scan((_border(b, n, sf, g, hc, None), _border(a, n, sf, p, qc, r)), sf.zero)
    unit, items = _optimum(problem.kind, scanned, _dust(eps, *scanned[2:]))
    theta, gen, lower, upper, canonical = _unscale(items, unit, scanned[-1], sf.zero)  # floating
    sols = SolutionSet(generator=gen, lower=lower, upper=upper, minimum=theta)
    return OptResult(minimum=theta, solutions=sols, canonical=canonical)


def _optimum(kind: ProblemKind, scanned, dust) -> tuple[int, tuple]:
    """`solve_problem` on `_scan`'s bordered pair ((Bhat, Ahat), their
    lists, D, floating) of a problem of this kind, as ints, a positive
    cycle of weight at most dust (at scale D) passing: l D and
    (w, G, lower, upper, canonical point) at unit l D, theta being
    w / (l D).  A caller divides each answer by l D once."""
    (b_hat, a_hat), (b_nz, a_nz), scale, _ = scanned
    n, sf, zero = a_hat.n_rows - 1, a_hat.sf, a_hat.sf.zero
    # Karp's walk relaxes through Bhat, and its first step settles
    # exactly when Bhat has no positive cycle: None is the failed gate
    found = _karp((b_hat.rows, a_hat.rows), (b_nz, a_nz), n + 1, sf, True)
    if found is None:
        # a positive cycle; float data pass a dust one, Tr(Bhat) <= dust.
        # One pass over Bhat's table, pivots at the activities, weighs
        # the cycles: B's heaviest is the corner's largest diagonal
        # entry, Bhat's heaviest through the border d[n][n]
        d = [list(row) for row in b_hat.rows]
        _floyd_warshall(d, n, zero)
        if max(d[i][i] for i in range(n)) > dust:
            raise InfeasibleConstraints("Tr(B) <= 1")
        if d[n][n] > dust:
            raise InfeasibleConstraints("h^- B* g <= 1" if "B" in _FIELDS[kind] else "h^- g <= 1")
        # the border pivot completes Bhat*
        _floyd_warshall(d, n + 1, zero, n)
        for i in range(n + 1):
            d[i][i] = sf.one
        found = _karp((d, a_hat.rows), (_finite(d, zero), a_nz), n + 1, sf, False)
    # lambda(A) is zero exactly when A's arcs close no cycle
    if kind in _NEEDS_CYCLE and _acyclic(a_nz, n):
        raise ZeroSpectralRadius("matrix has no cycle")
    # q^- p (+) r is zero exactly when Ahat's border row times its
    # border column, q^- p (+) r r, is
    if (kind in _NEEDS_SCALE and sf.is_zero(a_hat.row(n) @ a_hat.column(n))
            and _acyclic(a_nz, n)):
        raise DegenerateProblem("every scale bound is zero: no cycle, q^- p zero, r zero")
    if sf.is_zero(found[0]):
        raise ZeroSpectralRadius("matrix has no cycle")
    # theta = w / l: the family at data scale l, where theta is the int
    # w, read off m = theta^-1 Ahat (+) Bhat = [[theta^-1 A (+) B,
    # theta^-1 p (+) g], [theta^-1 q^- (+) h^-, theta^-1 r]]; theta and
    # the family are then divided by l D once.  Each row starts at zero
    # and takes only finite entries, Bhat's where strictly larger, so
    # Ahat's wins a tie, as the left operand of (+) does
    w, ell = found[0].as_integer_ratio()
    m = []
    for fa, fb in zip(a_nz, b_nz):
        mi = [zero] * (n + 1)
        for j, x in fa:
            mi[j] = x * ell - w
        for j, y in fb:
            y *= ell
            if y > mi[j]:
                mi[j] = y
        m.append(mi)
    _, gen, lower, row = _family(m, n, sf)
    # a passing dust cycle can leave float dust in the box: dust at scale l D
    upper = None if row.is_zero() else _tighten_box(lower, row.conj(), dust * ell)
    if zero in lower.entries:
        canonical = SolutionSet(generator=gen, lower=lower, upper=upper).canonical()
    else:
        canonical = Vector([mi[n] for mi in m[:n]], sf)
    return ell * scale, (w, gen, lower, upper, canonical)


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


def _feasible(problem: Problem, x: Vector, bound: int) -> Optional[str]:
    """The first constraint that x breaks by more than bound, or None."""
    def leq(u: Vector, v: Vector) -> bool:
        return all(a <= b + bound for a, b in zip(u.entries, v.entries))

    if problem.B is not None:
        lhs = problem.B @ x
        if problem.g is not None:
            lhs = lhs + problem.g
        if not leq(lhs, x):
            return "constraint B x (+) g <= x violated"
    elif problem.g is not None and not leq(problem.g, x):
        return "constraint g <= x violated"
    if problem.h is not None and not leq(x, problem.h):
        return "constraint x <= h violated"
    return None


def verify_solution(problem: Problem, result: OptResult,
                    x: Vector) -> tuple[bool, str]:
    """Check a claimed minimizer: regular, feasible, attains the
    minimum, and lies in the returned family.  Returns (ok, reason);
    reason is empty on success.  The problem, x, the minimum and the
    family are compared on ints by `linalg._compared`'s one rule: the
    constraints, the objective and the distance to the family
    (`SolutionSet._near`) exactly on exact data, within its bound on
    float data."""
    if x.dim != problem.dim:
        return False, "dimension mismatch"
    if not x.is_regular():
        return False, "vector is not regular"
    sols = result.solutions
    r = () if problem.r is None else (problem.r,)
    data = (problem.A, problem.B, problem.p, problem.q, problem.g, problem.h)
    (*data, x, values, gen, lower, upper), bound = _compared(
        (*data, x, Vector((result.minimum, *r)), sols.generator, sols.lower, sols.upper),
        problem.dim)
    minimum, *r = values.entries
    ints = Problem(problem.kind, *data, *r)
    reason = _feasible(ints, x, bound)
    if reason is not None:
        return False, reason
    value = objective_value(ints, x)
    if value != minimum and not abs(value - minimum) <= bound:
        return False, "objective differs from the minimum"
    if not SolutionSet(gen, lower, upper)._near(x, bound):
        return False, "not in the solution family"
    return True, ""
