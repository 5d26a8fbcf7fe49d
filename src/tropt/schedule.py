"""Minimax flow-time project scheduling.

Activities i = 1..n start at x_i (the decision) and finish at
y_i = max_j (a_ij + x_j): activity i must run for a_ij after activity j
starts (start-finish lags A, at least one finite lag per column).
Additional data:

  start-start lags B:   x_i >= max_j (b_ij + x_j)
  start window [g, h]:  g <= x <= h
  flow window  [q, p]:  the turnaround measured for activity i starts
                        at min(x_i, q_i) and ends at max(y_i, p_i)

The objective is the largest flow time max_i (t_i - s_i) where
s = min(x, q) and t = max(y, p); the solver returns its exact minimum
theta and every optimal start vector, parameterized as x = G (x) u.

Algebraically the objective expands to
x^- A x (+) q^- A x (+) x^- p (+) q^- p over the max-plus semifield,
a span problem whose q-vector is replaced by (q^- A)^- and whose floor
r is q^- p.  `solve_schedule` solves that General problem; only
`solve_schedule_detailed` also lists theta's terms, the rooted
squeezes of the chain and closure families of (A, B) against p, q, g,
h, as a ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import InfeasibleConstraints, InfeasibleSchedule, SpecValidation
# chain_sums and closure_sums stay names of this module, where tracers
# that patch names where they are looked up find them; the ledger
# builds both families on its own int tables
from .linalg import (  # noqa: F401
    Matrix, RowVector, Vector, _closures, _finite, _product, _rescaled, _scaled_sum, _scan,
    _sum_products, _trace_product, _unscale, chain_sums, closure_sums,
)
from .linsolve import SolutionSet
from .optimize import Problem, ProblemKind, solve_problem
from .semifield import Scalar


@dataclass(frozen=True)
class ScheduleSpec:
    start_finish: Matrix
    start_start: Matrix
    earliest_start: Vector
    latest_start: Vector
    window_lower: Vector
    window_upper: Vector
    activities: Optional[tuple[str, ...]] = None

    @property
    def dim(self) -> int:
        return self.start_finish.n_rows

    def names(self) -> tuple[str, ...]:
        if self.activities is not None:
            return self.activities
        return tuple(f"a{i + 1}" for i in range(self.dim))

    def validate(self) -> None:
        problems = []
        a = self.start_finish
        if not a.is_square or a.n_rows < 1:
            problems.append("start-finish lag matrix must be square, order >= 1")
            raise SpecValidation(problems)
        n = a.n_rows
        if not (self.start_start.is_square and self.start_start.n_rows == n):
            problems.append("start-start lag matrix must be square of the same order")
        for name, vec in (
            ("earliestStart", self.earliest_start),
            ("latestStart", self.latest_start),
            ("windowLower", self.window_lower),
            ("windowUpper", self.window_upper),
        ):
            if vec.dim != n:
                problems.append(f"{name} must have one entry per activity")
        if not a.is_column_regular():
            problems.append(
                "start-finish lags need a finite entry in every column"
            )
        for name, vec in (
            ("latestStart", self.latest_start),
            ("windowLower", self.window_lower),
            ("windowUpper", self.window_upper),
        ):
            if vec.dim == n and not vec.is_regular():
                problems.append(f"{name} must be finite everywhere")
        if self.activities is not None:
            if len(self.activities) != n:
                problems.append("activity name list must match the order")
            if len(set(self.activities)) != len(self.activities):
                problems.append("activity names must be distinct")
        if problems:
            raise SpecValidation(problems)


@dataclass(frozen=True)
class ScheduleResult:
    theta: Scalar
    initiation: Vector
    completion: Vector
    adjusted_start: Vector
    adjusted_finish: Vector
    flow_times: tuple[Scalar, ...]
    solutions: SolutionSet
    activities: tuple[str, ...]


def build_problem(spec: ScheduleSpec) -> Problem:
    """Rewrite the schedule as a general span problem.

    The flow-time objective absorbs A into the window floor: the
    q-vector becomes (q^- A)^- and the constant floor is q^- p.
    """
    spec.validate()
    a = spec.start_finish
    qc = spec.window_lower.conj()
    return Problem(
        kind=ProblemKind.GENERAL,
        A=a,
        B=spec.start_start,
        p=spec.window_upper,
        q=(qc @ a).conj(),
        g=spec.earliest_start,
        h=spec.latest_start,
        r=qc @ spec.window_upper,
    )


def solve_schedule(spec: ScheduleSpec) -> ScheduleResult:
    """Minimize the largest flow time; exact minimum and all optima."""
    try:
        opt = solve_problem(build_problem(spec))
    except InfeasibleConstraints as exc:
        raise InfeasibleSchedule(exc.condition) from None
    x = opt.canonical
    y = spec.start_finish @ x
    s = x.meet(spec.window_lower)
    t = y + spec.window_upper
    # x, q and p are regular, so every t_i and s_i is finite and the
    # flow time t_i (x) s_i^-1 is plain subtraction
    flows = tuple(ti - si for ti, si in zip(t.entries, s.entries))
    return ScheduleResult(
        theta=opt.minimum,
        initiation=x,
        completion=y,
        adjusted_start=s,
        adjusted_finish=t,
        flow_times=flows,
        solutions=opt.solutions,
        activities=spec.names(),
    )


def _ledger(spec: ScheduleSpec, result: ScheduleResult) -> dict:
    """Every intermediate quantity of the paper's closed form for theta,
    keyed for introspection: matrix powers, the feasibility gates, the
    chain and closure families, the rooted squeezes against p, q, g, h
    and their sum `theta`, then the solution family.

    It runs as the solver does: one `_scan` scales A, B, p, q, g and h
    to ints by one D, every family is built once on the int tables,
    and each printed item is divided once (`_unscale`), so a float
    item is the correctly rounded exact value on the data's own values.
    After s factors of the closure recurrence the top coefficient is
    A^s and the bottom one (I (+) B)^s = I (+) B (+) ... (+) B^s, read
    off the two power lists; B* is T_0, the chain C_(k+1) is A T_k and
    C_n = A^n, and q^- C_(k+1) = (q^- A) T_k.  Each T_k's finite
    entries are listed once, for A T_k, h^- T_k and (q^- A) T_k.  The
    root v^(1/k) is the ratio v/k of ints, compared by
    cross-multiplying; theta = w/l at scale D puts theta^-1 A (+) B and
    its powers at scale l D, where theta is the int w, as in the
    solver's family table."""
    sf, zero, n = spec.start_finish.sf, spec.start_finish.sf.zero, spec.dim
    (a, b, _, q, _, h), (a_nz, b_nz, (p_nz,), _, (g_nz,), _), scale, floating = _scan(
        (spec.start_finish, spec.start_start, spec.window_upper,
         spec.window_lower, spec.earliest_start, spec.latest_start),
        zero,
    )
    eye = Matrix.identity(n, sf).rows
    a_pow, b_pow, b_sums = [eye, a.rows], [eye, b.rows], [eye]
    for _ in range(n - 1):
        a_pow.append(_product(a_pow[-1], a.rows, zero, a_nz))
        b_pow.append(_product(b_pow[-1], b.rows, zero, b_nz))
    for m in b_pow[1:]:
        b_sums.append(tuple([tuple([x if y <= x else y for x, y in zip(r, s)])
                             for r, s in zip(b_sums[-1], m)]))
    closures = _closures(a_pow, b_sums, _finite(b_sums[1], zero), a_nz, zero)
    t_nz = [_finite(t, zero) for t in closures]
    chains = [eye] + [_product(a.rows, t, zero, nz) for t, nz in zip(closures[:-1], t_nz)]
    chains.append(a_pow[n])

    # the rows h^- T_k and q^- C_(k+1) = (q^- A) T_k, two rows a product
    hc, qc = tuple(-v for v in h.entries), tuple(-v for v in q.entries)
    (qa,) = _sum_products(zero, n, (((qc,), a_nz),))
    h_rows, q_rows = zip(*(_sum_products(zero, n, (((hc, qa), nz),)) for nz in t_nz))
    q_rows = (qc,) + q_rows

    def dot(row, nz) -> Scalar:
        """row (x) a column given by its `_finite` list"""
        best = zero
        for j, y in nz:
            x = row[j]
            if x != zero and x + y > best:
                best = x + y
        return best

    traces = {k: max(chains[k][i][i] for i in range(n)) for k in range(1, n + 1)}
    families = {
        "h_closure_g": {k: dot(h_rows[k], g_nz) for k in range(1, n)},
        "q_chain_g": {k: dot(q_rows[k], g_nz) for k in range(1, n + 1)},
        "h_closure_p": {k: dot(h_rows[k], p_nz) for k in range(n)},
        "q_chain_p": {k: dot(q_rows[k], p_nz) for k in range(n + 1)},
    }

    def largest(pairs) -> tuple[Scalar, int]:
        """The first largest v/k over pairs (v, k) with v finite, by
        cross-multiplying; (zero, 1) when there is none."""
        best = (zero, 1)
        for v, k in pairs:
            if v != zero and (best[0] == zero or v * best[1] > best[0] * k):
                best = (v, k)
        return best

    # the root v_k^(1/(k+shift)) is the ratio v_k / (k+shift)
    sums = {
        f"sum_{key}": largest((v, k + shift) for k, v in terms.items())
        for key, terms, shift in (
            ("trace_roots", traces, 0),
            ("h_closure_g", families["h_closure_g"], 0),
            ("q_chain_g", families["q_chain_g"], 0),
            ("h_closure_p", families["h_closure_p"], 1),
            ("q_chain_p", families["q_chain_p"], 1),
        )
    }
    top = largest(sums.values())
    # theta = w / l at scale D, finite since q^- p is: theta^-1 A (+) B
    # at scale l D
    w, ell = Fraction(*top).as_integer_ratio()
    a_l, b_l = (a, b) if ell == 1 else _rescaled(
        (a, b), lambda row: tuple(v if v == zero else v * ell for v in row))
    scaled = _scaled_sum(-w, a_l, b_l).rows
    s_pow, s_nz = [scaled], _finite(scaled, zero)
    for _ in range(n - 2):
        s_pow.append(_product(s_pow[-1], scaled, zero, s_nz))

    def divided(items, unit: int = 1) -> Iterator:
        """The items at scale unit D, each divided once, in order."""
        return iter(_unscale(items, unit * scale, floating, zero))

    # the tables at scale D, then their scalars as one row
    scalars = [_trace_product(b, Matrix._built(closures[0], sf)), dot(h_rows[0], g_nz)]
    for terms in families.values():
        scalars += terms.values()
    out = divided([Matrix._built(t, sf) for t in a_pow[2:] + b_pow[2:] + closures + chains]
                  + [RowVector(scalars, sf)])
    inter: dict = {
        "A_pow": {str(k): next(out) for k in range(2, n + 1)},
        "B_pow": {str(k): next(out) for k in range(2, n + 1)},
    }
    closures = [next(out) for _ in closures]
    chains = [next(out) for _ in chains]
    values = iter(next(out).entries)
    inter.update(
        B_star=closures[0],
        trace_sum_B=next(values),
        h_Bstar_g=next(values),
        chain_sums=chains,
        closure_sums=closures,
    )
    for key, terms in families.items():
        inter[key] = {str(k): next(values) for k in terms}
    inter.update({key: next(divided((v,), k)) for key, (v, k) in sums.items()})
    s_pow = divided([Matrix._built(t, sf) for t in s_pow], ell)
    inter.update(
        theta=next(divided(top[:1], top[1])),
        scaled_sum=next(s_pow),
        scaled_sum_pow={str(k): next(s_pow) for k in range(2, n)},
        generator=result.solutions.generator,
        lower_u=result.solutions.lower,
        upper_u=result.solutions.upper,
    )
    return inter


def solve_schedule_detailed(spec: ScheduleSpec) -> tuple[ScheduleResult, dict]:
    """Solve and also return the intermediate quantities by name.  The
    ledger recomputes theta from its terms; it equals the solved one."""
    result = solve_schedule(spec)
    return result, _ledger(spec, result)


def collapse_solution_line(solutions: SolutionSet) -> Optional[
    tuple[Vector, tuple[Scalar, Optional[Scalar]]]
]:
    """Collapse a rank-one solution family to a line segment.

    When every column of the generator is proportional to the last one,
    each solution is direction (x) v for a scalar v; returns the
    direction (the last generator column) and the closed v-interval the
    family sweeps.  None when the columns do not collapse.  The upper
    endpoint is None for an unbounded family.
    """
    gen = solutions.generator
    sf = gen.sf
    n = gen.n_rows
    last = n - 1
    for i in range(n):
        for j in range(n):
            if not sf.eq(
                gen.rows[i][j], sf.mul(gen.rows[i][last], gen.rows[last][j])
            ):
                return None
    direction = gen.column(last)
    weights = RowVector(gen.rows[last], sf)
    lo = weights @ solutions.lower
    hi = weights @ solutions.upper if solutions.upper is not None else None
    return direction, (lo, hi)
