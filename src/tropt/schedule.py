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
from typing import Optional

from .errors import InfeasibleConstraints, InfeasibleSchedule, SpecValidation
# chain_sums stays a name of this module, where tracers that patch names
# where they are looked up find it; the ledger reads chains off closures
from .linalg import (  # noqa: F401
    Matrix, RowVector, Vector, _scaled_sum, _trace_product, chain_sums, closure_sums,
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
    and their sum `theta`, then the solution family."""
    a, b = spec.start_finish, spec.start_start
    sf = a.sf
    n = a.n_rows
    g, h = spec.earliest_start, spec.latest_start
    p, q = spec.window_upper, spec.window_lower
    qc, hc = q.conj(), h.conj()

    bstar = b.star()
    closures = closure_sums(a, b)
    chains = [Matrix.identity(n, sf)] + [a @ t for t in closures]
    inter: dict = {
        "A_pow": {str(k): m for k, m in enumerate(a.powers(n)) if k >= 2},
        "B_pow": {str(k): m for k, m in enumerate(b.powers(n)) if k >= 2},
        "B_star": bstar,
        "trace_sum_B": _trace_product(b, bstar),
        "h_Bstar_g": hc @ bstar @ g,
        "chain_sums": chains,
        "closure_sums": closures,
    }

    def roots(terms: dict, shift: int) -> Scalar:
        """(+) over the keyed terms v_k of v_k^(1/(k+shift))."""
        return sf.sum(
            sf.power(v, Fraction(1, int(k) + shift)) for k, v in terms.items()
        )

    traces = {str(k): chains[k].trace() for k in range(1, n + 1)}
    # the rows h^- T_k and q^- C_k serve both the g and the p family
    h_closures = [hc @ t for t in closures]
    q_chains = [qc @ c for c in chains]
    h_closure_g = {str(k): h_closures[k] @ g for k in range(1, n)}
    q_chain_g = {str(k): q_chains[k] @ g for k in range(1, n + 1)}
    h_closure_p = {str(k): h_closures[k] @ p for k in range(n)}
    q_chain_p = {str(k): q_chains[k] @ p for k in range(n + 1)}
    sums = {
        "sum_trace_roots": roots(traces, 0),
        "sum_h_closure_g": roots(h_closure_g, 0),
        "sum_q_chain_g": roots(q_chain_g, 0),
        "sum_h_closure_p": roots(h_closure_p, 1),
        "sum_q_chain_p": roots(q_chain_p, 1),
    }
    scaled = _scaled_sum(sf.inv(result.theta), a, b)
    inter.update(
        h_closure_g=h_closure_g,
        q_chain_g=q_chain_g,
        h_closure_p=h_closure_p,
        q_chain_p=q_chain_p,
        **sums,
        theta=sf.sum(sums.values()),
        scaled_sum=scaled,
        scaled_sum_pow={
            str(k): m for k, m in enumerate(scaled.powers(n - 1)) if k >= 2
        },
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
