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
r is q^- p.  `solve_schedule` solves that General problem on one
`_scan` of A, B, p, q, g and h to ints at one scale D: the rewrite,
the solve (`optimize._optimum`) and y, s, t and the flow times all
run on those ints, and each answer is divided once, so a float answer
is the correctly rounded exact one.  `solve_schedule_detailed` also
lists theta's terms off the same scan, the rooted squeezes of the
chain and closure families of (A, B) against p, q, g, h, as a ledger:
a dict that names each printed item once, from the powers `A_pow` and
`B_pow` through the families and their `sum_*` roots to `theta`,
`scaled_sum` and the solution family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import InfeasibleConstraints, InfeasibleSchedule, SpecValidation
# chain_sums and closure_sums stay names of this module, where tracers
# that patch names where they are looked up find them; the ledger
# builds both families on its own int tables
from .linalg import (  # noqa: F401
    Matrix, RowVector, Vector, _border, _closures, _compared, _dust, _finite, _join, _powers,
    _product, _rescaled, _scaled_sum, _scan, _sum_products, _trace_product, _unscale,
    chain_sums, closure_sums,
)
from .linsolve import SolutionSet
from .optimize import Problem, ProblemKind, _optimum
from .semifield import MAXPLUS, Scalar


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


def _rewrite(a: Matrix, p: Vector, q: Vector) -> tuple[RowVector, Scalar]:
    """The flow-time objective's General rewrite: q^- A, the conjugate
    of its q-vector, and its floor r = q^- p."""
    qc = q.conj()
    return qc @ a, qc @ p


def build_problem(spec: ScheduleSpec) -> Problem:
    """Rewrite the schedule as a general span problem, in the data's
    own arithmetic.

    The flow-time objective absorbs A into the window floor: the
    q-vector becomes (q^- A)^- and the constant floor is q^- p.
    `solve_schedule` makes the same rewrite on its scanned ints.
    """
    spec.validate()
    qa, r = _rewrite(spec.start_finish, spec.window_upper, spec.window_lower)
    return Problem(ProblemKind.GENERAL, spec.start_finish, spec.start_start, spec.window_upper,
                   qa.conj(), spec.earliest_start, spec.latest_start, r)


def _scanned(spec: ScheduleSpec) -> tuple:
    """The validated spec's one `_scan`: A, B, p, q, g and h as ints
    at one scale D, their lists, D and floating."""
    spec.validate()
    return _scan((spec.start_finish, spec.start_start, spec.window_upper, spec.window_lower,
                  spec.earliest_start, spec.latest_start))


def _times(items: tuple, ell: int) -> tuple:
    """The int items at ell times their scale: each finite entry times
    ell, zero staying zero (`_rescaled`)."""
    if ell == 1:
        return items
    zero = MAXPLUS.zero
    return _rescaled(items, lambda row: tuple([v if v == zero else v * ell for v in row]))


def _solve(spec: ScheduleSpec, scanned: tuple, eps: float) -> ScheduleResult:
    """The schedule off the spec's scan: the rewrite on its ints, the
    bordered pair's optimum at unit l D (`optimize._optimum`, a dust
    cycle of weight eps passing), then y = A x, s, t and the flow times
    on the ints times l, so that every answer is divided by l D once."""
    (a, b, p, q, g, h), (a_nz, b_nz, *_), scale, floating = scanned
    n, zero = a.n_rows, MAXPLUS.zero
    qa, r = _rewrite(a, p, q)
    hc = h.conj()
    tables = (_border(b, n, g, hc, None), _border(a, n, p, qa, r))
    # their lists extend the spec's: p, h, q^- A and r are finite
    b_nz = [nz + [(n, v)] if v != zero else nz for nz, v in zip(b_nz, g.entries)]
    a_nz = [nz + [(n, v)] for nz, v in zip(a_nz, p.entries)]
    lists = (b_nz + [list(enumerate(hc.entries))], a_nz + [list(enumerate(qa.entries + (r,)))])
    try:
        unit, answer = _optimum(ProblemKind.GENERAL, (tables, lists, scale, floating),
                                _dust(eps, scale, floating))
    except InfeasibleConstraints as exc:
        raise InfeasibleSchedule(exc.condition) from None
    x = answer[-1]
    a, q, p = _times((a, q, p), unit // scale)
    y = a @ x
    s = x.meet(q)
    t = y + p
    # x, q and p are regular, so every t_i and s_i is finite and the
    # flow time t_i (x) s_i^-1 is plain subtraction
    flows = Vector([ti - si for ti, si in zip(t.entries, s.entries)])
    theta, gen, lower, upper, x, y, s, t, flows = _unscale(
        (*answer, y, s, t, flows), unit, floating)
    sols = SolutionSet(generator=gen, lower=lower, upper=upper, minimum=theta)
    return ScheduleResult(theta, x, y, s, t, flows.entries, sols, spec.names())


def solve_schedule(spec: ScheduleSpec, eps: float = 1e-9) -> ScheduleResult:
    """Minimize the largest flow time; exact minimum and all optima.
    Float data pass the dust gates of `solve_problem` at eps: the
    largest diagonal entry of one Floyd-Warshall pass at most eps,
    which reads a loop of weight w as 2w."""
    return _solve(spec, _scanned(spec), eps)


def _ledger(scanned: tuple, result: ScheduleResult) -> dict:
    """Every intermediate quantity of the paper's closed form for theta,
    keyed for introspection: matrix powers, the feasibility gates, the
    chain and closure families, the rooted squeezes against p, q, g, h
    and their sum `theta`, then the solution family.

    It reads the solve's own `_scan` of A, B, p, q, g and h, ints at
    one D, and builds each printed item once, under its own key, on
    the int tables.  The items are divided by one `_unscale` call per
    unit: D for the powers, the families and their terms, k D for a
    sum whose largest root is v/k, and l D for theta^-1 A (+) B and its
    powers, so a float item is the correctly rounded exact value on
    the data's own values.
    After s factors of the closure recurrence the top coefficient is
    A^s and the bottom one (I (+) B)^s = I (+) B (+) ... (+) B^s, read
    off `_powers` of A and B, the latter joined as they come; B* is
    T_0, the chain C_(k+1) is A T_k and C_n = A^n, and
    q^- C_(k+1) = (q^- A) T_k.  Each T_k's finite entries are listed
    once, for A T_k, h^- T_k and (q^- A) T_k.  The root v^(1/k) is the
    ratio v/k of ints, compared by cross-multiplying; theta = w/l at
    scale D puts theta^-1 A (+) B and its powers at scale l D, where
    theta is the int w, as in the solver's family table."""
    (a, b, _, q, _, h), (a_nz, b_nz, (p_nz,), _, (g_nz,), _), scale, floating = scanned
    zero, n = MAXPLUS.zero, a.n_rows
    a_pow, b_pow = _powers(a.rows, a_nz, n), _powers(b.rows, b_nz, n)
    b_sums = list(accumulate(b_pow, _join))
    closures = _closures(a_pow, b_sums, _finite(b_sums[1]), a_nz)
    t_nz = [_finite(t) for t in closures]
    chains = ([a_pow[0]] + [_product(a.rows, t, nz) for t, nz in zip(closures[:-1], t_nz)]
              + [a_pow[n]])

    # the rows h^- T_k and q^- C_(k+1) = (q^- A) T_k, two rows a product
    hc, qc = tuple(-v for v in h.entries), tuple(-v for v in q.entries)
    (qa,) = _sum_products(n, (((qc,), a_nz),))
    h_rows, q_rows = zip(*(_sum_products(n, (((hc, qa), nz),)) for nz in t_nz))
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
    a_l, b_l = _times((a, b), ell)
    scaled = _scaled_sum(-w, a_l, b_l)
    s_pow = _powers(scaled.rows, _finite(scaled.rows), n - 1)

    closures = [Matrix._built(t) for t in closures]
    inter = _unscale({
        "A_pow": {str(k): Matrix._built(a_pow[k]) for k in range(2, n + 1)},
        "B_pow": {str(k): Matrix._built(b_pow[k]) for k in range(2, n + 1)},
        "B_star": None,  # closure_sums[0], once divided
        "trace_sum_B": _trace_product(b, closures[0]),
        "h_Bstar_g": dot(h_rows[0], g_nz),
        "chain_sums": [Matrix._built(t) for t in chains],
        "closure_sums": closures,
        **{key: {str(k): v for k, v in terms.items()} for key, terms in families.items()},
    }, scale, floating)
    inter["B_star"] = inter["closure_sums"][0]
    inter.update({key: _unscale(v, k * scale, floating) for key, (v, k) in sums.items()})
    inter["theta"] = _unscale(top[0], top[1] * scale, floating)
    inter.update(_unscale({
        "scaled_sum": scaled,
        "scaled_sum_pow": {str(k): Matrix._built(s_pow[k]) for k in range(2, n)},
    }, ell * scale, floating))
    inter.update(
        generator=result.solutions.generator,
        lower_u=result.solutions.lower,
        upper_u=result.solutions.upper,
    )
    return inter


def solve_schedule_detailed(spec: ScheduleSpec,
                            eps: float = 1e-9) -> tuple[ScheduleResult, dict]:
    """Solve and also return the intermediate quantities by name, both
    off one scan of the spec, as `solve_schedule(spec, eps)` does, with
    its dust rule.  The ledger recomputes theta from its terms; it equals the solved one."""
    scanned = _scanned(spec)
    result = _solve(spec, scanned, eps)
    return result, _ledger(scanned, result)


def collapse_solution_line(solutions: SolutionSet) -> Optional[
    tuple[Vector, tuple[Scalar, Optional[Scalar]]]
]:
    """Collapse a rank-one solution family to a line segment.

    When every column of the generator is proportional to the last one,
    each solution is direction (x) v for a scalar v; returns the
    direction (the last generator column) and the closed v-interval the
    family sweeps.  None when the columns do not collapse.  The upper
    endpoint is None for an unbounded family.  The columns are compared
    on the generator's ints, float data within `linalg._compared`'s bound.
    """
    gen = solutions.generator
    n = gen.n_rows
    last = n - 1
    (ints,), bound = _compared((gen,), n)
    for row in ints.rows:
        c = row[last]
        for x, y in zip(row, ints.rows[last]):
            z = c + y  # the ints hold no +inf, so -inf + v stays the zero
            if x != z and not abs(x - z) <= bound:
                return None
    direction = gen.column(last)
    weights = RowVector(gen.rows[last])
    lo = weights @ solutions.lower
    hi = weights @ solutions.upper if solutions.upper is not None else None
    return direction, (lo, hi)
