"""Brute-force oracles, independent of the closed-form path.

Everything here re-derives values the solvers produce in closed form:

  grid_minimize            dense lattice scan of a span problem
  grid_minimize_schedule   dense lattice scan of the literal flow times
  max_cycle_mean           spectral radius by simple-cycle enumeration
  critical_nodes           nodes on cycles attaining the maximum mean
  enum_chain_sum           chain family by literal composition listing
  enum_closure_sum         closure family likewise
  enum_cumulative_sum      power-sum expansion of (A (+) B) likewise
  enum_cumulative_trace    its trace twin

The oracles run exact arithmetic only (int / Fraction inputs).  Grid
scans multiply all data by the lcm of the denominators so every
evaluation is plain integer max/+, with None standing in for the
tropical zero in converted data.  None of this code calls the solver
path: products, objectives and feasibility tests are re-implemented on
raw lists.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GridTooLarge, NoFeasiblePoint, TooLarge
from .linalg import Matrix, Vector
from .optimize import _FIELDS, Problem, ProblemKind
from .schedule import ScheduleSpec
from .semifield import MAXPLUS, Scalar, Semifield

POINT_BUDGET = 10**7
_SENTINEL = -(10**15)


def default_step(n: int) -> Fraction:
    """Step fine enough to hit every closed-form optimum for integer
    data of order n: denominators divide lcm(1..n+1)."""
    return Fraction(1, math.lcm(*range(1, n + 2)))


@dataclass(frozen=True)
class GridSpec:
    lower: Vector
    upper: Vector
    step: Fraction

    def __post_init__(self):
        if self.lower.dim != self.upper.dim:
            raise ValueError("grid corners disagree in dimension")
        if not (self.lower.is_regular() and self.upper.is_regular()):
            raise ValueError("grid corners must be finite")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        for lo, up in zip(self.lower.entries, self.upper.entries):
            if lo > up:
                raise ValueError("grid lower corner exceeds upper corner")


def _exact(value: Scalar, zero: Scalar) -> Optional[Fraction]:
    """Fraction for finite entries, None for the semifield zero."""
    if value == zero:
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"oracle needs exact scalars, got {value!r}")


def _mat(m: Optional[Matrix]) -> Optional[list[list[Optional[Fraction]]]]:
    if m is None:
        return None
    zero = m.sf.zero
    return [[_exact(v, zero) for v in row] for row in m.rows]


def _vec(v: Optional[Vector]) -> Optional[list[Optional[Fraction]]]:
    if v is None:
        return None
    zero = v.sf.zero
    return [_exact(x, zero) for x in v.entries]


def _denoms(*structures) -> int:
    out = 1
    for s in structures:
        if s is None:
            continue
        if isinstance(s, Fraction):
            out = math.lcm(out, s.denominator)
        elif isinstance(s, list):
            out = math.lcm(out, _denoms(*s))
    return out


def _scale_mat(m, scale: int):
    if m is None:
        return None
    return [
        [_SENTINEL if v is None else int(v * scale) for v in row] for row in m
    ]


def _scale_vec(v, scale: int):
    if v is None:
        return None
    return [_SENTINEL if x is None else int(x * scale) for x in v]


def _axes(grid: GridSpec, scale: int) -> list[range]:
    step = int(grid.step * scale)
    axes = []
    total = 1
    for lo, up in zip(grid.lower.entries, grid.upper.entries):
        lo_i = int(Fraction(lo) * scale)
        up_i = int(Fraction(up) * scale)
        axes.append(range(lo_i, up_i + 1, step))
        total *= (up_i - lo_i) // step + 1
        if total > POINT_BUDGET:
            raise GridTooLarge(f"grid exceeds {POINT_BUDGET} points")
    return axes


def _span(a_rows, xs, n: int) -> int:
    """max over i of ((A x)_i - x_i), integer data with sentinels."""
    best = _SENTINEL
    for i in range(n):
        row = a_rows[i]
        m = max(row[j] + xs[j] for j in range(n)) - xs[i]
        if m > best:
            best = m
    return best


def grid_minimize(problem: Problem, grid: GridSpec) -> tuple[Fraction, Vector]:
    """Exhaustive minimum of the problem objective over the lattice of
    grid points satisfying the problem's constraints."""
    problem.validate()
    n = problem.dim
    if grid.lower.dim != n:
        raise ValueError("grid dimension differs from problem order")
    kind = problem.kind
    a = _mat(problem.A)
    b = _mat(problem.B)
    p = _vec(problem.p)
    q = _vec(problem.q)
    g = _vec(problem.g)
    h = _vec(problem.h)
    r = None
    if problem.r is not None:
        r = _exact(problem.r, problem.A.sf.zero)
    step_and_corners = [
        grid.step,
        [Fraction(v) for v in grid.lower.entries],
        [Fraction(v) for v in grid.upper.entries],
    ]
    scale = _denoms(a, b, p, q, g, h, r, *step_and_corners)
    a_s = _scale_mat(a, scale)
    b_s = _scale_mat(b, scale)
    p_s = _scale_vec(p, scale)
    q_s = _scale_vec(q, scale)
    g_s = _scale_vec(g, scale)
    h_s = _scale_vec(h, scale)
    r_s = _SENTINEL if r is None else int(r * scale)
    axes = _axes(grid, scale)

    check_fix = kind in (
        ProblemKind.LINEAR_CONSTRAINED,
        ProblemKind.GENERAL,
        ProblemKind.FIXPOINT_CONSTRAINED,
    )
    check_lower = g_s is not None and kind is not ProblemKind.FIXPOINT_CONSTRAINED
    check_upper = h_s is not None
    extended = kind not in (ProblemKind.BASIC, ProblemKind.LINEAR_CONSTRAINED)

    best: Optional[int] = None
    arg: Optional[tuple[int, ...]] = None
    rng_n = range(n)
    for xs in itertools.product(*axes):
        if check_fix:
            ok = True
            for i in rng_n:
                row = b_s[i]
                if max(row[j] + xs[j] for j in rng_n) > xs[i]:
                    ok = False
                    break
            if not ok:
                continue
        if check_lower and any(g_s[i] > xs[i] for i in rng_n):
            continue
        if check_upper and any(xs[i] > h_s[i] for i in rng_n):
            continue
        value = _span(a_s, xs, n)
        if extended:
            for i in rng_n:
                d = p_s[i] - xs[i]
                if d > value:
                    value = d
                d = xs[i] - q_s[i]
                if d > value:
                    value = d
            if r_s > value:
                value = r_s
        if best is None or value < best:
            best = value
            arg = xs
    if best is None:
        raise NoFeasiblePoint("no grid point satisfies the constraints")
    sf = problem.A.sf
    return Fraction(best, scale), Vector(
        tuple(Fraction(x, scale) for x in arg), sf
    )


def grid_minimize_schedule(
    spec: ScheduleSpec, grid: GridSpec
) -> tuple[Fraction, Vector]:
    """Exhaustive minimum of the literal largest flow time
    max_i (max((Ax)_i, p_i) - min(x_i, q_i)) over feasible grid points.
    Constraints checked directly: B x <= x and g <= x <= h."""
    spec.validate()
    n = spec.dim
    a = _mat(spec.start_finish)
    b = _mat(spec.start_start)
    g = _vec(spec.earliest_start)
    h = _vec(spec.latest_start)
    q = _vec(spec.window_lower)
    p = _vec(spec.window_upper)
    corners = [
        grid.step,
        [Fraction(v) for v in grid.lower.entries],
        [Fraction(v) for v in grid.upper.entries],
    ]
    scale = _denoms(a, b, g, h, q, p, *corners)
    a_s = _scale_mat(a, scale)
    b_s = _scale_mat(b, scale)
    g_s = _scale_vec(g, scale)
    h_s = _scale_vec(h, scale)
    q_s = _scale_vec(q, scale)
    p_s = _scale_vec(p, scale)
    axes = _axes(grid, scale)
    rng_n = range(n)
    best: Optional[int] = None
    arg = None
    for xs in itertools.product(*axes):
        feasible = True
        for i in rng_n:
            row = b_s[i]
            if max(row[j] + xs[j] for j in rng_n) > xs[i]:
                feasible = False
                break
            if g_s[i] > xs[i] or xs[i] > h_s[i]:
                feasible = False
                break
        if not feasible:
            continue
        worst = _SENTINEL
        for i in rng_n:
            row = a_s[i]
            finish = max(row[j] + xs[j] for j in rng_n)
            if p_s[i] > finish:
                finish = p_s[i]
            start = xs[i] if xs[i] < q_s[i] else q_s[i]
            flow = finish - start
            if flow > worst:
                worst = flow
        if best is None or worst < best:
            best = worst
            arg = xs
    if best is None:
        raise NoFeasiblePoint("no grid point satisfies the constraints")
    return Fraction(best, scale), Vector(
        tuple(Fraction(x, scale) for x in arg), spec.start_finish.sf
    )


# -- cycle enumeration -------------------------------------------------------

_CYCLE_CAP = 8


def _simple_cycles(m) -> list[tuple[Fraction, tuple[int, ...]]]:
    """(mean, nodes) for every simple cycle, smallest node first."""
    n = len(m)
    if n > _CYCLE_CAP:
        raise TooLarge(f"cycle enumeration capped at order {_CYCLE_CAP}")
    found = []
    nodes = list(range(n))
    for size in range(1, n + 1):
        for subset in itertools.combinations(nodes, size):
            first = subset[0]
            for tail in itertools.permutations(subset[1:]):
                cycle = (first, *tail)
                weight = Fraction(0)
                ok = True
                for a, b in zip(cycle, cycle[1:] + (first,)):
                    v = m[a][b]
                    if v is None:
                        ok = False
                        break
                    weight += v
                if ok:
                    found.append((Fraction(weight, size), cycle))
    return found


def max_cycle_mean(a: Matrix) -> Scalar:
    """Spectral radius, independently: the best mean weight of a simple
    cycle in the matrix digraph; the semifield zero when acyclic."""
    cycles = _simple_cycles(_mat(a))
    if not cycles:
        return a.sf.zero
    return max(c[0] for c in cycles)


def critical_nodes(a: Matrix) -> frozenset[int]:
    """Nodes lying on some cycle attaining the maximum mean."""
    cycles = _simple_cycles(_mat(a))
    if not cycles:
        return frozenset()
    best = max(c[0] for c in cycles)
    out: set[int] = set()
    for mean, cycle in cycles:
        if mean == best:
            out.update(cycle)
    return frozenset(out)


# -- literal composition enumeration ----------------------------------------

_ENUM_CAP = 6


def _madd(x, y):
    if x is None:
        return y
    if y is None:
        return x
    return x if x >= y else y


def _mmul_entry(x, y):
    if x is None or y is None:
        return None
    return x + y


def _lmat_mul(a, b):
    n = len(a)
    return [
        [
            _madd_reduce(_mmul_entry(a[i][k], b[k][j]) for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _madd_reduce(values) -> Optional[Fraction]:
    acc = None
    for v in values:
        acc = _madd(acc, v)
    return acc


def _lmat_add(a, b):
    n = len(a)
    return [[_madd(a[i][j], b[i][j]) for j in range(n)] for i in range(n)]


def _lmat_eye(n):
    return [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]


def _lmat_zero(n):
    return [[None] * n for _ in range(n)]


def _lmat_pows(m, top):
    out = [_lmat_eye(len(m))]
    for _ in range(top):
        out.append(_lmat_mul(out[-1], m))
    return out


def _to_matrix(rows, sf: Semifield) -> Matrix:
    return Matrix(
        tuple(
            tuple(sf.zero if v is None else v for v in row) for row in rows
        ),
        sf,
    )


def _guard_enum(a: Matrix, b: Matrix) -> int:
    n = a.n_rows
    if n > _ENUM_CAP:
        raise TooLarge(f"composition enumeration capped at order {_ENUM_CAP}")
    if not (a.is_square and b.is_square and b.n_rows == n):
        raise ValueError("need square matrices of one order")
    return n


def _compositions(parts: int, budget: int):
    """All tuples of `parts` nonnegative ints with sum <= budget."""
    return (
        c
        for c in itertools.product(range(budget + 1), repeat=parts)
        if sum(c) <= budget
    )


def enum_chain_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    """Literal sum over i1+...+ik <= n-k of A B^i1 ... A B^ik."""
    n = _guard_enum(a, b)
    am, bm = _mat(a), _mat(b)
    budget = n - k
    bpow = _lmat_pows(bm, max(budget, 0))
    acc = _lmat_eye(n) if k == 0 else _lmat_zero(n)
    for comp in _compositions(k, budget):
        term = None
        for i in comp:
            block = _lmat_mul(am, bpow[i])
            term = block if term is None else _lmat_mul(term, block)
        if term is not None:
            acc = _lmat_add(acc, term)
    return _to_matrix(acc, a.sf)


def enum_closure_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    """Literal sum over i0+i1+...+ik <= n-k-1 of B^i0 A B^i1 ... A B^ik."""
    n = _guard_enum(a, b)
    am, bm = _mat(a), _mat(b)
    budget = n - k - 1
    bpow = _lmat_pows(bm, max(budget, 0))
    acc = _lmat_zero(n)
    for comp in _compositions(k + 1, budget):
        term = bpow[comp[0]]
        for i in comp[1:]:
            term = _lmat_mul(term, _lmat_mul(am, bpow[i]))
        acc = _lmat_add(acc, term)
    return _to_matrix(acc, a.sf)


def enum_cumulative_sum(a: Matrix, b: Matrix, m: int) -> Matrix:
    """Literal right side of the cumulative power identity:
    (+) over k=1..m, i0+...+ik <= m-k of B^i0 A B^i1 ... A B^ik,
    joined with (+) over k=1..m of B^k."""
    n = _guard_enum(a, b)
    am, bm = _mat(a), _mat(b)
    bpow = _lmat_pows(bm, m)
    acc = _lmat_zero(n)
    for k in range(1, m + 1):
        for comp in _compositions(k + 1, m - k):
            term = bpow[comp[0]]
            for i in comp[1:]:
                term = _lmat_mul(term, _lmat_mul(am, bpow[i]))
            acc = _lmat_add(acc, term)
    for k in range(1, m + 1):
        acc = _lmat_add(acc, bpow[k])
    return _to_matrix(acc, a.sf)


def enum_cumulative_trace(a: Matrix, b: Matrix, m: int) -> Scalar:
    """Literal right side of the cumulative trace identity:
    (+) over k=1..m, i1+...+ik <= m-k of tr(A B^i1 ... A B^ik),
    joined with (+) over k=1..m of tr(B^k)."""
    n = _guard_enum(a, b)
    am, bm = _mat(a), _mat(b)
    bpow = _lmat_pows(bm, m)
    acc: Optional[Fraction] = None
    for k in range(1, m + 1):
        for comp in _compositions(k, m - k):
            term = None
            for i in comp:
                block = _lmat_mul(am, bpow[i])
                term = block if term is None else _lmat_mul(term, block)
            acc = _madd(acc, _madd_reduce(term[i][i] for i in range(n)))
    for k in range(1, m + 1):
        acc = _madd(acc, _madd_reduce(bpow[k][i][i] for i in range(n)))
    return a.sf.zero if acc is None else acc


# -- random instances --------------------------------------------------------


def random_matrix(
    rng: random.Random,
    n: int,
    zero_p: float = 0.35,
    lo: int = -5,
    hi: int = 5,
    sf: Semifield = MAXPLUS,
) -> Matrix:
    """Integer matrix with entries in [lo, hi] or zero."""
    return Matrix(
        tuple(
            tuple(
                sf.zero if rng.random() < zero_p else rng.randint(lo, hi)
                for _ in range(n)
            )
            for _ in range(n)
        ),
        sf,
    )


def random_vector(
    rng: random.Random,
    n: int,
    zero_p: float = 0.0,
    lo: int = -5,
    hi: int = 5,
    sf: Semifield = MAXPLUS,
) -> Vector:
    return Vector(
        tuple(
            sf.zero if rng.random() < zero_p else rng.randint(lo, hi)
            for _ in range(n)
        ),
        sf,
    )


def random_trace_bounded(
    rng: random.Random,
    n: int,
    zero_p: float = 0.5,
    cap: int = 500,
    sf: Semifield = MAXPLUS,
) -> Matrix:
    """Random matrix with trace sum at most one, by rejection; the
    all-zero matrix after `cap` failures (degenerate but valid)."""
    for _ in range(cap):
        m = random_matrix(rng, n, zero_p=zero_p, sf=sf)
        # tr A <= Tr A: a positive diagonal rejects most draws before
        # the star is built
        if sf.leq(m.trace(), sf.one) and sf.leq(m.trace_sum(), sf.one):
            return m
    return Matrix.zeros(n, n, sf)


def sample_problem(
    rng: random.Random, kind: ProblemKind, n: Optional[int] = None
) -> Problem:
    """Random integer instance of the given kind.  Data sits in [-5, 5]
    with occasional tropical zeros; box corners are drawn so g <= h.
    The draw can still be infeasible or degenerate for its solver, which
    is intentional: callers decide whether to keep or skip those."""
    sf = MAXPLUS
    if n is None:
        n = rng.choice((2, 3))
    a = random_matrix(rng, n, zero_p=0.3)
    fields = {"kind": kind, "A": a}
    need = _FIELDS[kind]
    if "B" in need:
        fields["B"] = random_trace_bounded(rng, n)
    if "p" in need:
        fields["p"] = random_vector(rng, n, zero_p=0.2)
    if "q" in need:
        fields["q"] = random_vector(rng, n)
    if "g" in need:
        g = random_vector(rng, n, zero_p=0.2, lo=-5, hi=0)
        fields["g"] = g
        if "h" in need:
            fields["h"] = Vector(
                tuple(
                    (v if not sf.is_zero(v) else rng.randint(-3, 0))
                    + rng.randint(0, 4)
                    for v in g.entries
                ),
                sf,
            )
    elif "h" in need:
        fields["h"] = random_vector(rng, n, lo=-1, hi=4)
    if "r" in need:
        fields["r"] = rng.randint(-5, 5)
    return Problem(**fields)


def sample_schedule(rng: random.Random, n: Optional[int] = None) -> ScheduleSpec:
    """Random integer schedule with a column-regular duration matrix,
    a feasibility-friendly precedence matrix and g <= h windows."""
    sf = MAXPLUS
    if n is None:
        n = rng.choice((2, 3))
    rows = [list(r) for r in random_matrix(rng, n, zero_p=0.3, lo=0, hi=5).rows]
    for j in range(n):
        if all(sf.is_zero(rows[i][j]) for i in range(n)):
            rows[rng.randrange(n)][j] = rng.randint(1, 5)
    a = Matrix(tuple(tuple(r) for r in rows), sf)
    b = random_trace_bounded(rng, n, zero_p=0.6)
    g = random_vector(rng, n, zero_p=0.3, lo=-2, hi=1)
    h = Vector(
        tuple(
            (v if not sf.is_zero(v) else 0) + rng.randint(0, 4)
            for v in g.entries
        ),
        sf,
    )
    return ScheduleSpec(
        start_finish=a,
        start_start=b,
        earliest_start=g,
        latest_start=h,
        window_lower=random_vector(rng, n, lo=-2, hi=3),
        window_upper=random_vector(rng, n, lo=0, hi=5),
    )
