"""Brute-force oracles, independent of the closed-form path.

Everything here re-derives values the solvers produce in closed form:

  grid_minimize            lattice scan of a span problem
  grid_minimize_schedule   lattice scan of the literal flow times
  max_cycle_mean           spectral radius by simple-cycle enumeration
  critical_nodes           nodes on cycles attaining the maximum mean
  enum_chain_sum           chain family by literal composition listing
  enum_closure_sum         closure family likewise
  enum_cumulative_sum      power-sum expansion of (A (+) B) likewise
  enum_cumulative_trace    its trace twin

The oracles run exact arithmetic only (int / Fraction inputs), with
None standing in for the tropical zero in converted data.  Grid scans
multiply all data by the lcm of the denominators so every evaluation
is plain integer max/+.  Both scanned objectives are maxima of
difference terms c + x_j - x_i, and B x <= x is a set of such terms
that must stay <= 0; a zero entry makes no term, so no zero takes part
in any sum.  The scan cuts each axis to the bounds g <= x <= h it
checks, then walks the prefixes x_0 .. x_(n-3) in lexicographic order,
settling every term once per prefix.  Along the last two axes it works
in closed form: each value of x_(n-2) costs O(1), with the best
x_(n-1) found without visiting the points.  It returns the minimum
and the first strict minimiser in the order of the full lattice.  The
point budget counts the uncut grid.  None of this code calls the
solver path: products, objectives and feasibility tests are
re-implemented on raw lists.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GridTooLarge, NoFeasiblePoint, NotRegularVector, TooLarge
from .linalg import Matrix, Vector
from .optimize import _FIELDS, Problem, ProblemKind
from .schedule import ScheduleSpec
from .semifield import MAXPLUS, Scalar, Semifield

POINT_BUDGET = 10**7


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


def _scale_vec(v, scale: int):
    if v is None:
        return None
    return [None if x is None else int(x * scale) for x in v]


def _terms(m, scale: int) -> list[tuple[int, int, int]]:
    """(m_ij, j, i), scaled, for each finite entry of m: the difference
    term m_ij + x_j - x_i.  A zero entry makes no term."""
    if m is None:
        return []
    return [
        (int(v * scale), j, i)
        for i, row in enumerate(m)
        for j, v in enumerate(row)
        if v is not None
    ]


def _clip(axis: range, lo: Optional[int], hi: Optional[int]) -> range:
    """The points of a lattice axis inside [lo, hi]; None leaves a side
    open."""
    first = 0 if lo is None else max(0, -((axis.start - lo) // axis.step))
    stop = len(axis) if hi is None else max(0, (hi - axis.start) // axis.step + 1)
    return axis[first:stop]


def _lattice(grid: GridSpec, g, h, *data) -> tuple[int, list[range]]:
    """The lcm of the denominators of the grid and the data, and the
    grid's axes at that scale cut to g <= x <= h.  The point budget
    counts the uncut grid.  A zero g_i bounds nothing; a zero h_i,
    x_i <= -inf, admits no point."""
    corners = [Fraction(v) for v in grid.lower.entries + grid.upper.entries]
    scale = _denoms(grid.step, corners, g, h, *data)
    step = int(grid.step * scale)
    lower, upper = _scale_vec(g, scale), _scale_vec(h, scale)
    axes = []
    total = 1
    for i, (lo, up) in enumerate(zip(grid.lower.entries, grid.upper.entries)):
        lo_i = int(Fraction(lo) * scale)
        up_i = int(Fraction(up) * scale)
        total *= (up_i - lo_i) // step + 1
        if total > POINT_BUDGET:
            raise GridTooLarge(f"grid exceeds {POINT_BUDGET} points")
        axis = range(lo_i, up_i + 1, step)
        hi = None if upper is None else upper[i]
        if upper is not None and hi is None:
            axis = axis[:0]
        axes.append(_clip(axis, None if lower is None else lower[i], hi))
    return scale, axes


def _slopes(terms, n: int) -> dict:
    """Terms (c, j, i) by their slope (ds, dt) in s = x_(n-2) and
    t = x_(n-1).  x_j adds one to a slope and x_i takes one away, so
    seven slopes occur."""
    classes: dict = {}
    for c, j, i in terms:
        key = ((j == n - 2) - (i == n - 2), (j == n - 1) - (i == n - 1))
        classes.setdefault(key, []).append((c, j, i))
    return classes


def _lines(classes, x) -> tuple[list, list, list]:
    """The largest term of each class at the prefix x, as a line
    (ds, offset) in s.  The lines come in three groups, by their slope
    0, +1 and -1 in t (the last one at index -1)."""
    groups: tuple[list, list, list] = ([], [], [])
    for (ds, dt), terms in classes.items():
        groups[dt].append((ds, max(c + x[j] - x[i] for c, j, i in terms)))
    return groups


def _column(lines, ss: range):
    """The largest of the lines at each s of ss; None at each when
    there is no line."""
    cols = [
        range(off + ds * ss.start, off + ds * ss.stop, ds * ss.step)
        if ds
        else itertools.repeat(off)
        for ds, off in lines
    ]
    if len(cols) < 2:
        return cols[0] if cols else itertools.repeat(None)
    return map(max, *cols)


def _scan(axes: list[range], objective, constraints) -> tuple[int, tuple[int, ...]]:
    """First strict minimum, in lexicographic order, of the largest
    objective term over the lattice points where every constraint term
    is <= 0.  Terms are (c, j, i) for c + x_j - x_i, index n standing
    for no variable.  Returns (minimum, argmin), scaled.

    Terms fall into seven classes by their slope in s = x_(n-2) and
    t = x_(n-1).  The outer loop runs over the prefixes x_0 .. x_(n-3),
    and a prefix costs one pass over the terms for each class's largest
    one.  That leaves lines in s.  The constraints that hold no t clip
    the s axis; the others give t a floor and a cap at each s.  The
    objective at s is max(const, rise + t, fall - t), a convex function
    of t.  Its least value on the lattice is at a neighbour of
    (fall - rise) / 2, and its first minimiser is the first lattice
    t >= fall - min, so each s costs O(1).  With n = 1 there is no s:
    it runs over one point of slope 0.
    """
    n = len(axes)
    obj, con = _slopes(objective, n), _slopes(constraints, n)
    s_axis = axes[n - 2] if n > 1 else range(1)
    best: Optional[int] = None
    arg: tuple[int, ...] = ()
    for prefix in itertools.product(*axes[: max(n - 2, 0)]):
        # s and t cancel in every class offset; x[n] is no variable
        x = prefix + (0, 0, 0)
        flat, cap, floor = _lines(con, x)
        if any(ds == 0 and off > 0 for ds, off in flat):
            continue  # a constant constraint term above 0: no s, t mends it
        lower = upper = None
        for ds, off in flat:  # off + s <= 0 or off - s <= 0
            if ds > 0:
                upper = -off
            elif ds < 0:
                lower = off
        const, rise, fall = _lines(obj, x)
        ss = _clip(s_axis, lower, upper)
        columns = (_column(lines, ss) for lines in (cap, floor, const, rise, fall))
        # line + t <= 0 caps t at -line; line - t <= 0 floors it at line
        for s, up, low, c, r, f in zip(ss, *columns):
            inner = _clip(axes[-1], low, None if up is None else -up)
            if not inner:
                continue
            # Stand-ins that change no value on [lo, hi]: a slope term is
            # at least its value at one end, and a missing slope term may
            # be one that never exceeds the constant there.
            lo, hi = inner[0], inner[-1]
            if c is None:
                c = r + lo if r is not None else f - hi
            if r is None:
                r = c - hi
            if f is None:
                f = c + lo
            # max(r + t, f - t) falls up to (f - r) / 2 and rises after
            # it, so its least value is at a lattice neighbour of that point
            d = inner.step
            t = lo + (f - r - 2 * lo) // (2 * d) * d
            if t < lo:
                value = r + lo
            elif t >= hi:
                value = f - hi
            else:
                value = min(f - t, r + t + d)
            if c > value:
                value = c
            if best is None or value < best:
                best = value
                arg = prefix + (s, _clip(inner, f - value, None)[0])
    if best is None:
        raise NoFeasiblePoint("no grid point satisfies the constraints")
    return best, arg[-n:]  # with n = 1, without the stand-in s


def grid_minimize(problem: Problem, grid: GridSpec) -> tuple[Scalar, Vector]:
    """Exhaustive minimum of the problem objective over the lattice of
    grid points satisfying the problem's constraints, B x <= x and
    g <= x <= h for the data the kind carries.

    The axes are cut to [g, h] before the scan; GridTooLarge counts the
    uncut grid.  The objective is scanned as its difference terms:
    a_ij + x_j - x_i, p_i - x_i, x_i - q_i and r, for finite entries
    only.  q must be regular, as a zero q_i makes q^- x infinite.  When
    no term is left (Basic or LinearConstrained with A all zero) the
    objective is the semifield zero at every point: that is the
    minimum, at the first feasible point.
    """
    problem.validate()
    n = problem.dim
    if grid.lower.dim != n:
        raise ValueError("grid dimension differs from problem order")
    sf = problem.A.sf
    a = _mat(problem.A)
    b = _mat(problem.B)
    p = _vec(problem.p)
    q = _vec(problem.q)
    g = _vec(problem.g)
    h = _vec(problem.h)
    r = None
    if problem.r is not None:
        r = _exact(problem.r, sf.zero)
    if q is not None and None in q:
        raise NotRegularVector("q must be regular")
    scale, axes = _lattice(grid, g, h, a, b, p, q, r)
    objective = _terms(a, scale)
    if p is not None:  # the extended kinds carry p, q and r together
        p_s = _scale_vec(p, scale)
        objective += [(v, n, i) for i, v in enumerate(p_s) if v is not None]
        objective += [(-v, i, n) for i, v in enumerate(_scale_vec(q, scale))]
    if r is not None:
        objective.append((int(r * scale), n, n))
    # with no term, a constant 0 makes the first feasible point win
    best, arg = _scan(axes, objective or [(0, n, n)], _terms(b, scale))
    minimum = Fraction(best, scale) if objective else sf.zero
    return minimum, Vector(tuple(Fraction(x, scale) for x in arg), sf)


def grid_minimize_schedule(
    spec: ScheduleSpec, grid: GridSpec
) -> tuple[Fraction, Vector]:
    """Exhaustive minimum of the literal largest flow time
    max_i (max((Ax)_i, p_i) - min(x_i, q_i)) over feasible grid points.
    Constraints checked directly: B x <= x and g <= x <= h, the latter
    by cutting the axes (GridTooLarge counts the uncut grid).  Each flow
    time is scanned as max((Ax)_i - x_i, (Ax)_i - q_i, p_i - x_i,
    p_i - q_i), over the finite entries of A."""
    spec.validate()
    n = spec.dim
    a = _mat(spec.start_finish)
    b = _mat(spec.start_start)
    g = _vec(spec.earliest_start)
    h = _vec(spec.latest_start)
    q = _vec(spec.window_lower)
    p = _vec(spec.window_upper)
    scale, axes = _lattice(grid, g, h, a, b, q, p)
    q_s = _scale_vec(q, scale)
    p_s = _scale_vec(p, scale)
    objective = []
    for c, j, i in _terms(a, scale):
        objective += [(c, j, i), (c - q_s[i], j, n)]
    for i in range(n):
        objective += [(p_s[i], n, i), (p_s[i] - q_s[i], n, n)]
    best, arg = _scan(axes, objective, _terms(b, scale))
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


def _lmat_sum(terms, n):
    """Entrywise (+) of n x n list matrices; all zero when there are none."""
    return functools.reduce(_lmat_add, terms, [[None] * n for _ in range(n)])


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


def _words(am, bpow, k: int, budget: int, lead: bool):
    """Each word B^i0 A B^i1 ... A B^ik with i0 + ... + ik <= budget,
    as a list matrix; without `lead` the B^i0 block is left out, and
    the empty word (k = 0) is the identity."""
    for comp in _compositions(k + lead, budget):
        term = bpow[comp[0]] if lead else None
        for i in comp[lead:]:
            block = _lmat_mul(am, bpow[i])
            term = block if term is None else _lmat_mul(term, block)
        yield _lmat_eye(len(am)) if term is None else term


def enum_chain_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    """Literal sum over i1+...+ik <= n-k of A B^i1 ... A B^ik."""
    n = _guard_enum(a, b)
    bpow = _lmat_pows(_mat(b), max(n - k, 0))
    words = _words(_mat(a), bpow, k, n - k, lead=False)
    return _to_matrix(_lmat_sum(words, n), a.sf)


def enum_closure_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    """Literal sum over i0+i1+...+ik <= n-k-1 of B^i0 A B^i1 ... A B^ik."""
    n = _guard_enum(a, b)
    bpow = _lmat_pows(_mat(b), max(n - k - 1, 0))
    words = _words(_mat(a), bpow, k, n - k - 1, lead=True)
    return _to_matrix(_lmat_sum(words, n), a.sf)


def enum_cumulative_sum(a: Matrix, b: Matrix, m: int) -> Matrix:
    """Literal right side of the cumulative power identity:
    (+) over k=1..m, i0+...+ik <= m-k of B^i0 A B^i1 ... A B^ik,
    joined with (+) over k=1..m of B^k."""
    n = _guard_enum(a, b)
    am, bpow = _mat(a), _lmat_pows(_mat(b), m)
    words = itertools.chain(
        *(_words(am, bpow, k, m - k, lead=True) for k in range(1, m + 1)), bpow[1:]
    )
    return _to_matrix(_lmat_sum(words, n), a.sf)


def enum_cumulative_trace(a: Matrix, b: Matrix, m: int) -> Scalar:
    """Literal right side of the cumulative trace identity:
    (+) over k=1..m, i1+...+ik <= m-k of tr(A B^i1 ... A B^ik),
    joined with (+) over k=1..m of tr(B^k)."""
    n = _guard_enum(a, b)
    am, bpow = _mat(a), _lmat_pows(_mat(b), m)
    words = itertools.chain(
        *(_words(am, bpow, k, m - k, lead=False) for k in range(1, m + 1)), bpow[1:]
    )
    acc = _madd_reduce(_madd_reduce(w[i][i] for i in range(n)) for w in words)
    return a.sf.zero if acc is None else acc


# -- random instances --------------------------------------------------------


def random_matrix(
    rng: random.Random,
    n: int,
    zero_p: float = 0.35,
    lo: int = -5,
    hi: int = 5,
) -> Matrix:
    """Integer matrix with entries in [lo, hi] or zero."""
    return Matrix(
        tuple(
            tuple(
                MAXPLUS.zero if rng.random() < zero_p else rng.randint(lo, hi)
                for _ in range(n)
            )
            for _ in range(n)
        ),
        MAXPLUS,
    )


def random_vector(
    rng: random.Random,
    n: int,
    zero_p: float = 0.0,
    lo: int = -5,
    hi: int = 5,
) -> Vector:
    return Vector(
        tuple(
            MAXPLUS.zero if rng.random() < zero_p else rng.randint(lo, hi)
            for _ in range(n)
        ),
        MAXPLUS,
    )


def random_trace_bounded(rng: random.Random, n: int, zero_p: float = 0.5) -> Matrix:
    """Random matrix with trace sum at most one, by rejection; the
    all-zero matrix after 500 failures (degenerate but valid)."""
    for _ in range(500):
        m = random_matrix(rng, n, zero_p=zero_p)
        if m._closure()[1] <= 0:
            return m
    return Matrix.zeros(n, n, MAXPLUS)


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
