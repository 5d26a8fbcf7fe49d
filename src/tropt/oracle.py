"""Brute-force oracles, independent of the closed-form path.

Everything here re-derives values the solvers produce in closed form:

  grid_minimize            lattice scan of a span problem
  grid_minimize_schedule   lattice scan of the literal flow times
  max_cycle_mean           spectral radius by simple-cycle enumeration
  critical_nodes           nodes on cycles attaining the maximum mean

The oracles run exact arithmetic only (int / Fraction inputs), with
None standing in for the tropical zero in converted data.  A grid scan
reads each datum once as an int at D, the lcm of every denominator of
the data, the grid's corners and its step, as
numerator * (D // denominator), so every evaluation is plain integer
max/+.  Both scanned objectives are maxima of difference terms
c + x_j - x_i, and B x <= x is a set of such terms that must stay
<= 0; a zero entry makes no term, so no zero takes part in any sum.
The scan cuts each axis to the bounds g <= x <= h it checks and
evaluates the grid's centre first: when the centre is feasible, with
value v, the best value starts at v + 1, so the first point kept is
the first one in lexicographic order at or below v, as it would be
without the start.  It then walks the prefixes x_0 .. x_(n-4) in
lexicographic order, settling each term class once per prefix as an
upper envelope of lines along x_(n-3).  At each x_(n-3), the
objective terms free of x_(n-1) bound the value from below, and the
scan skips that x_(n-3), or the values of x_(n-2), where that bound is
not below the best (branch and bound): it keeps only a strictly
smaller value, so no skipped point could have replaced it.  An
x_(n-3) it keeps reads the constraint terms too.  Along the last two
axes it works in closed form: each value of x_(n-2) costs O(1), with
the best x_(n-1) found by index arithmetic without visiting the
points.  It returns the minimum and the first strict minimiser in the
order of the full lattice.  The point budget counts the uncut grid.
None of this code calls the solver path: products, objectives and
feasibility tests are re-implemented on raw lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import GridTooLarge, NoFeasiblePoint, NotRegularVector, TooLarge
from .linalg import Matrix, Vector
from .optimize import Problem
from .schedule import ScheduleSpec
from .semifield import MAXPLUS, Scalar

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


def _exact(value: Scalar) -> Optional[Fraction]:
    """Fraction for finite entries, None for the semifield zero."""
    if value == MAXPLUS.zero:
        return None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"oracle needs exact scalars, got {value!r}")


def _mat(m: Optional[Matrix]) -> Optional[list[list[Optional[Fraction]]]]:
    if m is None:
        return None
    return [[_exact(v) for v in row] for row in m.rows]


def _corners(grid: GridSpec) -> list:
    """The grid's lower corner, upper corner and step, in one list; a
    float corner is taken at its exact value."""
    return [
        Fraction(v) if isinstance(v, float) else v
        for v in (*grid.lower.entries, *grid.upper.entries, grid.step)
    ]


def _reader(grid: GridSpec, *data) -> tuple[int, Callable]:
    """D, the lcm of every denominator of the data, the grid's corners
    and its step, and the reader that takes a scalar to scale D once,
    as numerator * (D // denominator), and the semifield zero to None.
    Data are matrices, vectors and scalars, None for a missing one; a
    datum that is neither an int, a Fraction nor the zero raises
    TypeError."""
    zero = MAXPLUS.zero
    denominators = {v.denominator for v in _corners(grid)}
    for d in data:
        if d is None:
            continue
        if isinstance(d, Matrix):
            rows = d.rows
        else:  # a vector's entries, or a scalar alone, as one row
            rows = (d.entries if isinstance(d, Vector) else (d,),)
        for row in rows:
            for v in row:
                if v != zero:
                    if not isinstance(v, (int, Fraction)):
                        raise TypeError(f"oracle needs exact scalars, got {v!r}")
                    denominators.add(v.denominator)
    scale = math.lcm(*denominators)

    def read(v):
        return None if v == zero else v.numerator * (scale // v.denominator)

    return scale, read


def _terms(m: Optional[Matrix], read) -> list[tuple[int, int, int]]:
    """(m_ij, j, i), read at scale D, for each finite entry of m: the
    difference term m_ij + x_j - x_i.  A zero entry makes no term."""
    if m is None:
        return []
    zero = MAXPLUS.zero
    return [
        (read(v), j, i)
        for i, row in enumerate(m.rows)
        for j, v in enumerate(row)
        if v != zero
    ]


def _clip(axis: range, lo: Optional[int], hi: Optional[int]) -> range:
    """The points of a lattice axis inside [lo, hi]; None leaves a side
    open."""
    first = 0 if lo is None else max(0, -((axis.start - lo) // axis.step))
    stop = len(axis) if hi is None else max(0, (hi - axis.start) // axis.step + 1)
    return axis[first:stop]


def _axes(grid: GridSpec, scale: int, g, h) -> list[range]:
    """The grid's axes at scale D cut to g <= x <= h.  The point budget
    counts the uncut grid.  A zero g_i bounds nothing; a zero h_i,
    x_i <= -inf, admits no point."""
    n = grid.lower.dim
    *corners, step = (v.numerator * (scale // v.denominator) for v in _corners(grid))
    axes = []
    total = 1
    for i, (lo, up) in enumerate(zip(corners[:n], corners[n:])):
        total *= (up - lo) // step + 1
        if total > POINT_BUDGET:
            raise GridTooLarge(f"grid exceeds {POINT_BUDGET} points")
        axis = range(lo, up + 1, step)
        hi = None if h is None else h[i]
        if h is not None and hi is None:
            axis = axis[:0]
        axes.append(_clip(axis, None if g is None else g[i], hi))
    return axes


def _slopes(terms, n: int) -> dict:
    """Terms (c, j, i) by their slope (ds, dt) in s = x_(n-2) and
    t = x_(n-1), and within a class by their slope du in u = x_(n-3).
    x_j adds one to a slope and x_i takes one away, so seven (ds, dt)
    classes occur."""
    classes: dict = {}
    for c, j, i in terms:
        key = ((j == n - 2) - (i == n - 2), (j == n - 1) - (i == n - 1))
        du = (j == n - 3) - (i == n - 3)
        classes.setdefault(key, {}).setdefault(du, []).append((c, j, i))
    return classes


def _columns(classes, x, us: range):
    """Each class's largest term at the prefix x, at each u of us, as
    one tuple per u.  At the prefix a class's terms are lines
    (du, offset) in u, and `_column` takes their upper envelope."""
    cols = []
    for by_u in classes.values():
        lines = [
            (du, max(c + x[j] - x[i] for c, j, i in terms))
            for du, terms in by_u.items()
        ]
        cols.append(_column(lines, us))
    return zip(*cols) if cols else itertools.repeat(())


def _lines(classes, values) -> tuple[list, list, list]:
    """The classes' values at one u as lines (ds, offset) in s, in
    three groups by their slope 0, +1 and -1 in t (the last one at
    index -1)."""
    groups: tuple[list, list, list] = ([], [], [])
    for (ds, dt), v in zip(classes, values):
        groups[dt].append((ds, v))
    return groups


def _column(lines, ss: range):
    """The largest of the lines (slope, offset) at each point of the
    axis ss, an s or a u axis; None at each when there is no line."""
    cols = [
        range(off + ds * ss.start, off + ds * ss.stop, ds * ss.step)
        if ds
        else itertools.repeat(off)
        for ds, off in lines
    ]
    if len(cols) < 2:
        return cols[0] if cols else itertools.repeat(None)
    return map(max, *cols)


def _cut(axis: range, lines, top: int) -> range:
    """The s of the axis at which every line (ds, offset) of slope 0 in
    t stays <= top: off + s <= top caps s at top - off, off - s <= top
    floors it at off - top, and a line of slope 0 in s above top leaves
    no s."""
    lower = upper = None
    for ds, off in lines:
        if ds > 0:
            upper = top - off
        elif ds < 0:
            lower = off - top
        elif off > top:
            return axis[:0]
    return _clip(axis, lower, upper)


def _scan(axes: list[range], objective, constraints) -> tuple[int, tuple[int, ...]]:
    """First strict minimum, in lexicographic order, of the largest
    objective term over the lattice points where every constraint term
    is <= 0.  Terms are (c, j, i) for c + x_j - x_i, index n standing
    for no variable.  Returns (minimum, argmin), scaled.

    The scan first evaluates the grid's centre, the middle point of
    each axis, with every term.  If the centre is feasible, with value
    v, the best value starts at v + 1: the values are ints and a point
    is kept only for a value below the best so far, so the first point
    kept is the first one in lexicographic order with a value of at
    most v, and the answer is that of a scan that starts with none.

    Terms fall into seven classes by their slope in s = x_(n-2) and
    t = x_(n-1).  The outer loop runs over the prefixes x_0 .. x_(n-4),
    and a prefix costs one pass over the terms: within a class, the
    terms of each slope in u = x_(n-3) give one line in u, and the
    class's largest term along the u axis is the upper envelope of
    those lines.  At each u that leaves lines in s.  The objective's
    lines that hold no t bound its value at each s from below, and
    once there is a best value these lines cut the s axis to where
    they are below it, before the constraints' lines are built
    (branch and bound).  The constraints that hold no t clip the s
    axis further; the others give t a floor and a cap at each s, which
    index arithmetic turns into the first and last t between them.
    The objective at s is max(const, rise + t, fall - t), a convex
    function of t.  Its least value on the lattice is at a neighbour
    of (fall - rise) / 2, and its first minimiser is the first lattice
    t >= fall - min, so each s costs O(1).  With n < 3 there is no u,
    and with n = 1 no s: each runs over one point of slope 0.
    """
    n = len(axes)
    obj, con = _slopes(objective, n), _slopes(constraints, n)
    u_axis = axes[n - 3] if n > 2 else range(1)
    s_axis = axes[n - 2] if n > 1 else range(1)
    t0, d, last = axes[-1].start, axes[-1].step, len(axes[-1]) - 1
    best: Optional[int] = None
    arg: Optional[tuple[int, ...]] = None
    if all(axes):
        x = tuple(axis[len(axis) // 2] for axis in axes) + (0,)
        if all(c + x[j] - x[i] <= 0 for c, j, i in constraints):
            best = max(c + x[j] - x[i] for c, j, i in objective) + 1
    for prefix in itertools.product(*axes[: max(n - 3, 0)]):
        # u, s and t cancel in every line's offset; x[n] is no variable
        x = prefix + (0, 0, 0, 0)
        along_u = zip(u_axis, _columns(obj, x, u_axis), _columns(con, x, u_axis))
        for u, here, bounds in along_u:
            const, rise, fall = _lines(obj, here)
            ss = s_axis if best is None else _cut(s_axis, const, best - 1)
            if not ss:
                continue  # no s at which the value could fall below best
            flat, cap, floor = _lines(con, bounds)
            ss = _cut(ss, flat, 0)
            columns = (_column(lines, ss) for lines in (cap, floor, const, rise, fall))
            # line + t <= 0 caps t at -line; line - t <= 0 floors it at line
            for s, up, low, c, r, f in zip(ss, *columns):
                first = 0 if low is None else max(0, -((t0 - low) // d))
                end = last if up is None else min(last, (-up - t0) // d)
                if first > end:
                    continue
                # Stand-ins that change no value on [lo, hi]: a slope term is
                # at least its value at one end, and a missing slope term may
                # be one that never exceeds the constant there.
                lo, hi = t0 + first * d, t0 + end * d
                if c is None:
                    c = r + lo if r is not None else f - hi
                if r is None:
                    r = c - hi
                if f is None:
                    f = c + lo
                # max(r + t, f - t) falls up to (f - r) / 2 and rises after
                # it, so its least value is at a lattice neighbour of that point
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
                    # the first lattice t >= f - value, which is in [lo, hi]
                    arg = prefix + (u, s, t0 + max(first, -((t0 + value - f) // d)) * d)
    if arg is None:
        raise NoFeasiblePoint("no grid point satisfies the constraints")
    return best, arg[-n:]  # with n < 3, without the stand-in u and s


def grid_minimize(problem: Problem, grid: GridSpec) -> tuple[Scalar, Vector]:
    """Minimum of the problem objective over the lattice of grid points
    satisfying the problem's constraints, B x <= x and g <= x <= h for
    the data the kind carries, and its first minimiser in lexicographic
    order.  Exact: the data are read once as ints at the lcm D of every
    denominator, the best value starts just above the grid centre's, so
    the first point at or below it is kept, and the scan skips only
    points whose value a lower bound puts at or above the best one
    found, which it would not keep.

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
    vectors = (problem.p, problem.q, problem.g, problem.h)
    scale, read = _reader(grid, problem.A, problem.B, *vectors, problem.r)
    p, q, g, h = (None if v is None else [read(x) for x in v.entries] for v in vectors)
    if q is not None and None in q:
        raise NotRegularVector("q must be regular")
    axes = _axes(grid, scale, g, h)
    objective = _terms(problem.A, read)
    if p is not None:  # the extended kinds carry p, q and r together
        objective += [(v, n, i) for i, v in enumerate(p) if v is not None]
        objective += [(-v, i, n) for i, v in enumerate(q)]
    r = None if problem.r is None else read(problem.r)
    if r is not None:
        objective.append((r, n, n))
    # with no term, a constant 0 makes the first feasible point win
    best, arg = _scan(axes, objective or [(0, n, n)], _terms(problem.B, read))
    minimum = Fraction(best, scale) if objective else MAXPLUS.zero
    return minimum, Vector(tuple(Fraction(x, scale) for x in arg))


def grid_minimize_schedule(
    spec: ScheduleSpec, grid: GridSpec
) -> tuple[Fraction, Vector]:
    """Minimum of the literal largest flow time
    max_i (max((Ax)_i, p_i) - min(x_i, q_i)) over feasible grid points,
    and its first minimiser, exact as in `grid_minimize`.
    Constraints checked directly: B x <= x and g <= x <= h, the latter
    by cutting the axes (GridTooLarge counts the uncut grid).  Each flow
    time is scanned as max((Ax)_i - x_i, (Ax)_i - q_i, p_i - x_i,
    p_i - q_i), over the finite entries of A."""
    spec.validate()
    n = spec.dim
    vectors = (
        spec.earliest_start, spec.latest_start, spec.window_lower, spec.window_upper
    )
    scale, read = _reader(grid, spec.start_finish, spec.start_start, *vectors)
    g, h, q, p = ([read(x) for x in v.entries] for v in vectors)
    objective = []
    for c, j, i in _terms(spec.start_finish, read):
        objective += [(c, j, i), (c - q[i], j, n)]
    for i in range(n):
        objective += [(p[i], n, i), (p[i] - q[i], n, n)]
    axes = _axes(grid, scale, g, h)
    best, arg = _scan(axes, objective, _terms(spec.start_start, read))
    return Fraction(best, scale), Vector(tuple(Fraction(x, scale) for x in arg))


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
        return MAXPLUS.zero
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
