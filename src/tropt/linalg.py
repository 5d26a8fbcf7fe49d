"""Matrices and vectors over the max-plus semifield.

Objects are immutable; entries are raw scalars (int, Fraction, float)
with the semifield's zero carried as a float -inf.  `+` is entrywise
idempotent addition and `@` the max-plus product, one inlined kernel
over the finite entries.  `_floyd_warshall` is the one O(n^3) pass, in
place, pivoting at a range of nodes, and `_family` the one closure
read-off, M* and the heaviest cycle weight off a bordered table; `star`
and `trace_sum` take it on `_scan`'s ints (`_star_trace`), with a power
sum past a positive cycle.
`spectral_radius` is Karp's O(n^3) maximum cycle mean.  Its kernel,
`_max_cycle`, also takes a product of factors without forming it: each
walk step is one pass over each factor's finite entries.  A first
factor can stand for its star: the step then relaxes the walk vector
through that factor's finite entries (Bellman-Ford, `_relax`) until
nothing rises, so the optimizers read theta = lambda(Bhat* Ahat) with
neither Bhat* nor Bhat* Ahat, and the first step is the positive-cycle
gate of Bhat.  The walk runs on ints and on `_finite` lists that its
caller builds: `_scan` walks each matrix or vector once, listing its
finite entries and type-testing only those; int data keep their
tables, and any other entry m/d, read once, is scaled by D, the lcm
of the denominators (a power of two for floats), the tables then
built from the scaled lists.  `_unscale` divides an answer by D once,
so a float answer is rounded once.  Karp's walk stops at the first
step k where D_k and D_(k-1) are finite at the same nodes and
D_k = c (x) D_(k-1) there: every cycle runs through those nodes,
x_u + a_uv <= c + x_v on every arc among them for x = D_(k-1), so no
cycle has mean above c, and the back-pointers of step k are tight arcs
closing a cycle of mean c.
`_acyclic` tells from the lists in O(n^2) whether a matrix has a cycle
at all, the spectral radius's zero test, with no walk.
Entrywise helpers (`scale`, `conj`, `meet`, the zero and regularity
tests) inline the max-plus rules, as `+` and `@` do: no Semifield call
per entry.  `==` is exact; a check compares on `_scan`'s ints, float
data within the one bound of `_compared`.
Column and row vectors share one core of entrywise operations but are
distinct types, so that expressions read like the algebra:
``h.conj() @ T @ g`` is a scalar.

All operands of a binary operation must share one semifield instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import Iterable, Sequence, Union

from .errors import (
    AllZeroVector,
    IndexOutOfRange,
    NotSquare,
    ShapeMismatch,
    UndefinedPower,
)
from .semifield import MAXPLUS, Scalar, Semifield

_OVERFLOW = "float overflow: a result is +inf"


def _as_tuple_rows(rows: Iterable[Iterable[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(r) for r in rows)


def _finite(rows: Sequence[Sequence[Scalar]], zero: Scalar) -> list[list]:
    """Each row's (column, entry) pairs where the entry is not `zero`."""
    return [[(j, b) for j, b in enumerate(row) if b != zero] for row in rows]


def _acyclic(nz: list[list], n: int) -> bool:
    """True when the arcs i -> j with i, j < n of the `_finite` lists
    nz close no cycle, a self-loop being one: Kahn's algorithm, O(n^2).
    A matrix has spectral radius zero exactly when its arcs are
    acyclic."""
    succ, indeg = [], [0] * n
    for row in nz[:n]:
        heads = [j for j, _ in row if j < n]
        for j in heads:
            indeg[j] += 1
        succ.append(heads)
    ready = [v for v in range(n) if not indeg[v]]
    left = n
    while ready:
        left -= 1
        for v in succ[ready.pop()]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return not left


def _sum_products(zero: Scalar, width: int, terms) -> tuple[tuple, ...]:
    """Rows of L_1 (x) R_1 (+) L_2 (x) R_2 (+) ... over the terms (L,
    the `_finite` lists of R), the L row-major tables of one height.
    Terms go in order, each in increasing k, and only a strictly
    larger sum replaces the running maximum: the first maximal term is
    kept, so the result, Python type included, is that of `sf.sum` of
    `sf.mul`s, and an earlier term wins ties, as the left operand of
    `+` does."""
    out = []
    for rows in zip(*[left for left, _ in terms]):
        acc = [zero] * width
        for row, (_, right_nz) in zip(rows, terms):
            for a, nz in zip(row, right_nz):
                if a != zero:
                    for j, b in nz:
                        s = a + b
                        if s > acc[j]:
                            acc[j] = s
        out.append(tuple(acc))
    return tuple(out)


def _product(left: Sequence[Sequence[Scalar]], right: Sequence[Sequence[Scalar]],
             zero: Scalar, right_nz: list[list] | None = None) -> tuple[tuple, ...]:
    """Rows of the max-plus product of two row-major tables (see
    `_sum_products`).  A caller that multiplies by one right factor
    many times passes its `_finite` lists once."""
    if right_nz is None:
        right_nz = _finite(right, zero)
    return _sum_products(zero, len(right[0]), ((left, right_nz),))


@dataclass(frozen=True)
class Matrix:
    rows: tuple[tuple[Scalar, ...], ...]
    sf: Semifield = MAXPLUS

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_tuple_rows(self.rows))
        if not self.rows or not self.rows[0]:
            raise ShapeMismatch("a matrix needs at least one row and column")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ShapeMismatch("ragged rows")

    # -- construction --------------------------------------------------

    @classmethod
    def _built(cls, rows: tuple[tuple[Scalar, ...], ...], sf: Semifield) -> "Matrix":
        """A matrix on a table this module built: a nonempty tuple of
        equal-length, nonempty tuples, taken as it is, without the
        re-tupling and shape checks of `Matrix(...)`."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "sf", sf)
        return m

    @staticmethod
    def zeros(n_rows: int, n_cols: int, sf: Semifield = MAXPLUS) -> "Matrix":
        return Matrix(tuple((sf.zero,) * n_cols for _ in range(n_rows)), sf)

    @staticmethod
    def identity(n: int, sf: Semifield = MAXPLUS) -> "Matrix":
        return Matrix(
            tuple(
                tuple(sf.one if i == j else sf.zero for j in range(n))
                for i in range(n)
            ),
            sf,
        )

    # -- shape ----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def _require_square(self) -> int:
        if not self.is_square:
            raise NotSquare(f"{self.n_rows}x{self.n_cols} matrix")
        return self.n_rows

    def row(self, i: int) -> "RowVector":
        return RowVector(self.rows[i], self.sf)

    def column(self, j: int) -> "Vector":
        return Vector(tuple(r[j] for r in self.rows), self.sf)

    def is_column_regular(self) -> bool:
        """Every column holds at least one nonzero entry."""
        zero = self.sf.zero
        return all(any(v != zero for v in col) for col in zip(*self.rows))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ShapeMismatch(
                f"add {self.n_rows}x{self.n_cols} with {other.n_rows}x{other.n_cols}"
            )
        # the max-plus sum inlined: the left operand wins ties
        return Matrix._built(
            tuple(
                tuple(x if y <= x else y for x, y in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.sf,
        )

    def __matmul__(self, other: Union["Matrix", "Vector"]) -> Union["Matrix", "Vector"]:
        """Max-plus product: entry (i, j) is the max over k of
        a_ik + b_kj, zero factors skipped."""
        sf = self.sf
        if isinstance(other, Vector):
            if self.n_cols != other.dim:
                raise ShapeMismatch(
                    f"{self.n_rows}x{self.n_cols} times vector of dim {other.dim}"
                )
            # one sum per row over the finite entries of x, in increasing
            # k; only a strictly larger term replaces the running maximum
            zero = sf.zero
            xs = [(k, b) for k, b in enumerate(other.entries) if b != zero]
            out = []
            for row in self.rows:
                acc = zero
                for k, b in xs:
                    a = row[k]
                    if a != zero:
                        s = a + b
                        if s > acc:
                            acc = s
                out.append(acc)
            return Vector(out, sf)
        if isinstance(other, Matrix):
            if self.n_cols != other.n_rows:
                raise ShapeMismatch(
                    f"{self.n_rows}x{self.n_cols} times {other.n_rows}x{other.n_cols}"
                )
            return Matrix._built(_product(self.rows, other.rows, sf.zero), sf)
        return NotImplemented

    def scale(self, c: Scalar) -> "Matrix":
        """c (x) A; the max-plus product inlined, as in `_scaled_sum`."""
        return _scaled_sum(c, self, None)

    def __rmul__(self, c: Scalar) -> "Matrix":
        return self.scale(c)

    def conj(self) -> "Matrix":
        """Conjugate transpose: transpose with entrywise inversion
        (the inverse inlined: 0 - v, never -0.0; zero stays zero)."""
        zero = self.sf.zero
        if any(math.inf in r for r in self.rows):
            raise ValueError(_OVERFLOW)
        return Matrix._built(
            tuple(tuple(zero if v == zero else 0 - v for v in col) for col in zip(*self.rows)),
            self.sf,
        )

    # -- square-matrix functions -----------------------------------------

    def trace(self) -> Scalar:
        n = self._require_square()
        return self.sf.sum(self.rows[i][i] for i in range(n))

    def power(self, m: int) -> "Matrix":
        n = self._require_square()
        if not isinstance(m, int) or m < 0:
            raise UndefinedPower(f"matrix power {m!r}")
        result = Matrix.identity(n, self.sf)
        base = self
        while m:
            if m & 1:
                result = result @ base
            m >>= 1
            if m:
                base = base @ base
        return result

    def powers(self, top: int) -> list["Matrix"]:
        """[I, A, A^2, ..., A^top] by iterated products on A's finite entries."""
        n, sf = self._require_square(), self.sf
        nz = _finite(self.rows, sf.zero)
        out = [Matrix.identity(n, sf).rows]
        for _ in range(top):
            out.append(_product(out[-1], self.rows, sf.zero, nz))
        return [Matrix._built(t, sf) for t in out]

    def trace_sum(self) -> Scalar:
        """Tr(A) = tr A (+) tr A^2 (+) ... (+) tr A^n, at most one exactly
        when the weighted digraph has no cycle of positive weight."""
        return _star_trace(self)[1]

    def spectral_radius(self) -> Scalar:
        """Largest eigenvalue: (+) over k of tr(A^k)^(1/k), the maximum
        cycle mean of the weighted digraph; zero when the matrix has no
        cycle at all.

        Karp's formula (`_max_cycle`) gives it from n vector-matrix
        steps, O(n^3), with no matrix power.  An exact radius that is a
        whole number is an int.
        """
        return _max_cycle(self)[0]

    def star(self) -> "Matrix":
        """Kleene star truncated at the matrix order:
        I (+) A (+) A^2 (+) ... (+) A^(n-1) (see `_star_trace`)."""
        return _star_trace(self)[0]

    # -- comparisons ------------------------------------------------------

    def leq(self, other: "Matrix") -> bool:
        """Entrywise canonical order."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ShapeMismatch("order on unequal shapes")
        sf = self.sf
        return all(
            sf.leq(a, b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]!r})"


def _floyd_warshall(d: list[list], stop: int, zero: Scalar, start: int = 0) -> None:
    """One Floyd-Warshall pass over the square table d, in place, with
    the nodes start..stop-1 as pivots: on a table already pivoted at
    the nodes below start, afterwards d[i][j] is the heaviest weight of
    a walk i -> j of at least one arc whose inner nodes are below stop,
    as long as no cycle through them is positive.  Only a strictly
    larger sum replaces an entry, and a pass split at a node gives
    exactly the whole pass."""
    for k in range(start, stop):
        pivot = [(j, v) for j, v in enumerate(d[k]) if v != zero]
        for di in d:
            a = di[k]
            if a != zero:
                for j, v in pivot:
                    s = a + v
                    if s > di[j]:
                        di[j] = s


def _border(m: Matrix | None, n: int, sf: Semifield, col: Vector | None,
            row: RowVector | None, corner: Scalar | None) -> Matrix:
    """[[m, col], [row, corner]] of order n+1; absent pieces are zero."""
    zeros = (sf.zero,) * n
    rows = (zeros,) * n if m is None else m.rows
    col = zeros if col is None else col.entries
    last = (zeros if row is None else row.entries) + (sf.zero if corner is None else corner,)
    return Matrix._built(tuple(r + (c,) for r, c in zip(rows, col)) + (last,), sf)


def _family(m: list[list], n: int,
            sf: Semifield) -> tuple[Scalar, Matrix, Vector, RowVector]:
    """(c, G, v, w G) off the bordered table m = [[M, v], [w, s]] of
    order n+1, in place, by one Floyd-Warshall pass with pivots at the
    n activity nodes only: G = M* is the corner with its diagonal set
    to one, and c the largest diagonal entry, the heaviest cycle weight
    of M and of s (+) w M* v, for a caller to gate."""
    zero = sf.zero
    lower = Vector([mi[n] for mi in m[:n]], sf)
    _floyd_warshall(m, n, zero)
    heaviest = max(m[i][i] for i in range(n + 1))
    for i in range(n):
        m[i][i] = sf.one
    gen = Matrix._built(tuple(tuple(mi[:n]) for mi in m[:n]), sf)
    return heaviest, gen, lower, RowVector(m[n][:n], sf)


def _star_trace(a: Matrix) -> tuple[Matrix, Scalar]:
    """(A*, Tr(A)) from one `_scan` and one `_family` pass on the ints,
    the zero-bordered table's heaviest cycle weight c being Tr(A)
    whenever c <= one.  A heavier cycle makes walks outgrow the
    truncation: the star is then (I (+) A)^(n-1) on the same ints,
    equal to the truncated sum by idempotency, and Tr(A) is
    tr(A (x) A*).  Both are divided by D once (`_unscale`), so a float
    answer is the correctly rounded exact one."""
    n, sf, zero = a._require_square(), a.sf, a.sf.zero
    (ints,), _, scale, floating = _scan((a,), zero)
    table = [[*r, zero] for r in ints.rows] + [[zero] * (n + 1)]  # a zero border
    trace, star, _, _ = _family(table, n, sf)
    if trace > sf.one:
        star = (Matrix.identity(n, sf) + ints).power(n - 1)
        trace = _trace_product(ints, star)
    return _unscale((star, trace), scale, floating, zero)


def _scaled_sum(c: Scalar, a: Matrix, b: Matrix | None) -> Matrix:
    """c (x) A (+) B, or c (x) A when b is None, with no Matrix in
    between.  The max-plus product and sum inlined: a zero factor gives
    zero, and the scaled entry, the left operand, wins ties."""
    zero = a.sf.zero
    if c == zero:
        scaled = [[zero] * len(r) for r in a.rows]
    else:
        scaled = [[zero if v == zero else c + v for v in r] for r in a.rows]
    if b is not None:
        scaled = [
            [x if y <= x else y for x, y in zip(ra, rb)] for ra, rb in zip(scaled, b.rows)
        ]
    return Matrix._built(tuple(map(tuple, scaled)), a.sf)


def _trace_product(left: Matrix, right: Matrix) -> Scalar:
    """tr(left (x) right) in O(n^2), without the product: the largest
    left[i][k] + right[k][i] over the finite pairs.  Terms are visited
    in (i, k) order and only a strictly larger one replaces the running
    maximum, as in `_product` and `trace`, so the result, Python type
    included, is that of ``(left @ right).trace()``."""
    zero = left.sf.zero
    acc = zero
    for i, row in enumerate(left.rows):
        for a, r in zip(row, right.rows):
            b = r[i]
            if a != zero and b != zero:
                s = a + b
                if s > acc:
                    acc = s
    return acc


def _max_cycle(*factors: Matrix,
               starred: bool = False) -> tuple[Scalar, tuple[int, ...]] | None:
    """(lambda, nodes): the largest cycle mean of the product
    F_1 (x) ... (x) F_m of the square factors, all of one order, and a
    cycle of the product that attains it, nodes in arc order; (zero, ())
    when the product has no cycle.  The product is never formed:
    `Matrix.spectral_radius` passes one factor.  `starred` reads the
    first factor as its Kleene star; the optimizers run the kernel,
    `_karp`, that way on the int tables of Bhat and Ahat and the lists
    their one `_scan` built, for theta = lambda(Bhat* Ahat).

    Karp's formula (Karp 1978) in O(m n^3): with D_k(v) the heaviest
    weight of a k-arc walk of the product ending at v (D_0 = one,
    D_(k+1) = (...(D_k (x) F_1)...) (x) F_m, one pass over each
    factor's finite entries), lambda is the max over v of the min over
    k < n of (D_n(v) - D_k(v)) / (n - k), finite terms only, the means
    compared as (weight, arc count) pairs by cross-multiplication.

    A starred first factor is never closed either: D_k (x) F_1* is a
    Bellman-Ford relaxation of D_k through F_1 (`_relax`), with a
    back-pointer from each node it raises to its F_1 predecessor.  It
    settles exactly when no cycle of F_1 that D_k reaches has positive
    weight (Butkovic, Max-linear Systems, 2010), so the first step,
    from D_0 = one, is the gate: None comes back exactly when F_1 has
    a positive cycle.  That needs exact sums, which the ints give: in
    float arithmetic a walk value with a large offset absorbs a small
    cycle's gain (1e16 + 1 rounds to 1e16), and the relaxation would
    settle on a positive cycle.  A relaxation makes at most n
    rounds, each scanning only the nodes the round before raised, so a
    starred walk is O(n^4) at worst, against the O(n^3) of closing
    F_1 first.  The rounds grow with the arcs of a heaviest F_1-path
    that run against the index order: random feasible schedules of
    order 12 take 2 to 7, a tight precedence chain listed backwards
    about n, but each of those rounds raises only a few nodes.

    The walk stops early at the first step k where D_k and D_(k-1) are
    finite at the same set S of nodes and D_k - D_(k-1) is one constant
    c on S.  Every node of a cycle is in S, since walks of every length
    end there, and S is closed under arcs: an arc (u, v) out of u in S
    makes D_k(v) finite.  D_(k-1) on S is then a left eigenvector:
    x_u + a_uv <= D_k(v) = c + x_v on every arc (u, v) within S, so
    summed around any cycle its mean is at most c; the arcs
    u = back[k][v] hold with equality and stay in S, so following
    back[k] from any node of S closes a cycle of mean exactly
    c = lambda (Butkovic 2010, ch. 4).  A node with no arcs into it
    leaves S after step 0 and no longer bars the exit.  An empty S
    means no walk of k arcs, so no cycle.  Periodic matrices, and
    reducible ones whose parts have unequal means, may never reach
    such a step and take the full formula below, on the same walk.

    Back-pointers give the heaviest n-arc walk to the v that attains
    lambda.  Cutting a cycle of l arcs out of it leaves an (n-l)-arc
    walk to v no heavier than D_(n-l)(v), so every cycle on it has mean
    lambda.  The first one met walking back from v is returned.  Either
    way lambda is the witness's weight, summed from its arcs, divided
    once by its arc count and D (`_cycle_mean`, `_unscale`): an exact
    whole number comes back as an int, and a float is the correctly
    rounded mean of the data's own values, past the float range a
    ValueError.  A step's back-pointers hold one list per factor, so
    each arc u -> v of the product is read as the factor path
    u -> m_1 -> ... -> v that attains it (a starred factor's part is a
    path of its own arcs, possibly empty), and its weight is one plus
    that path's raw entries, summed left to right.
    """
    first = factors[0]
    n, zero = first._require_square(), first.sf.zero
    factors, nzs, scale, floating = _scan(factors, zero)
    found = _karp([f.rows for f in factors], nzs, n, first.sf, starred)
    if found is None or not found[1]:
        return found
    w, length = found[0].as_integer_ratio()
    return _unscale((w,), length * scale, floating, zero)[0], found[1]


def _karp(tables, nzs, n: int, sf: Semifield,
          starred: bool) -> tuple[Scalar, tuple[int, ...]] | None:
    """`_max_cycle` on row-major factor tables of ints and their
    `_finite` lists, built by the caller, lambda exact: an int when
    whole, else a Fraction."""
    zero = sf.zero
    walks, back, zeros = [[sf.one] * n], [None], 0
    for _ in range(n):
        prev = acc = walks[-1]
        args = []
        for i, nz in enumerate(nzs):
            if starred and not i:
                cur = list(acc)
                arg = _relax(cur, nz, zero)
            else:
                cur, arg = [zero] * n, [0] * n
                for u, d in enumerate(acc):
                    if d != zero:
                        for j, w in nz[u]:
                            s = d + w
                            if s > cur[j]:
                                cur[j] = s
                                arg[j] = u
            if arg is None:
                return None
            acc = cur
            args.append(arg)
        # a walk of k arcs ends in one of k-1 arcs, so D_k is finite only
        # where D_(k-1) is: equal counts of zeros are equal finite positions
        prev_zeros, zeros = zeros, acc.count(zero)
        if zeros == n:  # no walk of k arcs, so no cycle
            return zero, ()
        if zeros == prev_zeros:
            v = next(v for v, d in enumerate(acc) if d != zero)
            c = acc[v] - prev[v]
            if all(d - e == c for d, e in zip(acc, prev) if d != zero):
                return _cycle_mean(tables, repeat(args), v, sf)
        walks.append(acc)
        back.append(args)
    # a step that left every node at zero returned above, so walks[n]
    # has a finite entry and best is set
    best = None
    for v, dn in enumerate(walks[n]):
        if dn == zero:
            continue
        num, den = dn - sf.one, n
        for k in range(1, n):
            dk = walks[k][v]
            if dk != zero and (dn - dk) * den < num * (n - k):
                num, den = dn - dk, n - k
        if best is None or best[0] * den < num * best[1]:
            best = (num, den, v)
    return _cycle_mean(tables, reversed(back[1:]), best[2], sf)


def _relax(y: list, nz: list[list], zero: Scalar) -> tuple[int, ...] | None:
    """y (x) F* in place, by Bellman-Ford rounds over F's finite entries
    (`_finite` lists), and the back-pointers: each raised node's F
    predecessor on a heaviest path to it, -1 where y was not raised.

    The first round scans every finite node, each later one the nodes
    the round before raised, in place, so after round k every walk of
    k arcs is counted.  Without a positive cycle every heaviest path is
    simple, at most n-1 arcs for order n, and round n raises nothing.
    None when round n still raises a value, or when the pointers close
    a loop, which only a positive cycle can (its last raise was strict).
    Int entries only (see `_max_cycle`).  A node is scanned after its
    last rise, so once the rounds settle every pointer arc is tight:
    y_v = y_u + f_uv for u = pred[v].
    """
    n = len(y)
    pred = [-1] * n
    active = [u for u, d in enumerate(y) if d != zero]
    for _ in range(n):
        raised, seen = [], [False] * n
        for u in active:
            d = y[u]
            for v, w in nz[u]:
                s = d + w
                if s > y[v]:
                    y[v] = s
                    pred[v] = u
                    if not seen[v]:
                        seen[v] = True
                        raised.append(v)
        if not raised:
            return tuple(pred)
        # a new loop runs through a node this round raised
        mark = [-1] * n
        for v in raised:
            u = v
            while u >= 0 and mark[u] < 0:
                mark[u] = v
                u = pred[u]
            if u >= 0 and mark[u] == v:
                return None
        active = raised
    return None


def _cycle_mean(tables, steps, v: int, sf: Semifield) -> tuple[Scalar, tuple[int, ...]]:
    """(lambda, nodes) for the cycle closed by walking back from v, one
    step of back-pointers (a list per factor, a tuple for a starred one)
    from `steps` per arc, until a node repeats: its weight, summed from
    its arcs, divided by its arc count (a whole number comes back as an
    int)."""
    pos, walk, into = {}, [], {}
    while v not in pos:
        pos[v] = len(walk)
        walk.append(v)
        entries = []  # the raw entries of the arc into v, last first
        x = v
        for t, arg in zip(reversed(tables), reversed(next(steps))):
            u = arg[x]
            if type(arg) is tuple:
                # `_relax`'s pointers: back along the factor's own arcs
                # to a node the relaxation did not raise
                while u >= 0:
                    entries.append(t[u][x])
                    x, u = u, arg[u]
            else:
                entries.append(t[u][x])
                x = u
        into[v] = entries
        v = x
    nodes = tuple(reversed(walk[pos[v]:]))
    arcs = []
    for head in nodes[1:] + nodes[:1]:
        w = sf.one  # the weight of an empty path: a starred factor's own
        for e in reversed(into[head]):
            w = w + e
        arcs.append(w)
    w, length = sum(arcs[1:], arcs[0]), len(nodes)
    return (Fraction(w, length) if w % length else w // length), nodes


def _scan(items, zero: Scalar) -> tuple[tuple, list, int, bool]:
    """(items, lists, D, floating): the Matrix and vector items with each
    finite entry m/d replaced by the int m (D/d), and their `_finite`
    lists, a vector's being the one list of its entries, from one walk
    of each item that lists its finite entries and type-tests only
    those.  A non-int entry is read once, exactly, off
    `as_integer_ratio`, and listed as that ratio.  D is the lcm of
    every d: 1 for ints, a power of two of at most 2^1074 for floats.
    floating is True when a finite entry is a float.  Int items come
    back as they are, with the walk's lists; any others are rebuilt
    from their lists, scaled.  A +inf entry, a product that overflowed
    before it got here, raises ValueError."""
    nzs, dens, floating = [], set(), False
    try:
        for x in items:
            nz = []
            for row in x.rows if isinstance(x, Matrix) else (x.entries,):
                out = []
                for j, v in enumerate(row):
                    if v != zero:
                        if type(v) is not int:
                            floating = floating or type(v) is float
                            v = v.as_integer_ratio()
                            dens.add(v[1])
                        out.append((j, v))
                nz.append(out)
            nzs.append(nz)
    except OverflowError:  # the ratio of +inf
        raise ValueError(_OVERFLOW) from None
    if not dens:
        return tuple(items), nzs, 1, False
    scale = math.lcm(*dens)
    factor = {d: scale // d for d in dens}
    out = []
    for i, x in enumerate(items):
        nz = nzs[i] = [
            [(j, v * scale if type(v) is int else v[0] * factor[v[1]]) for j, v in row]
            for row in nzs[i]
        ]
        width = x.n_cols if isinstance(x, Matrix) else x.dim
        rows = []
        for listed in nz:
            row = [zero] * width
            for j, v in listed:
                row[j] = v
            rows.append(tuple(row))
        out.append(Matrix._built(tuple(rows), x.sf) if isinstance(x, Matrix)
                   else type(x)(rows[0], x.sf))
    return tuple(out), nzs, scale, floating


def _compared(items, n: int) -> tuple[tuple, int]:
    """The one comparison rule of the checks: `_scan`'s ints of the
    items, order-n data, a point and claimed values scanned together at
    one D (None items stay None), and the bound within which they
    agree: 0 on exact data, else 1e-9 (n + 1) max(1, the largest finite
    magnitude) at scale D, rounded down, as the ints it bounds are
    whole.  It covers a correctly rounded answer and the dust of a
    solve at the default eps."""
    ints, lists, scale, floating = _scan([x for x in items if x is not None], MAXPLUS.zero)
    ints = iter(ints)
    ints = tuple(None if x is None else next(ints) for x in items)
    if not floating:
        return ints, 0
    top = max((abs(v) for nz in lists for row in nz for _, v in row), default=0)
    return ints, (n + 1) * max(scale, top) // 10**9


def _dust(eps: float, scale: int, floating: bool) -> Scalar:
    """The solvers' dust tolerance eps at scale D, 0 on exact data; a
    NaN, infinite or negative eps is a ValueError."""
    if not 0 <= eps < math.inf:
        raise ValueError(f"--epsilon must be finite and at least 0, got {eps}")
    return Fraction(eps) * scale if floating else 0


def _unscale(items, scale: int, floating: bool, zero: Scalar) -> tuple:
    """The items of `_scan`'s ints divided by scale, each entry
    once: for float data the correctly rounded float (int true
    division), else an int where the quotient is whole and a Fraction
    elsewhere.  A quotient past the float range raises ValueError."""
    if floating:
        def divide(row):  # zero / scale is zero; float(v) is v / 1
            return tuple(map(truediv, row, repeat(scale)) if scale > 1 else map(float, row))
    elif scale == 1:
        return tuple(items)
    else:
        def divide(row):
            return tuple(v if v == zero else Fraction(v, scale) if v % scale else v // scale
                         for v in row)
    try:
        return _rescaled(items, divide)
    except OverflowError:
        raise ValueError(_OVERFLOW) from None


def _rescaled(items, row) -> tuple:
    """The Matrix, vector and scalar items with `row` applied to each
    row of entries (a vector's entries, a scalar as a 1-tuple); None
    items stay None."""
    out = []
    for x in items:
        if isinstance(x, Matrix):
            x = Matrix._built(tuple(map(row, x.rows)), x.sf)
        elif isinstance(x, _Entries):
            x = type(x)(row(x.entries), x.sf)
        elif x is not None:
            x = row((x,))[0]
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class _Entries:
    """What column and row vectors share: entrywise operations that
    return the operand's own orientation.  The two orientations never
    mix; `conj` is the only way from one to the other."""

    entries: tuple[Scalar, ...]
    sf: Semifield = MAXPLUS

    _empty = "a vector needs at least one entry"
    _all_zero = "conjugate of the all-zero vector"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ShapeMismatch(self._empty)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_regular(self) -> bool:
        """No zero entries."""
        return self.sf.zero not in self.entries

    def is_zero(self) -> bool:
        zero = self.sf.zero
        return all(v == zero for v in self.entries)

    def conj(self):
        """Conjugate transpose: the other orientation with entrywise
        inverses, zero entries staying zero.  Undefined on the all-zero
        vector."""
        if self.is_zero():
            raise AllZeroVector(self._all_zero)
        if math.inf in self.entries:
            raise ValueError(_OVERFLOW)
        zero = self.sf.zero
        return self._transpose(
            tuple(zero if v == zero else 0 - v for v in self.entries), self.sf
        )

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.dim != other.dim:
            raise ShapeMismatch(f"add dims {self.dim} and {other.dim}")
        return type(self)(
            tuple(x if y <= x else y for x, y in zip(self.entries, other.entries)),
            self.sf,
        )

    def scale(self, c: Scalar):
        zero = self.sf.zero
        return type(self)(
            tuple(zero if v == zero or c == zero else c + v for v in self.entries),
            self.sf,
        )

    def __rmul__(self, c: Scalar):
        return self.scale(c)

    def meet(self, other):
        """Entrywise greatest lower bound; the left operand wins ties."""
        if self.dim != other.dim:
            raise ShapeMismatch(f"meet dims {self.dim} and {other.dim}")
        return type(self)(
            tuple(a if a <= b else b for a, b in zip(self.entries, other.entries)),
            self.sf,
        )

    def leq(self, other) -> bool:
        if self.dim != other.dim:
            raise ShapeMismatch("order on unequal dims")
        sf = self.sf
        return all(sf.leq(a, b) for a, b in zip(self.entries, other.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.entries)!r})"


class Vector(_Entries):
    """Column vector; `conj` gives a RowVector."""

    @staticmethod
    def zeros(n: int, sf: Semifield = MAXPLUS) -> "Vector":
        return Vector((sf.zero,) * n, sf)


class RowVector(_Entries):
    """Row vector; `conj` gives a Vector.  Not a Vector, so that
    `Matrix @ RowVector` is a type error."""

    _empty = "a row vector needs at least one entry"
    _all_zero = "conjugate of the all-zero row"

    def __matmul__(self, other: Union[Matrix, Vector]) -> Union["RowVector", Scalar]:
        """Max-plus product with a column (a scalar) or a matrix."""
        sf = self.sf
        zero = sf.zero
        if isinstance(other, Vector):
            if self.dim != other.dim:
                raise ShapeMismatch(f"row dim {self.dim} times vector dim {other.dim}")
            # `max` keeps the first maximal term, as `_sum_products` does
            pairs = zip(self.entries, other.entries)
            return max((a + b for a, b in pairs if a != zero and b != zero), default=zero)
        if isinstance(other, Matrix):
            if self.dim != other.n_rows:
                raise ShapeMismatch(
                    f"row dim {self.dim} times {other.n_rows}x{other.n_cols}"
                )
            # one row: walk the table itself, no `_finite` lists to build
            acc = [zero] * other.n_cols
            for a, row in zip(self.entries, other.rows):
                if a != zero:
                    for j, b in enumerate(row):
                        if b != zero:
                            s = a + b
                            if s > acc[j]:
                                acc[j] = s
            return RowVector(acc, sf)
        return NotImplemented


Vector._transpose, RowVector._transpose = RowVector, Vector


def outer(col: Vector, row: RowVector) -> Matrix:
    """Rank-one product col (x) row."""
    sf = col.sf
    return Matrix(
        tuple(tuple(sf.mul(a, b) for b in row.entries) for a in col.entries), sf
    )


# -- interleaved product families ------------------------------------------
#
# For square A, B of order n these are the coefficient families of the
# expansions in a scale parameter c:
#
#   chain k (k = 0..n):    (+) over i1+...+ik <= n-k of
#                          A B^i1 A B^i2 ... A B^ik      (chain of k A's)
#   closure k (k = 0..n-1): (+) over i0+...+ik <= n-k-1 of
#                          B^i0 (A B^i1 ... A B^ik)      (leading B block)
#
# so that Tr(cA (+) B) collects tr of chains and (cA (+) B)* collects
# closures by the power of c.  chain 0 = I, closure 0 = B*.
#
# Closure k is the coefficient of c^k in (I (+) B (+) cA)^(n-1): a word
# of n-1 letters from {I, B, A} with k A's is, once its I's are dropped,
# exactly one closure term.  Chain k+1 = A (closure k), one A in front.


def _check_pair(a: Matrix, b: Matrix) -> int:
    n = a._require_square()
    if b._require_square() != n:
        raise ShapeMismatch("families need equal square orders")
    return n


def chain_sums(a: Matrix, b: Matrix) -> list[Matrix]:
    """Full-budget chains: entry k holds the k-chain family member with
    budget n-k, read off the closures as A (closure k-1).  Entry 0 is I;
    entry n is A^n; with b the zero matrix entry k is A^k."""
    return [Matrix.identity(a.n_rows, a.sf)] + [a @ t for t in closure_sums(a, b)]


def closure_sums(a: Matrix, b: Matrix) -> list[Matrix]:
    """Closure family: entry k (k = 0..n-1) is the budget n-k-1 sum of
    B^i0 (k-chain), the coefficient of c^k in (I (+) B (+) cA)^(n-1).
    Each of the n-1 factors maps the coefficients T_k to
    T_k (I (+) B) (+) T_(k-1) A.  Entry 0 is B*."""
    n = _check_pair(a, b)
    zero = a.sf.zero
    eye = Matrix.identity(n, a.sf)
    step = (eye + b).rows
    step_nz, a_nz = _finite(step, zero), _finite(a.rows, zero)
    tops, bottoms = [eye.rows], [eye.rows]
    for _ in range(n - 1):
        tops.append(_product(tops[-1], a.rows, zero, a_nz))
        bottoms.append(_product(bottoms[-1], step, zero, step_nz))
    return [Matrix._built(t, a.sf) for t in _closures(tops, bottoms, step_nz, a_nz, zero)]


def _closures(tops, bottoms, step_nz, a_nz, zero: Scalar) -> list[tuple]:
    """The closure family's tables T_0..T_(n-1) of order n, given the
    first and the last coefficient after each factor, bottoms[s] =
    (I (+) B)^s and tops[s] = A^s for s < n, and the `_finite` lists of
    A and of the step I (+) B.  Only the coefficients between those two
    are products, each row one accumulation of
    T_k (I (+) B) (+) T_(k-1) A."""
    n = len(step_nz)
    out = [tops[0]]
    for s in range(1, n):
        out = [bottoms[s]] + [
            _sum_products(zero, n, ((t, step_nz), (prev, a_nz)))
            for prev, t in zip(out, out[1:])
        ] + [tops[s]]
    return out


def chain_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    n = _check_pair(a, b)
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"chain index {k} outside 0..{n}")
    return chain_sums(a, b)[k]


def closure_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    n = _check_pair(a, b)
    if not 0 <= k <= n - 1:
        raise IndexOutOfRange(f"closure index {k} outside 0..{n - 1}")
    return closure_sums(a, b)[k]
