"""Matrices and vectors over the max-plus semifield.

Objects are immutable; entries are raw scalars (int, Fraction, float)
with the semifield's zero carried as a float -inf.  `+` is entrywise
idempotent addition and `@` the max-plus product, one inlined kernel
over the finite entries.  `star` is one O(n^3) Floyd-Warshall pass, and
`trace_sum` reads Tr(A) = tr(A (x) A*) off it in O(n^2), without the
product.  `spectral_radius` is Karp's O(n^3) maximum cycle mean.  Its
kernel, `_max_cycle`, also takes a product of factors without forming
it: each walk step is one pass over each factor's finite entries, so
the optimizers read theta = lambda(Bhat* Ahat) with no Bhat* Ahat
matrix.  Float entries near the end of the range are scaled by a power
of two first, so that the walk sums cannot overflow.  Karp's walk stops
at the first step k with D_k finite and D_k = c (x) D_(k-1): then
x_u + a_uv <= c + x_v on every arc for x = D_(k-1), so no cycle has
mean above c, and the back-pointers of step k are tight arcs closing a
cycle of mean c.
Entrywise helpers (`scale`, `conj`, `meet`, the zero and regularity
tests) inline the MaxPlus rules, as `+` and `@` do: no Semifield call
per entry.
Column and row vectors share one core of entrywise operations but are
distinct types, so that expressions read like the algebra:
``h.conj() @ T @ g`` is a scalar.

All operands of a binary operation must share one semifield instance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
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


def _row_sum(zero: Scalar, width: int, *terms) -> list[Scalar]:
    """One row of (+) row (x) right over the terms (row, right `_finite`
    lists).  Terms go in order, each in increasing k, and only a strictly
    larger sum replaces the running maximum: the first maximal term is
    kept, so the result, Python type included, is that of `sf.sum` of
    `sf.mul`s under `MaxPlus`, and an earlier term wins ties, as the
    left operand of `+` does."""
    acc = [zero] * width
    for row, right_nz in terms:
        for a, nz in zip(row, right_nz):
            if a != zero:
                for j, b in nz:
                    s = a + b
                    if s > acc[j]:
                        acc[j] = s
    return acc


def _product(left: Sequence[Sequence[Scalar]], right: Sequence[Sequence[Scalar]],
             zero: Scalar, right_nz: list[list] | None = None) -> tuple[tuple, ...]:
    """Rows of the max-plus product of two row-major tables (see
    `_row_sum`).  A caller that multiplies by one right factor many
    times passes its `_finite` lists once."""
    if right_nz is None:
        right_nz = _finite(right, zero)
    width = len(right[0])
    return tuple(tuple(_row_sum(zero, width, (row, right_nz))) for row in left)


@dataclass(frozen=True, eq=False)
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
        # `MaxPlus.add` inlined: the left operand wins ties
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
        """c (x) A; `MaxPlus.mul` inlined, as in `_scaled_sum`."""
        return _scaled_sum(c, self, None)

    def __rmul__(self, c: Scalar) -> "Matrix":
        return self.scale(c)

    def conj(self) -> "Matrix":
        """Conjugate transpose: transpose with entrywise inversion
        (`MaxPlus.inv` inlined, zero entries staying zero)."""
        zero = self.sf.zero
        if any(math.inf in r for r in self.rows):
            raise ValueError(_OVERFLOW)
        return Matrix._built(
            tuple(tuple(zero if v == zero else -v for v in col) for col in zip(*self.rows)),
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
        """Tr(A) = tr A (+) tr A^2 (+) ... (+) tr A^n = tr(A (x) A*).

        `star` is I (+) A (+) ... (+) A^(n-1) in value whether or not a
        cycle is positive, so A A* is A (+) ... (+) A^n.  At most one
        exactly when the weighted digraph has no cycle of positive weight.
        """
        return _trace_product(self, self.star())

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
        I (+) A (+) A^2 (+) ... (+) A^(n-1).

        One O(n^3) Floyd-Warshall pass gives the heaviest walk weights;
        with no cycle weight above one (the only regime the solvers use)
        they are the heaviest path weights, which is the truncated sum
        off the diagonal, and the diagonal is one.  A diagonal entry
        above one marks a positive cycle, where walks outgrow the
        truncation, and the truncated sum is returned instead as
        (I (+) A)^(n-1), equal to it by idempotency.
        """
        n = self._require_square()
        sf = self.sf
        zero = sf.zero
        d = [list(r) for r in self.rows]
        for k in range(n):
            pivot = [(j, v) for j, v in enumerate(d[k]) if v != zero]
            for di in d:
                a = di[k]
                if a != zero:
                    for j, v in pivot:
                        s = a + v
                        if s > di[j]:
                            di[j] = s
        if any(d[i][i] > sf.one for i in range(n)):
            return (Matrix.identity(n, sf) + self).power(n - 1)
        for i in range(n):
            d[i][i] = sf.one
        return Matrix._built(tuple(tuple(r) for r in d), sf)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            return False
        sf = self.sf
        return all(
            sf.eq(a, b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

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


def _scaled_sum(c: Scalar, a: Matrix, b: Matrix | None) -> Matrix:
    """c (x) A (+) B, or c (x) A when b is None, with no Matrix in
    between.  `MaxPlus.mul` and `add` inlined: a zero factor gives
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


def _max_cycle(*factors: Matrix) -> tuple[Scalar, tuple[int, ...]]:
    """(lambda, nodes): the largest cycle mean of the product
    F_1 (x) ... (x) F_m of the square factors, all of one order, and a
    cycle of the product that attains it, nodes in arc order; (zero, ())
    when the product has no cycle.  The product is never formed:
    `Matrix.spectral_radius` passes one factor, and the optimizers pass
    Bhat* and Ahat for theta.

    Karp's formula (Karp 1978) in O(m n^3): with D_k(v) the heaviest
    weight of a k-arc walk of the product ending at v (D_0 = one,
    D_(k+1) = (...(D_k (x) F_1)...) (x) F_m, one pass over each
    factor's finite entries), lambda is the max over v of the min over
    k < n of (D_n(v) - D_k(v)) / (n - k), finite terms only, the means
    compared as (weight, arc count) pairs by cross-multiplication.

    The walk stops early at the first step k where D_k is finite
    everywhere and D_k - D_(k-1) is one constant c.  D_(k-1) is then a
    finite left eigenvector: x_u + a_uv <= D_k(v) = c + x_v on every arc
    (u, v) of the product, so summed around any cycle its mean is at
    most c; the arcs u = back[k][v] hold with equality, so following
    back[k] from any node closes a cycle of mean exactly c = lambda
    (Butkovic, Max-linear Systems, 2010, ch. 4).  Periodic and reducible
    matrices may never reach such a step and take the full formula
    below.

    Back-pointers give the heaviest n-arc walk to the v that attains
    lambda.  Cutting a cycle of l arcs out of it leaves an (n-l)-arc
    walk to v no heavier than D_(n-l)(v), so every cycle on it has mean
    lambda.  The first one met walking back from v is returned.  Either
    way lambda is the witness's weight, summed from its arcs, divided
    once by `sf.power` (`_cycle_mean`): an exact whole number comes back
    as an int, and a float carries no rounding from the long sums
    D_n(v) - D_k(v).  A step's back-pointers hold one list per factor,
    so each arc u -> v of the product is read as the factor path
    u -> m_1 -> ... -> v that attains it, and its weight is that path's
    entries summed left to right, as the product's own entry would be.

    Float entries near the end of the range are scaled (`_float_shift`).
    The entries are scanned for that once, when a finite float enters a
    walk value in the first step.  From D_0 = one, finite everywhere,
    that step meets every entry that any later step can, and with float
    data its maxima are floats.  If the entries need scaling, the walk
    starts over on scaled copies.  Only float entries set the scale, so
    exact data never pays for the scan, only for one type test per walk
    value of the first step.
    """
    first = factors[0]
    n = first._require_square()
    return _karp([f.rows for f in factors], n, first.sf, None)


def _karp(tables, n: int, sf: Semifield,
          shift: int | None) -> tuple[Scalar, tuple[int, ...]]:
    """`_max_cycle` on row-major factor tables whose entries are scaled
    by 2^-shift; shift None before the float range is settled."""
    zero = sf.zero
    nzs = [_finite(t, zero) for t in tables]
    walks, back = [[sf.one] * n], [None]
    for _ in range(n):
        prev = acc = walks[-1]
        args = []
        for nz in nzs:
            cur, arg = [zero] * n, [0] * n
            for u, d in enumerate(acc):
                if d != zero:
                    for j, w in nz[u]:
                        s = d + w
                        if s > cur[j]:
                            cur[j] = s
                            arg[j] = u
            if shift is None and any(type(v) is float and v != zero for v in cur):
                shift = _float_shift(tables, zero, 2 * len(tables) * n * n)
                if shift:
                    scaled = [[[w if w == zero else math.ldexp(w, -shift) for w in r]
                               for r in t] for t in tables]
                    return _karp(scaled, n, sf, shift)
            acc = cur
            args.append(arg)
        if shift is None:
            shift = 0
        # a finite D_k has a finite entry in every column of the product,
        # so D_(k-1) is finite too: the early exit needs only
        # D_k = c (x) D_(k-1)
        if zero not in acc:
            c = acc[0] - prev[0]
            if all(d - e == c for d, e in zip(acc, prev)):
                return _cycle_mean(tables, repeat(args), 0, sf, shift)
        walks.append(acc)
        back.append(args)
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
    if best is None:
        return zero, ()
    return _cycle_mean(tables, reversed(back[1:]), best[2], sf, shift)


def _float_shift(tables, zero: Scalar, bound: int) -> int:
    """The s of the power of two 2^-s that every float entry of the
    tables is scaled by, or 0 when none needs it.

    Walk sums, their differences and the cross-products are at most
    `bound` = 2 m n^2 times the largest |entry| (m factors of order n),
    so they stay in the float range while every float entry is at most
    M / bound, M the largest float.  Past that, 2^s > bound.  A power
    of two is exact (short of entries it pushes below the normal range),
    so lambda(2^k A) is 2^k lambda(A), bit for bit.  An entry of +inf, a
    product that overflowed before it got here, raises ValueError.
    """
    top = max(
        (abs(w) for t in tables for row in t for w in row
         if isinstance(w, float) and w != zero),
        default=0.0,
    )
    if top == math.inf:
        raise ValueError(_OVERFLOW)
    return bound.bit_length() if top > sys.float_info.max / bound else 0


def _cycle_mean(tables, steps, v: int, sf: Semifield,
                shift: int) -> tuple[Scalar, tuple[int, ...]]:
    """(lambda, nodes) for the cycle closed by walking back from v, one
    step of back-pointers (a list per factor) from `steps` per arc,
    until a node repeats: its weight, summed from its arcs, divided once
    by `sf.power` (an exact whole number comes back as an int), then
    scaled back by 2^shift; ValueError when that leaves the float
    range."""
    pos, walk, into = {}, [], {}
    while v not in pos:
        pos[v] = len(walk)
        walk.append(v)
        path = [v]
        for arg in reversed(next(steps)):
            path.append(arg[path[-1]])
        into[v] = path[::-1]
        v = path[-1]
    nodes = tuple(reversed(walk[pos[v]:]))
    arcs = []
    for head in nodes[1:] + nodes[:1]:
        path = into[head]
        w = tables[0][path[0]][path[1]]
        for t, i, j in zip(tables[1:], path[1:], path[2:]):
            w = w + t[i][j]
        arcs.append(w)
    lam = sf.power(sum(arcs[1:], arcs[0]), Fraction(1, len(nodes)))
    if shift:
        # a mean of sums of m entries may lie past the float range
        try:
            lam = math.ldexp(lam, shift)
        except OverflowError:
            raise ValueError(_OVERFLOW) from None
    return lam, nodes


@dataclass(frozen=True, eq=False)
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
            tuple(zero if v == zero else -v for v in self.entries), self.sf
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

    def leq_tol(self, other) -> bool:
        sf = self.sf
        return all(sf.leq_tol(a, b) for a, b in zip(self.entries, other.entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.dim != other.dim:
            return False
        sf = self.sf
        return all(sf.eq(a, b) for a, b in zip(self.entries, other.entries))

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
            # `max` keeps the first maximal term, as `_row_sum` does
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
    step_nz, a_nz = _finite((eye + b).rows, zero), _finite(a.rows, zero)
    zeros = [(zero,) * n] * n  # T_(-1) and T_n
    out = [eye.rows]
    for _ in range(n - 1):
        # T_k (I (+) B) (+) T_(k-1) A, row by row in one accumulation
        out = [
            tuple(
                tuple(_row_sum(zero, n, (t_row, step_nz), (p_row, a_nz)))
                for t_row, p_row in zip(t, prev)
            )
            for prev, t in zip([zeros] + out, out + [zeros])
        ]
    return [Matrix._built(t, a.sf) for t in out]


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
