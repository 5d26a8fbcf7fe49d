"""Literal word expansions of the chain, closure and cumulative power
families: the reference that the closed forms in `tropt.linalg` are
checked against.

Each family is a max-plus sum of words B^i0 A B^i1 ... A B^ik.  The
words are listed one by one and multiplied out on raw lists, with None
for the tropical zero, so none of this calls the solver path.  The
expansions grow fast with the order; callers keep it small (n <= 6).
"""

import functools
import itertools
from fractions import Fraction
from typing import Optional

from tropt.linalg import Matrix
from tropt.oracle import _mat
from tropt.semifield import MAXPLUS, Scalar


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


def _to_matrix(rows) -> Matrix:
    return Matrix(tuple(tuple(MAXPLUS.zero if v is None else v for v in row) for row in rows))


def _order(a: Matrix, b: Matrix) -> int:
    n = a.n_rows
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
    n = _order(a, b)
    bpow = _lmat_pows(_mat(b), max(n - k, 0))
    words = _words(_mat(a), bpow, k, n - k, lead=False)
    return _to_matrix(_lmat_sum(words, n))


def enum_closure_sum(a: Matrix, b: Matrix, k: int) -> Matrix:
    """Literal sum over i0+i1+...+ik <= n-k-1 of B^i0 A B^i1 ... A B^ik."""
    n = _order(a, b)
    bpow = _lmat_pows(_mat(b), max(n - k - 1, 0))
    words = _words(_mat(a), bpow, k, n - k - 1, lead=True)
    return _to_matrix(_lmat_sum(words, n))


def enum_cumulative_sum(a: Matrix, b: Matrix, m: int) -> Matrix:
    """Literal right side of the cumulative power identity:
    (+) over k=1..m, i0+...+ik <= m-k of B^i0 A B^i1 ... A B^ik,
    joined with (+) over k=1..m of B^k."""
    n = _order(a, b)
    am, bpow = _mat(a), _lmat_pows(_mat(b), m)
    words = itertools.chain(
        *(_words(am, bpow, k, m - k, lead=True) for k in range(1, m + 1)), bpow[1:]
    )
    return _to_matrix(_lmat_sum(words, n))


def enum_cumulative_trace(a: Matrix, b: Matrix, m: int) -> Scalar:
    """Literal right side of the cumulative trace identity:
    (+) over k=1..m, i1+...+ik <= m-k of tr(A B^i1 ... A B^ik),
    joined with (+) over k=1..m of tr(B^k)."""
    n = _order(a, b)
    am, bpow = _mat(a), _lmat_pows(_mat(b), m)
    words = itertools.chain(
        *(_words(am, bpow, k, m - k, lead=False) for k in range(1, m + 1)), bpow[1:]
    )
    acc = _madd_reduce(_madd_reduce(w[i][i] for i in range(n)) for w in words)
    return MAXPLUS.zero if acc is None else acc
