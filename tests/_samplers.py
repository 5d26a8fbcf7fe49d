"""Small random instances that the oracles and the closed forms are
checked on: integer matrices and vectors with occasional tropical zeros,
problems of every kind and schedules.

The draws depend only on the `random.Random` passed in, so a seeded test
sees the same instances on every run.
"""

import random
from typing import Optional

from tropt.linalg import Matrix, Vector, _border, _family
from tropt.optimize import _FIELDS, Problem, ProblemKind
from tropt.schedule import ScheduleSpec
from tropt.semifield import MAXPLUS


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
        )
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
        )
    )


def random_trace_bounded(rng: random.Random, n: int, zero_p: float = 0.5) -> Matrix:
    """Random matrix with trace sum at most one (`_family`'s heaviest
    cycle), by rejection; the all-zero matrix after 500 failures."""
    for _ in range(500):
        m = random_matrix(rng, n, zero_p=zero_p)
        table = [list(r) for r in _border(m, n, None, None, None).rows]
        if _family(table, n)[0] <= 0:
            return m
    return Matrix.zeros(n, n)


def sample_problem(
    rng: random.Random, kind: ProblemKind, n: Optional[int] = None
) -> Problem:
    """Random integer instance of the given kind.  Data sits in [-5, 5]
    with occasional tropical zeros; box corners are drawn so g <= h.
    The draw can still be infeasible or degenerate for its solver, which
    is intentional: callers decide whether to keep or skip those."""
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
                    (v if not MAXPLUS.is_zero(v) else rng.randint(-3, 0))
                    + rng.randint(0, 4)
                    for v in g.entries
                )
            )
    if "r" in need:
        fields["r"] = rng.randint(-5, 5)
    return Problem(**fields)


def sample_schedule(rng: random.Random, n: Optional[int] = None) -> ScheduleSpec:
    """Random integer schedule with a column-regular duration matrix,
    a feasibility-friendly precedence matrix and g <= h windows."""
    if n is None:
        n = rng.choice((2, 3))
    rows = [list(r) for r in random_matrix(rng, n, zero_p=0.3, lo=0, hi=5).rows]
    for j in range(n):
        if all(MAXPLUS.is_zero(rows[i][j]) for i in range(n)):
            rows[rng.randrange(n)][j] = rng.randint(1, 5)
    a = Matrix(tuple(tuple(r) for r in rows))
    b = random_trace_bounded(rng, n, zero_p=0.6)
    g = random_vector(rng, n, zero_p=0.3, lo=-2, hi=1)
    h = Vector(
        tuple(
            (v if not MAXPLUS.is_zero(v) else 0) + rng.randint(0, 4)
            for v in g.entries
        )
    )
    return ScheduleSpec(
        start_finish=a,
        start_start=b,
        earliest_start=g,
        latest_start=h,
        window_lower=random_vector(rng, n, lo=-2, hi=3),
        window_upper=random_vector(rng, n, lo=0, hi=5),
    )
