"""Seeded input generators for the benchmark.

Everything here produces raw data: nested lists of ints with None for
the tropical zero (-inf), in the JSON layout the `tropt` command reads.
The program under test only ever sees these generated inputs.  Each
instance draws from its own `random.Random`, keyed by workload, seed
and index, so instance i is the same whatever else a run generates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

Raw = Optional[int]
RawMatrix = list[list[Raw]]

# field lists per problem kind (the JSON "kind" values of tropt)
KIND_FIELDS = {
    "Basic": (),
    "ExtendedUnconstrained": ("p", "q", "r"),
    "LinearConstrained": ("B", "g"),
    "General": ("B", "p", "q", "g", "h", "r"),
    "BoxConstrained": ("p", "q", "g", "h", "r"),
    "FixpointConstrained": ("B", "p", "q", "r"),
}
KINDS = tuple(KIND_FIELDS)


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent stream for one instance (str seeds hash with sha512,
    so the stream does not depend on PYTHONHASHSEED)."""
    return random.Random(f"{workload}/{seed}/{index}")


def _matrix(rng: random.Random, n: int, density: float, lo: int, hi: int) -> RawMatrix:
    return [
        [rng.randint(lo, hi) if rng.random() < density else None for _ in range(n)]
        for _ in range(n)
    ]


def _column_regular(rng: random.Random, a: RawMatrix, lo: int, hi: int) -> None:
    """Give every all-None column one finite entry."""
    n = len(a)
    for j in range(n):
        if all(a[i][j] is None for i in range(n)):
            a[rng.randrange(n)][j] = rng.randint(lo, hi)


def _lags_below(rng: random.Random, x0: list[int], density: float, slack: int) -> RawMatrix:
    """Lags b_ij <= x0_i - x0_j, so B x0 <= x0 and every cycle of B has
    weight at most zero: the gates Tr(B) <= 1 and h^- B* g <= 1 hold
    for any g <= x0 <= h."""
    n = len(x0)
    return [
        [
            x0[i] - x0[j] - rng.randint(0, slack) if rng.random() < density else None
            for j in range(n)
        ]
        for i in range(n)
    ]


@dataclass(frozen=True)
class ScheduleDraw:
    """A schedule that is feasible by construction, with its witness."""

    start_finish: RawMatrix
    start_start: RawMatrix
    earliest_start: list[Raw]
    latest_start: list[int]
    window_lower: list[int]
    window_upper: list[int]
    witness: list[int]

    @property
    def n(self) -> int:
        return len(self.witness)

    def to_json(self) -> dict:
        return {
            "activities": [f"act{i + 1}" for i in range(self.n)],
            "startFinish": self.start_finish,
            "startStart": self.start_start,
            "earliestStart": self.earliest_start,
            "latestStart": self.latest_start,
            "windowLower": self.window_lower,
            "windowUpper": self.window_upper,
        }


def feasible_schedule(rng: random.Random, n: int) -> ScheduleDraw:
    """Draw a witness start vector x0, then data it satisfies:
    b_ij <= x0_i - x0_j and g <= x0 <= h.  Start-finish lags are
    positive durations with a finite entry in every column."""
    x0 = [rng.randint(0, 3 * n) for _ in range(n)]
    a = _matrix(rng, n, 0.35, 1, 9)
    _column_regular(rng, a, 1, 9)
    b = _lags_below(rng, x0, 0.25, 3)
    g = [x - rng.randint(0, 4) if rng.random() < 0.7 else None for x in x0]
    h = [x + rng.randint(0, 4) for x in x0]
    q = [x + rng.randint(-3, 3) for x in x0]
    p = [x + rng.randint(0, 12) for x in x0]
    return ScheduleDraw(a, b, g, h, q, p, x0)


def random_problem(rng: random.Random, kind: str, n: int) -> dict:
    """Free draw of a problem of the given kind, in tropt's JSON layout.
    Precedence lags are drawn without regard to feasibility, so some
    draws are infeasible (positive B cycle, h^- B* g > 1) or have no
    cycle in A; those verdicts stay in the mix."""
    need = KIND_FIELDS[kind]
    doc: dict = {"kind": kind, "A": _matrix(rng, n, 0.7, -5, 5)}
    if "B" in need:
        doc["B"] = _matrix(rng, n, 0.3, -5, 2)
    if "p" in need:
        doc["p"] = [rng.randint(-5, 5) if rng.random() < 0.8 else None for _ in range(n)]
    if "q" in need:
        doc["q"] = [rng.randint(-5, 5) for _ in range(n)]
    if "g" in need:
        doc["g"] = [rng.randint(-5, 0) if rng.random() < 0.8 else None for _ in range(n)]
    if "h" in need:
        doc["h"] = [rng.randint(-1, 4) for _ in range(n)]
    if "r" in need:
        doc["r"] = rng.randint(-5, 5)
    return doc


def feasible_problem(rng: random.Random, kind: str, n: int) -> dict:
    """Problem of the given kind with a regular feasible point and a
    cycle in A (a finite diagonal entry), so the closed form always
    returns a minimum."""
    need = KIND_FIELDS[kind]
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    a = _matrix(rng, n, 0.6, -5, 5)
    i = rng.randrange(n)
    a[i][i] = rng.randint(-5, 5)
    doc: dict = {"kind": kind, "A": a}
    if "B" in need:
        doc["B"] = _lags_below(rng, x0, 0.4, 2)
    if "p" in need:
        doc["p"] = [rng.randint(-5, 5) if rng.random() < 0.8 else None for _ in range(n)]
    if "q" in need:
        doc["q"] = [rng.randint(-5, 5) for _ in range(n)]
    if "g" in need:
        doc["g"] = [x - rng.randint(0, 2) if rng.random() < 0.8 else None for x in x0]
    if "h" in need:
        doc["h"] = [x + rng.randint(0, 2) for x in x0]
    if "r" in need:
        doc["r"] = rng.randint(-5, 5)
    return doc


def inequality_system(rng: random.Random, variant: str, n: int) -> dict:
    """`solve-ineq` input: variant "b" (A x + b <= x), "d" (A x <= d)
    or "bd" (both).  Lags of A are free, so "b" and "bd" draws can be
    infeasible."""
    doc: dict = {"A": _matrix(rng, n, 0.4, -5, 1)}
    _column_regular(rng, doc["A"], -5, 1)
    if "b" in variant:
        doc["b"] = [rng.randint(-5, 0) if rng.random() < 0.8 else None for _ in range(n)]
    if "d" in variant:
        doc["d"] = [rng.randint(-1, 5) for _ in range(n)]
    return doc


def square_matrix(rng: random.Random, n: int) -> RawMatrix:
    """Matrix for `eig` and `star`.  Entries sit in [-6, 1], so star
    requests cover both no-positive-cycle and positive-cycle inputs."""
    return _matrix(rng, n, 0.5, -6, 1)
