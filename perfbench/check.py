"""Reference computations in plain Python, independent of tropt.

Inputs are the raw lists of `gen` (None for the tropical zero) and
values decoded from tropt's JSON output.  In exact mode the checks
compare Fractions for equality; in float mode they allow a tolerance
that scales with the data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

Num = Union[Fraction, float]


def scalar(value) -> Optional[Num]:
    """Decode a scalar as tropt encodes it: int, "num/den", float, or
    "-inf"/None for the tropical zero (returned as None)."""
    if value is None or value == "-inf":
        return None
    if isinstance(value, bool):
        raise ValueError("boolean where a scalar was expected")
    if isinstance(value, float):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ValueError(f"not a scalar: {value!r}")


def vector(values) -> list[Optional[Num]]:
    return [scalar(v) for v in values]


def matrix(value) -> list[list[Optional[Num]]]:
    """Decode a matrix: a list of rows or tropt's {"data": rows} form."""
    if isinstance(value, dict):
        value = value["data"]
    return [vector(row) for row in value]


def tolerance(n: int, *data) -> float:
    """Float-mode tolerance: 1e-9 per unit of the largest finite
    magnitude in the data, times the order plus one."""
    top = 1
    stack = list(data)
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            top = max(top, abs(item))
    return 1e-9 * (n + 1) * top


def close(x: Optional[Num], y: Optional[Num], tol: float) -> bool:
    if x is None or y is None:
        return x is None and y is None
    if tol == 0:
        return x == y
    return abs(x - y) <= tol


def all_close(got: list, want: list, tol: float) -> bool:
    """Entrywise comparison of equal-shaped (nested) lists of decoded
    scalars."""
    if len(got) != len(want):
        return False
    return all(
        all_close(g, w, tol) if isinstance(w, list) else close(g, w, tol)
        for g, w in zip(got, want)
    )


def docs_close(got, want, tol: float) -> bool:
    """Structural comparison of two decoded JSON documents whose
    scalars may differ by at most tol."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(docs_close(got[k], want[k], tol) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(docs_close(g, w, tol) for g, w in zip(got, want))
        )
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if want is None or got is None:
        return got is want
    try:
        return close(scalar(got), scalar(want), tol)
    except (ValueError, ZeroDivisionError):
        return got == want


def _matvec(a, x) -> list[Optional[Num]]:
    out = []
    for row in a:
        terms = [v + xj for v, xj in zip(row, x) if v is not None]
        out.append(max(terms) if terms else None)
    return out


def flow_time(sched: dict, x: list[Num]) -> Num:
    """Largest flow time max_i (max((A x)_i, p_i) - min(x_i, q_i)) of
    a schedule in tropt's JSON layout."""
    y = _matvec(sched["startFinish"], x)
    worst = None
    for yi, pi, xi, qi in zip(y, sched["windowUpper"], x, sched["windowLower"]):
        finish = pi if yi is None else max(yi, pi)
        flow = finish - min(xi, qi)
        worst = flow if worst is None else max(worst, flow)
    return worst


def schedule_violation(sched: dict, x: list[Num], tol: float = 0) -> Optional[str]:
    """None when x meets every start-start lag and its window."""
    n = len(x)
    b = sched.get("startStart") or [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if b[i][j] is not None and b[i][j] + x[j] > x[i] + tol:
                return f"start-start lag ({i},{j}) violated"
    g = sched.get("earliestStart") or [None] * n
    for i in range(n):
        if g[i] is not None and g[i] > x[i] + tol:
            return f"earliest start of activity {i} violated"
        if x[i] > sched["latestStart"][i] + tol:
            return f"latest start of activity {i} violated"
    return None


def objective(problem: dict, x: list[Num]) -> Num:
    """The span objective of a problem in tropt's JSON layout."""
    a = problem["A"]
    n = len(x)
    terms = [
        a[i][j] + x[j] - x[i] for i in range(n) for j in range(n) if a[i][j] is not None
    ]
    if "r" in problem:
        terms.extend(pi - xi for pi, xi in zip(problem["p"], x) if pi is not None)
        terms.extend(xi - qi for xi, qi in zip(x, problem["q"]))
        terms.append(problem["r"])
    return max(terms)


def problem_violation(problem: dict, x: list[Num], tol: float = 0) -> Optional[str]:
    """None when x meets the constraints of its kind."""
    n = len(x)
    kind = problem["kind"]
    b, g, h = problem.get("B"), problem.get("g"), problem.get("h")
    if b is not None:
        for i in range(n):
            for j in range(n):
                if b[i][j] is not None and b[i][j] + x[j] > x[i] + tol:
                    return f"B x <= x violated at ({i},{j})"
    if g is not None and kind != "FixpointConstrained":
        for i in range(n):
            if g[i] is not None and g[i] > x[i] + tol:
                return f"g <= x violated at {i}"
    if h is not None:
        for i in range(n):
            if x[i] > h[i] + tol:
                return f"x <= h violated at {i}"
    return None


# -- independent minima and verdicts -----------------------------------------
#
# A span problem at level theta is a system of difference constraints
# x_v - x_u <= c + k * theta (k = 0 for a constraint, 1 for an objective
# term), over the variables and one origin node fixed at 0.  It is
# feasible exactly when no cycle has negative weight, and its least
# feasible theta is the floor or the largest ratio -sum(c) / sum(k) over
# cycles with k > 0.  That ratio has a denominator of at most the node
# count, which lets a Bellman-Ford run certify a claimed minimum.

Edge = tuple[int, int, int, int]  # (u, v, c, k): x_v - x_u <= c + k * theta


class SpanGraph:
    def __init__(self, nodes: int, edges: list[Edge], floor: Optional[int]):
        self.nodes, self.edges, self.floor = nodes, edges, floor

    def feasible(self, theta: Optional[Fraction] = None) -> bool:
        """Whether some x meets every constraint and keeps the objective
        at most theta; theta None drops the objective terms."""
        if theta is not None and self.floor is not None and theta < self.floor:
            return False
        edges = [(u, v, c + k * theta if k else c) for u, v, c, k in self.edges
                 if theta is not None or not k]
        dist = [0] * self.nodes
        for _ in range(self.nodes):
            changed = False
            for u, v, w in edges:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return True
        return False

    def minimum_violation(self, minimum: Num, tol: float = 0) -> Optional[str]:
        """None when `minimum` is the least feasible theta (within tol
        in float mode)."""
        if tol:
            value = Fraction(minimum)
            high, low = value + Fraction(tol), value - Fraction(tol)
        else:
            high = Fraction(minimum)
            if high.denominator > self.nodes:
                return f"minimum {high} is no cycle ratio of order {self.nodes}"
            low = high - Fraction(1, self.nodes**2)
        if not self.feasible(high):
            return f"no feasible point reaches the objective value {minimum}"
        if self.feasible(low):
            return f"a feasible point beats the reported minimum {minimum}"
        return None


def _constraint_edges(origin: int, b, g, h) -> list[Edge]:
    """B x <= x, g <= x and x <= h as difference constraints."""
    edges = []
    if b is not None:
        edges += [(i, j, -v, 0) for i, row in enumerate(b) for j, v in enumerate(row)
                  if v is not None]
    if g is not None:
        edges += [(i, origin, -v, 0) for i, v in enumerate(g) if v is not None]
    if h is not None:
        edges += [(origin, i, v, 0) for i, v in enumerate(h)]
    return edges


def span_graph(problem: dict) -> SpanGraph:
    """The constraint graph of a problem in tropt's JSON layout."""
    a = problem["A"]
    n = len(a)
    edges = [(i, j, -v, 1) for i, row in enumerate(a) for j, v in enumerate(row)
             if v is not None]
    if "r" in problem:
        edges += [(i, n, -v, 1) for i, v in enumerate(problem["p"]) if v is not None]
        edges += [(n, i, v, 1) for i, v in enumerate(problem["q"])]
    edges += _constraint_edges(n, problem.get("B"), problem.get("g"), problem.get("h"))
    return SpanGraph(n + 1, edges, problem.get("r"))


def schedule_graph(sched: dict) -> SpanGraph:
    """The constraint graph of a schedule: flow time
    max((A x)_i, p_i) - min(x_i, q_i) <= theta splits into
    a_ij + x_j - x_i, a_ij + x_j - q_i, p_i - x_i and p_i - q_i."""
    a, p, q = sched["startFinish"], sched["windowUpper"], sched["windowLower"]
    n = len(a)
    edges = []
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v is not None:
                edges += [(i, j, -v, 1), (n, j, q[i] - v, 1)]
    edges += [(i, n, -v, 1) for i, v in enumerate(p)]
    edges += _constraint_edges(n, sched.get("startStart"), sched.get("earliestStart"),
                               sched["latestStart"])
    return SpanGraph(n + 1, edges, max(pi - qi for pi, qi in zip(p, q)))


def has_cycle(a) -> bool:
    """Whether the digraph of the finite entries of a has a cycle."""
    live = set(range(len(a)))
    while True:
        sinks = {i for i in live if not any(a[i][j] is not None for j in live)}
        if not sinks:
            return bool(live)
        live -= sinks


def _subgraph_feasible(origin: int, b=None, g=None, h=None) -> bool:
    return SpanGraph(origin + 1, _constraint_edges(origin, b, g, h), None).feasible()


def solve_verdict(problem: dict) -> Optional[str]:
    """The condition `tropt solve` must name for this problem, checked
    in tropt's order, or None when it must return a minimum.  Every
    generated problem has a finite r, so the degenerate gate never
    applies."""
    kind, n = problem["kind"], len(problem["A"])
    b, g, h = problem.get("B"), problem.get("g"), problem.get("h")
    if b is not None and not _subgraph_feasible(n, b):
        return "Tr(B) <= 1"
    if kind == "BoxConstrained" and not _subgraph_feasible(n, g=g, h=h):
        return "h^- g <= 1"
    if kind == "General" and not _subgraph_feasible(n, b, g, h):
        return "h^- B* g <= 1"
    if kind in ("Basic", "ExtendedUnconstrained", "LinearConstrained") and not has_cycle(
        problem["A"]
    ):
        return "matrix has no cycle"
    return None


# -- plain max-plus matrices (None is the tropical zero) ---------------------


def _oplus(x, y):
    if x is None:
        return y
    return x if y is None else max(x, y)


def matmul(a, b):
    cols = list(zip(*b))
    return [
        [
            max((u + v for u, v in zip(row, col) if u is not None and v is not None),
                default=None)
            for col in cols
        ]
        for row in a
    ]


def identity(n: int):
    return [[0 if i == j else None for j in range(n)] for i in range(n)]


def star(a):
    """I (+) A (+) ... (+) A^(n-1), summed literally."""
    n = len(a)
    eye = identity(n)
    acc = eye
    for _ in range(n - 1):
        acc = [[_oplus(x, y) for x, y in zip(r, s)] for r, s in zip(eye, matmul(a, acc))]
    return acc


def trace_sum(a):
    """tr A (+) tr A^2 (+) ... (+) tr A^n."""
    acc, power = None, a
    for _ in range(len(a)):
        for i in range(len(a)):
            acc = _oplus(acc, power[i][i])
        power = matmul(power, a)
    return acc


def residual(d, a) -> list:
    """(d^- A)^-: entry j is min over finite a_ij of d_i - a_ij."""
    return [
        min(di - row[j] for di, row in zip(d, a) if row[j] is not None)
        for j in range(len(a[0]))
    ]


def inequality_expectation(doc: dict) -> tuple[Optional[str], dict]:
    """The condition `tropt solve-ineq` must name (None when solvable)
    and the fields of its answer."""
    a, b, d = doc["A"], doc.get("b"), doc.get("d")
    if b is None:
        return None, {"greatest": residual(d, a)}
    gen = star(a)
    delta = trace_sum(a)
    if d is not None:
        for di, row in zip(d, gen):
            for v, bj in zip(row, b):
                if v is not None and bj is not None:
                    delta = _oplus(delta, v + bj - di)
    if delta is not None and delta > 0:
        return ("Tr(A) <= 1" if d is None else "Tr(A) (+) d^- A* b <= 1"), {}
    want = {"generator": gen, "lower": b}
    if d is not None:
        want["upper"] = residual(d, gen)
    return None, want
