"""Exact solves at orders the grid oracle cannot reach, certified by the
benchmark's independent checker.

`perfbench/check.py` confirms a minimum with Bellman-Ford runs on the
problem's difference-constraint graph, and the returned point against
the raw data; `perfbench/gen.py` draws instances that are feasible by
construction.  Both are loaded from their files, so the test does not
depend on how the test runner sets `sys.path`.  The same draws also
carry metamorphic checks that need no oracle: scaling the data scales
the answer, relabelling the variables permutes it, and a lag that the
canonical point already meets leaves theta as it was, as does a g
raised toward the canonical point.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from _perfbench import check, gen
from tropt import (
    DegenerateProblem,
    InfeasibleConstraints,
    NoRegularSolution,
    ZeroSpectralRadius,
    solve_combined,
    solve_fixpoint_lower,
    solve_problem,
    solve_schedule,
    solve_upper_bounded,
)
from tropt.serialize import (
    encode_scalar,
    parse_matrix,
    parse_problem,
    parse_schedule,
    parse_vector,
)


def _certify_problem(doc: dict):
    result = solve_problem(parse_problem(doc))
    theta = result.minimum
    assert type(theta) in (int, Fraction), doc
    x = [Fraction(v) for v in result.canonical.entries]
    assert check.problem_violation(doc, x) is None, doc
    assert check.objective(doc, x) == theta, doc
    assert check.span_graph(doc).minimum_violation(theta) is None, doc
    return result


def _certify_schedule(draw) -> Fraction:
    raw = draw.to_json()
    result = solve_schedule(parse_schedule(raw))
    theta = result.theta
    assert type(theta) in (int, Fraction), raw
    x = [Fraction(v) for v in result.initiation.entries]
    assert check.schedule_violation(raw, x) is None, raw
    assert check.flow_time(raw, x) == theta, raw
    assert theta <= check.flow_time(raw, draw.witness), raw
    assert check.schedule_graph(raw).minimum_violation(theta) is None, raw
    return theta


@pytest.mark.parametrize("n", (8, 16, 32, 48))
def test_every_kind_and_a_schedule_are_certified(n):
    for index, kind in enumerate(gen.KINDS):
        _certify_problem(gen.feasible_problem(gen.instance_rng("large-orders", n, index), kind, n))
    _certify_schedule(gen.feasible_schedule(gen.instance_rng("large-orders", n, -1), n))


def test_fractional_benchmark_draws_are_certified():
    # the order-12 benchmark pools of seeds 3 and 5 each hold a draw
    # whose theta is fractional; it takes the family's integer scale
    for seed in (3, 5):
        rngs = [gen.instance_rng("large-n12-exact", seed, i) for i in range(20)]
        thetas = [_certify_schedule(gen.feasible_schedule(rng, 12)) for rng in rngs]
        assert any(type(t) is Fraction for t in thetas), seed


K = 3


def _times(value, k):
    """The raw document with every number multiplied by k; None (the
    tropical zero) and strings stay as they are."""
    if isinstance(value, dict):
        return {key: _times(v, k) for key, v in value.items()}
    if isinstance(value, list):
        return [_times(v, k) for v in value]
    return value * k if isinstance(value, (int, Fraction)) else value


def _entries(values, k) -> tuple:
    return tuple(v * k for v in values)  # -inf * k stays -inf


def _answer(result, k=1) -> tuple:
    """theta, the generator, both bounds and the canonical point, each
    finite entry multiplied by k."""
    sol = result.solutions
    upper = None if sol.upper is None else _entries(sol.upper.entries, k)
    return (
        result.minimum * k,
        tuple(_entries(row, k) for row in sol.generator.rows),
        _entries(sol.lower.entries, k),
        upper,
        _entries(result.canonical.entries, k),
    )


@pytest.mark.parametrize("n", (8, 16, 32, 48))
def test_scaled_data_scales_the_answer(n):
    # k times all finite data gives k times theta, the generator's finite
    # entries, both bounds and the canonical point; k = 1/K makes the
    # data Fractions, which cost far more, so only the smaller orders
    factors = (K, Fraction(1, K)) if n <= 16 else (K,)
    for index, kind in enumerate(gen.KINDS):
        doc = gen.feasible_problem(gen.instance_rng("large-orders", n, index), kind, n)
        base = solve_problem(parse_problem(doc))
        for k in factors:
            scaled = solve_problem(parse_problem(_times(doc, k)))
            assert _answer(scaled) == _answer(base, k), (doc, k)
    raw = gen.feasible_schedule(gen.instance_rng("large-orders", n, -1), n).to_json()
    theta = solve_schedule(parse_schedule(raw)).theta
    for k in factors:
        assert solve_schedule(parse_schedule(_times(raw, k))).theta == theta * k, (raw, k)


def _verdict(solve, *args):
    """The condition a solve names, or None when it returns."""
    try:
        solve(*args)
    except (InfeasibleConstraints, NoRegularSolution, ZeroSpectralRadius,
            DegenerateProblem) as err:
        return str(err)
    return None


def test_free_draws_name_the_checker_verdict():
    # free draws are often infeasible: every named condition, and every
    # success, is the one the Bellman-Ford checker finds
    seen = Counter()
    for n in (8, 16, 32, 48):
        for index in range(18):
            kind = gen.KINDS[index % len(gen.KINDS)]
            doc = gen.random_problem(gen.instance_rng("large-orders-free", n, index), kind, n)
            want = check.solve_verdict(doc)
            assert _verdict(solve_problem, parse_problem(doc)) == want, doc
            seen[want] += 1
    for want in (None, "Tr(B) <= 1", "h^- B* g <= 1", "h^- g <= 1"):
        assert seen[want] > 0, seen


def _raw(values) -> list:
    """Entries as the checker writes them, None for the tropical zero."""
    return [None if v == float("-inf") else v for v in values]


def test_inequality_draws_match_the_literal_star():
    # the checker sums the star literally, so it stops at order 12
    seen = Counter()
    for n in (4, 8, 12):
        for index in range(12):
            variant = ("b", "d", "bd")[index % 3]
            doc = gen.inequality_system(gen.instance_rng("large-orders-ineq", n, index), variant, n)
            a = parse_matrix(doc["A"])
            b = parse_vector(doc["b"]) if "b" in doc else None
            d = parse_vector(doc["d"]) if "d" in doc else None
            want, fields = check.inequality_expectation(doc)
            if b is None:
                assert _raw(solve_upper_bounded(a, d).entries) == fields["greatest"], doc
                continue
            solve = solve_fixpoint_lower if d is None else solve_combined
            args = (a, b) if d is None else (a, b, d)
            assert _verdict(solve, *args) == want, doc
            seen[want] += 1
            if want is None:
                sol = solve(*args)
                got = {"generator": [_raw(r) for r in sol.generator.rows],
                       "lower": _raw(sol.lower.entries)}
                if sol.upper is not None:
                    got["upper"] = _raw(sol.upper.entries)
                assert got == fields, doc
    for want in (None, "Tr(A) <= 1", "Tr(A) (+) d^- A* b <= 1"):
        assert seen[want] > 0, seen


def _relabelled(doc: dict, perm: list) -> dict:
    """The raw document with new variable i standing for old variable
    perm[i]: matrices permute rows and columns, every list its entries
    (activity names too), and scalars stay."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, list) and isinstance(value[0], list):
            out[key] = [[value[i][j] for j in perm] for i in perm]
        elif isinstance(value, list):
            out[key] = [value[i] for i in perm]
        else:
            out[key] = value
    return out


def _family(sol, canonical) -> tuple:
    upper = None if sol.upper is None else sol.upper.entries
    return sol.generator.rows, sol.lower.entries, upper, canonical.entries


def _family_relabelled(sol, canonical, perm) -> tuple:
    """`_family` of the answer to the relabelled instance, read back
    in the old labels' places."""
    def back(values):
        return None if values is None else tuple(values[i] for i in perm)

    rows, lower, upper, point = _family(sol, canonical)
    return tuple(tuple(rows[i][j] for j in perm) for i in perm), back(lower), back(upper), back(point)


@pytest.mark.parametrize("n", (8, 16, 32, 48))
def test_relabelling_permutes_the_answer(n):
    # a seeded permutation of the variables leaves theta equal, and the
    # generator, both bounds and the canonical point follow it
    for index, kind in enumerate(gen.KINDS + ("schedule",)):
        rng = gen.instance_rng("large-orders-relabel", n, index)
        perm = rng.sample(range(n), n)
        if kind == "schedule":
            raw = gen.feasible_schedule(rng, n).to_json()
            base = solve_schedule(parse_schedule(raw))
            moved = solve_schedule(parse_schedule(_relabelled(raw, perm)))
            got = moved.theta, _family(moved.solutions, moved.initiation)
            want = base.theta, _family_relabelled(base.solutions, base.initiation, perm)
        else:
            doc = gen.feasible_problem(rng, kind, n)
            base = solve_problem(parse_problem(doc))
            moved = solve_problem(parse_problem(_relabelled(doc, perm)))
            got = moved.minimum, _family(moved.solutions, moved.canonical)
            want = base.minimum, _family_relabelled(base.solutions, base.canonical, perm)
        assert got == want, (kind, perm)


def _met_lag(rng, lags: list, x) -> tuple:
    """A copy of `lags` with one absent off-diagonal lag set to
    x_i - x_j - s, s in 0..3, a constraint b_ij + x_j <= x_i that x
    already meets; and the (i, j, s) chosen."""
    n = len(lags)
    free = [(i, j) for i in range(n) for j in range(n) if i != j and lags[i][j] is None]
    i, j = rng.choice(free)
    s = rng.randrange(4)
    out = [list(row) for row in lags]
    out[i][j] = x[i] - x[j] - s
    return out, (i, j, s)


@pytest.mark.parametrize("n", (8, 16, 32, 48))
def test_a_constraint_the_point_meets_keeps_theta(n):
    # the canonical point stays feasible and still attains theta, and
    # the smaller feasible set cannot go below it
    for index, kind in enumerate(gen.KINDS + ("schedule",)):
        rng = gen.instance_rng("large-orders-met", n, index)
        if kind == "schedule":
            raw = gen.feasible_schedule(rng, n).to_json()
            base = solve_schedule(parse_schedule(raw))
            lags, where = _met_lag(rng, raw["startStart"], base.initiation.entries)
            tighter = solve_schedule(parse_schedule({**raw, "startStart": lags}))
            assert tighter.theta == base.theta, (raw, where)
        elif "B" in gen.KIND_FIELDS[kind]:
            doc = gen.feasible_problem(rng, kind, n)
            base = solve_problem(parse_problem(doc))
            lags, where = _met_lag(rng, doc["B"], base.canonical.entries)
            tighter = solve_problem(parse_problem({**doc, "B": lags}))
            assert tighter.minimum == base.minimum, (doc, where)


def _raised_floor(rng, g: list, x) -> list:
    """g with each entry raised to x_i - s, s in 0..3, or kept where it
    already lies higher; an absent entry becomes x_i - s.  The entries
    are written as the checker reads them."""
    out = []
    for old, point in zip(g, x):
        new = point - rng.randrange(4)
        if old is not None and Fraction(old) > new:
            new = old
        out.append(encode_scalar(new))
    return out


@pytest.mark.parametrize("n", (8, 16, 32, 48))
def test_a_g_raised_toward_the_point_keeps_theta(n):
    # x meets the higher floor, so it stays feasible and attains theta,
    # and the smaller feasible set cannot go below it; the new family
    # holds x, and the checker certifies the new instance
    for index, kind in enumerate(("LinearConstrained", "General", "BoxConstrained", "schedule")):
        rng = gen.instance_rng("large-orders-floor", n, index)
        if kind == "schedule":
            draw = gen.feasible_schedule(rng, n)
            base = solve_schedule(parse_schedule(draw.to_json()))
            x = base.initiation
            g = _raised_floor(rng, draw.earliest_start, x.entries)
            witness = [Fraction(v) for v in x.entries]
            raised = dataclasses.replace(draw, earliest_start=g, witness=witness)
            assert _certify_schedule(raised) == base.theta, (draw, g)
            family = solve_schedule(parse_schedule(raised.to_json())).solutions
        else:
            doc = gen.feasible_problem(rng, kind, n)
            base = solve_problem(parse_problem(doc))
            x = base.canonical
            raised = {**doc, "g": _raised_floor(rng, doc["g"], x.entries)}
            result = _certify_problem(raised)
            assert result.minimum == base.minimum, (doc, raised["g"])
            family = result.solutions
        assert family.contains(x), (kind, n)


_OBJECTIVE = {"A", "p", "q", "r", "startFinish", "windowLower", "windowUpper"}


def _decimal(value, label, rng, field=None):
    """The raw document with each int v replaced by the Fraction v/d:
    d is 10 for tenths and 100 for hundredths; for mixed, each objective
    entry takes its own d, and the constraint data, whose feasibility
    the draw guarantees, stay in tenths."""
    if isinstance(value, dict):
        return {key: _decimal(v, label, rng, key) for key, v in value.items()}
    if isinstance(value, list):
        return [_decimal(v, label, rng, field) for v in value]
    if type(value) is not int:
        return value
    d = 10
    if label == "hundredths":
        d = 100
    elif label == "mixed" and field in _OBJECTIVE:
        d = rng.choice((2, 3, 7, 12, 100))
    return Fraction(value, d)


def _whole(value):
    """The document with each whole Fraction as an int, which the
    checker's Bellman-Ford runs add far faster."""
    if isinstance(value, dict):
        return {key: _whole(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_whole(v) for v in value]
    return int(value) if isinstance(value, Fraction) and value.denominator == 1 else value


_DECIMALS = {"tenths": 10, "hundredths": 100, "mixed": 2100}


@pytest.mark.parametrize("n, labels", [(8, tuple(_DECIMALS)), (16, tuple(_DECIMALS)),
                                       (32, ("hundredths",)), (48, ("mixed",))],
                         ids=("8-all", "16-all", "32-hundredths", "48-mixed"))
def test_decimal_draws_are_certified(n, labels):
    # decimal data run on the integer path at the lcm of their
    # denominators; the checker certifies each answer in Fractions, its
    # minimum on the data times a common denominator d, since the
    # checker's ratio bound is for whole data; its Fraction runs are
    # slow, so the larger orders take one kind of decimal each
    rng = random.Random(f"decimal/{n}")
    for label in labels:
        d = _DECIMALS[label]
        for index, kind in enumerate(gen.KINDS):
            doc = _decimal(gen.feasible_problem(gen.instance_rng("large-orders", n, index), kind, n),
                           label, rng)
            result = solve_problem(parse_problem(doc))
            x = [Fraction(v) for v in result.canonical.entries]
            assert check.problem_violation(doc, x) is None, doc
            assert check.objective(doc, x) == result.minimum, doc
            graph = check.span_graph(_whole(_times(doc, d)))
            assert graph.minimum_violation(result.minimum * d) is None, doc
        raw = _decimal(gen.feasible_schedule(gen.instance_rng("large-orders", n, -1), n).to_json(),
                       label, rng)
        result = solve_schedule(parse_schedule(raw))
        x = [Fraction(v) for v in result.initiation.entries]
        assert check.schedule_violation(raw, x) is None, raw
        assert check.flow_time(raw, x) == result.theta, raw
        graph = check.schedule_graph(_whole(_times(raw, d)))
        assert graph.minimum_violation(result.theta * d) is None, raw
