"""Exact solves at orders the grid oracle cannot reach, certified by the
benchmark's independent checker.

`perfbench/check.py` confirms a minimum with Bellman-Ford runs on the
problem's difference-constraint graph, and the returned point against
the raw data; `perfbench/gen.py` draws instances that are feasible by
construction.  Both are loaded from their files, so the test does not
depend on how the test runner sets `sys.path`.
"""

import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

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
from tropt.serialize import parse_matrix, parse_problem, parse_schedule, parse_vector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


check, gen = _load("check"), _load("gen")


def _certify_problem(doc: dict) -> None:
    result = solve_problem(parse_problem(doc))
    theta = result.minimum
    assert type(theta) in (int, Fraction), doc
    x = [Fraction(v) for v in result.canonical.entries]
    assert check.problem_violation(doc, x) is None, doc
    assert check.objective(doc, x) == theta, doc
    assert check.span_graph(doc).minimum_violation(theta) is None, doc


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
