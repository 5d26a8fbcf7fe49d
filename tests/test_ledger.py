"""The schedule ledger on the solver's ints against the ledger as it ran
in the data's own arithmetic (`_ledger_reference`).

Int and decimal data must print byte for byte as before.  Float data
must print `float()` of the exact ledger on the floats' own values,
and an exact ledger's theta is the solved theta, type included.
"""

import random
from fractions import Fraction

import pytest

from _ledger_reference import _ledger as reference_ledger
from _perfbench import gen
from _samplers import sample_schedule
from tropt import Matrix, RowVector, Vector
from tropt.errors import InfeasibleSchedule
from tropt.schedule import solve_schedule, solve_schedule_detailed
from tropt.serialize import dumps, parse_schedule

NEG = float("-inf")
ORDERS = range(2, 13)


def _mapped(doc, datum):
    """The raw schedule document with each int v given as datum(v)."""
    if isinstance(doc, dict):
        return {key: _mapped(v, datum) for key, v in doc.items()}
    if isinstance(doc, list):
        return [_mapped(v, datum) for v in doc]
    return datum(doc) if type(doc) is int else doc


def _draw(n: int, i: int) -> dict:
    return gen.feasible_schedule(gen.instance_rng("ledger-reference", n, i), n).to_json()


def _numbers(item) -> list:
    """The scalars of a ledger item in order, with its keys and shapes,
    so that two items with the same list have the same layout."""
    if isinstance(item, Matrix):
        return [("matrix", item.n_rows)] + [v for row in item.rows for v in row]
    if isinstance(item, (Vector, RowVector)):
        return [type(item).__name__] + list(item.entries)
    if isinstance(item, dict):
        return [v for key, x in item.items() for v in [("key", key)] + _numbers(x)]
    if isinstance(item, (list, tuple)):
        return [v for x in item for v in ["item"] + _numbers(x)]
    return [item]


def _decimal(doc: dict, rng) -> dict:
    """The document in tenths, with the objective data's entries over
    mixed denominators, so that D is not always 10; the constraint
    data, whose feasibility the draw guarantees, stay in tenths."""
    objective = {"startFinish", "windowLower", "windowUpper"}
    return {
        key: _mapped(value, (lambda v: Fraction(v, rng.choice((10, 3, 7, 100))))
                     if key in objective else (lambda v: Fraction(v, 10)))
        for key, value in doc.items()
    }


@pytest.mark.parametrize("n", ORDERS)
def test_exact_ledgers_print_as_the_reference(n):
    rng = random.Random(f"ledger/{n}")
    # the reference ledger is slow on decimals at the larger orders
    docs = [_draw(n, i) for i in range(3)]
    docs += [_decimal(_draw(n, 3 + i), rng) for i in range(2 if n <= 8 else 1)]
    for doc in docs:
        spec = parse_schedule(doc)
        result, ledger = solve_schedule_detailed(spec)
        assert dumps(ledger) == dumps(reference_ledger(spec, result)), (n, doc)
        assert repr(ledger["theta"]) == repr(result.theta), (n, doc)


def test_exact_ledgers_of_sampled_schedules_print_as_the_reference():
    # zeros in A, B and g, negative lags, and orders down to 1
    rng = random.Random(149)
    checked = 0
    for _ in range(400):
        spec = sample_schedule(rng, rng.randint(1, 6))
        try:
            result, ledger = solve_schedule_detailed(spec)
        except InfeasibleSchedule:
            continue
        checked += 1
        assert dumps(ledger) == dumps(reference_ledger(spec, result)), spec
        assert repr(ledger["theta"]) == repr(result.theta), spec
    assert checked > 200


@pytest.mark.parametrize("n", ORDERS)
def test_float_ledgers_round_the_exact_ledger(n):
    for i, datum in enumerate((float, lambda v: v / 10)):
        doc = _mapped(_draw(n, 10 + i), datum)
        spec = parse_schedule(doc, exact=False)
        exact = parse_schedule(_float_fractions(doc))  # the same values
        # every item, the solver's family too, is the exact one rounded
        got = _numbers(solve_schedule_detailed(spec)[1])
        want = _numbers(reference_ledger(exact, solve_schedule(exact)))
        assert len(got) == len(want), (n, i)
        for x, y in zip(got, want):
            if isinstance(y, (int, Fraction)) and not isinstance(y, bool):
                assert type(x) is float and x == float(y), (n, i, x, y)
            else:
                assert x == y, (n, i, x, y)


def _float_fractions(doc):
    """The document with each float v as the Fraction of its value."""
    if isinstance(doc, dict):
        return {key: _float_fractions(v) for key, v in doc.items()}
    if isinstance(doc, list):
        return [_float_fractions(v) for v in doc]
    return Fraction(doc) if type(doc) is float else doc
