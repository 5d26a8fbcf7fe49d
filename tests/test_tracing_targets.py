"""Every callable the benchmark's tracer wraps still exists.

`perfbench/tracing.py` wraps the names in its `TARGETS` table: a
function by `getattr` on its module, a method through its class's
`__dict__`.  A deletion that strands one of them breaks every traced
benchmark run, so this test resolves each entry the same way.  The
module is loaded from its file.  `count_semifield` finds the methods it
counts on `tropt.semifield.Semifield` and its subclasses; it runs once
around a small solve.
"""

import importlib
import importlib.util
from pathlib import Path

from tropt import Matrix, Problem, ProblemKind, solve_problem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _lookup(module: str, path: str):
    """The target as the tracer finds it, or None."""
    scope = vars(importlib.import_module(f"tropt.{module}"))
    cls_name, _, name = path.rpartition(".")
    if cls_name:
        cls = scope.get(cls_name)
        scope = {} if cls is None else cls.__dict__
    return scope.get(name)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    stranded = [
        f"{module}.{path}"
        for module, path, *_ in tracing.TARGETS
        if not callable(_lookup(module, path))
    ]
    assert stranded == []


def test_semifield_calls_are_counted():
    problem = Problem(ProblemKind.BASIC, Matrix(((1, 2), (0, 3))))
    calls = _tracing().count_semifield(lambda: solve_problem(problem))
    assert type(calls) is int
