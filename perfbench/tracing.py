"""Spans and counts around tropt's public callables, from outside.

`Tracer.install()` replaces each target with a wrapper that records a
span (name, start, end, parent span, operation id) and, for some
targets, a count computed from the arguments or result.  A function is
replaced in every tropt module that holds it by name, because
`schedule` and `optimize` import `chain_sums` and `closure_sums` into
their own namespaces; methods are replaced on their class.  Spans stay
in memory until `write`.  `uninstall()` restores every original.

`count_semifield` is a separate pass: it counts calls of the
`Semifield` methods and records no spans, so its cost does not inflate
the span timings.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

MODULES = ("cli", "serialize", "schedule", "optimize", "linsolve", "linalg", "semifield", "oracle")


def _shape(x) -> tuple[int, int]:
    """(rows, cols) of a Matrix, Vector (column) or RowVector."""
    if hasattr(x, "rows"):
        return len(x.rows), len(x.rows[0])
    if type(x).__name__ == "RowVector":
        return 1, len(x.entries)
    return len(x.entries), 1


def _matmul_ops(args, result) -> int:
    """Scalar multiply-add pairs of one product, from operand shapes."""
    (r, k), (_, c) = _shape(args[0]), _shape(args[1])
    return r * k * c


def _grid_points(args, result) -> int:
    grid = args[1]
    total = 1
    for lo, up in zip(grid.lower.entries, grid.upper.entries):
        total *= int((Fraction(up) - Fraction(lo)) / grid.step) + 1
    return total


def _text_bytes(args, result) -> int:
    return len(result.encode())


# (module, attribute path, span name, count name, count function);
# parse_scalar and encode_scalar are left out on purpose: they run once
# per matrix entry and their time shows in their callers' spans.
TARGETS = [
    ("cli", "main", "cli.main", None, None),
    ("cli", "build_parser", "cli.build_parser", None, None),
    ("serialize", "loads", "serialize.loads", None, None),
    ("serialize", "dumps", "serialize.dumps", "serialize.bytes_out", _text_bytes),
    ("serialize", "parse_problem", "serialize.parse_problem", None, None),
    ("serialize", "parse_schedule", "serialize.parse_schedule", None, None),
    ("serialize", "parse_matrix", "serialize.parse_matrix", None, None),
    ("serialize", "parse_vector", "serialize.parse_vector", None, None),
    ("serialize", "encode_problem", "serialize.encode_problem", None, None),
    ("serialize", "encode_opt_result", "serialize.encode_opt_result", None, None),
    ("serialize", "encode_schedule_result", "serialize.encode_schedule_result", None, None),
    ("serialize", "encode_solutions", "serialize.encode_solutions", None, None),
    ("serialize", "encode_value", "serialize.encode_value", None, None),
    ("serialize", "encode_matrix", "serialize.encode_matrix", None, None),
    ("serialize", "encode_vector", "serialize.encode_vector", None, None),
    ("schedule", "solve_schedule", "schedule.solve_schedule", None, None),
    ("schedule", "solve_schedule_detailed", "schedule.solve_schedule_detailed", None, None),
    ("schedule", "build_problem", "schedule.build_problem", None, None),
    ("schedule", "collapse_solution_line", "schedule.collapse_solution_line", None, None),
    ("optimize", "solve_problem", "optimize.solve_problem", None, None),
    ("optimize", "minimize_basic", "optimize.minimize_basic", None, None),
    ("optimize", "minimize_extended", "optimize.minimize_extended", None, None),
    ("optimize", "minimize_linear_constrained", "optimize.minimize_linear_constrained", None, None),
    ("optimize", "minimize_general", "optimize.minimize_general", None, None),
    ("optimize", "minimize_box_constrained", "optimize.minimize_box_constrained", None, None),
    ("optimize", "minimize_fixpoint_constrained", "optimize.minimize_fixpoint_constrained", None, None),
    ("optimize", "objective_value", "optimize.objective_value", None, None),
    ("optimize", "verify_solution", "optimize.verify_solution", None, None),
    ("linsolve", "solve_upper_bounded", "linsolve.solve_upper_bounded", None, None),
    ("linsolve", "solve_fixpoint_lower", "linsolve.solve_fixpoint_lower", None, None),
    ("linsolve", "solve_combined", "linsolve.solve_combined", None, None),
    ("linsolve", "SolutionSet.canonical", "linsolve.canonical", None, None),
    ("linsolve", "SolutionSet.contains", "linsolve.contains", None, None),
    ("linalg", "Matrix.__matmul__", "linalg.matmul", "linalg.scalar_ops", _matmul_ops),
    ("linalg", "RowVector.__matmul__", "linalg.matmul", "linalg.scalar_ops", _matmul_ops),
    ("linalg", "Matrix.power", "linalg.power", None, None),
    ("linalg", "Matrix.star", "linalg.star", None, None),
    ("linalg", "Matrix.spectral_radius", "linalg.spectral_radius", None, None),
    ("linalg", "Matrix.trace_sum", "linalg.trace_sum", None, None),
    ("linalg", "chain_sums", "linalg.chain_sums", None, None),
    ("linalg", "closure_sums", "linalg.closure_sums", None, None),
    ("linalg", "chain_sum", "linalg.chain_sum", None, None),
    ("linalg", "closure_sum", "linalg.closure_sum", None, None),
    ("linalg", "outer", "linalg.outer", None, None),
    ("oracle", "grid_minimize", "oracle.grid_minimize", "oracle.grid_points", _grid_points),
    ("oracle", "grid_minimize_schedule", "oracle.grid_minimize_schedule", None, None),
    ("oracle", "max_cycle_mean", "oracle.max_cycle_mean", None, None),
    ("oracle", "critical_nodes", "oracle.critical_nodes", None, None),
]

SEMIFIELD_METHODS = (
    "add", "leq", "lt", "eq", "leq_tol", "meet", "is_zero", "mul", "inv", "power", "sum", "prod",
)


def _package_modules() -> list:
    pkg = importlib.import_module("tropt")
    return [pkg] + [importlib.import_module(f"tropt.{m}") for m in MODULES]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self.saved = []

    def set(self, owner, name, value) -> None:
        self.saved.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, value)

    def replace_function(self, fn, wrapper) -> None:
        """Rebind every module-level name that refers to fn."""
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, name, wrapper)

    def undo(self) -> None:
        for owner, name, value in reversed(self.saved):
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        self.saved.clear()


_ABSENT = object()


class Tracer:
    """Spans in memory: `spans[i] = (name, start, end, parent, op)`,
    parent -1 for a root.  `counts[name]` sums the computed counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._patches = _Patches()

    def _wrap(self, fn, span_name, count_name, count_fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, tracer.op)
            if count_fn is not None:
                counts[count_name] += count_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, span_name, count_name, count_fn in TARGETS:
            mod = importlib.import_module(f"tropt.{module}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patches.set(cls, meth, self._wrap(fn, span_name, count_name, count_fn))
            else:
                fn = getattr(mod, path)
                self._patches.replace_function(fn, self._wrap(fn, span_name, count_name, count_fn))
        # argparse work inside cli.main, outside tropt's own code
        parse = argparse.ArgumentParser.parse_args
        self._patches.set(
            argparse.ArgumentParser, "parse_args", self._wrap(parse, "cli.parse_args", None, None)
        )

    def uninstall(self) -> None:
        self._patches.undo()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time of the outermost spans of
        that name (a span nested in one of the same name is not counted
        twice) and self time (duration minus direct children)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            if not self._has_ancestor(i, (name,)):
                row["total_s"] += end - start
        return out

    def _has_ancestor(self, i: int, names) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def group_total(self, names) -> float:
        """Time covered by spans of any of these names, nested ones
        counted once."""
        names = tuple(names)
        return sum(
            end - start
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name in names and not self._has_ancestor(i, names)
        )

    def write(self, path: Path, header: dict) -> None:
        """Gzipped JSON lines: the header, then one span per line as
        [name, start, end, parent, op]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def count_semifield(run) -> int:
    """Run `run()` with every Semifield method call counted; returns
    the number of calls, nested ones included."""
    semifield = importlib.import_module("tropt.semifield")
    box = [0]
    patches = _Patches()

    def counting(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted

    classes = [c for c in vars(semifield).values()
               if isinstance(c, type) and issubclass(c, semifield.Semifield)]
    try:
        for cls in classes:
            for meth in SEMIFIELD_METHODS:
                if meth in cls.__dict__:
                    patches.set(cls, meth, counting(cls.__dict__[meth]))
        run()
    finally:
        patches.undo()
    return box[0]


def print_table(summary: dict, ops: int, file=sys.stdout) -> None:
    """Per-layer table: calls, total and self time per operation."""
    print(f"# per-layer, per operation over {ops} traced operations", file=file)
    print(f"# {'span':<42}{'calls':>12}{'total_ms':>12}{'self_ms':>12}", file=file)
    for name in sorted(summary):
        row = summary[name]
        print(
            f"# {name:<42}{row['calls'] / ops:>12.2f}"
            f"{1e3 * row['total_s'] / ops:>12.3f}{1e3 * row['self_s'] / ops:>12.3f}",
            file=file,
        )
