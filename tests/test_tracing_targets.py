"""Every callable the benchmark's tracer wraps still exists.

`perfbench/tracing.py` wraps the names in its `TARGETS` table: a
function by `getattr` on its module, a method through its class's
`__dict__`.  A deletion that strands one of them breaks every traced
benchmark run, so this test resolves each entry the same way.  The
module is loaded from its file and only read; no tracer is installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _lookup(module: str, path: str):
    """The target as the tracer finds it, or None."""
    scope = vars(importlib.import_module(f"tropt.{module}"))
    cls_name, _, name = path.rpartition(".")
    if cls_name:
        cls = scope.get(cls_name)
        scope = {} if cls is None else cls.__dict__
    return scope.get(name)


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    stranded = [
        f"{module}.{path}"
        for module, path, *_ in tracing.TARGETS
        if not callable(_lookup(module, path))
    ]
    assert stranded == []
