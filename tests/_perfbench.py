"""The benchmark's instance generator and independent checker,
`perfbench/gen.py` and `perfbench/check.py`, loaded from their files
and only read, so that a test does not depend on how the test runner
sets `sys.path`."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


check, gen = _load("check"), _load("gen")
