"""How fast the host runs Python right now, from a fixed kernel.

On a host that shares its CPUs with other tenants, the same Python code
runs up to twice as slowly while they are busy, for seconds or for many
minutes. The runner times this kernel at every block boundary and
scales each operation's time by REFERENCE_S over the kernel's time
around it, so that a reported time is what the operation would take
on the reference host when nothing contends with it. The kernel uses
none of tropt. It mixes the kinds of work tropt does: tuple max-plus
products, JSON round trips and Fraction sums.

Cold starts are scaled the same way, with a launch of a bare
interpreter in place of the kernel (REFERENCE_LAUNCH_S).
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

# fastest kernel time seen on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11.7), so that adjusted times read as its uncontended times
REFERENCE_S = 0.00048
# fastest launch of a bare interpreter (`python3 -c pass`) seen on the
# reference host; the runner scales cold starts by it
REFERENCE_LAUNCH_S = 0.0445

_NEG = float("-inf")
_M = tuple(
    tuple((i * 7 + j * 3) % 11 - 5 if (i + j) % 3 else _NEG for j in range(10))
    for i in range(10)
)
_DOC = {"rows": [[str(Fraction(i, j + 1)) for j in range(8)] for i in range(8)]}


def _kernel() -> None:
    cols = tuple(zip(*_M))
    tuple(tuple(max(a + b for a, b in zip(r, c)) for c in cols) for r in _M)
    back = json.loads(json.dumps(_DOC))
    sum(Fraction(v) for row in back["rows"] for v in row)


def kernel_s(runs: int = 3) -> float:
    """Fastest of a few timed runs of the kernel."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two kernel timings
    into reference-host time."""
    return REFERENCE_S / ((before_s + after_s) / 2)
