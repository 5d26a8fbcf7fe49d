#!/usr/bin/env python3
"""Print digests of the benchmark's pools, to tell whether two source
trees give byte-identical answers.

For each seed, the `cli-small-mixed` and `verify-grid-n3` pools are
built as perfbench/workloads.py builds them and replayed in process
through `tropt.cli.main`, in a temporary directory that is removed
afterwards.  One sha256 per pool covers every request's exit code,
stdout and stderr, with the temporary directory's path replaced by a
fixed name.  One more per seed covers the repr of the `large-n12-exact`
pool's solutions: each instance's `solve_schedule` result and the
`solve_problem` result of its General rewrite.

perfbench/workloads.py and perfbench/gen.py are imported, never
changed.  Run it from any directory; tropt is imported from src/.

Usage:
    python3 scripts/pool_digest.py [--seeds 0 1 2]
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def pool_digest(name: str, seed: int) -> tuple[int, str]:
    """(operations, sha256) over one pool of the named workload."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workload = WORKLOADS[name]()
        workload.setup(seed, Path(tmp))
        for i in range(workload.pool):
            result = workload.call(workload.prepare(i))
            if name == "large-n12-exact":
                text = repr(result)
            else:
                text = "\0".join((str(result.code), result.out, result.err))
            digest.update(text.replace(tmp, "<tmp>").encode() + b"\n")
    return workload.pool, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    for seed in args.seeds:
        for name in ("cli-small-mixed", "verify-grid-n3", "large-n12-exact"):
            count, sha = pool_digest(name, seed)
            print(f"{name} seed={seed} ops={count} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
