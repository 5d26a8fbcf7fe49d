#!/usr/bin/env python3
"""Record, or check, the CLI's golden outputs in tests/golden/.

Each bundled fixture runs under every subcommand that accepts it, in
exact and --float mode (verify has exact mode only), and the project
schedule also runs with --emit-intermediates in both modes.  A case's
stdout is stored byte for byte in tests/golden/<case>.out; its argv,
exit code and stderr go to tests/golden/cases.json.  Paths in argv are
relative to the repository root, where the cases run.

Re-record only when a change alters the output on purpose; --check
compares a fresh run with the recording, writes nothing and exits 1 on
any difference.

Usage:
    python3 scripts/record_golden.py [--check]
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tropt import cli

GOLDEN = ROOT / "tests" / "golden"

# subcommand -> the fixtures it accepts (exits 0 on them)
ACCEPTS = {
    "solve": ["box_problem", "general_problem"],
    "schedule": ["three_activity_project"],
    "solve-ineq": ["combined_inequality"],
    "eig": ["A", "B", "box_problem", "combined_inequality", "general_problem"],
    "star": ["A", "B", "box_problem", "combined_inequality", "general_problem"],
    "verify": ["box_problem", "general_problem"],
}


def cases() -> dict[str, list[str]]:
    """Case name -> argv, in a fixed order."""
    out = {}
    for command, fixtures in ACCEPTS.items():
        for stem in fixtures:
            argv = [command, f"fixtures/{stem}.json"]
            modes = [[]] if command == "verify" else [[], ["--float"]]
            extras = [[], ["--emit-intermediates"]] if command == "schedule" else [[]]
            for mode in modes:
                for extra in extras:
                    name = "-".join([command, stem, *(a.lstrip("-") for a in mode + extra)])
                    out[name] = argv + mode + extra
    return out


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record() -> dict:
    """Run every case: the index for cases.json and each case's stdout."""
    index, stdouts = {}, {}
    for name, argv in cases().items():
        code, out, err = run_case(argv)
        index[name] = {"argv": argv, "exit": code, "stderr": err}
        stdouts[name] = out
    return {"index": index, "stdout": stdouts}


def _stored() -> dict:
    index = json.loads((GOLDEN / "cases.json").read_text())
    stdouts = {name: (GOLDEN / f"{name}.out").read_bytes().decode() for name in index}
    return {"index": index, "stdout": stdouts}


def check() -> list[str]:
    """Names of the cases whose output differs from the recording."""
    fresh, stored = record(), _stored()
    names = sorted(set(fresh["index"]) | set(stored["index"]))
    return [
        name
        for name in names
        if fresh["index"].get(name) != stored["index"].get(name)
        or fresh["stdout"].get(name) != stored["stdout"].get(name)
    ]


def write() -> int:
    fresh = record()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    for name, text in fresh["stdout"].items():
        (GOLDEN / f"{name}.out").write_bytes(text.encode())
    (GOLDEN / "cases.json").write_text(json.dumps(fresh["index"], indent=2) + "\n")
    return len(fresh["index"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the recording, write nothing"
    )
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.check:
        differing = check()
        for name in differing:
            print(f"differs: {name}")
        print(f"{len(cases())} cases, {len(differing)} differ")
        return 1 if differing else 0
    print(f"recorded {write()} cases in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
