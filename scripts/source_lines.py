#!/usr/bin/env python3
"""Print the code, docstring, comment and blank lines of each
src/tropt/*.py and their totals, the split the ROADMAP tracks.

A docstring is the string literal that opens a module, class or
function; all its lines count as docstring lines.  A comment line is
one whose first non-blank character is `#`, a blank line one of
whitespace only.  Every other line is code.  The four counts of a file
add up to its `wc -l`.

Usage:
    python3 scripts/source_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropt"
KINDS = ("code", "docstring", "comment", "blank")


def split(text: str) -> dict:
    """The four line counts of one source text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main() -> None:
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'total':>8}")
    for path in sorted(SRC.glob("*.py")):
        counts = split(path.read_text())
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>8}")
    print(f"{'total':<16}" + "".join(f"{totals[k]:>10}" for k in KINDS)
          + f"{sum(totals.values()):>8}")


if __name__ == "__main__":
    main()
