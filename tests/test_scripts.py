"""Smoke runs of the bundled scripts, each in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["walkthrough.py"],
        ["audit_random.py", "--count", "5"],
        ["record_golden.py", "--check"],
        ["pool_digest.py", "--seeds", "0"],
    ],
    ids=["walkthrough", "audit_random", "record_golden", "pool_digest"],
)
def test_script_exits_cleanly(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "Traceback" not in done.stderr


def test_source_lines_add_up_to_wc():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "source_lines.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    header, *rows, total = done.stdout.splitlines()
    assert header.split() == ["file", "code", "docstring", "comment", "blank", "total"]
    modules = sorted((SCRIPTS.parent / "src" / "tropt").glob("*.py"))
    assert [row.split()[0] for row in rows] == [path.name for path in modules]
    counts = [int(v) for v in total.split()[1:]]
    # wc -l counts newlines
    assert sum(counts[:4]) == counts[4] == sum(path.read_bytes().count(b"\n") for path in modules)


def test_ab_trees_against_its_own_tree():
    # both package names load the same source, so every answer agrees
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_trees.py"), str(SCRIPTS.parent),
         "--sizes", "4", "12", "--rounds", "2", "--draws", "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == [
        "solve_schedule n=4", "solve_schedule n=12", "solve_problem n=4", "solve_problem n=12",
        "solve_schedule_detailed int n=6", "solve_schedule_detailed decimal n=6",
        "solve_schedule_detailed int n=12", "solve_schedule_detailed decimal n=12",
        "grid_minimize n=3", "cli.main solve n=4", "cli.main solve --float n=4",
        "cli.main schedule --emit-intermediates n=6"]
    assert all(line.endswith("0 of 3 answers differ") for line in lines), done.stdout


@pytest.mark.parametrize(
    "argv, message",
    [(["--radius", "-1"], "--radius must be at least 0"),
     (["--count", "0"], "--count must be at least 1")],
    ids=["radius", "count"],
)
def test_audit_random_rejects_bad_arguments(argv, message):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "audit_random.py"), *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stdout + done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
