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
