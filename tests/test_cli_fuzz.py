"""A fuzz of `tropt.cli.main` over malformed and extreme input.

Each example takes a bundled fixture, or arbitrary JSON, replaces a few
of its parts with extreme or malformed values (numbers past the float
range, NaN, 4,300-digit literals, wrong types, missing fields), may cut
the text short, and runs a subcommand on it with a few drawn flags.
Whatever comes in, the CLI ends in one of its documented ways: exit 0
with a JSON answer, exit 1 with a message (or `verify`'s disagreement),
or exit 2 with a named `infeasible: ` condition (or `verify`'s agreed
infeasibility).  Any exception that leaves `main`, argparse's
`SystemExit` aside, fails the example: on the command line it would be
a traceback.
"""

import contextlib
import copy
import io
import json
import sys
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tropt.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
# subcommand -> the fixtures it solves, drawn for it three times in four
ACCEPTS = {
    "solve": ["box_problem", "general_problem"],
    "schedule": ["three_activity_project"],
    "solve-ineq": ["combined_inequality"],
    "eig": ["A", "B", "general_problem"],
    "star": ["A", "B", "combined_inequality"],
    "verify": ["box_problem", "general_problem"],
}

# literals json.dumps cannot spell, put in the text after it runs
RAW = {f"@raw{i}@": text for i, text in enumerate(
    ("1e400", "-1e400", "1e308", "-1.7976931348623157e308", "NaN", "Infinity",
     "-Infinity", "1" + "0" * 4400, "1e-400", "0.1", "-0.0"))}

extremes = st.one_of(
    st.sampled_from(sorted(RAW)),
    st.sampled_from([None, True, "", "-inf", "inf", "1/0", "1/3", "x", [], {}, [[]], [None],
                     {"data": []}, {"rows": 9, "cols": 1, "data": [[0]]}, "Basic", "General"]),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 10), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
flags = st.lists(st.sampled_from([
    "--float", "--exact", "--epsilon=1e-9", "--epsilon=0", "--epsilon=-1", "--epsilon=nan",
    "--epsilon", "--emit-intermediates", "--step=1/2", "--step=0", "--step=x", "--bogus",
]), min_size=1, max_size=3)


def _places(doc, at=()):
    """Every path into doc, the root first."""
    yield at
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _places(value, at + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _places(value, at + (i,))


def _put(doc, at, value):
    if not at:
        return value
    parent = doc
    for step in at[:-1]:
        parent = parent[step]
    parent[at[-1]] = value
    return doc


def _drop(doc, at):
    parent = doc
    for step in at[:-1]:
        parent = parent[step]
    if isinstance(parent, dict):
        del parent[at[-1]]
    elif isinstance(parent, list) and len(parent) > 1:
        del parent[at[-1]]
    return doc


@st.composite
def requests(draw):
    """(argv, stdin text) of one fuzzed request."""
    command = draw(st.sampled_from(sorted(ACCEPTS)))
    names = ACCEPTS[command] if draw(st.integers(0, 3)) else sorted(DOCS)
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(names))])
    if draw(st.integers(0, 9)) == 9:
        doc = copy.deepcopy(draw(json_values))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(list(_places(doc))))
        if at and draw(st.booleans()):
            doc = _drop(doc, at)
        else:
            # a copy: sampled lists are shared, and later steps edit in place
            doc = _put(doc, at, copy.deepcopy(draw(st.one_of(extremes, json_values))))
    text = json.dumps(doc)
    for marker, literal in RAW.items():
        text = text.replace(json.dumps(marker), literal)
    if draw(st.integers(0, 9)) == 9:
        text = text[: draw(st.integers(0, len(text)))]
    argv = [command] + ([] if draw(st.integers(0, 19)) == 19 else ["-"])
    if draw(st.booleans()):
        argv += draw(flags)
    if command == "verify":  # a small grid keeps each scan cheap
        argv.append(draw(st.sampled_from(["--window=0", "--window=1", "--window=-1"])))
    return argv, text


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a widened float box is not an error
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(requests())
def test_every_request_ends_in_a_documented_way(request):
    argv, text = request
    code, out, err = _run(argv, text)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    elif code == 1:
        assert err or argv[0] == "verify", out
    elif argv[0] == "verify" and not err:
        assert "infeasible" in json.loads(out)["closedForm"], out
    else:
        assert any(line.startswith("infeasible: ") for line in err.splitlines()), err
