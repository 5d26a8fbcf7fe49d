import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import _frozen as frozen
from tropt import cli, linalg
from tropt.cli import build_parser, main

NEG = float("-inf")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def _dyadic(doc):
    """The JSON document with each float replaced by its exact value,
    as an "m/d" string that exact mode reads."""
    if isinstance(doc, float):
        return str(Fraction(doc))
    if isinstance(doc, list):
        return [_dyadic(v) for v in doc]
    if isinstance(doc, dict):
        return {k: _dyadic(v) for k, v in doc.items()}
    return doc


def _float_and_exact(capsys, tmp_path, command, doc):
    """(code, out, err) of `command` on doc with --float, the float
    document (None past an error), and (code, document) in exact mode
    on the floats' exact values."""
    floats, exact = tmp_path / "floats.json", tmp_path / "exact.json"
    floats.write_text(json.dumps(doc))
    exact.write_text(json.dumps(_dyadic(json.loads(floats.read_text(), parse_int=float))))
    got = run(capsys, command, str(floats), "--float")
    code, out, _ = run(capsys, command, str(exact))
    return got, json.loads(got[1]) if got[0] == 0 else None, (code, json.loads(out))


class TestSchedule:
    def test_fixture_solves(self, capsys, fixtures_dir):
        code, doc, err = run_json(
            capsys, "schedule", str(fixtures_dir / "three_activity_project.json")
        )
        assert code == 0
        assert doc["theta"] == frozen.THETA
        assert doc["initiation"] == list(frozen.X_CANONICAL)
        assert doc["flowTimes"] == list(frozen.FLOW_TIMES)
        assert doc["collapse"]["interval"] == list(frozen.COLLAPSE_INTERVAL)
        assert "largest flow time: 4" in err
        assert "machining" in err and "*" in err

    def test_intermediates_flag(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys,
            "schedule",
            str(fixtures_dir / "three_activity_project.json"),
            "--emit-intermediates",
        )
        assert code == 0
        assert doc["intermediates"] == frozen.EXPECTED_INTERMEDIATES

    def test_float_mode(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys,
            "schedule",
            str(fixtures_dir / "three_activity_project.json"),
            "--float",
        )
        assert code == 0
        assert doc["theta"] == pytest.approx(4.0)

    def test_infeasible_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "loop.json"
        bad.write_text(
            json.dumps(
                {
                    "startFinish": [[1]],
                    "startStart": [[1]],
                    "latestStart": [5],
                    "windowLower": [0],
                    "windowUpper": [3],
                }
            )
        )
        code, out, err = run(capsys, "schedule", str(bad))
        assert code == 2
        assert out == ""
        assert "Tr(B) <= 1" in err

    def test_invalid_spec_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "shapes.json"
        bad.write_text(
            json.dumps(
                {
                    "startFinish": [[1, 0], [0, 1]],
                    "startStart": [[None]],
                    "latestStart": [5, 5],
                    "windowLower": [0, 0],
                    "windowUpper": [3, 3],
                }
            )
        )
        code, out, err = run(capsys, "schedule", str(bad))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
    @pytest.mark.parametrize("doc, message", [
        ({"startFinish": [[1, 0]], "latestStart": [5], "windowLower": [0], "windowUpper": [3]},
         "start-finish lag matrix must be square, order >= 1"),
        ({"startFinish": [[1, 0], [0, 1]], "latestStart": [5, 5], "windowLower": [0],
          "windowUpper": [3, 3]},
         "windowLower must have one entry per activity"),
    ], ids=["non-square", "short-vector"])
    def test_spec_shape_is_named(self, capsys, tmp_path, doc, message, mode):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(doc))
        assert run(capsys, "schedule", str(bad), *mode) == (1, "", f"error: {message}\n")

    def test_duplicate_activity_names(self, capsys, tmp_path):
        bad = tmp_path / "names.json"
        bad.write_text(
            json.dumps(
                {
                    "activities": ["x", "x"],
                    "startFinish": [[1, 0], [0, 1]],
                    "latestStart": [5, 5],
                    "windowLower": [0, 0],
                    "windowUpper": [3, 3],
                }
            )
        )
        code, out, err = run(capsys, "schedule", str(bad))
        assert code == 1
        assert out == ""
        assert "activity names must be distinct" in err

    def test_summary_columns_stay_apart(self, capsys, tmp_path):
        # float values near 1e8 are wider than the ten-character minimum
        f = tmp_path / "wide.json"
        f.write_text(
            json.dumps(
                {
                    "activities": ["a1", "a2"],
                    "startFinish": [[400000000.25, 100000000.5], [None, 300000000.125]],
                    "startStart": [[None, -100000000.75], [None, None]],
                    "earliestStart": [0.5, 100000000.25],
                    "latestStart": [200000000.5, 300000000.75],
                    "windowLower": [300000000.5, 200000000.25],
                    "windowUpper": [500000000.5, 400000000.25],
                }
            )
        )
        code, doc, err = run_json(capsys, "schedule", str(f), "--float")
        assert code == 0
        rows = [line.split() for line in err.splitlines() if line.startswith("a")]
        assert [r[0] for r in rows] == ["activity", "a1", "a2"]
        for i, cells in enumerate(rows[1:]):
            assert cells[4:] in ([], ["*"])
            assert [float(c) for c in cells[1:4]] == [
                doc["adjustedStart"][i],
                doc["adjustedFinish"][i],
                doc["flowTimes"][i],
            ]
        assert any(len(c) >= 10 for r in rows[1:] for c in r[1:4])

    def test_output_file(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "schedule",
            str(fixtures_dir / "three_activity_project.json"),
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["theta"] == frozen.THETA


class TestSolve:
    def test_general_fixture(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys, "solve", str(fixtures_dir / "general_problem.json")
        )
        assert code == 0
        assert doc["minimum"] == frozen.THETA
        assert doc["canonical"] == list(frozen.X_CANONICAL)
        assert doc["solutions"]["generator"]["data"] == [
            list(r) for r in frozen.GENERATOR
        ]

    def test_box_fixture_rational_output(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys, "solve", str(fixtures_dir / "box_problem.json")
        )
        assert code == 0
        assert doc["minimum"] == "3/2"
        assert doc["canonical"] == ["3/2", "-1/2"]

    def test_unknown_kind_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "Slantwise", "A": [[0]]}))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1
        assert "Slantwise" in err

    def test_degenerate_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "degenerate.json"
        bad.write_text(
            json.dumps(
                {
                    "kind": "BoxConstrained",
                    "A": [[None]],
                    "p": [None],
                    "q": [0],
                    "g": [0],
                    "h": [1],
                    "r": "-inf",
                }
            )
        )
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "infeasible" in err

    def test_nan_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"kind": "Basic", "A": [[NaN, 1], [2, 0]]}')
        for mode in ("--float", "--exact"):
            code, out, err = run(capsys, "solve", str(bad), mode)
            assert code == 1, mode
            assert out == ""
            assert err.startswith("error:")

    def test_float_data_near_1e8_keep_their_parameter_box(self, capsys, tmp_path):
        # float data near 1e8 are solved on their exact values and the
        # answer rounded once, so rounding cannot push the upper
        # parameter bound below the lower one
        problem = {
            "kind": "ExtendedUnconstrained",
            "A": [
                [-139999999.18921995, 700000000.0051234, -559999999.2340894],
                [-139999999.63895628, -559999999.9835922, -699999999.7491463],
                ["-inf", -139999999.5417691, -559999999.6171821],
            ],
            "p": ["-inf", 420000000.5167682, -419999999.9468733],
            "q": [140000000.21858656, -279999999.0256975, 0.4426428602054533],
            "r": -419999999.52811086,
        }
        floats, doc, exact = _float_and_exact(capsys, tmp_path, "solve", problem)
        assert (floats[0], floats[2], exact[0]) == (0, "", 0)
        assert doc["minimum"] == float(Fraction(exact[1]["minimum"])) == 349999999.77123284

    def test_float_answer_past_the_float_range_is_named(self, capsys, tmp_path):
        # the exact generator entry (0, 1) and upperU[1] have 309 digits
        problem = {
            "kind": "ExtendedUnconstrained",
            "A": [[1e308, -1e308], [1e308, 0]],
            "p": [1e308, 1e308],
            "q": [-1e308, 1e308],
            "r": 1e308,
        }
        floats, _, exact = _float_and_exact(capsys, tmp_path, "solve", problem)
        assert floats == (1, "", "error: float overflow: a result is +inf\n")
        sols = exact[1]["solutions"]
        for v in (sols["generator"]["data"][0][1], sols["upperU"][1]):
            assert abs(Fraction(v)) > sys.float_info.max

    @pytest.mark.parametrize("command", ["solve", "eig"])
    def test_float_answer_is_rounded_once(self, capsys, tmp_path, command):
        # a 3-cycle of weight 5: theta = 5/3, which rounds to ...67
        problem = {"kind": "Basic", "A": [[None, 2, None], [None, None, 2], [1, None, None]]}
        floats, doc, _ = _float_and_exact(capsys, tmp_path, command, problem)
        assert floats[0] == 0
        key = "minimum" if command == "solve" else "spectralRadius"
        assert repr(doc[key]) == "1.6666666666666667" == repr(5 / 3)

    def test_float_solve_prints_only_floats(self, capsys, fixtures_dir):
        # the generator's diagonal, one, is 0.0 among floats, not 0; a
        # matrix's shape is not a number of the answer
        def numbers(v):
            if isinstance(v, dict):
                return [x for k, w in v.items() if k not in ("cols", "rows") for x in numbers(w)]
            if isinstance(v, list):
                return [x for w in v for x in numbers(w)]
            return [v] if isinstance(v, (int, float)) else []

        for stem in ("general_problem", "box_problem"):
            code, doc, _ = run_json(capsys, "solve", str(fixtures_dir / f"{stem}.json"), "--float")
            found = numbers(doc)
            assert code == 0 and found and all(type(v) is float for v in found), stem

    def test_float_near_range_is_solved(self, capsys, tmp_path):
        f = tmp_path / "near.json"
        for a in ([[1e308, 1e308], [1e308, 1e308]], [[1e308, None], [None, 0]]):
            f.write_text(json.dumps({"kind": "Basic", "A": a}))
            code, doc, err = run_json(capsys, "solve", str(f), "--float")
            assert (code, err) == (0, "")
            assert doc["minimum"] == 1e308

    def test_float_near_range_bordered_pair_is_solved(self, capsys, tmp_path):
        # an entry of Bhat* Ahat would be 1e308 + 1e308; theta is read off
        # the two factors, whose exact ints have no range to leave
        f = tmp_path / "pair.json"
        problem = {
            "kind": "FixpointConstrained",
            "A": [[0, None], [None, 1e308]],
            "B": [[None, 1e308], [None, None]],
            "p": [0, 0],
            "q": [0, 0],
            "r": 0,
        }
        f.write_text(json.dumps(problem))
        code, doc, err = run_json(capsys, "solve", str(f), "--float")
        assert (code, err) == (0, "")
        assert doc["minimum"] == 1e308 and doc["canonical"] == [0, -1e308]
        code, doc, _ = run_json(capsys, "solve", str(f))
        assert code == 0 and doc["minimum"] == 10**308
        assert doc["canonical"] == [0, -(10**308)]

    def test_float_answers_print_no_negative_zero(self, capsys, tmp_path):
        # the conjugate of a 0.0 entry is 0.0, as exact mode's is 0
        f = tmp_path / "pair.json"
        problem = {
            "kind": "FixpointConstrained",
            "A": [[0, None], [None, 1e308]],
            "B": [[None, 1e308], [None, None]],
            "p": [0, 0],
            "q": [0, 0],
            "r": 0,
        }
        f.write_text(json.dumps(problem))
        code, out, err = run(capsys, "solve", str(f), "--float")
        assert (code, err) == (0, "")
        assert "-0.0" not in out
        assert '"upperU": [\n      1e+308,\n      0.0\n    ]' in out

    def test_float_overflow_inside_a_solve_is_named(self, capsys, tmp_path):
        # the data is finite, but the exact minimum lies past the float
        # range: +inf first appears inside the solve
        f = tmp_path / "overflow.json"
        problem = {
            "kind": "LinearConstrained",
            "A": [[None, 1e308], [1e308, None]],
            "B": [[None, 1.7e308], [None, None]],
            "g": [0, 0],
        }
        f.write_text(json.dumps(problem))
        code, out, err = run(capsys, "solve", str(f), "--float")
        assert (code, out) == (1, "")
        assert err == "error: float overflow: a result is +inf\n"
        code, doc, _ = run_json(capsys, "solve", str(f))
        assert code == 0 and doc["minimum"] > sys.float_info.max

    def test_infinite_epsilon_is_rejected(self, capsys, tmp_path):
        # Tr(B) = 1 > 0: infeasible, which an infinite tolerance would hide
        f = tmp_path / "infeasible.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "LinearConstrained",
                    "A": [[1, 0], [0, 1]],
                    "B": [[1, None], [None, 0]],
                    "g": [0, 0],
                }
            )
        )
        assert run(capsys, "solve", str(f))[0] == 2
        code, out, err = run(capsys, "solve", str(f), "--epsilon", "inf")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --epsilon must be finite")

    @pytest.mark.parametrize("epsilon", ["nan", "-1e-9"])
    def test_epsilon_out_of_range_is_rejected(self, capsys, fixtures_dir, epsilon):
        code, out, err = run(
            capsys, "solve", str(fixtures_dir / "general_problem.json"),
            f"--epsilon={epsilon}",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --epsilon must be finite and at least 0")

    @pytest.mark.parametrize("command, fixture", [
        ("solve", "general_problem"), ("schedule", "three_activity_project"),
        ("solve-ineq", "combined_inequality"), ("eig", "A"), ("star", "A"),
    ])
    def test_nan_epsilon_is_named_by_every_command(self, capsys, fixtures_dir, command,
                                                   fixture):
        code, out, err = run(capsys, command, str(fixtures_dir / f"{fixture}.json"),
                             "--epsilon", "nan")
        assert (code, out) == (1, "")
        assert err == "error: --epsilon must be finite and at least 0, got nan\n"

    def test_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        assert run(capsys, "solve", path) == (
            1, "", f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_directory(self, capsys, tmp_path):
        assert run(capsys, "eig", str(tmp_path)) == (
            1, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")

    @pytest.mark.parametrize("name, reason", [
        ("./absent.json", "No such file or directory"),
        ("sub//absent.json", "No such file or directory"),
        ("sub/", "Is a directory"), ("", "No such file or directory"),
    ], ids=["dot-slash", "double-slash", "directory-slash", "empty"])
    def test_read_errors_name_the_path_as_typed(self, capsys, tmp_path, monkeypatch,
                                                name, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, out, err = run(capsys, "eig", name)
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f"] {reason}: {name!r}\n")

    def test_trailing_slash_after_a_file_is_not_a_directory(self, capsys, fixtures_dir):
        path = str(fixtures_dir / "A.json") + "/"
        assert run(capsys, "eig", path) == (
            1, "", f"error: [Errno 20] Not a directory: {path!r}\n")

    def test_undecodable_bytes(self, capsys, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe[\x00[\x001\x00]\x00]\x00")
        code, out, err = run(capsys, "eig", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "mangled.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1


class TestSolveIneq:
    def test_combined_system(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys, "solve-ineq", str(fixtures_dir / "combined_inequality.json")
        )
        assert code == 0
        assert doc["generator"]["data"] == [list(r) for r in frozen.B_STAR]
        assert doc["lower"] == list(frozen.G)
        assert doc["upper"] == [2, 3, 1]

    def test_lower_only(self, capsys, tmp_path):
        f = tmp_path / "lower.json"
        f.write_text(
            json.dumps({"A": [[None, -1], [0, None]], "b": [0, 0]})
        )
        code, doc, _ = run_json(capsys, "solve-ineq", str(f))
        assert code == 0
        assert "upper" not in doc
        assert doc["lower"] == [0, 0]

    def test_upper_only(self, capsys, tmp_path):
        f = tmp_path / "upper.json"
        f.write_text(json.dumps({"A": [[0, 1], [2, None]], "d": [5, 5]}))
        code, doc, _ = run_json(capsys, "solve-ineq", str(f))
        assert code == 0
        assert doc["greatest"] == [3, 4]

    def test_unsolvable_is_domain_error(self, capsys, tmp_path):
        f = tmp_path / "unsolvable.json"
        f.write_text(json.dumps({"A": [[1]], "b": [0]}))
        code, _, err = run(capsys, "solve-ineq", str(f))
        assert code == 2
        assert "Tr" in err

    def test_float_dust_widens_the_box(self, capsys, tmp_path):
        # the upper bound (d^- A*)^- = 0.3 lies one ulp below b = 0.1 + 0.2
        f = tmp_path / "dust.json"
        f.write_text('{"A": [[null]], "b": [0.30000000000000004], "d": [0.3]}')
        with pytest.warns(RuntimeWarning, match="parameter box widened"):
            code, doc, _ = run_json(capsys, "solve-ineq", str(f), "--float")
        assert code == 0
        assert doc["lower"] == doc["upper"] == [0.30000000000000004]

    @pytest.mark.parametrize("d, condition", [
        (None, "Tr(A) <= 1"),
        ([1e17, 1e17, 1e17], "Tr(A) (+) d^- A* b <= 1"),
    ])
    def test_float_cycle_weight_is_not_rounded_away(self, capsys, tmp_path, d, condition):
        # the cycle 0 -> 1 -> 2 -> 0 weighs 1 + 1e16 - 1e16 = 1, which
        # float addition rounds to 0: the gate weighs it exactly, as
        # exact mode does and as solve does on the same matrix as B
        rows = [[None, 1, None], [None, None, 1e16], [-1e16, None, None]]
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"A": rows, "b": [0, 0, 0], "d": d}))
        for flags in (("--float",), ()):
            code, out, err = run(capsys, "solve-ineq", str(system), *flags)
            assert (code, out, err) == (2, "", f"infeasible: {condition}\n"), flags
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "kind": "LinearConstrained", "A": [[0, None, None], [None, 0, None], [None, None, 0]],
            "B": rows, "g": [0, 0, 0],
        }))
        code, out, err = run(capsys, "solve", str(problem), "--float")
        assert (code, out, err) == (2, "", "infeasible: Tr(B) <= 1\n")

    def test_needs_some_side(self, capsys, tmp_path):
        f = tmp_path / "none.json"
        f.write_text(json.dumps({"A": [[1]]}))
        code, _, err = run(capsys, "solve-ineq", str(f))
        assert code == 1

    def test_unknown_field_is_named(self, capsys, tmp_path):
        # a misspelled bound is an error, not a system without it
        f = tmp_path / "misspelled.json"
        f.write_text(json.dumps({"A": [[0, -1], [-2, 0]], "b": [0, 0], "D": [-5, -5]}))
        code, out, err = run(capsys, "solve-ineq", str(f))
        assert (code, out) == (1, "")
        assert err == "error: unknown inequality system fields: ['D']\n"

    @pytest.mark.parametrize("text", ['{"b": [0], "d": [1]}', "[[1]]"])
    def test_needs_a_matrix(self, capsys, tmp_path, text):
        f = tmp_path / "no_matrix.json"
        f.write_text(text)
        code, out, err = run(capsys, "solve-ineq", str(f))
        assert (code, out) == (1, "")
        assert err == "error: inequality system needs a matrix 'A'\n"


class TestMatrixCommands:
    def test_eig(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "eig", str(fixtures_dir / "A.json"))
        assert code == 0
        assert doc["spectralRadius"] == frozen.SPECTRAL_RADIUS_A

    def test_eig_fractional(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[None, 5], [0, None]]))
        code, doc, _ = run_json(capsys, "eig", str(f))
        assert code == 0
        assert doc["spectralRadius"] == "5/2"

    def test_float_mode_reads_integers_as_floats(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[1, 3], [2, 0]]))
        code, doc, _ = run_json(capsys, "eig", str(f), "--float")
        assert code == 0
        assert doc["spectralRadius"] == 2.5
        assert isinstance(doc["spectralRadius"], float)

    def test_integer_too_large_for_float(self, capsys, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text("[[" + "9" * 400 + ", 1], [2, 0]]")
        for command in ("eig", "star"):
            code, out, err = run(capsys, command, str(f), "--float")
            assert code == 1, command
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text", ["[[1e4400]]", "[[" + "1" * 4400 + "]]"], ids=["result", "input"]
    )
    def test_exact_value_past_the_digit_limit_is_named(self, capsys, tmp_path, text):
        # 10^4400 parses through Fraction, but its int has too many digits
        f = tmp_path / "long.json"
        f.write_text(text)
        code, out, err = run(capsys, "eig", str(f))
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err == f"error: exact value longer than {limit} digits\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
    def test_deeply_nested_input_is_named(self, capsys, tmp_path, mode):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "eig", str(f), *mode)
        assert (code, out) == (1, "")
        assert err == "error: JSON input nested too deeply\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "literal, radius",
        [("1e400", 10**400), ("-1e400", -(10**400))],
        ids=["positive", "negative"],
    )
    def test_float_literal_too_large_for_float(self, capsys, tmp_path, literal, radius):
        # an overflowing number is neither +inf nor the tropical zero
        f = tmp_path / "huge.json"
        f.write_text(f"[[{literal}]]")
        code, out, err = run(capsys, "eig", str(f), "--float")
        assert (code, out, err) == (1, "", "error: scalar too large for a float\n")
        code, doc, _ = run_json(capsys, "eig", str(f))
        assert code == 0 and doc["spectralRadius"] == radius

    @pytest.mark.parametrize(
        "rows, radius",
        [
            ([[1e308, None], [None, 0]], 10**308),
            ([[1e308, 1e308], [1e308, -1e308]], 10**308),
            ([[None, -1e308], [-1e308, None]], -(10**308)),
            ([[-1.75e308, None], [None, None]], -175 * 10**306),
        ],
        ids=["big-loop", "big-cycles", "neg-cycle", "neg-loop"],
    )
    def test_eig_float_near_range_is_the_exact_radius(self, capsys, tmp_path, rows, radius):
        # walk sums of two arcs leave the float range, the radius does not
        f = tmp_path / "m.json"
        f.write_text(json.dumps(rows))
        code, doc, err = run_json(capsys, "eig", str(f), "--float")
        assert (code, err) == (0, "")
        assert doc["spectralRadius"] == float(radius)
        code, doc, _ = run_json(capsys, "eig", str(f))
        assert code == 0 and doc["spectralRadius"] == radius

    def test_solve_with_overflowing_theta_is_named(self, capsys, tmp_path):
        # the exact theta lies past the float range
        f = tmp_path / "p.json"
        problem = {
            "kind": "FixpointConstrained",
            "A": [[0, 1e308], [1e308, 1e308]],
            "B": [[None, 1.5e308], [None, None]],
            "p": [0, 0],
            "q": [0, 0],
            "r": 0,
        }
        f.write_text(json.dumps(problem))
        code, out, err = run(capsys, "solve", str(f), "--float")
        assert (code, out) == (1, "")
        assert err == "error: float overflow: a result is +inf\n"
        code, doc, _ = run_json(capsys, "solve", str(f))
        assert code == 0 and doc["minimum"] > sys.float_info.max

    def test_star(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "star", str(fixtures_dir / "B.json"))
        assert code == 0
        assert doc["star"]["data"] == [list(r) for r in frozen.B_STAR]
        assert doc["traceSum"] == frozen.TRACE_SUM_B

    @pytest.mark.parametrize("fixture", ["A", "B"])
    @pytest.mark.parametrize("mode", [[], ["--float"]])
    def test_star_scans_and_passes_once(self, capsys, monkeypatch, fixtures_dir, fixture, mode):
        # the star and its trace sum from one scan and one pass, with or
        # without a positive cycle (A has one, B none)
        events = []
        scan, kernel = linalg._scan, linalg._floyd_warshall

        def scanned(items):
            events.append("scan")
            return scan(items)

        def counted(d, stop, start=0):
            events.append("pass")
            return kernel(d, stop, start)

        monkeypatch.setattr(linalg, "_scan", scanned)
        monkeypatch.setattr(linalg, "_floyd_warshall", counted)
        for _ in range(2):
            del events[:]
            code, doc, _ = run_json(capsys, "star", str(fixtures_dir / f"{fixture}.json"), *mode)
            assert code == 0 and "traceSum" in doc
            assert events == ["scan", "pass"]

    @pytest.mark.parametrize("mode", [["--float"], ["--epsilon", "0.5"]], ids=["float", "epsilon"])
    def test_float_answer_from_no_finite_datum_prints_floats(self, capsys, tmp_path, mode):
        # zeros alone carry no float, yet a float request prints the
        # diagonal of the star and of the generator, one, as 0.0; exact
        # mode still prints 0
        requests = {
            "star": ({"A": [[None, None], [None, None]]}, "star"),
            "solve-ineq": ({"A": [[None, None], [None, None]], "b": [None, None]}, "generator"),
        }
        for command, (doc, key) in requests.items():
            f = tmp_path / f"{command}.json"
            f.write_text(json.dumps(doc))
            for flags, one in ((mode, 0.0), ([], 0)):
                code, out, _ = run_json(capsys, command, str(f), *flags)
                data = out[key]["data"]
                assert code == 0 and data == [[one, "-inf"], ["-inf", one]], (command, flags)
                assert type(data[0][0]) is type(data[1][1]) is type(one), (command, flags)

    def test_wrapped_matrix_payload(self, capsys, tmp_path):
        f = tmp_path / "wrapped.json"
        f.write_text(json.dumps({"A": [[0]]}))
        code, doc, _ = run_json(capsys, "eig", str(f))
        assert code == 0
        assert doc["spectralRadius"] == 0

    @pytest.mark.parametrize("command", ["eig", "star"])
    def test_unknown_matrix_field_is_named(self, capsys, tmp_path, command):
        # a misspelled "cols" would skip the column-count check
        f = tmp_path / "colz.json"
        f.write_text(json.dumps({"data": [[1, 2], [0, 1]], "rows": 2, "colz": 3}))
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (1, "")
        assert err == "error: unknown matrix fields: ['colz']\n"


class TestStdin:
    @pytest.mark.parametrize("command, flags", [("solve", ["--float"]), ("verify", [])])
    def test_dash_reads_stdin(self, capsys, monkeypatch, fixtures_dir, command, flags):
        path = fixtures_dir / "general_problem.json"
        by_path = run(capsys, command, str(path), *flags)
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        assert run(capsys, command, "-", *flags) == by_path
        assert by_path[0] == 0 and by_path[1]


class TestVerify:
    def test_agreement_on_fixture(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys, "verify", str(fixtures_dir / "general_problem.json")
        )
        assert code == 0
        assert doc["agree"] is True
        assert doc["closedForm"]["minimum"] == doc["grid"]["minimum"]
        assert doc["grid"]["argminInFamily"] is True

    def test_box_fixture_with_custom_step(self, capsys, fixtures_dir):
        code, doc, _ = run_json(
            capsys,
            "verify",
            str(fixtures_dir / "box_problem.json"),
            "--step",
            "1/6",
            "--window",
            "1",
        )
        assert code == 0
        assert doc["agree"] is True

    @pytest.mark.parametrize("step", ["1/0", "0", "-1/2", "half"])
    def test_step_must_be_a_positive_fraction(self, capsys, fixtures_dir, step):
        code, out, err = run(
            capsys, "verify", str(fixtures_dir / "general_problem.json"),
            f"--step={step}",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --step must be a positive fraction")

    def test_infeasible_dichotomy(self, capsys, tmp_path):
        f = tmp_path / "empty_box.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "BoxConstrained",
                    "A": [[0]],
                    "p": [0],
                    "q": [0],
                    "g": [5],
                    "h": [0],
                    "r": 0,
                }
            )
        )
        code, doc, _ = run_json(capsys, "verify", str(f))
        assert code == 2
        assert doc["agree"] is True
        assert doc["grid"] == "noFeasiblePoint"

    def test_zero_entries_stay_zero_at_huge_coordinates(self, capsys, tmp_path):
        # scaled coordinates near 10^16: a zero entry plus x_j must not
        # pass for a finite term
        f = tmp_path / "far_box.json"
        big = 10**15
        f.write_text(
            json.dumps(
                {
                    "kind": "BoxConstrained",
                    "A": {"rows": 2, "cols": 2, "data": [[0, None], [None, 0]]},
                    "p": [0, big],
                    "q": [0, big],
                    "g": [0, big],
                    "h": [1, big + 1],
                    "r": 0,
                }
            )
        )
        code, doc, _ = run_json(capsys, "verify", str(f), "--window", "1")
        assert code == 0
        assert doc["agree"] is True
        assert doc["grid"]["minimum"] == 0
        assert doc["grid"]["argmin"] == [0, big]


    @staticmethod
    def _point_box(tmp_path):
        """BoxConstrained data whose box is the point 0; solve gives
        minimum 1 there."""
        f = tmp_path / "point_box.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "BoxConstrained",
                    "A": [[0, 1], [1, 0]],
                    "p": [0, 0],
                    "q": [0, 0],
                    "g": [0, 0],
                    "h": [0, 0],
                    "r": 0,
                }
            )
        )
        return str(f)

    def test_a_step_that_does_not_divide_the_window_keeps_the_point(self, capsys, tmp_path):
        # the window rounds out to two steps of 2/3 on each side of the
        # canonical point: the lattice -4/3, -2/3, 0, 2/3, 4/3 holds it
        f = self._point_box(tmp_path)
        assert run_json(capsys, "solve", f)[1]["minimum"] == 1
        code, doc, err = run_json(capsys, "verify", f, "--window", "1", "--step", "2/3")
        assert (code, err) == (0, "")
        assert doc == {
            "closedForm": {"minimum": 1, "canonical": [0, 0]},
            "grid": {"minimum": 1, "argmin": [0, 0], "argminInFamily": True},
            "agree": True,
        }

    def test_a_wrong_minimum_disagrees(self, capsys, monkeypatch, tmp_path):
        # a closed form patched to a wrong minimum: the scan finds the
        # point and its true minimum, and the pair disagrees
        solve = cli.solve_problem

        def wrong(problem):
            res = solve(problem)
            return dataclasses.replace(res, minimum=res.minimum + 1)

        monkeypatch.setattr(cli, "solve_problem", wrong)
        f = self._point_box(tmp_path)
        code, doc, err = run_json(capsys, "verify", f, "--window", "1", "--step", "2/3")
        assert (code, err) == (1, "")
        assert doc == {
            "closedForm": {"minimum": 2, "canonical": [0, 0]},
            "grid": {"minimum": 1, "argmin": [0, 0], "argminInFamily": True},
            "agree": False,
        }

    def test_negative_window_is_named(self, capsys, fixtures_dir):
        problem = str(fixtures_dir / "general_problem.json")
        code, out, err = run(capsys, "verify", problem, "--window", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: --window must be at least 0")
        code, doc, _ = run_json(capsys, "verify", problem, "--window", "0")
        assert code == 0 and doc["agree"] is True


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_mode_flags_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "x.json", "--exact", "--float"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "general_problem.json", "--epsilon", "-1e-9"],
            [],
            ["solve", "general_problem.json", "--exact", "--float"],
            ["solve", "general_problem.json", "--exact", "--epsilon", "1e-6"],
            ["schedule", "three_activity_project.json", "--epsilon=0", "--exact"],
        ],
        ids=[
            "separated-negative-epsilon",
            "no-subcommand",
            "exact-and-float",
            "exact-and-epsilon",
            "epsilon-and-exact",
        ],
    )
    def test_usage_errors_exit_1(self, capsys, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: tropt") and "error:" in err

    def test_exact_with_epsilon_names_both_flags(self, capsys, fixtures_dir):
        problem = str(fixtures_dir / "general_problem.json")
        with pytest.raises(SystemExit) as exc:
            main(["solve", problem, "--exact", "--epsilon", "1e-6"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: tropt solve")
        assert captured.err.endswith(
            "tropt solve: error: argument --epsilon: not allowed with argument --exact\n"
        )

    @pytest.mark.parametrize("flags", [["--float", "--epsilon", "1e-6"], ["--epsilon", "1e-6"]])
    def test_epsilon_without_exact_runs_float(self, capsys, fixtures_dir, flags):
        code, doc, _ = run_json(
            capsys, "solve", str(fixtures_dir / "general_problem.json"), *flags
        )
        assert code == 0
        assert doc["minimum"] == 4.0 and isinstance(doc["minimum"], float)


@pytest.fixture
def fresh_parser():
    """Drop the process's shared parser before and after the test."""
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


class TestSharedParser:
    """Back-to-back `main` calls share one parser and nothing else."""

    def test_built_once_per_process(self, capsys, fixtures_dir, monkeypatch, fresh_parser):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        matrix = str(fixtures_dir / "A.json")
        for argv in (["eig", matrix], ["star", matrix, "--float"], []) * 4:
            try:
                main(argv)
            except SystemExit:
                pass
        capsys.readouterr()
        assert built == [1]

    def test_float_then_exact(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[1, 3], [2, 0]]))
        assert run_json(capsys, "eig", str(f), "--float")[1] == {"spectralRadius": 2.5}
        assert run_json(capsys, "eig", str(f))[1] == {"spectralRadius": "5/2"}

    def test_output_then_stdout(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "result.json"
        matrix = str(fixtures_dir / "A.json")
        assert run(capsys, "eig", matrix, "--output", str(target)) == (0, "", "")
        code, out, _ = run(capsys, "eig", matrix)
        assert code == 0 and out == target.read_text()

    def test_intermediates_then_without(self, capsys, fixtures_dir):
        spec = str(fixtures_dir / "three_activity_project.json")
        code, doc, _ = run_json(capsys, "schedule", spec, "--emit-intermediates")
        assert code == 0 and "intermediates" in doc
        code, doc, _ = run_json(capsys, "schedule", spec)
        assert code == 0 and "intermediates" not in doc

    def test_usage_error_then_valid_call(self, capsys, fixtures_dir):
        matrix = str(fixtures_dir / "A.json")
        assert run(capsys, "eig", matrix)[0] == 0  # the parser exists now
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["eig", matrix, "--exact", "--float"])
        assert exc.value.code == 1
        assert err.getvalue().startswith("usage: tropt eig")
        code, doc, _ = run_json(capsys, "eig", matrix)
        assert code == 0 and "spectralRadius" in doc

    def test_window_then_default(self, capsys, tmp_path):
        # x^- 0 x is 0 everywhere, so the grid argmin is the window's corner
        f = tmp_path / "flat.json"
        f.write_text(json.dumps({"kind": "Basic", "A": [[0]]}))
        assert run_json(capsys, "verify", str(f), "--window", "1")[1]["grid"]["argmin"] == [-1]
        assert run_json(capsys, "verify", str(f))[1]["grid"]["argmin"] == [-2]

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_is_the_same_on_every_call(self, capsys, argv, fresh_parser):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: tropt")

    @pytest.mark.parametrize(
        "command", ["solve", "schedule", "solve-ineq", "eig", "star", "verify"]
    )
    def test_help_says_dash_reads_stdin(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "('-' for stdin)" in " ".join(capsys.readouterr().out.split())


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_FIXTURE = {"solve": "general_problem", "schedule": "three_activity_project",
            "solve-ineq": "combined_inequality", "eig": "A", "star": "A",
            "verify": "box_problem"}
_DISPATCH_ARGVS = (
    [[command, f"{fixture}.json"] for command, fixture in _FIXTURE.items()]
    + [[], ["-h"], ["--help"]] + [[command, "--help"] for command in _FIXTURE]
    + [["bogus", "A.json"], ["solve"], ["eig", "A.json", "--bogus"]]
    + [["eig", "A.json", "extra"], ["eig", "--", "A.json"], ["--", "eig", "A.json"]]
    + [["schedule", "three_activity_project.json", "--emit"],
       ["solve", "general_problem.json", "--exact", "--epsilon", "1e-6"],
       ["verify", "box_problem.json", "--window", "x"],
       ["star", "A.json", "-h", "--float"], ["eig", "A.json", "--float", "--output"]]
)


class TestDispatch:
    """A named subcommand goes straight to its parser, with the output
    of the two-level parse."""

    @pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=lambda a: " ".join(a) or "none")
    def test_same_as_the_two_level_parse(self, capsys, monkeypatch, fixtures_dir, argv):
        monkeypatch.chdir(fixtures_dir)
        dispatched = _outcome(capsys, argv)
        full = build_parser()
        # the names without their parsers: the "--" rule still holds,
        # and no name dispatches
        full.commands = dict.fromkeys(full.commands)
        monkeypatch.setattr(cli, "_shared_parser", lambda: full)
        assert dispatched == _outcome(capsys, argv)

    def test_leading_double_dash_runs_the_named_command(self, capsys, monkeypatch,
                                                        fixtures_dir):
        monkeypatch.chdir(fixtures_dir)
        answer = _outcome(capsys, ["eig", "A.json"])
        assert answer[0] == 0 and json.loads(answer[1]) == {"spectralRadius": 4}
        assert _outcome(capsys, ["--", "eig", "A.json"]) == answer
        code, out, err = _outcome(capsys, ["--", "bogus"])
        assert (code, out) == (1, "") and "invalid choice" in err

    def test_named_subcommand_skips_the_top_level_parse(self, capsys, monkeypatch,
                                                        fixtures_dir):
        parsed = []
        parse = argparse.ArgumentParser.parse_known_args

        def recorded(self, *args):
            parsed.append(self.prog)
            return parse(self, *args)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
        assert run(capsys, "eig", str(fixtures_dir / "A.json"))[0] == 0
        assert parsed == ["tropt eig"]
        with pytest.raises(SystemExit):
            main(["--bogus"])
        assert parsed[1:] == ["tropt"]

    def test_only_the_top_level_parser_dispatches(self):
        parser = build_parser()
        assert sorted(parser.commands) == sorted(_FIXTURE)
        assert all(sub.commands is None for sub in parser.commands.values())


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_golden_output(capsys, monkeypatch, name):
    """stdout, stderr and exit code match the recording byte for byte;
    `scripts/record_golden.py` re-records them."""
    case = GOLDEN_CASES[name]
    monkeypatch.chdir(GOLDEN.parent.parent)
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert err == case["stderr"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_exit_2_is_exactly_unsolvable():
    # main exits 2 on Unsolvable; a grid that finds no point, an empty
    # float box and every input error stay outside it
    import tropt

    classes = [getattr(tropt, name) for name in tropt.__all__]
    errors = [c for c in classes if isinstance(c, type) and issubclass(c, Exception)]
    below = {
        c.__name__ for c in errors if c is not tropt.Unsolvable and issubclass(c, tropt.Unsolvable)
    }
    assert below == {
        "NoRegularSolution",
        "InfeasibleConstraints",
        "InfeasibleSchedule",
        "ZeroSpectralRadius",
        "DegenerateProblem",
    }
    assert not issubclass(tropt.NoFeasiblePoint, tropt.Unsolvable)
    assert not issubclass(tropt.EmptyParameterBox, tropt.Unsolvable)
    assert not issubclass(tropt.SpecValidation, tropt.Unsolvable)


def test_cli_import_leaves_the_oracle_unloaded():
    # only `verify` scans a grid, so only it imports the oracle
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, tropt.cli; print('tropt.oracle' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


ONE_PATH_CASES = [n for n in GOLDEN_CASES if n.startswith(("solve-box", "solve-general", "schedule-"))]
ENCODERS = ("encode_matrix", "encode_vector", "encode_solutions", "encode_opt_result",
            "encode_schedule_result", "encode_value")


@pytest.mark.parametrize("name", ONE_PATH_CASES)
def test_answers_are_encoded_once_by_dumps(capsys, monkeypatch, name):
    # solve and schedule hand tropt values to `dumps`, which writes
    # them itself: no JSON-ready copy of the answer is built first
    def refuse(*args, **kwargs):
        raise AssertionError("an answer went through a result encoder")

    for encoder in ENCODERS:
        monkeypatch.setattr(cli.serialize, encoder, refuse)
    case = GOLDEN_CASES[name]
    monkeypatch.chdir(GOLDEN.parent.parent)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["eig", "fixtures/A.json"],
                                  ["solve", "fixtures/general_problem.json"]])
def test_a_reader_that_stops_early_is_not_an_error(argv, unbuffered):
    # stdout's read end closes before tropt writes: exit 0, nothing on
    # stderr, and no complaint from the interpreter's final flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropt.cli", *argv],
        cwd=GOLDEN.parent.parent,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_a_closed_pipe_descriptor_is_not_an_error():
    # the read end is closed before tropt starts, so its first flush to
    # the real descriptor fails: exit 0, and the interpreter's final
    # flush of the buffered answer finds stdout pointed at devnull
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "tropt.cli", "schedule",
             "fixtures/three_activity_project.json"],
            cwd=GOLDEN.parent.parent, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 0, done.stderr
    assert b"Exception ignored" not in done.stderr and b"Traceback" not in done.stderr


def test_a_closed_in_memory_stdout_is_not_an_error(capsys, monkeypatch, fixtures_dir):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    code = main(["eig", str(fixtures_dir / "A.json")])
    assert (code, capsys.readouterr().err) == (0, "")


def test_an_unwritable_output_is_still_an_error(capsys, fixtures_dir, tmp_path):
    code, out, err = run(capsys, "eig", str(fixtures_dir / "A.json"), "--output", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
