import json
from fractions import Fraction

import pytest

import _frozen as frozen
from tropt.cli import main

NEG = float("-inf")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


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

    def test_empty_parameter_box_is_input_error(self, capsys, tmp_path):
        # float data near 1e8: rounding pushes the upper parameter bound
        # below the lower one by more than the tolerance
        bad = tmp_path / "rounding.json"
        bad.write_text(
            json.dumps(
                {
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
            )
        )
        code, out, err = run(capsys, "solve", str(bad), "--float")
        assert code == 1
        assert out == ""
        assert err.startswith("error: parameter box empty")

    def test_float_overflow_is_input_error(self, capsys, tmp_path):
        big = tmp_path / "overflow.json"
        big.write_text(
            json.dumps({"kind": "Basic", "A": [[1e308, 1e308], [1e308, 1e308]]})
        )
        code, out, err = run(capsys, "solve", str(big), "--float")
        assert code == 1
        assert out == ""
        assert err.startswith("error: float overflow")

    def test_float_overflow_inside_a_solve_is_named(self, capsys, tmp_path):
        # the data is finite; +inf first appears inside the solve
        big = tmp_path / "overflow.json"
        big.write_text(
            json.dumps(
                {
                    "kind": "ExtendedUnconstrained",
                    "A": [[1e308, -1e308], [1e308, 0]],
                    "p": [1e308, 1e308],
                    "q": [-1e308, 1e308],
                    "r": 1e308,
                }
            )
        )
        code, out, err = run(capsys, "solve", str(big), "--float")
        assert code == 1
        assert out == ""
        assert err.startswith("error: float overflow") and "Traceback" not in err
        code, doc, _ = run_json(capsys, "solve", str(big))
        assert code == 0
        assert doc["minimum"] == 10**308

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

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error" in err

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

    def test_needs_some_side(self, capsys, tmp_path):
        f = tmp_path / "none.json"
        f.write_text(json.dumps({"A": [[1]]}))
        code, _, err = run(capsys, "solve-ineq", str(f))
        assert code == 1


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

    def test_star(self, capsys, fixtures_dir):
        code, doc, _ = run_json(capsys, "star", str(fixtures_dir / "B.json"))
        assert code == 0
        assert doc["star"]["data"] == [list(r) for r in frozen.B_STAR]
        assert doc["traceSum"] == frozen.TRACE_SUM_B

    def test_wrapped_matrix_payload(self, capsys, tmp_path):
        f = tmp_path / "wrapped.json"
        f.write_text(json.dumps({"A": [[0]]}))
        code, doc, _ = run_json(capsys, "eig", str(f))
        assert code == 0
        assert doc["spectralRadius"] == 0


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
        ],
        ids=["separated-negative-epsilon", "no-subcommand", "exact-and-float"],
    )
    def test_usage_errors_exit_1(self, capsys, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: tropt") and "error:" in err
