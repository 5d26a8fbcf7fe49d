import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _frozen as frozen
from tropt import Matrix, ProblemKind, Vector, solve_schedule
from tropt.linalg import RowVector
from tropt.serialize import (
    dumps,
    encode_matrix,
    encode_problem,
    encode_scalar,
    encode_schedule_result,
    encode_value,
    encode_vector,
    loads,
    parse_matrix,
    parse_operand,
    parse_problem,
    parse_scalar,
    parse_schedule,
    parse_system,
    parse_vector,
)

NEG = float("-inf")


class TestScalars:
    def test_integers_pass_through(self):
        assert parse_scalar(4) == 4
        assert encode_scalar(4) == 4

    def test_fraction_strings(self):
        assert parse_scalar("10/3") == Fraction(10, 3)
        assert encode_scalar(Fraction(10, 3)) == "10/3"

    def test_integral_fractions_collapse(self):
        assert parse_scalar("8/2") == 4
        assert isinstance(parse_scalar("8/2"), int)
        assert encode_scalar(Fraction(4, 1)) == 4

    def test_minus_infinity(self):
        assert parse_scalar("-inf") == NEG
        assert parse_scalar(None) == NEG
        assert encode_scalar(NEG) == "-inf"

    def test_plus_infinity_rejected_for_max_plus(self):
        with pytest.raises(ValueError):
            parse_scalar("inf")
        with pytest.raises(ValueError):
            parse_scalar(float("inf"))

    def test_nan_rejected(self):
        for exact in (True, False):
            with pytest.raises(ValueError):
                parse_scalar(float("nan"), exact=exact)

    def test_decimal_strings_parse_exactly(self):
        assert parse_scalar("2.5") == Fraction(5, 2)

    def test_float_mode(self):
        assert parse_scalar("10/3", exact=False) == pytest.approx(10 / 3)
        assert parse_scalar(2.5, exact=False) == 2.5

    def test_float_mode_converts_integers(self):
        assert isinstance(parse_scalar(4, exact=False), float)
        assert isinstance(parse_scalar("8/2", exact=False), float)
        with pytest.raises(ValueError):
            parse_scalar(10**400, exact=False)
        with pytest.raises(ValueError):
            parse_scalar("1e400", exact=False)

    def test_plus_infinity_is_not_encoded(self):
        with pytest.raises(ValueError, match="float overflow"):
            encode_scalar(float("inf"))

    def test_float_in_exact_mode_reads_decimal_spelling(self):
        assert parse_scalar(2.5, exact=True) == Fraction(5, 2)

    def test_booleans_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("4//3")
        with pytest.raises(ValueError):
            parse_scalar([1])


class TestLoads:
    def test_exact_mode_routes_floats_through_fraction(self):
        doc = loads('{"x": 0.1}', exact=True)
        assert doc["x"] == Fraction(1, 10)

    def test_float_mode_keeps_floats(self):
        doc = loads('{"x": 0.1}', exact=False)
        assert isinstance(doc["x"], float)

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "-1.5e309"])
    def test_float_mode_rejects_an_overflowing_literal(self, literal):
        with pytest.raises(ValueError, match="scalar too large for a float"):
            loads(f"[[{literal}]]", exact=False)

    def test_exact_mode_reads_an_overflowing_literal(self):
        assert loads("[1e400, -1e400]", exact=True) == [10**400, -(10**400)]

    def test_float_mode_keeps_the_spellings_of_zero(self):
        rows = loads('[[null, "-inf", -Infinity, 1e-400]]', exact=False)
        assert parse_matrix(rows, exact=False).rows == ((NEG, NEG, NEG, 0.0),)

    def test_dumps_is_deterministic(self):
        assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})


class TestMatrices:
    def test_wrapped_form_round_trips(self):
        m = Matrix(frozen.B_ROWS)
        again = parse_matrix(json.loads(json.dumps(encode_matrix(m))))
        assert again == m

    def test_bare_rows_accepted(self):
        m = parse_matrix([[1, None], [0, "1/2"]])
        assert m.rows == ((1, NEG), (0, Fraction(1, 2)))

    def test_declared_shape_must_match(self):
        with pytest.raises(ValueError):
            parse_matrix({"rows": 3, "cols": 2, "data": [[1, 2], [3, 4]]})
        with pytest.raises(ValueError):
            parse_matrix({"rows": 2, "cols": 3, "data": [[1, 2], [3, 4]]})

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix([])
        with pytest.raises(ValueError):
            parse_matrix({"data": []})

    def test_missing_data_field(self):
        with pytest.raises(ValueError):
            parse_matrix({"rows": 1, "cols": 1})

    def test_unknown_field(self):
        # "colz" is not "cols": the column count would go unchecked
        with pytest.raises(ValueError, match=r"unknown matrix fields: \['colz'\]"):
            parse_matrix({"data": [[1, 2], [0, 1]], "rows": 2, "colz": 3})


class TestVectors:
    def test_round_trip(self):
        v = Vector((4, NEG, Fraction(1, 3)))
        assert parse_vector(json.loads(json.dumps(encode_vector(v)))) == v

    def test_must_be_list(self):
        with pytest.raises(ValueError):
            parse_vector({"data": [1]})
        with pytest.raises(ValueError):
            parse_vector([])


class TestProblems:
    def test_round_trip(self, general_problem):
        doc = json.loads(json.dumps(encode_problem(general_problem)))
        again = parse_problem(doc)
        assert again.kind is general_problem.kind
        assert again.A == general_problem.A
        assert again.B == general_problem.B
        assert again.p == general_problem.p
        assert again.q == general_problem.q
        assert again.g == general_problem.g
        assert again.h == general_problem.h
        assert again.r == general_problem.r

    def test_every_kind_string_is_accepted(self):
        for kind in ProblemKind:
            doc = {"kind": kind.value, "A": [[0]]}
            assert parse_problem(doc).kind is kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError) as err:
            parse_problem({"kind": "Sideways", "A": [[0]]})
        assert "Sideways" in str(err.value)

    def test_unknown_field(self):
        with pytest.raises(ValueError) as err:
            parse_problem({"kind": "Basic", "A": [[0]], "bogus": 1})
        assert "bogus" in str(err.value)

    def test_missing_pieces(self):
        with pytest.raises(ValueError):
            parse_problem({"A": [[0]]})
        with pytest.raises(ValueError):
            parse_problem({"kind": "Basic"})
        with pytest.raises(ValueError):
            parse_problem([1, 2])


class TestSystemsAndOperands:
    def test_system_fields(self):
        a, b, d = parse_system({"A": [[0, None], [1, 0]], "b": [0, "1/2"], "d": None})
        assert a.rows == ((0, NEG), (1, 0))
        assert b.entries == (0, Fraction(1, 2))
        assert d is None

    def test_system_rejects_what_it_cannot_read(self):
        with pytest.raises(ValueError, match="needs a matrix 'A'"):
            parse_system({"b": [0], "bogus": 1})
        with pytest.raises(ValueError, match=r"unknown inequality system fields: \['D'\]"):
            parse_system({"A": [[0]], "b": [0], "D": [1]})
        with pytest.raises(ValueError, match="needs 'b' or 'd'"):
            parse_system({"A": [[0]], "b": None})

    def test_operand_forms(self):
        # bare rows, a matrix object, or the 'A' of any object (a
        # problem file, say), whose other fields are not read
        bare = parse_operand([[0, 1], [2, None]])
        assert parse_operand(encode_matrix(bare)) == bare
        assert parse_operand({"kind": "Basic", "A": [[0, 1], [2, None]], "note": 1}) == bare
        with pytest.raises(ValueError, match="unknown matrix fields"):
            parse_operand({"A": {"data": [[0]], "colz": 1}})


class TestSchedules:
    def test_fixture_file_parses(self, fixtures_dir, project_spec):
        doc = loads((fixtures_dir / "three_activity_project.json").read_text())
        spec = parse_schedule(doc)
        assert spec.start_finish == project_spec.start_finish
        assert spec.start_start == project_spec.start_start
        assert spec.earliest_start == project_spec.earliest_start
        assert spec.latest_start == project_spec.latest_start
        assert spec.window_lower == project_spec.window_lower
        assert spec.window_upper == project_spec.window_upper
        assert spec.activities == frozen.ACTIVITIES

    def test_defaults_for_optional_blocks(self):
        doc = {
            "startFinish": [[2]],
            "latestStart": [5],
            "windowLower": [0],
            "windowUpper": [3],
        }
        spec = parse_schedule(doc)
        assert spec.start_start == Matrix(((NEG,),))
        assert spec.earliest_start == Vector((NEG,))

    def test_null_lags_mean_no_arc(self):
        doc = {
            "startFinish": [[2, None], [1, 1]],
            "startStart": [[None, None], [0, None]],
            "latestStart": [5, 5],
            "windowLower": [0, 0],
            "windowUpper": [3, 3],
        }
        spec = parse_schedule(doc)
        assert spec.start_finish.rows[0][1] == NEG
        assert spec.start_start.rows[0][0] == NEG

    def test_required_blocks(self):
        with pytest.raises(ValueError):
            parse_schedule({"startFinish": [[1]]})

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            parse_schedule(
                {
                    "startFinish": [[1]],
                    "latestStart": [5],
                    "windowLower": [0],
                    "windowUpper": [3],
                    "deadline": 9,
                }
            )

    def test_bad_activity_names(self):
        with pytest.raises(ValueError):
            parse_schedule(
                {
                    "startFinish": [[1]],
                    "latestStart": [5],
                    "windowLower": [0],
                    "windowUpper": [3],
                    "activities": [1, 2],
                }
            )


class TestResultEncoding:
    def test_schedule_result_shape(self, project_spec):
        from tropt import collapse_solution_line

        res = solve_schedule(project_spec)
        doc = encode_schedule_result(res, collapse_solution_line(res.solutions))
        assert doc["theta"] == frozen.THETA
        assert doc["initiation"] == list(frozen.X_CANONICAL)
        assert doc["flowTimes"] == list(frozen.FLOW_TIMES)
        assert doc["activities"] == list(frozen.ACTIVITIES)
        assert doc["solutions"]["lowerU"] == list(frozen.LOWER_U)
        assert doc["solutions"]["upperU"] == list(frozen.UPPER_U)
        assert doc["collapse"]["direction"] == list(frozen.COLLAPSE_DIRECTION)
        assert doc["collapse"]["interval"] == list(frozen.COLLAPSE_INTERVAL)
        json.dumps(doc)

    def test_collapse_none_is_preserved(self, project_spec):
        res = solve_schedule(project_spec)
        doc = encode_schedule_result(res, None)
        assert doc["collapse"] is None

    def test_encode_value_recurses(self):
        nested = {
            "m": Matrix(((1, NEG),) * 2),
            "list": [Vector((0, Fraction(1, 2))), 3],
            "plain": Fraction(7, 2),
        }
        doc = encode_value(nested)
        assert doc["m"]["data"] == [[1, "-inf"], [1, "-inf"]]
        assert doc["list"][0] == [0, "1/2"]
        assert doc["plain"] == "7/2"
        json.dumps(doc)


scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=7),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([NEG, -0.0]),
)
entry_lists = st.integers(1, 3).flatmap(lambda k: st.lists(scalars, min_size=k, max_size=k))
matrices = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(scalars, min_size=k, max_size=k), min_size=1, max_size=3
    ).map(Matrix)
)
texts = st.one_of(st.text(), st.sampled_from(['"q"', "back\\slash", "\x00\x1f\t\n", "é ✓ 😀"]))
leaves = st.one_of(
    scalars,
    texts,
    st.none(),
    st.booleans(),
    matrices,
    entry_lists.map(Vector),
    entry_lists.map(RowVector),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=25,
)


def reference_dumps(obj) -> str:
    return json.dumps(encode_value(obj), sort_keys=True, indent=2)


class TestWriter:
    """`dumps` writes what `json` writes for the encoded document."""

    @given(documents)
    def test_same_text_as_json(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            float("inf"),
            [1, {"x": Vector((0, float("inf")))}],
            Matrix(((0, float("inf")),)),
            10**4301,
            {"m": Matrix(((10**4301,),))},
        ],
        ids=["inf", "inf-in-vector", "inf-in-matrix", "long-int", "long-int-in-matrix"],
    )
    def test_same_error_as_json(self, doc):
        with pytest.raises(ValueError) as ours:
            dumps(doc)
        with pytest.raises(ValueError) as theirs:
            reference_dumps(doc)
        assert str(ours.value) == str(theirs.value)
