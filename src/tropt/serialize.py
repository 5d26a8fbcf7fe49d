"""JSON input and output for problems, schedules, inequality systems
and results.

Scalar conventions, both directions:

  integers        JSON numbers
  rationals       strings "num/den" (any Fraction string also parses)
  minus infinity  the string "-inf", or null inside matrices
  floats          JSON numbers (approximate mode)

Float mode reads every number, integers included, as a float, and
`dumps(..., floats=True)` writes every finite one as a float; a value
too large for a float, or a result that overflows to +inf, is a
ValueError.  An exact value longer than the interpreter's int-to-text
limit can be neither read nor written: that is TooManyDigits, a
ValueError with Python's message.

Exact mode parses JSON floats through Fraction so a value like 2.5 is
read from its decimal spelling, not from a binary double.  Matrices
travel as {"rows": r, "cols": c, "data": [[..]]}; a bare list of rows
is accepted on input.  Vectors are plain arrays.  Every JSON object
read (problem, schedule, inequality system, matrix) rejects a field it
does not know.

Each answer is a document of tropt values (`opt_document`,
`schedule_document`, or a CLI handler's dict).  `dumps` writes it
directly, byte for byte as `json` writes its `encode_value` with
indent=2 and sorted keys, a matrix row at a time; the `encode_*`
functions are `encode_value` of the same documents.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .errors import TooManyDigits
from .linalg import Matrix, RowVector, Vector
from .linsolve import SolutionSet
from .optimize import OptResult, Problem, ProblemKind
from .schedule import ScheduleResult, ScheduleSpec
from .semifield import MAXPLUS, Scalar


_ZERO = MAXPLUS.zero


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError("scalar too large for a float")
    return value


def loads(text: str, exact: bool = True):
    """Parse JSON; in float mode a number literal that overflows is an
    error, while null, "-inf" and -Infinity still mean the zero."""
    try:
        return json.loads(text, parse_float=Fraction if exact else _finite_float)
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None
    except ValueError as exc:
        raise _digit_limit(exc) from None


def dumps(obj: Any, floats: bool = False) -> str:
    """``json.dumps(encode_value(obj), sort_keys=True, indent=2)``,
    written directly; dict keys are strings.  With floats (float mode)
    an int scalar is written as the float it equals: an answer built
    from no finite datum has no float to take its type from."""
    out: list[str] = []
    try:
        _write(obj, "\n", out, _float_texts if floats else _texts)
    except ValueError as exc:
        raise _digit_limit(exc) from None
    return "".join(out)


def _digit_limit(exc: ValueError) -> ValueError:
    """Python's limit on the digits of an int as text, as TooManyDigits
    with the same message; any other ValueError as it is."""
    if "integer string conversion" not in str(exc):
        return exc
    return TooManyDigits(str(exc), sys.get_int_max_str_digits())


def _texts(values) -> list[str]:
    """Scalar texts: an int or a finite float is its repr (v - v is nan
    for inf and nan), the zero is "-inf"; anything else goes through
    `encode_scalar`."""
    return [
        repr(v) if (t := type(v)) is int or (t is float and v - v == 0)
        else '"-inf"' if t is float and v == _ZERO
        else _json_text(encode_scalar(v))
        for v in values
    ]


def _float_texts(values) -> list[str]:
    """`_texts` with each int written as the float it equals; a copy,
    so that exact mode pays no test per scalar."""
    return [
        repr(v if t is float else float(v))
        if (t := type(v)) is int or (t is float and v - v == 0)
        else '"-inf"' if t is float and v == _ZERO
        else _json_text(encode_scalar(v))
        for v in values
    ]


def _json_text(v) -> str:
    """`json`'s text for what `encode_scalar` returns, mostly strings."""
    return encode_basestring_ascii(v) if type(v) is str else json.dumps(v)


def _write(v, nl: str, out: list[str], texts) -> None:
    """Append the text of v at the indent that `nl`, a newline and the
    current indent, ends in; `texts` writes the scalars."""
    inner = nl + "  "
    if isinstance(v, Matrix):
        cell, row_nl = "," + inner + "    ", inner + "  "
        rows = ("," + row_nl).join(
            f"[{cell[1:]}{cell.join(texts(row))}{row_nl}]" for row in v.rows
        )
        out.append(
            f'{{{inner}"cols": {v.n_cols},{inner}"data": [{row_nl}{rows}'
            f'{inner}],{inner}"rows": {v.n_rows}{nl}}}'
        )
    elif isinstance(v, (Vector, RowVector)):
        out.append("[" + inner + ("," + inner).join(texts(v.entries)) + nl + "]")
    elif isinstance(v, dict):
        sep = "{"
        for key, value in sorted(v.items()):
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write(value, inner, out, texts)
            sep = ","
        out.append(nl + "}" if v else "{}")
    elif isinstance(v, (list, tuple)):
        sep = "["
        for value in v:
            out.append(sep + inner)
            _write(value, inner, out, texts)
            sep = ","
        out.append(nl + "]" if v else "[]")
    else:
        out.append(texts((v,))[0])


def parse_scalar(value, exact: bool = True) -> Scalar:
    if value is None:
        return _ZERO
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, int):
        if exact:
            return value
        frac = value
    elif isinstance(value, float):  # before Fraction, an ABC check
        if math.isnan(value):
            raise ValueError("NaN is not a scalar")
        if math.isinf(value):
            if value == _ZERO:
                return _ZERO
            raise ValueError("infinite value outside the carrier")
        if not exact:
            return value
        frac = Fraction(repr(value))
    elif isinstance(value, Fraction):
        frac = value
    elif isinstance(value, str):
        text = value.strip()
        if text == "-inf":
            return _ZERO
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar {value!r}") from exc
    else:
        raise ValueError(f"cannot parse scalar {value!r}")
    if not exact:
        try:
            return float(frac)
        except OverflowError:
            raise ValueError("scalar too large for a float") from None
    return int(frac) if frac.denominator == 1 else frac


def encode_scalar(value: Scalar):
    # int and float first: isinstance(value, Fraction) is an ABC check
    if type(value) is int:
        return value
    if isinstance(value, float):
        if math.isinf(value):
            if value > 0:
                raise ValueError("float overflow: a result is +inf")
            return "-inf"
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def _object(obj, keys: set, what: str) -> None:
    """Check that obj is a JSON object whose fields all lie in `keys`:
    the one rule for every object tropt reads."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(obj) - keys
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _optional(parse, obj: dict, key: str, exact: bool):
    """`parse` of obj[key], or None when the field is absent or null."""
    raw = obj.get(key)
    return None if raw is None else parse(raw, exact)


_MATRIX_KEYS = {"rows", "cols", "data"}


def parse_matrix(obj, exact: bool = True) -> Matrix:
    declared_rows = declared_cols = None
    if isinstance(obj, dict):
        _object(obj, _MATRIX_KEYS, "matrix")
        if "data" not in obj:
            raise ValueError("matrix object needs a 'data' field")
        data = obj["data"]
        declared_rows = obj.get("rows")
        declared_cols = obj.get("cols")
    else:
        data = obj
    if (
        not isinstance(data, list)
        or not data
        or not all(isinstance(row, list) for row in data)
    ):
        raise ValueError("matrix data must be a non-empty list of rows")
    width = len(data[0])
    if width == 0 or any(len(row) != width for row in data):
        raise ValueError("matrix rows must all have the same positive length")
    if declared_rows is not None and declared_rows != len(data):
        raise ValueError("declared row count does not match the data")
    if declared_cols is not None and declared_cols != width:
        raise ValueError("declared column count does not match the data")
    return Matrix(tuple(tuple(parse_scalar(v, exact) for v in row) for row in data))


def encode_matrix(m: Matrix) -> dict:
    return {
        "rows": m.n_rows,
        "cols": m.n_cols,
        "data": [[encode_scalar(v) for v in row] for row in m.rows],
    }


def parse_vector(obj, exact: bool = True) -> Vector:
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty array")
    return Vector(tuple(parse_scalar(v, exact) for v in obj))


def encode_vector(v) -> list:
    return [encode_scalar(x) for x in v.entries]


_PROBLEM_KEYS = {"kind", "A", "B", "p", "q", "g", "h", "r"}


def parse_problem(obj, exact: bool = True) -> Problem:
    _object(obj, _PROBLEM_KEYS, "problem")
    if "kind" not in obj:
        raise ValueError("problem needs a 'kind'")
    try:
        kind = ProblemKind(obj["kind"])
    except ValueError:
        names = ", ".join(k.value for k in ProblemKind)
        raise ValueError(
            f"unknown kind {obj['kind']!r}; expected one of: {names}"
        ) from None
    if obj.get("A") is None:
        raise ValueError("problem needs matrix 'A'")
    r = _optional(parse_scalar, obj, "r", exact)
    a = parse_matrix(obj["A"], exact)
    b = _optional(parse_matrix, obj, "B", exact)
    p, q, g, h = (_optional(parse_vector, obj, key, exact) for key in ("p", "q", "g", "h"))
    return Problem(kind=kind, A=a, B=b, p=p, q=q, g=g, h=h, r=r)


def encode_problem(problem: Problem) -> dict:
    doc: dict[str, Any] = {"kind": problem.kind.value, "A": problem.A}
    for key in ("B", "p", "q", "g", "h", "r"):
        if (v := getattr(problem, key)) is not None:
            doc[key] = v
    return encode_value(doc)


_SCHEDULE_KEYS = {
    "activities",
    "startFinish",
    "startStart",
    "earliestStart",
    "latestStart",
    "windowLower",
    "windowUpper",
}


def parse_schedule(obj, exact: bool = True) -> ScheduleSpec:
    """Read a schedule.  startStart defaults to no precedence lags and
    earliestStart to no release times; null entries inside matrices mean
    an absent lag."""
    _object(obj, _SCHEDULE_KEYS, "schedule")
    for required in ("startFinish", "latestStart", "windowLower", "windowUpper"):
        if obj.get(required) is None:
            raise ValueError(f"schedule needs '{required}'")
    a = parse_matrix(obj["startFinish"], exact)
    n = a.n_rows
    b = _optional(parse_matrix, obj, "startStart", exact)
    g = _optional(parse_vector, obj, "earliestStart", exact)
    names = obj.get("activities")
    if names is not None:
        if not (
            isinstance(names, list) and all(isinstance(s, str) for s in names)
        ):
            raise ValueError("activities must be an array of names")
        names = tuple(names)
    return ScheduleSpec(
        start_finish=a,
        start_start=Matrix.zeros(n, n) if b is None else b,
        earliest_start=Vector.zeros(n) if g is None else g,
        latest_start=parse_vector(obj["latestStart"], exact),
        window_lower=parse_vector(obj["windowLower"], exact),
        window_upper=parse_vector(obj["windowUpper"], exact),
        activities=names,
    )


_SYSTEM_KEYS = {"A", "b", "d"}


def parse_system(obj, exact: bool = True) -> tuple[Matrix, Optional[Vector], Optional[Vector]]:
    """Read a `solve-ineq` system {"A", "b", "d"} as (A, b, d); b or d
    may be absent (or null), not both."""
    if not isinstance(obj, dict) or "A" not in obj:
        raise ValueError("inequality system needs a matrix 'A'")
    _object(obj, _SYSTEM_KEYS, "inequality system")
    a = parse_matrix(obj["A"], exact)
    b = _optional(parse_vector, obj, "b", exact)
    d = _optional(parse_vector, obj, "d", exact)
    if b is None and d is None:
        raise ValueError("inequality system needs 'b' or 'd' (or both)")
    return a, b, d


def parse_operand(obj, exact: bool = True) -> Matrix:
    """The matrix of `eig` and `star`: a bare matrix, a matrix object,
    or the 'A' of any other object, whose other fields are not read
    (so a problem file serves)."""
    if isinstance(obj, dict) and "A" in obj:
        obj = obj["A"]
    return parse_matrix(obj, exact)


def _solutions_document(s: SolutionSet) -> dict:
    doc = {"generator": s.generator, "lowerU": s.lower}
    if s.upper is not None:
        doc["upperU"] = s.upper
    return doc


def opt_document(res: OptResult) -> dict:
    """What `solve` prints, as tropt values for `dumps`."""
    return {
        "minimum": res.minimum,
        "canonical": res.canonical,
        "solutions": _solutions_document(res.solutions),
    }


def schedule_document(res: ScheduleResult, collapse=None) -> dict:
    """What `schedule` prints, as tropt values for `dumps`; `collapse`
    is `collapse_solution_line`'s (direction, (low, high)) or None."""
    return {
        "theta": res.theta,
        "initiation": res.initiation,
        "completion": res.completion,
        "adjustedStart": res.adjusted_start,
        "adjustedFinish": res.adjusted_finish,
        "flowTimes": res.flow_times,
        "activities": res.activities,
        "solutions": _solutions_document(res.solutions),
        "collapse": collapse and {"direction": collapse[0], "interval": collapse[1]},
    }


def encode_solutions(s: SolutionSet) -> dict:
    return encode_value(_solutions_document(s))


def encode_opt_result(res: OptResult) -> dict:
    return encode_value(opt_document(res))


def encode_schedule_result(res: ScheduleResult, collapse=None) -> dict:
    return encode_value(schedule_document(res, collapse))


def encode_value(v):
    """Encode nested intermediate structures: matrices, vectors,
    dictionaries, sequences and scalars."""
    if isinstance(v, Matrix):
        return encode_matrix(v)
    if isinstance(v, (Vector, RowVector)):
        return encode_vector(v)
    if isinstance(v, dict):
        return {k: encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    return encode_scalar(v)
