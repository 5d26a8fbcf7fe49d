import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _frozen as frozen
from _samplers import random_matrix, sample_problem
from _words import enum_chain_sum, enum_closure_sum
from tropt import (
    AllZeroVector,
    IndexOutOfRange,
    Matrix,
    NotSquare,
    RowVector,
    ShapeMismatch,
    UndefinedPower,
    Vector,
    chain_sum,
    chain_sums,
    closure_sum,
    closure_sums,
    outer,
)
from tropt import linalg
from tropt.errors import TroptError
from tropt.linalg import _max_cycle, _trace_product
from tropt.optimize import ProblemKind, solve_problem
from tropt.oracle import max_cycle_mean
from tropt.semifield import MAXPLUS, Semifield

NEG = float("-inf")
INF = float("inf")


@pytest.fixture
def a() -> Matrix:
    return Matrix(frozen.A_ROWS)


@pytest.fixture
def b() -> Matrix:
    return Matrix(frozen.B_ROWS)


class TestConstruction:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeMismatch):
            Matrix(((1, 2), (3,)))

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            Matrix(())

    def test_identity(self):
        eye = Matrix.identity(3)
        assert eye.rows == frozen.IDENTITY

    def test_zeros(self):
        z = Matrix.zeros(2, 3)
        assert z.rows == ((NEG,) * 3,) * 2

    def test_regularity(self, a):
        assert a.is_column_regular()
        assert not Matrix(((1, NEG), (3, NEG))).is_column_regular()


class TestArithmetic:
    def test_add_is_entrywise_max(self, a, b):
        s = a + b
        assert s.rows[0] == (4, 0, 1)
        assert s.rows[2] == (1, 1, 3)

    def test_matmul_square(self, a):
        assert (a @ a).rows == frozen.A2
        assert (a @ a @ a).rows == frozen.A3

    def test_matmul_frozen_b(self, b):
        assert (b @ b).rows == frozen.B2
        assert (b @ b @ b).rows == frozen.B3

    def test_matmul_shape_guard(self, a):
        with pytest.raises(ShapeMismatch):
            a @ Matrix(((1, 2), (3, 4)))

    def test_matrix_vector(self, a):
        x = Vector(frozen.X_CANONICAL)
        assert (a @ x).entries == frozen.Y_COMPLETION

    def test_scale(self, a):
        assert a.scale(-4).rows[0] == (0, -4, NEG)
        assert (2 * Vector((1, NEG))).entries == (3, NEG)

    def test_power(self, a):
        assert a.power(0) == Matrix.identity(3)
        assert a.power(3).rows == frozen.A3
        with pytest.raises(UndefinedPower):
            a.power(-1)

    def test_powers_prefix(self, a):
        ps = a.powers(3)
        assert len(ps) == 4
        assert ps[0] == Matrix.identity(3)
        assert ps[3].rows == frozen.A3

    def test_trace(self, a, b):
        assert a.trace() == 4
        assert b.trace() == NEG

    def test_trace_sum(self, b):
        assert b.trace_sum() == frozen.TRACE_SUM_B

    def test_conj_transposes_and_negates(self, a):
        c = a.conj()
        assert c.rows[0] == (-4, -2, -1)
        assert c.rows[2] == (NEG, -1, -3)


class TestSpectralRadius:
    def test_frozen(self, a):
        assert a.spectral_radius() == frozen.SPECTRAL_RADIUS_A

    def test_acyclic_matrix(self):
        nilpotent = Matrix(((NEG, 3), (NEG, NEG)))
        assert nilpotent.spectral_radius() == NEG

    def test_fractional_mean(self):
        m = Matrix(((NEG, 5), (0, NEG)))
        assert m.spectral_radius() == Fraction(5, 2)

    def test_matches_cycle_enumeration(self):
        rng = random.Random(11)
        for _ in range(200):
            m = random_matrix(rng, rng.choice((2, 3, 4)))
            assert m.spectral_radius() == max_cycle_mean(m)


class TestStar:
    def test_frozen_b_star(self, b):
        assert b.star().rows == frozen.B_STAR

    def test_star_of_identity(self):
        assert Matrix.identity(3).star() == Matrix.identity(3)

    def test_star_is_truncated_power_sum(self, a):
        expected = Matrix.identity(3) + a + a @ a
        assert a.star() == expected

    def test_star_fixpoint_when_trace_bounded(self, b):
        s = b.star()
        assert s == Matrix.identity(3) + b @ s
        assert s @ s == s

    def test_requires_square(self):
        with pytest.raises(NotSquare):
            Matrix(((1, 2, 3), (4, 5, 6))).star()


class TestChainFamilies:
    def test_frozen_chain_sums(self, a, b):
        chains = chain_sums(a, b)
        assert chains[0] == Matrix.identity(3)
        assert chains[1].rows == frozen.CHAIN_1
        assert chains[2].rows == frozen.CHAIN_2
        assert chains[3].rows == frozen.A3

    def test_frozen_closure_sums(self, a, b):
        closures = closure_sums(a, b)
        assert closures[0].rows == frozen.B_STAR
        assert closures[1].rows == frozen.CLOSURE_1
        assert closures[2].rows == frozen.A2

    def test_accessors_and_bounds(self, a, b):
        assert chain_sum(a, b, 2) == chain_sums(a, b)[2]
        assert closure_sum(a, b, 1) == closure_sums(a, b)[1]
        with pytest.raises(IndexOutOfRange):
            chain_sum(a, b, 4)
        with pytest.raises(IndexOutOfRange):
            closure_sum(a, b, 3)

    def test_chain_links_to_closure(self, a, b):
        chains = chain_sums(a, b)
        closures = closure_sums(a, b)
        for k in range(3):
            assert chains[k + 1] == a @ closures[k]

    def test_zero_b_collapses_to_powers(self, a):
        z = Matrix.zeros(3, 3)
        chains = chain_sums(a, z)
        closures = closure_sums(a, z)
        for k in range(4):
            assert chains[k] == a.power(k)
        for k in range(3):
            assert closures[k] == a.power(k)

    def test_chains_dominate_powers(self, a, b):
        chains = chain_sums(a, b)
        for k in range(4):
            assert a.power(k).leq(chains[k])


class TestVectors:
    def test_regularity(self):
        assert Vector((1, NEG, 2)).is_regular() is False
        assert Vector((1, 0, 2)).is_regular() is True
        assert Vector((NEG, NEG)).is_zero() is True

    def test_conj_round_trip(self):
        x = Vector((3, Fraction(1, 2)))
        assert x.conj().conj() == x

    def test_conj_on_all_zero_rejected(self):
        with pytest.raises(AllZeroVector):
            Vector((NEG, NEG)).conj()

    def test_row_times_column_is_scalar(self):
        row = RowVector((1, 2))
        col = Vector((3, NEG))
        assert row @ col == 4

    def test_row_times_matrix(self, a):
        qc = Vector(frozen.Q).conj()
        assert (qc @ a).entries == (1, 1, 2)

    def test_meet(self):
        x = Vector((5, 1))
        y = Vector((2, 3))
        assert x.meet(y).entries == (2, 1)

    def test_leq(self):
        assert Vector((1, 2)).leq(Vector((1, 3)))
        assert not Vector((1, 4)).leq(Vector((1, 3)))

    def test_outer(self):
        m = outer(Vector((1, 0)), RowVector((2, NEG)))
        assert m.rows == ((3, NEG), (2, NEG))

    def test_vector_identities(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.choice((2, 3, 4))
            x = Vector(tuple(rng.randint(-9, 9) for _ in range(n)))
            assert x.conj() @ x == 0
            assert Matrix.identity(n).leq(outer(x, x.conj()))


matrices_2x2 = st.lists(
    st.lists(
        st.one_of(st.integers(-9, 9), st.just(NEG)), min_size=2, max_size=2
    ),
    min_size=2,
    max_size=2,
).map(lambda rows: Matrix(tuple(tuple(r) for r in rows)))


@given(matrices_2x2, matrices_2x2, matrices_2x2)
def test_matmul_associates(x, y, z):
    assert (x @ y) @ z == x @ (y @ z)


@given(matrices_2x2, matrices_2x2, matrices_2x2)
def test_matmul_distributes_over_add(x, y, z):
    assert x @ (y + z) == x @ y + x @ z


@given(matrices_2x2)
def test_identity_is_neutral(x):
    eye = Matrix.identity(2)
    assert eye @ x == x
    assert x @ eye == x


def _reference_closure_sums(a: Matrix, b: Matrix) -> list[Matrix]:
    """The closure recurrence at the Matrix level, one product per term."""
    eye = Matrix.identity(a.n_rows, a.sf)
    step = eye + b
    out = [eye]
    for _ in range(a.n_rows - 1):
        out = (
            [out[0] @ step]
            + [t @ step + prev @ a for prev, t in zip(out, out[1:])]
            + [out[-1] @ a]
        )
    return out


def _reference_powers(a: Matrix, top: int) -> list[Matrix]:
    out = [Matrix.identity(a.n_rows, a.sf)]
    for _ in range(top):
        out.append(out[-1] @ a)
    return out


def _typed(values) -> list:
    """Each scalar with its type and repr, so that 3 and Fraction(3)
    or 0.0 and -0.0 differ."""
    return [(type(x), repr(x)) for x in values]


def _typed_rows(m: Matrix) -> list:
    return _typed(x for row in m.rows for x in row)


# ints and Fractions (some whole, so that ties can mix the two types) or
# floats, each with the tropical zero
_exact_entries = st.one_of(
    st.integers(-6, 6), st.fractions(-6, 6, max_denominator=3), st.just(NEG)
)
_float_entries = st.one_of(
    st.floats(-6, 6).map(lambda x: round(x * 4) / 4), st.just(NEG)
)
square_pairs = st.tuples(
    st.integers(1, 5), st.sampled_from([_exact_entries, _float_entries])
).flatmap(
    lambda nk: st.lists(
        st.lists(st.lists(nk[1], min_size=nk[0], max_size=nk[0]),
                 min_size=nk[0], max_size=nk[0]),
        min_size=2, max_size=2,
    ).map(lambda pair: (Matrix(pair[0]), Matrix(pair[1])))
)


@given(square_pairs)
def test_table_kernels_match_matrix_level_recurrences(pair):
    """closure_sums, powers and row-vector products on finite-entry
    tables give the Matrix-level results entry for entry, types and
    reprs included."""
    a, b = pair
    n = a.n_rows
    for ours, ref in zip(closure_sums(a, b), _reference_closure_sums(a, b), strict=True):
        assert _typed_rows(ours) == _typed_rows(ref)
    for ours, ref in zip(a.powers(n), _reference_powers(a, n), strict=True):
        assert _typed_rows(ours) == _typed_rows(ref)
    for i in range(n):
        row = b.row(i)
        assert _typed((row @ a).entries) == _typed((Matrix((row.entries,)) @ a).rows[0])
        col = a.column(i)
        assert _typed([row @ col]) == _typed([(Matrix((row.entries,)) @ col).entries[0]])


# -- differential tests of the product and star kernels --------------------
#
# The references below are the definitions, one Semifield call per
# scalar, kept apart from the kernels they check.


def _ref_product(left, right, sf=MAXPLUS):
    """Rows of left @ right as sf.sum over sf.mul, column by column."""
    cols = tuple(zip(*right))
    return tuple(
        tuple(sf.sum(sf.mul(a, b) for a, b in zip(row, col)) for col in cols)
        for row in left
    )


def _ref_star(a: Matrix) -> tuple:
    """I (+) A (I (+) A (... (I (+) A))), n-1 products deep."""
    sf, n = a.sf, a.n_rows
    eye = Matrix.identity(n, sf).rows
    acc = eye
    for _ in range(n - 1):
        prod = _ref_product(a.rows, acc, sf)
        acc = tuple(
            tuple(sf.add(x, y) for x, y in zip(ri, rp)) for ri, rp in zip(eye, prod)
        )
    return acc


def _has_positive_cycle(a: Matrix) -> bool:
    """Some diagonal entry of A (+) A^2 (+) ... (+) A^n exceeds one."""
    sf, n = a.sf, a.n_rows
    power = a.rows
    for _ in range(n):
        if any(power[i][i] > sf.one for i in range(n)):
            return True
        power = _ref_product(power, a.rows, sf)
    return False


def _scalar(rng, kinds=("int", "fraction", "float")):
    """About 40% zeros; finite entries an int, a Fraction or a float,
    with -0.0 among the floats."""
    if rng.random() < 0.4:
        return NEG
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    return rng.choice((-0.0, 0.0, rng.uniform(-9, 9)))


def _table(rng, n_rows, n_cols, kinds=("int", "fraction", "float")):
    rows = [[_scalar(rng, kinds) for _ in range(n_cols)] for _ in range(n_rows)]
    if rng.random() < 0.3:
        rows[rng.randrange(n_rows)] = [NEG] * n_cols
    if rng.random() < 0.3:
        j = rng.randrange(n_cols)
        for r in rows:
            r[j] = NEG
    return tuple(tuple(r) for r in rows)


def test_product_matches_semifield_reference():
    rng = random.Random(41)
    for _ in range(600):
        r, k, c = (rng.randint(1, 8) for _ in range(3))
        left, right = _table(rng, r, k), _table(rng, k, c)
        a, b = Matrix(left), Matrix(right)
        col = Vector(tuple(row[0] for row in right))
        row = RowVector(left[0])
        got = (a @ b, a @ col, row @ b, row @ col)
        want = _ref_product(left, right)
        want_col = _ref_product(left, tuple((x,) for x in col.entries))
        assert repr(got[0]) == repr(Matrix(want))
        assert repr(got[1]) == repr(Vector(tuple(w[0] for w in want_col)))
        assert repr(got[2]) == repr(RowVector(want[0]))
        assert repr(got[3]) == repr(want_col[0][0])


def _star_case(rng, top=7):
    """A random square matrix of order 1..top: half with cycle weights
    at most zero (arcs under a potential, ties and zero-weight cycles
    common), half free, which mostly has positive cycles."""
    n = rng.randint(1, top)
    kinds = rng.choice((("int", "fraction"), ("float",)))
    rows = _table(rng, n, n, kinds)
    if rng.random() < 0.5:
        pot = [rng.randint(-5, 5) for _ in range(n)]
        rows = tuple(
            tuple(
                v if v == NEG else pot[j] - pot[i] - rng.choice((0, 0, abs(v)))
                for j, v in enumerate(r)
            )
            for i, r in enumerate(rows)
        )
    sf = MAXPLUS if kinds != ("float",) else MAXPLUS
    return Matrix(rows, sf), kinds != ("float",)


def _exact_copy(a: Matrix) -> Matrix:
    """a with each finite entry as the Fraction it is."""
    return Matrix(tuple(tuple(v if v == NEG else Fraction(v) for v in r) for r in a.rows))


def _rounded(rows) -> tuple:
    """Each finite value of the rows as the nearest float."""
    return tuple(tuple(v if v == NEG else float(v) for v in r) for r in rows)


def test_star_matches_literal_sum():
    # exact data give the literal sum; data with a float entry its value
    # on the entries' own values, rounded once, with a float one on the
    # diagonal (the potential draws mix whole ints into float data)
    rng = random.Random(43)
    positive = 0
    for _ in range(1200):
        a, _ = _star_case(rng)
        got = a.star()
        floating = any(type(v) is float for r in a.rows for v in r if v != NEG)
        if floating:
            assert repr(got.rows) == repr(_rounded(_ref_star(_exact_copy(a))))
        else:
            assert got.rows == _ref_star(a)
        if _has_positive_cycle(a):
            positive += 1
        else:
            for i in range(a.n_rows):
                d = got.rows[i][i]
                assert repr(d) == ("0.0" if floating else "0")
    assert 200 < positive < 1000


def _ref_trace_sum(a: Matrix):
    """tr A (+) tr A^2 (+) ... (+) tr A^n from the definition."""
    sf, n = a.sf, a.n_rows
    acc, power = sf.zero, a.rows
    for _ in range(n):
        acc = sf.add(acc, sf.sum(power[i][i] for i in range(n)))
        power = _ref_product(power, a.rows, sf)
    return acc


def test_trace_sum_matches_power_traces():
    rng = random.Random(53)
    positive = 0
    for _ in range(1200):
        a, _ = _star_case(rng, top=8)
        got = a.trace_sum()
        if any(type(v) is float for r in a.rows for v in r if v != NEG):
            want = _ref_trace_sum(_exact_copy(a))
            assert repr(got) == repr(want if want == NEG else float(want))
        else:
            assert got == _ref_trace_sum(a)
        positive += _has_positive_cycle(a)
    assert positive >= 200


def test_float_star_and_trace_sum_are_the_rounded_exact_answers():
    # each finite entry times S plus a random fraction in [-1/2, 1/2), in
    # floats, so that zero-weight cycles turn positive or negative: the
    # float star and trace sum are the literal sums on those floats'
    # values, rounded once, with or without a positive cycle
    rng = random.Random(61)
    seen = Counter()
    for i in range(600):
        scale = (1e-1, 1e3, 1.4e8)[i % 3]
        base, _ = _star_case(rng, top=6)
        if all(v == NEG for r in base.rows for v in r):
            continue  # no finite entry: the same draw in either mode
        floats = Matrix(tuple(
            tuple(v if v == NEG else float(v) * scale + rng.random() - 0.5 for v in r)
            for r in base.rows), MAXPLUS)
        exact = _exact_copy(floats)
        assert repr(floats.star().rows) == repr(_rounded(_ref_star(exact))), (i, floats)
        want = _ref_trace_sum(exact)
        assert repr(floats.trace_sum()) == repr(want if want == NEG else float(want)), (i, floats)
        seen["positive" if _has_positive_cycle(exact) else "no positive cycle"] += 1
        seen[scale] += 1
    assert sum(seen[s] for s in (1e-1, 1e3, 1.4e8)) >= 500, seen
    assert min(seen.values()) > 100, seen


def test_star_without_a_positive_cycle_makes_one_pass(monkeypatch):
    # one Floyd-Warshall pass over the zero-bordered table of order n+1,
    # pivots at the n nodes, and no power sum
    passes = []
    kernel = linalg._floyd_warshall

    def counted(d, stop, zero, start=0):
        passes.append((len(d), start, stop))
        return kernel(d, stop, zero, start)

    def refused(self, m):
        raise AssertionError("power sum taken")

    monkeypatch.setattr(linalg, "_floyd_warshall", counted)
    monkeypatch.setattr(Matrix, "power", refused)
    for a in (Matrix(frozen.B_ROWS), Matrix(((-0.5, NEG), (1.0, -0.25)), MAXPLUS)):
        n = a.n_rows
        for closure in (a.star, a.trace_sum):
            del passes[:]
            closure()
            assert passes == [(n + 1, 0, n)], closure


def _family_pair(rng):
    """(A, B) of one order 1..5, int and Fraction entries about 35%
    zero; a tenth of the draws have B, a tenth A, all zero."""
    n = rng.randint(1, 5)

    def entry():
        if rng.random() < 0.35:
            return NEG
        if rng.random() < 0.5:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 5))

    def draw():
        return Matrix(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))

    a, b = draw(), draw()
    roll = rng.random()
    if roll < 0.1:
        b = Matrix.zeros(n, n)
    elif roll < 0.2:
        a = Matrix.zeros(n, n)
    return a, b


def test_families_match_word_enumeration():
    rng = random.Random(59)
    for draw in range(520):
        a, b = _family_pair(rng)
        n = a.n_rows
        chains, closures = chain_sums(a, b), closure_sums(a, b)
        assert len(chains) == n + 1 and len(closures) == n
        for k in range(n + 1):
            assert chains[k].rows == enum_chain_sum(a, b, k).rows, (draw, k)
        for k in range(n):
            assert closures[k].rows == enum_closure_sum(a, b, k).rows, (draw, k)


def test_vector_orientations_stay_apart(a):
    col, row = Vector((1,)), RowVector((1,))
    assert (col == row) is False and (row == col) is False
    with pytest.raises(TypeError):
        col + row
    with pytest.raises(TypeError):
        row + col
    with pytest.raises(TypeError):
        a @ RowVector((0, 0, 0))
    x = Vector((3, NEG, Fraction(1, 2)))
    assert type(x.conj()) is RowVector
    assert type(x.conj().conj()) is Vector
    assert type(x.conj().conj().conj()) is RowVector
    assert repr(x) == "Vector([3, -inf, Fraction(1, 2)])"
    assert repr(x.conj()) == "RowVector([-3, -inf, Fraction(-1, 2)])"
    for cls, empty, all_zero in (
        (Vector, "a vector needs at least one entry", "conjugate of the all-zero vector"),
        (RowVector, "a row vector needs at least one entry", "conjugate of the all-zero row"),
    ):
        with pytest.raises(ShapeMismatch) as err:
            cls(())
        assert str(err.value) == empty
        with pytest.raises(AllZeroVector) as err:
            cls((NEG, NEG)).conj()
        assert str(err.value) == all_zero


def test_kernels_make_no_semifield_calls(monkeypatch):
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    for name, fn in list(vars(Semifield).items()):
        if callable(fn) and not name.startswith("__"):
            monkeypatch.setattr(Semifield, name, counting(fn))
    rng = random.Random(47)
    pot = [rng.randint(-5, 5) for _ in range(6)]
    a = Matrix(
        tuple(
            tuple(NEG if rng.random() < 0.3 else pot[j] - pot[i] - rng.randint(0, 3)
                  for j in range(6))
            for i in range(6)
        )
    )
    b = Matrix(_table(rng, 6, 6, ("int", "fraction")))
    x = Vector(tuple(rng.randint(-9, 9) for _ in range(6)))
    y = x.conj()
    z = Vector(tuple(rng.randint(-9, 9) for _ in range(6)))
    assert not _has_positive_cycle(a)
    calls.clear()
    a @ b, a @ x, y @ a, y @ x, a.star(), a + b, x + z
    x.scale(2), x.scale(NEG), x.conj(), x.meet(z), x.is_regular(), x.is_zero()
    b.scale(-1), b.conj(), b.is_column_regular(), linalg._scaled_sum(3, a, b)
    assert calls == []


# -- spectral radius: Karp's formula against the former definition ---------


def _ref_spectral_radius(a: Matrix):
    """The former definition: (+) over k of tr(A^k)^(1/k), from the
    matrix powers A, A^2, ..., A^n."""
    sf, n = a.sf, a.n_rows
    acc = sf.zero
    for k, p in enumerate(a.powers(n)[1:], start=1):
        t = p.trace()
        if not sf.is_zero(t):
            acc = sf.add(acc, sf.power(t, Fraction(1, k)))
    return acc


_MIXES = (("int",), ("int", "fraction"), ("float",), ("int", "float"))


def _radius_case(rng, i):
    """Order 1..8 (8 on every 40th draw, where cycle enumeration is
    slow), about 40% zeros; exact draws hold ints or ints and
    Fractions, float draws floats or floats and ints."""
    n = 8 if i % 40 == 0 else rng.randint(1, 7)
    kinds = rng.choice(_MIXES)
    exact = "float" not in kinds
    sf = MAXPLUS if exact else MAXPLUS
    return Matrix(_table(rng, n, n, kinds), sf), exact


def _close(x, y) -> bool:
    """Equal, or finite floats within 1e-9: float arithmetic in the
    reference, against the library's correctly rounded answer."""
    return x == y or abs(x - y) <= 1e-9


def _once(lam, value):
    """The exact value as the library answers it: itself on exact data,
    rounded once to a float on float data."""
    return float(value) if isinstance(lam, float) else value


def _as_fractions(a: Matrix) -> Matrix:
    return Matrix(
        tuple(tuple(v if v == NEG else Fraction(v) for v in r) for r in a.rows)
    )


def test_spectral_radius_matches_power_traces_and_cycle_enumeration():
    rng = random.Random(61)
    whole = 0
    for i in range(1000):
        a, exact = _radius_case(rng, i)
        got = a.spectral_radius()
        want, enum = _ref_spectral_radius(a), max_cycle_mean(_as_fractions(a))
        if exact:
            assert got == want == enum, (i, a)
            if got != NEG and Fraction(got).denominator == 1:
                assert type(got) is int, (i, a)
                whole += 1
        else:
            assert (got == NEG) == (want == NEG) == (enum == NEG), (i, a)
            assert got == float(enum) and _close(got, want), (i, a)
    assert whole > 200


def test_witness_cycle_has_the_radius_as_its_mean():
    rng = random.Random(67)
    acyclic = 0
    for i in range(1200):
        a, exact = _radius_case(rng, i)
        lam, nodes = _max_cycle(a)
        assert lam == a.spectral_radius()
        if not nodes:
            assert lam == NEG
            acyclic += 1
            continue
        assert len(set(nodes)) == len(nodes)
        arcs = [a.rows[u][v] for u, v in zip(nodes, nodes[1:] + nodes[:1])]
        assert NEG not in arcs
        if exact:
            assert Fraction(sum(arcs), len(arcs)) == lam, (i, a, nodes)
        else:
            assert _close(sum(arcs) / len(arcs), lam), (i, a, nodes)
    assert 50 < acyclic < 600


def test_witness_of_the_bundled_project(a):
    lam, nodes = _max_cycle(a)
    assert lam == frozen.SPECTRAL_RADIUS_A and type(lam) is int
    assert nodes and set(nodes) <= frozen.CRITICAL_NODES_A


# -- Karp's early exit at a finite left eigenvector ------------------------


def _eigen_step(a: Matrix):
    """The first k <= n at which D_k and D_(k-1) are finite at the same
    nodes, at least one, and D_k - D_(k-1) is one constant there, from
    plain maxima of walk sums on the exact values of the entries, as
    Karp's kernel sums them; None when no step qualifies."""
    rows, n = _as_fractions(a).rows, a.n_rows
    d = [0] * n
    for k in range(1, n + 1):
        e = [
            max((d[u] + rows[u][j] for u in range(n) if d[u] != NEG and rows[u][j] != NEG),
                default=NEG)
            for j in range(n)
        ]
        support = [v for v in range(n) if e[v] != NEG]
        if (support and support == [v for v in range(n) if d[v] != NEG]
                and len({e[v] - d[v] for v in support}) == 1):
            return k
        d = e
    return None


def _near_range_case(rng):
    """Order 1..6, entries of either sign within a factor 180 of the
    largest float, about 30% zeros."""
    n = rng.randint(1, 6)
    rows = tuple(
        tuple(NEG if rng.random() < 0.3 else rng.choice((-1, 1)) * rng.uniform(1e306, _M)
              for _ in range(n))
        for _ in range(n)
    )
    return Matrix(rows, MAXPLUS)


@pytest.fixture
def karp_tails(monkeypatch):
    """Records, per `_max_cycle` call that finds a cycle, whether the
    witness came from the early exit (True) or the full formula."""
    taken = []
    tail = linalg._cycle_mean

    def recording(rows, steps, v, sf):
        taken.append(isinstance(steps, itertools.repeat))
        return tail(rows, steps, v, sf)

    monkeypatch.setattr(linalg, "_cycle_mean", recording)
    return taken


def test_early_exit_fires_where_an_eigenvector_is_found(karp_tails):
    rng = random.Random(97)
    branches = {True: 0, False: 0}
    for i in range(1200):
        # order at most 7, where cycle enumeration is fast
        if i % 4 == 3:
            a, exact, rel = _near_range_case(rng), False, Fraction(1, 10**12)
        else:
            (a, exact), rel = _radius_case(rng, 1), None
        karp_tails.clear()
        lam, nodes = _max_cycle(a)
        enum = max_cycle_mean(_as_fractions(a))
        if enum == NEG:
            assert lam == NEG and nodes == () and karp_tails == [], (i, a)
            continue
        early = _eigen_step(a) is not None
        assert karp_tails == [early], (i, a)
        branches[early] += 1
        assert len(set(nodes)) == len(nodes)
        arcs = [Fraction(a.rows[u][v]) for u, v in zip(nodes, nodes[1:] + nodes[:1])]
        mean = sum(arcs) / len(arcs)
        if exact:
            assert lam == enum == mean, (i, a, nodes)
        elif rel is None:
            assert lam == float(enum) == float(mean), (i, a, nodes)
        else:
            assert abs(Fraction(lam) - enum) <= rel * abs(enum), (i, a, lam)
            assert abs(Fraction(lam) - mean) <= rel * abs(mean), (i, a, nodes)
    assert branches[True] >= 100 and branches[False] >= 100, branches


def test_periodic_and_reducible_matrices_take_the_full_formula(karp_tails):
    # cyclicity 2: D_k alternates between (0, 1) and (1, 1) shapes and
    # never grows by one constant
    a = Matrix(((NEG, 1), (0, NEG)))
    assert _eigen_step(a) is None
    lam, nodes = _max_cycle(a)
    assert lam == Fraction(1, 2) and set(nodes) == {0, 1}
    assert karp_tails == [False]
    # two loops of unequal means that no arc joins: D_k grows by 2 at
    # one node and by 1 at the other, at every step
    for rows in (((2, NEG), (NEG, 1)), ((NEG, 2, NEG), (0, NEG, NEG), (NEG, NEG, 1))):
        a = Matrix(rows)
        assert _eigen_step(a) is None
        karp_tails.clear()
        lam, nodes = _max_cycle(a)
        assert lam == max_cycle_mean(a) and karp_tails == [False], rows


def test_a_node_without_arcs_into_it_leaves_the_early_exit_open(karp_tails):
    # a column of zeros keeps D_k infinite there from step 1 on; the
    # exit compares the nodes where the walks are finite
    rng = random.Random(101)
    early = 0
    for i in range(200):
        a, _ = _radius_case(rng, 1)
        j = rng.randrange(a.n_rows)
        a = Matrix(tuple(r[:j] + (NEG,) + r[j + 1:] for r in a.rows), a.sf)
        karp_tails.clear()
        lam, nodes = _max_cycle(a)
        step = _eigen_step(a)
        assert karp_tails == ([step is not None] if nodes else []), (i, a)
        assert lam == _once(lam, max_cycle_mean(_as_fractions(a)))
        if nodes:
            arcs = [Fraction(a.rows[u][v]) for u, v in zip(nodes, nodes[1:] + nodes[:1])]
            assert lam == _once(lam, sum(arcs) / len(arcs)), (i, a, nodes)
        early += step is not None
    assert early >= 50, early


def test_spectral_radius_builds_no_matrix_product(monkeypatch):
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(linalg, "_product", counting(linalg._product))
    for name in ("__matmul__", "power"):
        monkeypatch.setattr(Matrix, name, counting(getattr(Matrix, name)))
    m = random_matrix(random.Random(71), 8, zero_p=0.4)
    assert m.spectral_radius() == max_cycle_mean(m)
    assert calls == []
    m @ m
    assert calls == ["__matmul__", "_product"]


# -- float range: near M the walk runs on the entries' exact ints -------

_M = sys.float_info.max


def _assert_near_exact(a: Matrix, rel=Fraction(1, 10**12)):
    """The float radius is within `rel` of Karp's radius on Fraction
    copies of the entries, which is exact."""
    lam, exact = a.spectral_radius(), _as_fractions(a).spectral_radius()
    if exact == NEG:
        assert lam == NEG, a
    else:
        assert abs(Fraction(lam) - exact) <= rel * abs(exact), (a, lam)


def test_near_range_walk_sums_get_the_exact_radius():
    # each walk sum of two or three arcs leaves the float range; the
    # radius does not
    big = 1e308
    for rows in (
        ((big, NEG), (NEG, 0)),
        ((big, big), (big, -big)),
        ((-big, NEG), (NEG, NEG)),
        ((NEG, -big), (-big, NEG)),
        ((NEG, -big, -1.79e308), (big, NEG, NEG), (big, 1.5e308, NEG)),
    ):
        _assert_near_exact(Matrix(rows, MAXPLUS))
    # the witness (2, 1, 0) has weight -5e307: its running sum
    # -5e307 - 1.79e308 leaves the float range, not the int one
    rows = ((NEG, 0.0, 1.79e308), (-1.79e308, NEG, -1.5e308),
            (NEG, -5e307, -1e308))
    lam, nodes = _max_cycle(Matrix(rows, MAXPLUS))
    assert nodes == (2, 1, 0) and lam == pytest.approx(-5e307 / 3, rel=1e-12)
    assert Matrix(((big,),), MAXPLUS).spectral_radius() == big
    assert Matrix(((-_M, NEG), (NEG, _M)), MAXPLUS).spectral_radius() == _M


def test_infinite_entry_is_named():
    # +inf is a product that overflowed before it got here, even on an
    # arc of no cycle
    for rows in (((INF,),), ((NEG, INF), (NEG, NEG)), ((0.0, 1.0), (INF, NEG))):
        with pytest.raises(ValueError, match="^float overflow: a result is \\+inf$"):
            Matrix(rows, MAXPLUS).spectral_radius()


def test_radius_scales_by_powers_of_two():
    # lambda(2^k A) = 2^k lambda(A), bit for bit and with the same
    # witness, also where 2^k A nears the end of the float range
    rng = random.Random(83)
    near = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        e = rng.randint(4, 16)
        rows = tuple(
            tuple(NEG if rng.random() < 0.3 else math.ldexp(rng.uniform(-1, 1), 1024 - e)
                  for _ in range(n))
            for _ in range(n)
        )
        lam, nodes = _max_cycle(Matrix(rows, MAXPLUS))
        k = rng.randint(0, e - 1)
        top = max((abs(w) for r in rows for w in r if w != NEG), default=0.0)
        near += math.ldexp(top, k) > _M / (2 * n * n)
        big = tuple(tuple(math.ldexp(w, k) for w in r) for r in rows)
        got = _max_cycle(Matrix(big, MAXPLUS))
        assert repr(got) == repr((math.ldexp(lam, k), nodes)), (rows, k)
    assert near > 300


def test_extreme_range_matches_exact_karp():
    rng = random.Random(89)
    for _ in range(2000):
        n = rng.randint(1, 5)
        zero_p = rng.choice((0.0, 0.3, 0.6))
        rows = tuple(
            tuple(NEG if rng.random() < zero_p else rng.choice((-1, 1)) * rng.uniform(1e307, _M)
                  for _ in range(n))
            for _ in range(n)
        )
        _assert_near_exact(Matrix(rows, MAXPLUS))


def test_whole_number_solve_stays_in_ints(general_problem):
    result = solve_problem(general_problem)
    assert result.minimum == frozen.THETA and type(result.minimum) is int
    sols = result.solutions
    entries = [v for r in sols.generator.rows for v in r]
    entries += list(sols.lower.entries) + list(sols.upper.entries)
    entries += list(result.canonical.entries)
    assert not any(isinstance(v, Fraction) for v in entries)
    rng = random.Random(73)
    whole = 0
    for _ in range(300):
        prob = sample_problem(rng, rng.choice(list(ProblemKind)))
        try:
            result = solve_problem(prob)
        except TroptError:
            continue
        if Fraction(result.minimum).denominator != 1:
            continue
        whole += 1
        assert type(result.minimum) is int
        gen = result.solutions.generator
        assert not any(isinstance(v, Fraction) for r in gen.rows for v in r)
    assert whole > 100


# -- entrywise helpers with the max-plus rules inlined -------------------


def test_conj_names_an_infinite_entry():
    # the all-zero vector's AllZeroVector is pinned in
    # test_vector_orientations_stay_apart
    for value in (
        Vector((1, INF)),
        RowVector((INF, NEG)),
        Matrix(((0, NEG), (INF, 2))),
    ):
        with pytest.raises(ValueError, match="^float overflow: a result is \\+inf$"):
            value.conj()
    assert Matrix(((NEG, NEG),)).conj().rows == ((NEG,), (NEG,))


def test_scale_meet_and_regularity_keep_the_semifield_rules():
    assert Vector((1, NEG, Fraction(1, 2))).scale(NEG).entries == (NEG,) * 3
    assert RowVector((0, 2.5)).scale(NEG).entries == (NEG, NEG)
    assert Matrix(((1, NEG), (0, 3))).scale(NEG).rows == ((NEG, NEG),) * 2
    got = Vector((1, 2.0, NEG)).meet(Vector((1.0, 2, 0)))
    assert repr(got) == "Vector([1, 2.0, -inf])"
    got = RowVector((1.0, 3)).meet(RowVector((1, 2)))
    assert repr(got) == "RowVector([1.0, 2])"
    assert not Vector((0, NEG)).is_regular() and Vector((0, -0.0)).is_regular()
    assert not Vector((1, NEG)).is_zero() and RowVector((NEG,)).is_zero()
    assert not Matrix(((1, NEG, 2), (0, NEG, NEG))).is_column_regular()
    assert Matrix(((NEG, NEG, 2), (0, -0.0, NEG))).is_column_regular()
    assert Matrix(((NEG,),)).is_column_regular() is False


def test_helpers_match_their_semifield_definitions():
    rng = random.Random(103)
    sf = MAXPLUS
    for _ in range(400):
        n = rng.randint(1, 6)
        x, y = (tuple(_scalar(rng) for _ in range(n)) for _ in range(2))
        c = _scalar(rng)
        col, other = Vector(x), Vector(y)
        assert repr(col.scale(c)) == repr(Vector(tuple(sf.mul(c, v) for v in x)))
        assert repr(col.meet(other)) == repr(Vector(tuple(map(sf.meet, x, y))))
        assert col.is_regular() == all(not sf.is_zero(v) for v in x)
        assert col.is_zero() == all(sf.is_zero(v) for v in x)
        if not col.is_zero():
            want = tuple(sf.zero if sf.is_zero(v) else sf.inv(v) for v in x)
            assert repr(col.conj()) == repr(RowVector(want))
        a, b = Matrix(_table(rng, n, n)), Matrix(_table(rng, n, n))
        want = tuple(tuple(sf.mul(c, v) for v in r) for r in a.rows)
        assert repr(a.scale(c)) == repr(Matrix(want))
        summed = tuple(tuple(map(sf.add, r, s)) for r, s in zip(want, b.rows))
        assert repr(linalg._scaled_sum(c, a, b)) == repr(Matrix(summed))
        want = tuple(
            tuple(sf.zero if sf.is_zero(v) else sf.inv(v) for v in col)
            for col in zip(*a.rows)
        )
        assert repr(a.conj()) == repr(Matrix(want))
        assert a.is_column_regular() == all(
            any(not sf.is_zero(v) for v in col) for col in zip(*a.rows)
        )


def test_kernel_tables_are_built_rectangular(a, b):
    # the kernels hand their tables to Matrix unchecked; each must be
    # the tuple of equal-length tuples that Matrix(...) would make
    results = [a @ b, a.star(), a + b, a.scale(2), a.conj(), linalg._scaled_sum(1, a, b)]
    results += a.powers(3) + closure_sums(a, b)
    for m in results:
        assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
        assert m.rows == Matrix(m.rows).rows and len({len(r) for r in m.rows}) == 1


def test_trace_product_matches_the_product_trace():
    rng = random.Random(79)
    for _ in range(800):
        n = rng.randint(1, 7)
        kinds = rng.choice(_MIXES)
        left, right = (Matrix(_table(rng, n, n, kinds)) for _ in range(2))
        if rng.random() < 0.1:
            left = Matrix.zeros(n, n)
        got = _trace_product(left, right)
        assert repr(got) == repr((left @ right).trace())


# -- the no-cycle test: Kahn's algorithm against Karp -----------------------


def _acyclic_draws(rng: random.Random):
    """(label, matrix) pairs: sample draws' A and B, and acyclic,
    self-loop, zero-weight-cycle, negative-cycle and all-zero ones."""
    kinds = list(ProblemKind)
    for i in range(600):
        prob = sample_problem(rng, kinds[i % 6], rng.randint(1, 6))
        yield "sample", prob.A
        if prob.B is not None:
            yield "sample", prob.B
    for _ in range(150):
        n = rng.randint(1, 7)
        # arcs only from an earlier to a later node of a random order
        order = rng.sample(range(n), n)
        rows = [[NEG] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    rows[order[i]][order[j]] = rng.randint(-5, 5)
        yield "acyclic", Matrix(rows)
        loop = [list(r) for r in rows]
        k = rng.randrange(n)
        loop[k][k] = rng.choice((-3, 0, 3))
        yield "self-loop", Matrix(loop)
        if n > 1:
            # the order closed into its one cycle, of weight 0 or below
            for label, shift in (("zero-weight", 0), ("negative", rng.randint(1, 4))):
                closed = [[NEG] * n for _ in range(n)]
                for u, v in zip(order, order[1:]):
                    closed[u][v] = 1
                closed[order[-1]][order[0]] = 1 - n - shift
                yield label, Matrix(closed)
        yield "all-zero", Matrix([[NEG] * n for _ in range(n)])


def test_acyclic_matches_a_zero_spectral_radius():
    # lambda(A) is zero exactly when A's arcs close no cycle: a self-loop
    # is a cycle, and so is one of weight zero or below.  On a bordered
    # table only the corner's arcs count
    rng = random.Random(151)
    seen = {}
    for label, a in _acyclic_draws(rng):
        n = a.n_rows
        want = a.spectral_radius() == NEG
        assert linalg._acyclic(linalg._finite(a.rows, NEG), n) is want, (label, a)
        bordered = [list(r) + [rng.randint(-5, 5)] for r in a.rows]
        bordered.append([rng.randint(-5, 5) for _ in range(n + 1)])
        assert linalg._acyclic(linalg._finite(bordered, NEG), n) is want, (label, a)
        seen.setdefault(label, set()).add(want)
    assert seen == {
        "sample": {True, False}, "acyclic": {True}, "self-loop": {False},
        "zero-weight": {False}, "negative": {False}, "all-zero": {True},
    }, seen


# -- _scan: each finite entry read once, listed once -----------------------


def _two_pass_scan(matrices, zero):
    """`linalg._scan` as it was before it read each entry once: one walk
    lists the entries and collects the denominators, and the scaled
    tables are read again, entry by entry, and listed again."""
    nzs, dens, floating = [], set(), False
    for m in matrices:
        nz = []
        for row in m.rows:
            out = []
            for j, v in enumerate(row):
                if v != zero:
                    if type(v) is not int:
                        floating = floating or type(v) is float
                        if type(v) is not float or not v.is_integer():
                            dens.add(v.as_integer_ratio()[1])
                    out.append((j, v))
            nz.append(out)
        nzs.append(nz)
    if not (floating or dens):
        return tuple(matrices), nzs, 1, False
    scale = math.lcm(*dens)

    def whole(v):
        if v == zero:
            return v
        if scale == 1:
            return int(v)
        m, d = v.as_integer_ratio()
        return m * (scale // d)

    matrices = tuple(Matrix(tuple(tuple(map(whole, r)) for r in m.rows), m.sf) for m in matrices)
    return matrices, [linalg._finite(m.rows, zero) for m in matrices], scale, floating


class _Counted(Fraction):
    """A Fraction that counts its `as_integer_ratio` reads."""

    reads = 0

    def as_integer_ratio(self):
        _Counted.reads += 1
        return super().as_integer_ratio()


_SCAN_ENTRIES = {
    "int": lambda rng: rng.randint(-90, 90),
    "decimal": lambda rng: Fraction(rng.randint(-900, 900), rng.choice((1, 7, 10, 100))),
    "whole float": lambda rng: float(rng.randint(-90, 90)),
    "float tenths": lambda rng: rng.randint(-900, 900) / 10,
    "1.4e8 and a fraction": lambda rng: 1.4e8 + rng.randint(-9, 9) / 10,
    "int or float tenths": lambda rng: rng.choice((rng.randint(-9, 9), rng.randint(-90, 90) / 10)),
}


@pytest.mark.parametrize("label", list(_SCAN_ENTRIES))
def test_scan_matches_a_two_pass_scan(label):
    rng = random.Random(f"scan/{label}")
    entry = _SCAN_ENTRIES[label]
    for draw in range(80):
        n = rng.randint(1, 6)
        pair = tuple(
            Matrix(tuple(tuple(NEG if rng.random() < 0.3 else entry(rng) for _ in range(n))
                         for _ in range(n)))
            for _ in range(2)
        )
        got, want = linalg._scan(pair, NEG), _two_pass_scan(pair, NEG)
        assert repr(got) == repr(want), (label, draw, pair)
        # a vector scans as the one row of its entries, by the same D
        col = Vector(tuple(NEG if rng.random() < 0.3 else entry(rng) for _ in range(n)))
        items, lists, scale, _ = linalg._scan(pair + (col, RowVector(col.entries)), NEG)
        ref = _two_pass_scan(pair + (Matrix((col.entries,)),), NEG)
        assert scale == ref[2] and lists[2] == lists[3] == ref[1][2], (label, draw)
        assert [type(x) for x in items[2:]] == [Vector, RowVector], (label, draw)
        assert items[2].entries == items[3].entries == ref[0][2].rows[0], (label, draw)


def test_scan_reads_each_entry_once():
    rng = random.Random(137)
    for _ in range(50):
        n = rng.randint(1, 6)
        rows = tuple(tuple(NEG if rng.random() < 0.3 else _Counted(rng.randint(-90, 90), rng.choice((1, 3, 10)))
                           for _ in range(n)) for _ in range(n))
        _Counted.reads = 0
        (m,), lists, scale, floating = linalg._scan((Matrix(rows),), NEG)
        assert _Counted.reads == sum(v != NEG for r in rows for v in r)
        assert not floating and m.rows == tuple(
            tuple(v if v == NEG else int(v * scale) for v in r) for r in rows)


def test_scan_names_an_infinite_entry():
    for items in ((Matrix(((1.0, INF),)),), (Matrix(((0.5,),)), Vector((INF, 1.0))),
                  (Matrix(((Fraction(1, 3),),)), RowVector((2, INF)))):
        with pytest.raises(ValueError, match="^float overflow: a result is \\+inf$"):
            linalg._scan(items, NEG)
