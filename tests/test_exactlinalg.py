from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from killingtensors.exactlinalg import nullspace, rref_span
from killingtensors.tensors import Endomorphism
from conftest import gauss_jordan_oracle, nullspace_oracle

# mostly zeros, so that sparse rows, empty columns and zero matrices all occur
_ENTRY = st.sampled_from([Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(2),
                                               Fraction(-3, 2), Fraction(1, 3)])


@st.composite
def dense_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


def _columns(rows, ncols, key):
    return {key(j): {r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(ncols)}


ZERO_3X4 = ([[Fraction(0)] * 4 for _ in range(3)], 4)
EMPTY_COLUMNS = ([[Fraction(0), Fraction(1), Fraction(0)],
                  [Fraction(0), Fraction(2), Fraction(0)]], 3)


class TestAgainstDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(dense_matrices())
    @example(ZERO_3X4)
    @example(EMPTY_COLUMNS)
    @example(([], 0))
    def test_nullspace(self, matrix):
        rows, ncols = matrix
        expected = nullspace_oracle(rows, ncols)
        got = nullspace(_columns(rows, ncols, lambda j: j))
        assert [tuple(v.get(j, 0) for j in range(ncols)) for v in got] == expected
        assert all(0 not in v.values() for v in got)

    @settings(max_examples=100, deadline=None)
    @given(dense_matrices())
    def test_nullspace_orders_unknowns_as_given(self, matrix):
        # keys that sort against the given order: the echelon order is the given one
        rows, ncols = matrix
        got = nullspace(_columns(rows, ncols, lambda j: -j))
        assert ([tuple(v.get(-j, 0) for j in range(ncols)) for v in got]
                == nullspace_oracle(rows, ncols))

    @settings(max_examples=300, deadline=None)
    @given(dense_matrices())
    @example(ZERO_3X4)
    @example(EMPTY_COLUMNS)
    def test_rref_span(self, matrix):
        rows, ncols = matrix
        vectors = [{(j,): x for j, x in enumerate(row) if x} for row in rows]
        got = rref_span(vectors)
        assert ([tuple(v.get((j,), 0) for j in range(ncols)) for v in got]
                == gauss_jordan_oracle(rows, ncols)[0])
        assert all(0 not in v.values() for v in got)


# large numerators over pairwise-coprime denominators: every combination
# multiplies numbers of hundreds of bits, so a content left undivided or a
# denominator cleared wrongly shows up as a wrong reduced row
_BIG_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.sampled_from([1, 2, 3, 5, 7, 11, 13])))


@st.composite
def big_matrices(draw, rows=st.integers(0, 6), cols=st.integers(0, 6)):
    nrows, ncols = draw(rows), draw(cols)
    return draw(st.lists(st.lists(_BIG_ENTRY, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


@st.composite
def redundant_matrices(draw):
    """Dense matrices with zero rows, repeated rows and multiples of rows
    spliced in at random places."""
    rows, ncols = draw(dense_matrices())
    for _ in range(draw(st.integers(1, 4))):
        extra = ([Fraction(0)] * ncols if not rows or draw(st.booleans())
                 else [draw(_BIG_ENTRY) * x for x in draw(st.sampled_from(rows))])
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, ncols


def _check(rows, ncols):
    got = rref_span([{j: x for j, x in enumerate(row) if x} for row in rows])
    assert ([tuple(v.get(j, 0) for j in range(ncols)) for v in got]
            == gauss_jordan_oracle(rows, ncols)[0])
    kernel = nullspace(_columns(rows, ncols, lambda j: j))
    assert ([tuple(v.get(j, 0) for j in range(ncols)) for v in kernel]
            == nullspace_oracle(rows, ncols))


class TestFractionFreeElimination:
    @settings(max_examples=150, deadline=None)
    @given(big_matrices())
    def test_large_entries(self, matrix):
        _check(*matrix)

    @settings(max_examples=150, deadline=None)
    @given(redundant_matrices())
    @example(([[Fraction(1), Fraction(2)]] * 3 + [[Fraction(0)] * 2], 2))
    def test_zero_and_repeated_rows(self, matrix):
        _check(*matrix)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(big_matrices(rows=st.integers(1, 3), cols=st.integers(10, 20)),
                     big_matrices(rows=st.integers(10, 20), cols=st.integers(1, 3))))
    def test_wide_and_tall(self, matrix):
        _check(*matrix)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: big_matrices(rows=st.just(n), cols=st.just(n))))
    @example(([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]], 2))
    def test_is_invertible_is_full_oracle_rank(self, matrix):
        rows, n = matrix
        assert (Endomorphism.from_rows(rows).is_invertible()
                == (len(gauss_jordan_oracle(rows, n)[1]) == n))
