from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from killingtensors.exactlinalg import nullspace, rref_span
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
