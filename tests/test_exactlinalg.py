from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

import killingtensors.exactlinalg as el
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

    def test_nullspace_eliminates_once(self, monkeypatch):
        # a 2 x 4 map of rank 2: its two free unknowns span the kernel
        calls = []
        reduce = el._reduce

        def counting(rows, n):
            calls.append(n)
            return reduce(rows, n)

        monkeypatch.setattr(el, "_reduce", counting)
        rows = [[Fraction(1), Fraction(2), Fraction(0), Fraction(-1)],
                [Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2)]]
        got = nullspace(_columns(rows, 4, lambda j: j))
        assert calls == [4]
        assert [tuple(v.get(j, 0) for j in range(4)) for v in got] == nullspace_oracle(rows, 4)

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
        # a square matrix is invertible exactly when its kernel is zero
        rows, n = matrix
        assert ((nullspace(_columns(rows, n, lambda j: j)) == [])
                == (len(gauss_jordan_oracle(rows, n)[1]) == n))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: big_matrices(rows=st.just(n), cols=st.just(n))))
    @example(([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]], 2))
    def test_span_rank_is_the_oracle_rank(self, matrix):
        rows, n = matrix
        assert (len(rref_span([{j: a for j, a in enumerate(row) if a} for row in rows]))
                == len(gauss_jordan_oracle(rows, n)[1]))


# the solvers hand in int columns (``replace_factor`` images) and Fraction
# ones; a row of ints passes through uncleared, a row that mixes both is
# cleared of the Fractions' denominators, and big ints must survive both
_INT_ENTRY = st.one_of(st.sampled_from([0] * 6 + [1, -1, 2, -3]),
                       st.integers(-10**40, 10**40))
_MIXED_ENTRY = st.one_of(_INT_ENTRY, _BIG_ENTRY, _ENTRY)


@st.composite
def typed_matrices(draw, entry):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


class TestIntAndMixedColumns:
    @settings(max_examples=200, deadline=None)
    @given(typed_matrices(_INT_ENTRY))
    @example(([[2, 4], [3, 6]], 2))
    @example(([[10**40, 0, -10**40]], 3))
    def test_int_columns(self, matrix):
        _check(*matrix)

    @settings(max_examples=200, deadline=None)
    @given(typed_matrices(_MIXED_ENTRY))
    @example(([[1, Fraction(1, 2)], [Fraction(2, 3), 10**40]], 2))
    @example(([[Fraction(4), 2], [0, Fraction(-6, 3)]], 2))
    def test_mixed_columns(self, matrix):
        _check(*matrix)

    @settings(max_examples=100, deadline=None)
    @given(typed_matrices(_MIXED_ENTRY))
    def test_kernel_entries_are_fractions_keyed_in_echelon_order(self, matrix):
        rows, ncols = matrix
        for v in nullspace(_columns(rows, ncols, lambda j: j)):
            assert all(type(x) is Fraction for x in v.values())
            lead, *rest = v
            assert v[lead] == 1 and rest == sorted(rest) and all(j > lead for j in rest)


@st.composite
def cascading_matrices(draw):
    """Dense matrices with a planted chain of forced unknowns, spliced in at
    random places: the chain's k-th row holds its own column and only
    earlier chain columns, so it is left with one entry once those are
    forced.  Multiples of chain rows give two singletons on one column and
    rows that the deletions empty.  Other rows may have their entries off
    the chain multiplied by 2, 6 or 10^20 and small chain entries, so that
    their content grows when the chain is deleted from them."""
    rows, ncols = draw(dense_matrices())
    ncols = max(ncols, 1)
    rows = [row + [Fraction(0)] * (ncols - len(row)) for row in rows]
    chain = draw(st.permutations(range(ncols)))[:draw(st.integers(1, ncols))]
    planted = []
    for k, c in enumerate(chain):
        row = [Fraction(0)] * ncols
        row[c] = draw(_BIG_ENTRY.filter(bool))
        for j in chain[:k]:
            row[j] = draw(_ENTRY)
        planted.append(row)
    for row in list(planted):
        if draw(st.booleans()):
            planted.append([draw(_BIG_ENTRY) * x for x in row])
    for row in rows:
        if draw(st.booleans()):
            factor = draw(st.sampled_from([2, 6, 10**20]))
            for j in range(ncols):
                row[j] = row[j] * factor if j not in chain else draw(_ENTRY)
    for row in planted:
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols


def _rows(pattern):
    return [[Fraction(x) for x in row] for row in pattern]


class TestForcedUnknowns:
    @settings(max_examples=300, deadline=None)
    @given(cascading_matrices())
    # a chain: x0 forced, then x1, then x2
    @example((_rows([[0, 0, 5, 3], [2, 0, 0, 0], [0, 7, 0, 4], [1, -3, 0, 0]]), 4))
    # rows emptied by the deletions: the last holds forced columns only
    @example((_rows([[1, 0, 0], [0, -2, 0], [4, 6, 0]]), 3))
    # content grows: 3 x0 + 2 x1 + 4 x2 becomes x1 + 2 x2 once x0 is forced
    @example((_rows([[1, 0, 0, 0], [3, 2, 4, 0], [0, 1, 1, 1]]), 4))
    # two singletons on one column, one of them negative
    @example((_rows([[0, 3, 0], [0, -1, 0], [1, 1, 1]]), 3))
    def test_against_the_oracles(self, matrix):
        rows, ncols = matrix
        _check(rows, ncols)
        # _reduce's own contract: primitive rows in pivot order, each led by
        # its pivot and 0 at every other pivot column
        reduced = el._reduce([el._integer_row({j: x for j, x in enumerate(row) if x})
                              for row in rows if any(row)], ncols)
        assert list(reduced) == sorted(reduced)
        for c, row in reduced.items():
            assert min(row) == c and gcd(*row.values()) == 1
            assert [j for j in row if j in reduced] == [c]

    def test_a_cascade_is_solved_without_arithmetic(self, monkeypatch):
        # each row is left with one entry once the columns before it in the
        # chain are forced: no row is ever combined with another
        calls = []
        eliminate = el._eliminate

        def counting(r, p, c):
            calls.append(c)
            return eliminate(r, p, c)

        monkeypatch.setattr(el, "_eliminate", counting)
        rows = _rows([[0, 0, 5, 3, 0], [2, 0, 0, 0, 0], [0, 7, 0, 4, 0], [1, -3, 0, 0, 0],
                      [0, 9, 0, 0, 0], [6, 4, 8, 0, 0]])
        reduced = el._reduce([el._integer_row({j: x for j, x in enumerate(row) if x})
                              for row in rows], 5)
        assert reduced == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1}} and calls == []
        _check(rows, 5)
