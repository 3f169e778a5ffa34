from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

import killingtensors.exactlinalg as el
from killingtensors.exactlinalg import integer_kernel, nullspace, rref_span
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
        # a 2 x 4 map of rank 2: its two free unknowns span the kernel, read
        # off one forward elimination with no back-substitution
        calls = []
        echelon = el._echelon

        def counting(rows, n):
            calls.append(n)
            return echelon(rows, n)

        def no_back_phase(reduced):
            raise AssertionError("nullspace back-substituted")

        monkeypatch.setattr(el, "_echelon", counting)
        monkeypatch.setattr(el, "_back_substitute", no_back_phase)
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

    @settings(max_examples=200, deadline=None)
    @given(typed_matrices(_INT_ENTRY))
    @example(([[2, 4], [3, 6]], 2))
    @example(([[0, 6, -4, 0]], 4))
    def test_integer_kernel_is_the_primitive_nullspace(self, matrix):
        # each int kernel vector is primitive, 0 nowhere it is keyed and
        # positive at its lead, and divided by that lead it is the Fraction
        # vector of nullspace
        rows, ncols = matrix
        got = integer_kernel([{j: x for j, x in enumerate(row) if x} for row in rows if any(row)],
                             ncols)
        expected = nullspace(_columns(rows, ncols, lambda j: j))
        assert len(got) == len(expected)
        for v, w in zip(got, expected):
            lead = v[min(v)]
            assert all(type(x) is int and x for x in v.values())
            assert gcd(*v.values()) == 1 and lead > 0
            assert {j: Fraction(x, lead) for j, x in v.items()} == w

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
        # the phases' own contract: primitive echelon rows in pivot order,
        # from the last column down, each led by its pivot (its largest
        # column), none at a forced column, and after the back phase 0 at
        # every other pivot column
        forced, echelon = el._echelon([el._integer_row({j: x for j, x in enumerate(row) if x})
                                       for row in rows if any(row)], ncols)
        assert list(echelon) == sorted(echelon, reverse=True)
        for c, row in echelon.items():
            assert max(row) == c and gcd(*row.values()) == 1
            assert forced.isdisjoint(row)
        for c, row in el._back_substitute(echelon).items():
            assert max(row) == c and gcd(*row.values()) == 1
            assert [j for j in row if j in echelon] == [c]

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
        forced, echelon = el._echelon([el._integer_row({j: x for j, x in enumerate(row) if x})
                                       for row in rows], 5)
        assert (forced, echelon, calls) == ({0, 1, 2, 3}, {}, [])
        _check(rows, 5)


@st.composite
def planted_systems(draw):
    """Rows of a planted rank: an echelon system in the elimination's column
    order (unknown ``i`` of ``n`` at column ``n-1-i``), with leads of either
    sign that need not divide the entries after them, rows of one entry
    (forced unknowns) mixed in among the others, and optionally the rows
    mixed by integer combinations, scaled into ``Fraction``s and shuffled.
    Returns ``(rows, ncols, rank)``; every added row lies in the echelon
    rows' span, so ``rank`` is the rank of the system."""
    ncols = draw(st.integers(1, 7))
    rank = draw(st.integers(0, ncols))
    leads = sorted(draw(st.permutations(range(ncols)))[:rank])  # elimination columns
    forced = {c for c in leads if draw(st.integers(0, 3)) == 0}
    lead_value = st.sampled_from([2, -2, 3, -3, 5, -1, 1, -6])
    entry = st.sampled_from([0, 0, 1, -1, 2, 3, -5, 7])
    echelon = []
    for c in leads:
        row = [0] * ncols
        row[c] = draw(lead_value)
        if c not in forced:
            for j in range(c + 1, ncols):
                if j not in forced:
                    row[j] = draw(entry)
        echelon.append(row)
    rows = [r[:] for r in echelon]
    if rows and draw(st.booleans()):  # mixed: each row plus multiples of later ones
        for k in range(len(rows)):
            for later in echelon[k + 1:]:
                factor = draw(st.sampled_from([0, 0, 1, -2, 3]))
                rows[k] = [x + factor * y for x, y in zip(rows[k], later)]
        for _ in range(draw(st.integers(0, 2))):
            factor = draw(st.sampled_from([1, -1, 2]))
            rows.append([factor * x for x in draw(st.sampled_from(echelon))])
    rows = [[Fraction(x, scale) for x in row] if (scale := draw(st.sampled_from([0, 0, 2, -3])))
            else row for row in rows]
    rows = draw(st.permutations(rows))
    # the unknowns are the elimination columns in reverse order
    return [row[::-1] for row in rows], ncols, rank


def _dense(rows, ncols):
    return [[Fraction(x) for x in row] for row in rows]


class TestBackSolve:
    @settings(max_examples=400, deadline=None)
    @given(planted_systems())
    # x0 + 2 x1 = 0: the lead 2 does not divide 1, so x0 is rescaled to 2 / 2
    @example(([[1, 2]], 2, 1))
    # x0 - 2 x1 = 0: a negative lead, x1 = 1/2
    @example(([[1, -2]], 2, 1))
    # x1 forced, x0 - 3 x2 = 0 with x2 the pivot: one free unknown, x0
    @example(([[0, 4, 0], [1, 0, -3]], 3, 2))
    # full rank from a forced column and a pivot: the kernel is {0}
    @example(([[0, -2], [3, 5]], 2, 2))
    # leads 3 at x1 and x2, neither dividing: the vector of x0 is rescaled
    # twice, to (1, -1/3, -2/9)
    @example(([[1, 1, 3], [1, 3, 0]], 3, 2))
    def test_against_the_oracle(self, system):
        rows, ncols, rank = system
        expected = nullspace_oracle(_dense(rows, ncols), ncols)
        got = nullspace(_columns(rows, ncols, lambda j: j))
        assert [tuple(v.get(j, 0) for j in range(ncols)) for v in got] == expected
        assert all(type(x) is Fraction and x for v in got for x in v.values())
        assert len(got) == ncols - rank

    def test_an_empty_kernel_runs_no_back_phase(self, monkeypatch):
        # an invertible 4 x 4 map with no row of one entry: the kernel is
        # read off the forward elimination alone, as nullspace runs it, and
        # no elimination follows it
        rows = [[1, 2, 0, -1], [0, 1, 3, 1], [2, 0, 1, 1], [1, 1, 1, 2]]
        ints = [{j: x for j, x in enumerate(row) if x} for row in rows]
        calls = []
        eliminate = el._eliminate

        def counting(r, p, c):
            calls.append(c)
            return eliminate(r, p, c)

        def no_back_phase(reduced):
            raise AssertionError("nullspace back-substituted")

        monkeypatch.setattr(el, "_eliminate", counting)
        monkeypatch.setattr(el, "_back_substitute", no_back_phase)
        forced, echelon = el._echelon([el._integer_row(row) for row in ints], 4)
        assert not forced and len(echelon) == 4 and calls
        forward = len(calls)
        calls.clear()
        assert nullspace(_columns(_dense(rows, 4), 4, lambda j: j)) == []
        assert len(calls) == forward
