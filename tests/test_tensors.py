import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from killingtensors import (
    AlmostAbelianAlgebra,
    Certificate,
    RightInvariant,
    SymTensor,
    Endomorphism,
    apply_derivation,
    omega_tensor,
    inner,
    sum_of_squares,
    sym2_from_endo,
    sym_mul,
    basis_monomials,
)
from killingtensors.tensors import monomial_positions, replace_factor, replace_factor_rows
from conftest import inner_oracle

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def tensors(dim, degree):
    monos = basis_monomials(dim, degree)
    return st.lists(st.tuples(st.sampled_from(monos), rationals), max_size=5).map(
        lambda items: SymTensor.build(dim, degree, items))


@st.composite
def tensor_pairs(draw, max_dim=3, max_degree=3):
    dim = draw(st.integers(1, max_dim))
    a = draw(tensors(dim, draw(st.integers(0, max_degree))))
    b = draw(tensors(dim, draw(st.integers(0, max_degree))))
    return a, b


@st.composite
def endo_and_tensor(draw, max_dim=3, max_degree=3):
    dim = draw(st.integers(1, max_dim))
    rows = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
    return Endomorphism.from_rows(rows), draw(tensors(dim, draw(st.integers(0, max_degree))))


@st.composite
def int_subs(draw):
    """``(dim, degree, first, e, subs)``: int substitutions whose extras all
    have ``e`` indices in ``first .. dim-1``, unsorted and repeated, with
    zero coefficients and factors left unreplaced."""
    dim, e = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    first = draw(st.integers(0, dim - 1))
    extra = st.tuples(*[st.integers(first, dim - 1)] * e)
    subs = [draw(st.lists(st.tuples(extra, st.integers(-3, 3)), max_size=3)) for _ in range(dim)]
    return dim, draw(st.integers(0, 5)), first, e, subs


def endos(dim):
    return st.lists(st.lists(rationals, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim).map(Endomorphism.from_rows)


def _symmetric_matrix(k):
    """The symmetric matrix of a 2-tensor: entry (i, j) is the coefficient
    of e_i*e_j, entry (i, i) twice that of e_i*e_i."""
    n = range(k.dim)
    return Endomorphism.from_rows([[k.terms.get((min(i, j), max(i, j)), 0) * (1 + (i == j))
                                    for j in n] for i in n])


def _flow(d, gamma, k, order=None):
    """``exp(-gamma*d)`` acting on ``k`` as the package sums it: the pullback
    at ``(gamma, 0, ..., 0)`` of ``k`` written in right-invariant fields of
    the almost abelian algebra of ``d``, whose ideal carries ``k``'s indices
    shifted by one.  Exact at a point of rationals, at 53 bits at a float
    point."""
    n = d.dim
    fields = [RightInvariant(tuple(Fraction(int(j == i + 1)) for j in range(n + 1)))
              for i in range(n)]
    lifted = SymTensor(n + 1, k.degree, {tuple(i + 1 for i in m): c for m, c in k.terms.items()})
    cert = Certificate(lifted, tuple((c, tuple(fields[i] for i in m))
                                     for m, c in k.terms.items()))
    value = omega_tensor(AlmostAbelianAlgebra(d), cert, (gamma,) + (0,) * n, order,
                         prec=53 if isinstance(gamma, float) else None)
    assert all(0 not in m for m in value.terms)  # the ideal is invariant
    return SymTensor(n, k.degree, {tuple(i - 1 for i in m): c for m, c in value.terms.items()})


def _close(a, b, tol=1e-9):
    return all(abs(float(a.terms.get(m, 0)) - float(b.terms.get(m, 0))) < tol
               for m in set(a.terms) | set(b.terms))


class TestProduct:
    def test_monomial_merge(self):
        e1 = SymTensor.basis(2, 0)
        assert (e1 * e1).terms == {(0, 0): Fraction(1)}

    def test_bilinearity(self):
        e1, e2 = SymTensor.basis(2, 0), SymTensor.basis(2, 1)
        assert (e1 + e2) * e1 == e1 * e1 + e1 * e2

    def test_degree_zero_unit(self):
        L = sum_of_squares(3)
        assert L * SymTensor.unit(3) == L

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym_mul(SymTensor.basis(2, 0), SymTensor.basis(3, 0))

    @settings(deadline=None)
    @given(tensor_pairs())
    def test_commutative(self, pair):
        a, b = pair
        assert a * b == b * a

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 3), st.data())
    def test_associative(self, dim, data):
        a = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        b = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        c = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        assert (a * b) * c == a * (b * c)


class TestInner:
    def test_distinct_monomials_orthogonal(self):
        a = SymTensor.monomial(2, (0, 0, 1))
        b = SymTensor.monomial(2, (0, 1, 1))
        assert inner(a, b) == 0

    def test_norms(self):
        assert inner(SymTensor.monomial(2, (0, 1)), SymTensor.monomial(2, (0, 1))) == 1
        assert inner(SymTensor.monomial(2, (0, 0)), SymTensor.monomial(2, (0, 0))) == 2
        e0cubed = SymTensor.monomial(1, (0, 0, 0))
        assert inner(e0cubed, e0cubed) == 6

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            inner(SymTensor.basis(2, 0), sum_of_squares(2))

    def test_against_permutation_oracle_all_pairs(self):
        # every monomial pair, n <= 3, p <= 4
        for dim in (1, 2, 3):
            for p in range(5):
                monos = basis_monomials(dim, p)
                for ma in monos:
                    for mb in monos:
                        a, b = SymTensor.monomial(dim, ma), SymTensor.monomial(dim, mb)
                        assert inner(a, b) == inner_oracle(a, b)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.integers(0, 3), st.data())
    def test_oracle_on_random_tensors(self, dim, degree, data):
        a = data.draw(tensors(dim, degree))
        b = data.draw(tensors(dim, degree))
        assert inner(a, b) == inner_oracle(a, b)


class TestDerivation:
    def test_diag_cancels_mixed_monomial(self):
        d = Endomorphism.diagonal([1, -1])
        assert apply_derivation(d, SymTensor.monomial(2, (0, 1))).is_zero()

    def test_zero_on_constants(self):
        d = Endomorphism.from_rows([[2, 1], [0, 3]])
        assert apply_derivation(d, SymTensor.monomial(2, (), 5)).is_zero()

    def test_rotation_kills_sum_of_squares(self):
        assert apply_derivation(J2, sum_of_squares(2)).is_zero()

    def test_replace_factor_counts_multiplicity_and_drops_zeros(self):
        # e0 -> 2 e1*e2 on 5 e0^3 e1: the factor e0 counts three times
        assert replace_factor({(0, 0, 0, 1): 5}, [[((1, 2), 2)], [], []]) == \
            {(0, 0, 1, 1, 2): 30}
        # the rotation e0 -> e1, e1 -> -e0 on e0^2 + e1^2: 2 e0*e1 - 2 e0*e1
        assert replace_factor({(0, 0): 1, (1, 1): 1}, [[((1,), 1)], [((0,), -1)]]) == {}

    @settings(deadline=None, max_examples=200)
    @given(int_subs())
    # degree 0; an index left unreplaced; the substitutions of an index
    # outside first .. dim-1, never read; nothing replaced at all
    @example((3, 0, 0, 2, [[((1, 2), 2)], [], [((0, 0), -1), ((2, 0), 1)]]))
    @example((3, 3, 1, 1, [[], [((2,), 1)], []]))
    @example((4, 2, 2, 2, [[((0, 1), 5)], [], [((3, 2), 1)], [((2, 2), -1), ((3, 3), 1)]]))
    @example((2, 2, 0, 1, [[], []]))
    def test_position_rows_are_transposed_replace_factor_images(self, drawn):
        # the solvers' equations: the images of replace_factor({m: 1}, subs)
        # over the monomials m in first .. dim-1, transposed into one row per
        # image monomial keyed by the position of m, the rows in the order
        # of monomial_positions of those indices numbered from 0
        dim, degree, first, e, subs = drawn
        transposed = {}
        for u, m in enumerate(combinations_with_replacement(range(first, dim), degree)):
            for k, v in replace_factor({m: 1}, subs).items():
                transposed.setdefault(k, {})[u] = v
        positions = monomial_positions(dim - first, degree - 1 + e)
        expected = [transposed[k] for k in
                    sorted(transposed, key=lambda k: positions[tuple(i - first for i in k)])]
        got = replace_factor_rows(subs, degree, range(first, dim))
        assert got == expected
        if first == 0:
            assert replace_factor_rows(subs, degree) == expected

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 3), st.data())
    def test_leibniz(self, dim, data):
        rows = [[data.draw(rationals) for _ in range(dim)] for _ in range(dim)]
        d = Endomorphism.from_rows(rows)
        a = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        b = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        assert apply_derivation(d, a * b) == apply_derivation(d, a) * b + a * apply_derivation(d, b)

    @settings(deadline=None, max_examples=30)
    @given(endo_and_tensor())
    def test_acts_through_symmetric_2tensor_identities(self, pair):
        e, _ = pair
        n = e.dim
        # E applied to the basis squares is four times its symmetric 2-tensor
        assert apply_derivation(e, sum_of_squares(n)) == 4 * sym2_from_endo(e)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.data())
    def test_composition_identity_on_symmetric(self, dim, data):
        e = Endomorphism.from_rows([[data.draw(rationals) for _ in range(dim)] for _ in range(dim)])
        f0 = Endomorphism.from_rows([[data.draw(rationals) for _ in range(dim)] for _ in range(dim)])
        f = f0.symmetric_part()
        assert apply_derivation(e, sym2_from_endo(f)) == 2 * sym2_from_endo(e @ f)


class TestSym2Conversions:
    def test_skew_maps_to_zero(self):
        assert sym2_from_endo(J2).is_zero()

    def test_identity_gives_half_squares(self):
        assert sym2_from_endo(Endomorphism.identity(3)) == sum_of_squares(3) * Fraction(1, 2)

    def test_diagonal(self):
        got = sym2_from_endo(Endomorphism.diagonal([1, -1]))
        want = SymTensor.build(2, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2)})
        assert got == want

    def test_endo_from_mixed_monomial(self):
        e = Endomorphism.from_rows([[0, 1], [1, 0]])
        assert sym2_from_endo(e) == SymTensor.monomial(2, (0, 1))
        assert _symmetric_matrix(SymTensor.monomial(2, (0, 1))) == e

    def test_endo_from_square_monomial(self):
        e = Endomorphism.diagonal([2, 0])
        assert sym2_from_endo(e) == SymTensor.monomial(2, (0, 0))
        assert _symmetric_matrix(SymTensor.monomial(2, (0, 0))) == e

    def test_half_squares_round_trips_to_identity(self):
        half = sum_of_squares(3) * Fraction(1, 2)
        assert _symmetric_matrix(half) == Endomorphism.identity(3)
        assert sym2_from_endo(_symmetric_matrix(half)) == half

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 3), st.data())
    def test_round_trip_on_symmetric(self, dim, data):
        # e_i*e_j (i < j) carries f_ij, and e_i*e_i carries f_ii / 2
        f = Endomorphism.from_rows(
            [[data.draw(rationals) for _ in range(dim)] for _ in range(dim)]).symmetric_part()
        assert _symmetric_matrix(sym2_from_endo(f)) == f
        k = data.draw(tensors(dim, 2))
        assert sym2_from_endo(_symmetric_matrix(k)) == k

    def test_depends_on_symmetric_part_only(self):
        e = Endomorphism.from_rows([[1, 5], [-2, 3]])
        assert sym2_from_endo(e) == sym2_from_endo(e.symmetric_part())


class TestGroupAction:
    """The action of ``exp(-gamma*d)`` on tensors, through ``_flow``."""

    def test_identity(self):
        k = SymTensor.build(2, 2, {(0, 1): 3, (1, 1): -2})
        assert _flow(Endomorphism.zero(2), Fraction(5), k) == k

    def test_diagonal_scaling(self):
        # diag(2, 3) = exp(-d) for d = -diag(ln 2, ln 3)
        d = Endomorphism.diagonal([-math.log(2), -math.log(3)])
        got = _flow(d, 1.0, SymTensor.monomial(2, (0, 1)))
        assert _close(got, SymTensor.monomial(2, (0, 1), 6))

    def test_rotation_of_square(self):
        # exp(pi/2 * J2) is the quarter turn J2
        got = _flow(J2, -math.pi / 2, SymTensor.monomial(2, (0, 0)))
        assert _close(got, SymTensor.monomial(2, (1, 1)))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.data())
    def test_multiplicative(self, dim, data):
        # strictly upper triangular, so the series terminate and all is exact
        d = Endomorphism.from_rows([[data.draw(rationals) if j > i else 0 for j in range(dim)]
                                    for i in range(dim)])
        gamma = data.draw(rationals)
        k1 = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        k2 = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        assert _flow(d, gamma, k1 * k2) == _flow(d, gamma, k1) * _flow(d, gamma, k2)


class TestExpAction:
    def test_nilpotent_two_term_series(self):
        d = Endomorphism.from_rows([[0, 1], [0, 0]])
        got = _flow(d, 1, SymTensor.basis(2, 1))
        assert got == SymTensor.basis(2, 1) - SymTensor.basis(2, 0)

    def test_gamma_zero(self):
        k = SymTensor.build(2, 2, {(0, 0): 2, (0, 1): -1})
        assert _flow(Endomorphism.diagonal([1, 2]), 0, k) == k

    def test_series_collapses_on_annihilated_tensor(self):
        # d kills e0: its series stops after one term, exactly
        d = Endomorphism.from_rows([[0, 1], [0, 0]])
        k = SymTensor.monomial(2, (0, 0), 3)
        assert _flow(d, Fraction(7, 2), k) == k
        # diag(1, -1) kills e0*e1 though not its factors: the factors'
        # series, summed in floats, cancel in the product
        assert _close(_flow(Endomorphism.diagonal([1, -1]), 1.0, SymTensor.monomial(2, (0, 1))),
                      SymTensor.monomial(2, (0, 1)))

    def test_nonterminating_exact_mode_raises(self):
        with pytest.raises(ValueError):
            _flow(Endomorphism.diagonal([1, 2]), 1, SymTensor.basis(2, 0))

    def test_matches_numeric_matrix_exponential(self):
        # a 2-tensor with symmetric matrix S goes to the one of A S A^T
        rng = random.Random(4821)
        for _ in range(12):
            n = rng.randint(1, 3)
            rows = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n)]
                    for _ in range(n)]
            d = Endomorphism.from_rows(rows)
            norm = max((sum(abs(float(x)) for x in col) for col in zip(*rows)), default=0.0)
            gamma = Fraction(1) if norm <= 2 else Fraction(2, int(norm) + 1)
            a = expm(-float(gamma) * np.array([[float(x) for x in r] for r in rows]))
            k = SymTensor.build(n, 2, {
                tuple(sorted((rng.randrange(n), rng.randrange(n)))): rng.randint(-3, 3)
                for _ in range(3)})
            s = np.array([[float(x) for x in r] for r in _symmetric_matrix(k).entries])
            image = a @ s @ a.T
            want = {(i, j): image[i, j] * (1 if i < j else 0.5)
                    for i in range(n) for j in range(i, n)}
            got = _flow(d, gamma, k, order=30)
            assert all(abs(float(got.terms.get(m, 0)) - want[m]) < 1e-9 for m in want)
            assert all(m in want for m in got.terms)


class TestContainers:
    def test_zero_coefficients_pruned(self):
        t = SymTensor.build(2, 1, [((0,), 1), ((0,), -1), ((1,), 2)])
        assert t.terms == {(1,): Fraction(2)}
        # the direct constructor too, so a listed zero changes no equality
        assert SymTensor(3, 1, {(1,): Fraction(0), (2,): Fraction(3)}).terms == {(2,): Fraction(3)}
        zero = SymTensor(3, 1, {(1,): Fraction(0)})
        assert zero.is_zero() and not zero and zero == SymTensor.zero(3, 1)

    def test_unsorted_monomial_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(1, 0): Fraction(1)})

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 1, {(0, 0): Fraction(1)})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 1, {(5,): Fraction(1)})

    @pytest.mark.parametrize("degree, mono, message", [
        # a wrong length is reported first, then an index out of range,
        # then an unsorted monomial
        (1, (5, 1), "monomial (5, 1) has wrong degree, expected 1"),
        (3, (-1, 0), "monomial (-1, 0) has wrong degree, expected 3"),
        (2, (5, 1), "monomial (5, 1) out of range for dim 3"),
        (2, (-1, 0), "monomial (-1, 0) out of range for dim 3"),
        (2, (0, 3), "monomial (0, 3) out of range for dim 3"),
        (2, (1, 0), "monomial (1, 0) not sorted"),
    ])
    def test_validation_order_and_messages(self, degree, mono, message):
        with pytest.raises(ValueError) as exc:
            SymTensor(3, degree, {mono: Fraction(1)})
        assert str(exc.value) == message

    def test_degree_zero_monomial(self):
        five = SymTensor.monomial(3, (), 5)
        assert five.degree == 0 and five.terms == {(): Fraction(5)}

    def test_vector_round_trip(self):
        v = (Fraction(1), Fraction(0), Fraction(-2))
        assert SymTensor.from_vector(3, v).dense() == list(v)
