import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from killingtensors import (
    SymTensor,
    Endomorphism,
    act_group,
    apply_derivation,
    endo_from_sym2,
    exp_action,
    inner,
    sum_of_squares,
    sym2_from_endo,
    sym_mul,
    basis_monomials,
)
from killingtensors.tensors import replace_factor
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


def endos(dim):
    return st.lists(st.lists(rationals, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim).map(Endomorphism.from_rows)


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
        e = endo_from_sym2(SymTensor.monomial(2, (0, 1)))
        assert e.entries[0][1] == 1 and e.entries[1][0] == 1
        assert e.entries[0][0] == 0 and e.entries[1][1] == 0

    def test_endo_from_square_monomial(self):
        e = endo_from_sym2(SymTensor.monomial(2, (0, 0)))
        assert e.entries[0][0] == 2 and all(
            e.entries[i][j] == 0 for i in range(2) for j in range(2) if (i, j) != (0, 0))

    def test_half_squares_round_trips_to_identity(self):
        assert endo_from_sym2(sum_of_squares(3) * Fraction(1, 2)) == Endomorphism.identity(3)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 3), st.data())
    def test_round_trip_on_symmetric(self, dim, data):
        f = Endomorphism.from_rows(
            [[data.draw(rationals) for _ in range(dim)] for _ in range(dim)]).symmetric_part()
        assert endo_from_sym2(sym2_from_endo(f)) == f
        k = data.draw(tensors(dim, 2))
        assert sym2_from_endo(endo_from_sym2(k)) == k

    def test_depends_on_symmetric_part_only(self):
        e = Endomorphism.from_rows([[1, 5], [-2, 3]])
        assert sym2_from_endo(e) == sym2_from_endo(e.symmetric_part())


class TestGroupAction:
    def test_identity(self):
        k = SymTensor.build(2, 2, {(0, 1): 3, (1, 1): -2})
        assert act_group(Endomorphism.identity(2), k) == k

    def test_diagonal_scaling(self):
        got = act_group(Endomorphism.diagonal([2, 3]), SymTensor.monomial(2, (0, 1)))
        assert got == SymTensor.monomial(2, (0, 1), 6)

    def test_rotation_of_square(self):
        assert act_group(J2, SymTensor.monomial(2, (0, 0))) == SymTensor.monomial(2, (1, 1))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            act_group(Endomorphism.zero(2), SymTensor.basis(2, 0))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.data())
    def test_multiplicative(self, dim, data):
        rows = [[data.draw(rationals) for _ in range(dim)] for _ in range(dim)]
        a = Endomorphism.from_rows(rows) + Endomorphism.identity(dim) * 4  # keep it invertible
        if not a.is_invertible():
            return
        k1 = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        k2 = data.draw(tensors(dim, data.draw(st.integers(0, 2))))
        assert act_group(a, k1 * k2) == act_group(a, k1) * act_group(a, k2)


class TestExpAction:
    def test_nilpotent_two_term_series(self):
        d = Endomorphism.from_rows([[0, 1], [0, 0]])
        got = exp_action(d, 1, SymTensor.basis(2, 1))
        assert got == SymTensor.basis(2, 1) - SymTensor.basis(2, 0)

    def test_gamma_zero(self):
        k = SymTensor.build(2, 2, {(0, 0): 2, (0, 1): -1})
        assert exp_action(Endomorphism.diagonal([1, 2]), 0, k) == k

    def test_series_collapses_on_annihilated_tensor(self):
        d = Endomorphism.diagonal([1, -1])
        k = SymTensor.monomial(2, (0, 1))
        assert exp_action(d, 1, k) == k

    def test_nonterminating_exact_mode_raises(self):
        with pytest.raises(ValueError):
            exp_action(Endomorphism.diagonal([1, 2]), 1, SymTensor.basis(2, 0))

    def test_matches_numeric_matrix_exponential(self):
        rng = random.Random(4821)
        for _ in range(12):
            n = rng.randint(1, 3)
            rows = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n)]
                    for _ in range(n)]
            d = Endomorphism.from_rows(rows)
            norm = max((sum(abs(float(x)) for x in col) for col in zip(*rows)), default=0.0)
            gamma = Fraction(1) if norm <= 2 else Fraction(2, int(norm) + 1)
            target = expm(-float(gamma) * np.array([[float(x) for x in r] for r in rows]))
            a = Endomorphism.from_rows([[Fraction(v) for v in row] for row in target.tolist()])
            k = SymTensor.build(n, 2, {
                tuple(sorted((rng.randrange(n), rng.randrange(n)))): rng.randint(-3, 3)
                for _ in range(3)})
            lhs = exp_action(d, gamma, k, order=30)
            rhs = act_group(a, k)
            for mono in set(lhs.terms) | set(rhs.terms):
                assert abs(float(lhs.terms.get(mono, 0)) - float(rhs.terms.get(mono, 0))) < 1e-9


class TestContainers:
    def test_zero_coefficients_pruned(self):
        t = SymTensor.build(2, 1, [((0,), 1), ((0,), -1), ((1,), 2)])
        assert t.terms == {(1,): Fraction(2)}

    def test_unsorted_monomial_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(1, 0): Fraction(1)})

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 1, {(0, 0): Fraction(1)})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 1, {(5,): Fraction(1)})

    def test_degree_zero_monomial(self):
        five = SymTensor.monomial(3, (), 5)
        assert five.degree == 0 and five.terms == {(): Fraction(5)}

    def test_vector_round_trip(self):
        v = (Fraction(1), Fraction(0), Fraction(-2))
        assert SymTensor.from_vector(3, v).vector() == v
