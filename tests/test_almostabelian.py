import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from killingtensors import (
    AlmostAbelianAlgebra,
    Endomorphism,
    MetricLieAlgebra,
    SymTensor,
    endo_from_sym2,
    sum_of_squares,
    sym2_from_endo,
    sym_dimension,
)
from conftest import derivation_suite, random_derivation, random_tensor, random_vector

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])


class TestBuild:
    def test_zero_derivation_is_abelian(self):
        alg = AlmostAbelianAlgebra(Endomorphism.zero(3))
        assert alg.structure == MetricLieAlgebra.abelian(4).structure

    def test_rotation_brackets(self):
        alg = AlmostAbelianAlgebra(J2)
        b = (Fraction(1), Fraction(0), Fraction(0))
        h1 = (Fraction(0), Fraction(1), Fraction(0))
        assert alg.bracket(b, h1) == (Fraction(0), Fraction(0), Fraction(1))
        # J2 with a zero row and a zero column for b
        assert alg.ad(b) == Endomorphism.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, 0]])

    def test_ideal_is_abelian(self):
        rng = random.Random(1)
        alg = AlmostAbelianAlgebra(random_derivation(rng, 3, "generic"))
        h = (Fraction(0), *random_vector(rng, 3))
        hh = (Fraction(0), *random_vector(rng, 3))
        assert alg.bracket(h, hh) == (Fraction(0),) * 4

    def test_matrix_rows_accepted(self):
        alg = AlmostAbelianAlgebra([[0, 1], [0, 0]])
        assert alg.derivation.entries[0][1] == 1


class TestDOnIdeal:
    def test_mixed_monomial_killed_by_diag(self):
        alg = AlmostAbelianAlgebra(DIAG)
        assert alg.d_on_ideal(SymTensor.monomial(3, (1, 2))).is_zero()

    def test_square_monomial(self):
        alg = AlmostAbelianAlgebra(DIAG)
        got = alg.d_on_ideal(SymTensor.monomial(3, (1, 1)))
        assert got == 2 * SymTensor.monomial(3, (0, 1, 1))

    def test_ideal_squares_give_sym2(self):
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            got = alg.d_on_ideal(alg.ideal_twice_metric)
            assert got == 4 * (alg.b_tensor() * sym2_from_endo(alg.derivation_full))

    def test_rejects_tensors_touching_b(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(ValueError):
            alg.d_on_ideal(SymTensor.monomial(3, (0, 1)))

    def test_matches_killing_operator_on_ideal(self):
        rng = random.Random(31)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            monos = list(combinations_with_replacement(
                range(1, alg.dim), rng.randint(0, 3)))
            k = SymTensor.build(alg.dim, len(monos[0]) if monos else 0,
                                [(rng.choice(monos), Fraction(rng.randint(-3, 3)))]) \
                if monos else SymTensor.unit(alg.dim)
            assert alg.d_on_ideal(k) == alg.killing_operator(k)


class TestLayerDecomposition:
    def test_worked_degree_two_formula(self):
        rng = random.Random(37)
        for d in derivation_suite(per_kind=1, sizes=(2, 3)):
            alg = AlmostAbelianAlgebra(d)
            lam = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            v = random_vector(rng, alg.ideal_dim)
            quad = random_tensor(rng, alg.dim, 2)
            quad = SymTensor(alg.dim, 2,
                             {m: c for m, c in quad.terms.items() if 0 not in m})
            vb = SymTensor.from_vector(alg.dim, (Fraction(0), *v)) * alg.b_tensor()
            k = lam * alg.b_tensor() * alg.b_tensor() + vb + quad
            lay = alg.layer_decomposition(k)
            assert lay.even[1] == SymTensor.monomial(alg.dim, (), lam)
            assert lay.odd[0] == SymTensor.from_vector(alg.dim, (Fraction(0), *v))
            # beta_0 subtracts lam off each ideal square
            expected = quad - lam * alg.ideal_twice_metric
            assert lay.even[0] == expected

    def test_basis_squares_live_in_top_layer(self):
        alg = AlmostAbelianAlgebra(DIAG)
        lay = alg.layer_decomposition(alg.twice_metric)
        assert lay.even[1] == SymTensor.unit(3)
        assert lay.even[0].is_zero()
        assert lay.odd[0].is_zero() and lay.odd[1] is None

    def test_b_cubed(self):
        alg = AlmostAbelianAlgebra(DIAG)
        lay = alg.layer_decomposition(alg.b_tensor() ** 3)
        assert lay.odd[1] == SymTensor.unit(3)
        assert lay.odd[0] == -alg.ideal_twice_metric
        assert lay.even[0].is_zero() and lay.even[1].is_zero()

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 3)
            alg = AlmostAbelianAlgebra(random_derivation(rng, n, rng.choice(
                ("skew", "symmetric", "nilpotent", "generic"))))
            p = rng.randint(0, 5)
            k = random_tensor(rng, alg.dim, p, nterms=5)
            lay = alg.layer_decomposition(k)
            assert lay.reassemble() == k
            for i, beta in enumerate(lay.even):
                assert beta.degree == p - 2 * i
                assert 0 not in beta.support()
            for i, alpha in enumerate(lay.odd):
                if p - 2 * i - 1 < 0:
                    assert alpha is None
                else:
                    assert alpha.degree == p - 2 * i - 1
                    assert 0 not in alpha.support()

    def test_uniqueness_shift_by_metric_power(self):
        # layers of L * Q + (alpha*b + beta) are the layers of Q shifted up by
        # one, with alpha and beta appearing verbatim at the bottom
        rng = random.Random(43)
        alg = AlmostAbelianAlgebra(random_derivation(rng, 2, "generic"))

        def ideal_tensor(degree):
            monos = list(combinations_with_replacement(range(1, alg.dim), degree))
            return SymTensor.build(alg.dim, degree, [
                (rng.choice(monos), Fraction(rng.randint(-3, 3))) for _ in range(3)])

        alpha0 = ideal_tensor(3)
        beta0 = ideal_tensor(4)
        quotient = random_tensor(rng, alg.dim, 2, nterms=3)
        k = alg.twice_metric * quotient + alpha0 * alg.b_tensor() + beta0
        lay = alg.layer_decomposition(k)
        q_lay = alg.layer_decomposition(quotient)
        assert lay.odd[0] == alpha0
        assert lay.even[0] == beta0
        assert lay.even[1] == q_lay.even[0]
        assert lay.odd[1] == q_lay.odd[0]
        assert lay.even[2] == q_lay.even[1]


class TestOddEvenSplit:
    def test_squares_are_even(self):
        alg = AlmostAbelianAlgebra(DIAG)
        odd, even = alg.split_odd_even(alg.twice_metric)
        assert odd.is_zero() and even == alg.twice_metric

    def test_vector_times_b_is_odd(self):
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (0, 1))
        odd, even = alg.split_odd_even(k)
        assert odd == k and even.is_zero()

    def test_b_squared_is_even(self):
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (0, 0))
        odd, even = alg.split_odd_even(k)
        assert odd.is_zero() and even == k

    def test_parts_sum_back(self):
        rng = random.Random(47)
        alg = AlmostAbelianAlgebra(random_derivation(rng, 3, "generic"))
        k = random_tensor(rng, 4, 3, nterms=6)
        odd, even = alg.split_odd_even(k)
        assert odd + even == k

    def test_split_matches_layers(self):
        rng = random.Random(53)
        alg = AlmostAbelianAlgebra(random_derivation(rng, 2, "symmetric"))
        k = random_tensor(rng, 3, 4, nterms=6)
        lay = alg.layer_decomposition(k)
        odd, even = alg.split_odd_even(k)
        metric2 = alg.twice_metric
        b = alg.b_tensor()
        power = SymTensor.unit(3)
        odd_sum = SymTensor.zero(3, 4)
        even_sum = SymTensor.zero(3, 4)
        for i in range(len(lay.even)):
            even_sum = even_sum + power * lay.even[i]
            if lay.odd[i] is not None:
                odd_sum = odd_sum + power * b * lay.odd[i]
            power = power * metric2
        assert odd_sum == odd and even_sum == even


class TestStructuredKilling:
    def test_ideal_invariant_plus_squares_is_killing(self):
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (1, 2)) + 3 * alg.twice_metric
        diag = alg.is_killing_structured(k)
        assert diag.is_killing and not diag.failures
        assert alg.killing_operator(k).is_zero()

    def test_odd_part_fails_for_non_skew(self):
        alg = AlmostAbelianAlgebra(DIAG)
        diag = alg.is_killing_structured(SymTensor.monomial(3, (0, 1)))
        assert not diag.is_killing
        assert any("odd part nonzero" in f for f in diag.failures)

    def test_b_multiples_killing_when_skew(self):
        alg = AlmostAbelianAlgebra(J2)
        diag = alg.is_killing_structured(alg.b_tensor() * Fraction(3, 2))
        assert diag.is_killing

    def test_agrees_with_operator(self):
        rng = random.Random(59)
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            k = random_tensor(rng, alg.dim, rng.randint(0, 4), nterms=5)
            assert alg.is_killing_structured(k).is_killing == alg.killing_operator(k).is_zero()

    def test_degree_two_characterization(self):
        # Killing iff the vector layer is in the kernel and the derivation
        # composed with the quadratic layer is skew
        rng = random.Random(61)
        for d in derivation_suite(per_kind=2, sizes=(2, 3)):
            alg = AlmostAbelianAlgebra(d)
            k = random_tensor(rng, alg.dim, 2, nterms=5)
            lay = alg.layer_decomposition(k)
            alpha0 = tuple(lay.odd[0].vector()[1:])
            beta0 = lay.even[0]
            beta0_block = endo_from_sym2(
                SymTensor(alg.ideal_dim, 2,
                          {tuple(i - 1 for i in m): c for m, c in beta0.terms.items()}))
            alpha_ok = all(x == 0 for x in alg.derivation.apply(alpha0))
            comp = alg.derivation @ beta0_block
            beta_ok = comp.is_skew()
            skew = alg.derivation.is_skew()
            odd_ok = alpha_ok if skew else all(x == 0 for x in alpha0)
            assert alg.is_killing_structured(k).is_killing == (odd_ok and beta_ok)


class TestStructuredSpace:
    def test_rotation_degree_two(self):
        alg = AlmostAbelianAlgebra(J2)
        space = alg.killing_space_structured(2)
        assert space.dimension == 2
        got = {str(t) for t in space.basis}
        want_members = [alg.twice_metric, alg.ideal_twice_metric]
        brute = alg.killing_space_bruteforce(2)
        assert space.basis == brute.basis
        for member in want_members:
            assert alg.killing_operator(member).is_zero()

    def test_diagonal_degree_two(self):
        alg = AlmostAbelianAlgebra(DIAG)
        space = alg.killing_space_structured(2)
        assert space.basis == (sum_of_squares(3), SymTensor.monomial(3, (1, 2)))

    def test_abelian_degree_one(self):
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        assert alg.killing_space_structured(1).dimension == 3

    def test_matches_bruteforce_random(self):
        # ideal sizes up to 5, dimension 6: the brute-force dim_cap
        for sizes, degrees in (((1, 2, 3), range(4)), ((4, 5), range(5))):
            for d in derivation_suite(per_kind=1, sizes=sizes):
                alg = AlmostAbelianAlgebra(d)
                for p in degrees:
                    assert alg.killing_space_structured(p).basis == \
                        alg.killing_space_bruteforce(p).basis


class TestDimensionFormula:
    def test_rotation_dimensions(self):
        alg = AlmostAbelianAlgebra(J2)
        assert [alg.killing_dimension(p) for p in (1, 2, 3)] == [1, 2, 2]

    def test_diagonal_dimensions(self):
        alg = AlmostAbelianAlgebra(DIAG)
        assert [alg.killing_dimension(p) for p in (1, 2)] == [0, 2]

    def test_abelian_full_dimension(self):
        for n in (1, 2):
            alg = AlmostAbelianAlgebra(Endomorphism.zero(n))
            for p in range(4):
                assert alg.killing_dimension(p) == sym_dimension(n + 1, p)

    def test_matches_bruteforce(self):
        for d in derivation_suite(per_kind=1, sizes=(1, 2)):
            alg = AlmostAbelianAlgebra(d)
            for p in range(4):
                assert alg.killing_dimension(p) == alg.killing_space_bruteforce(p).dimension

    @pytest.mark.parametrize("solve", ["killing_dimension", "killing_space_structured",
                                       "killing_space_bruteforce"])
    def test_negative_degree_rejected(self, solve):
        alg = AlmostAbelianAlgebra(J2)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            getattr(alg, solve)(-1)
