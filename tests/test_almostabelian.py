import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from killingtensors import (
    MAX_DIMENSION,
    MAX_STRUCTURED_MONOMIALS,
    AlmostAbelianAlgebra,
    DimensionCapError,
    Endomorphism,
    StructuredCapError,
    MetricLieAlgebra,
    SymTensor,
    apply_derivation,
    basis_monomials,
    sum_of_squares,
    sym2_from_endo,
    sym_dimension,
)
from killingtensors import tensors
from killingtensors.tensors import replace_factor
from conftest import (_structure_bracket, derivation_suite, listed_layers, nullspace_oracle,
                      random_derivation, random_tensor, random_vector, wide_algebras)

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])
# square matrices of sizes 0 to 4, mostly zero, with 30-digit numerators
_MATRICES = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -2]) | st.builds(
        Fraction, st.integers(-10 ** 30, 10 ** 30), st.sampled_from([1, 2, 3, 7])),
        min_size=n, max_size=n), min_size=n, max_size=n).map(Endomorphism.from_rows))


class TestBuild:
    def test_zero_derivation_is_abelian(self):
        alg = AlmostAbelianAlgebra(Endomorphism.zero(3))
        assert alg.structure == MetricLieAlgebra(4, {}).structure

    def test_rotation_brackets(self):
        alg = AlmostAbelianAlgebra(J2)
        b = (Fraction(1), Fraction(0), Fraction(0))
        h1 = (Fraction(0), Fraction(1), Fraction(0))
        assert _structure_bracket(alg.structure, b, h1) == (Fraction(0), Fraction(0), Fraction(1))
        # J2 with a zero row and a zero column for b
        assert alg.ad(b) == Endomorphism.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, 0]])

    def test_ideal_is_abelian(self):
        rng = random.Random(1)
        alg = AlmostAbelianAlgebra(random_derivation(rng, 3, "generic"))
        h = (Fraction(0), *random_vector(rng, 3))
        hh = (Fraction(0), *random_vector(rng, 3))
        assert _structure_bracket(alg.structure, h, hh) == (Fraction(0),) * 4

    def test_matrix_rows_accepted(self):
        alg = AlmostAbelianAlgebra([[0, 1], [0, 0]])
        assert alg.derivation.entries[0][1] == 1

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.sampled_from(derivation_suite()), _MATRICES))
    def test_built_as_from_all_structure_constants(self, d):
        # built from the nonzero entries of D, unvalidated, as MetricLieAlgebra
        # builds it from every constant c_0jk = D_kj = -c_j0k
        alg = AlmostAbelianAlgebra(d)
        c = {}
        for k, row in enumerate(d.entries, 1):
            for j, x in enumerate(row, 1):
                c[0, j, k], c[j, 0, k] = x, -x
        lie = MetricLieAlgebra(d.dim + 1, c)
        assert (alg.dim, alg.denominator, alg.int_structure, alg.ad_forms) == (
            lie.dim, lie.denominator, lie.int_structure, lie.ad_forms)
        assert alg.int_ad_b == tuple(tuple(((k,), x) for (i, k), x in pairs if i == 0)
                                     for pairs in lie.int_structure)

    def test_past_the_dimension_bound_raises_before_the_entries_are_read(self):
        row = (0,) * (MAX_DIMENSION + 1)
        start = time.perf_counter()
        with pytest.raises(DimensionCapError, match=f"^dimension {MAX_DIMENSION + 2} exceeds"):
            AlmostAbelianAlgebra(Endomorphism((row,) * len(row)))
        assert time.perf_counter() - start < 0.5


class TestDOnIdeal:
    """On a tensor supported on the abelian ideal the Killing operator is
    ``b`` times the action of ``D = ad_b``; the judge is the dense action."""

    @staticmethod
    def _b_times_ad_b(alg, k):
        return alg.b_tensor() * apply_derivation(alg.derivation_full, k)

    def test_mixed_monomial_killed_by_diag(self):
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (1, 2))
        assert alg.killing_operator(k).is_zero() and self._b_times_ad_b(alg, k).is_zero()

    def test_square_monomial(self):
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (1, 1))
        got = alg.killing_operator(k)
        assert got == 2 * SymTensor.monomial(3, (0, 1, 1)) == self._b_times_ad_b(alg, k)

    def test_ideal_squares_give_sym2(self):
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            got = alg.killing_operator(alg.ideal_twice_metric)
            assert got == 4 * (alg.b_tensor() * sym2_from_endo(alg.derivation_full))
            assert got == self._b_times_ad_b(alg, alg.ideal_twice_metric)

    def test_rejects_tensors_touching_b(self):
        # on b*h1 the Killing operator also has -h1 * 2*sym2(D), which the
        # ideal formula misses: it holds on the ideal only
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (0, 1))
        missed = -SymTensor.basis(3, 1) * (2 * sym2_from_endo(alg.derivation_full))
        assert not missed.is_zero()
        assert alg.killing_operator(k) - self._b_times_ad_b(alg, k) == missed

    def test_matches_killing_operator_on_ideal(self):
        rng = random.Random(31)
        for alg in [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)] \
                + wide_algebras()[1:]:
            monos = list(combinations_with_replacement(
                range(1, alg.dim), rng.randint(0, 3)))
            k = SymTensor.build(alg.dim, len(monos[0]) if monos else 0,
                                [(rng.choice(monos), Fraction(rng.randint(-3, 3)))]) \
                if monos else SymTensor.unit(alg.dim)
            assert alg.killing_operator(k) == self._b_times_ad_b(alg, k)


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
            assert listed_layers(lay, 0)[1] == SymTensor.monomial(alg.dim, (), lam)
            assert listed_layers(lay, 1)[0] == SymTensor.from_vector(alg.dim, (Fraction(0), *v))
            # beta_0 subtracts lam off each ideal square
            expected = quad - lam * alg.ideal_twice_metric
            assert listed_layers(lay, 0)[0] == expected

    def test_basis_squares_live_in_top_layer(self):
        alg = AlmostAbelianAlgebra(DIAG)
        lay = alg.layer_decomposition(alg.twice_metric)
        assert listed_layers(lay, 0)[1] == SymTensor.unit(3)
        assert listed_layers(lay, 0)[0].is_zero()
        assert listed_layers(lay, 1)[0].is_zero() and listed_layers(lay, 1)[1] is None

    def test_b_cubed(self):
        alg = AlmostAbelianAlgebra(DIAG)
        lay = alg.layer_decomposition(alg.b_tensor() ** 3)
        assert listed_layers(lay, 1)[1] == SymTensor.unit(3)
        assert listed_layers(lay, 1)[0] == -alg.ideal_twice_metric
        assert listed_layers(lay, 0)[0].is_zero() and listed_layers(lay, 0)[1].is_zero()

    def test_b_fifth(self):
        # b^5 = b (L - L_h)^2 = L^2 b - 2 L b L_h + b L_h^2
        alg = AlmostAbelianAlgebra(DIAG)
        lay = alg.layer_decomposition(alg.b_tensor() ** 5)
        lh = alg.ideal_twice_metric
        assert listed_layers(lay, 1)[2] == SymTensor.unit(3)
        assert listed_layers(lay, 1)[1] == -2 * lh
        assert listed_layers(lay, 1)[0] == lh * lh
        assert all(t.is_zero() for t in listed_layers(lay, 0))

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 3)
            alg = AlmostAbelianAlgebra(random_derivation(rng, n, rng.choice(
                ("skew", "symmetric", "nilpotent", "generic"))))
            p = rng.randint(0, 8)
            # random monomials and a term b^m * (ideal monomial) for every
            # m <= p, so that every layer index of the closed form runs
            k = random_tensor(rng, alg.dim, p, nterms=5) + SymTensor.build(alg.dim, p, [
                ((0,) * m + tuple(rng.choices(range(1, alg.dim), k=p - m)),
                 Fraction(rng.randint(1, 3), rng.choice((1, 2)))) for m in range(p + 1)])
            lay = alg.layer_decomposition(k)
            assert lay.reassemble() == k
            for i, beta in enumerate(listed_layers(lay, 0)):
                assert beta.degree == p - 2 * i
                assert all(0 not in m for m in beta.terms)
            for i, alpha in enumerate(listed_layers(lay, 1)):
                if p - 2 * i - 1 < 0:
                    assert alpha is None
                else:
                    assert alpha.degree == p - 2 * i - 1
                    assert all(0 not in m for m in alpha.terms)

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
        assert listed_layers(lay, 1)[0] == alpha0
        assert listed_layers(lay, 0)[0] == beta0
        assert listed_layers(lay, 0)[1] == listed_layers(q_lay, 0)[0]
        assert listed_layers(lay, 1)[1] == listed_layers(q_lay, 1)[0]
        assert listed_layers(lay, 0)[2] == listed_layers(q_lay, 0)[1]


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
        for i in range(len(listed_layers(lay, 0))):
            even_sum = even_sum + power * listed_layers(lay, 0)[i]
            if listed_layers(lay, 1)[i] is not None:
                odd_sum = odd_sum + power * b * listed_layers(lay, 1)[i]
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

    @staticmethod
    def _judge(alg, k):
        """``is_killing_structured`` against the Killing operator, and its
        failures against the layers the dense action of ``ad_b`` moves."""
        diag = alg.is_killing_structured(k)
        assert diag.is_killing == alg.killing_operator(k).is_zero()
        lay = alg.layer_decomposition(k)
        skew = alg.derivation.is_skew()
        moved = [f"{kind} layer {i} not annihilated by the derivation"
                 for kind, layers in (("even", listed_layers(lay, 0)), ("odd", listed_layers(lay, 1) if skew else ()))
                 for i, t in enumerate(layers)
                 if t is not None and not apply_derivation(alg.derivation_full, t).is_zero()]
        odd = [] if skew or all(t is None or t.is_zero() for t in listed_layers(lay, 1)) else [
            "odd part nonzero, derivation not skew"]
        assert diag.failures == tuple(moved + odd)
        return diag.is_killing

    def test_agrees_with_operator(self):
        # random tensors, which are almost never Killing; then every Killing
        # basis tensor of degree 0-5, and each with one coefficient moved,
        # which mostly makes it fail in some layers
        rng = random.Random(59)
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            self._judge(alg, random_tensor(rng, alg.dim, rng.randint(0, 4), nterms=5))
        failing = 0
        for d in derivation_suite():
            alg = AlmostAbelianAlgebra(d)
            for p in range(6):
                monos = basis_monomials(alg.dim, p)
                for k in alg.killing_space_structured(p).basis:
                    assert self._judge(alg, k)
                    moved = k + SymTensor.monomial(alg.dim, rng.choice(monos), Fraction(1, 3))
                    failing += not self._judge(alg, moved)
        assert failing > 0

    def test_degree_two_characterization(self):
        # Killing iff the vector layer is in the kernel and the derivation
        # composed with the quadratic layer is skew
        rng = random.Random(61)
        for d in derivation_suite(per_kind=2, sizes=(2, 3)):
            alg = AlmostAbelianAlgebra(d)
            k = random_tensor(rng, alg.dim, 2, nterms=5)
            lay = alg.layer_decomposition(k)
            alpha0 = tuple(listed_layers(lay, 1)[0].dense()[1:])
            beta0 = listed_layers(lay, 0)[0]
            # the symmetric matrix of beta0 on the ideal: entry (i, j) is the
            # coefficient of e_i*e_j, entry (i, i) twice that of e_i*e_i
            ideal = range(1, alg.dim)
            beta0_block = Endomorphism.from_rows(
                [[beta0.terms.get((min(i, j), max(i, j)), 0) * (1 + (i == j)) for j in ideal]
                 for i in ideal])
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
        # ideal sizes up to 5, dimension 6: BRUTE_FORCE_MAX_DIM
        for sizes, degrees in (((1, 2, 3), range(4)), ((4, 5), range(5))):
            for d in derivation_suite(per_kind=1, sizes=sizes):
                alg = AlmostAbelianAlgebra(d)
                for p in degrees:
                    assert alg.killing_space_structured(p).basis == \
                        alg.killing_space_bruteforce(p).basis

    def test_bases_pass_the_checking_constructor(self):
        # both solvers build their bases without checking the monomials of
        # their own tables: each tensor must come out of SymTensor(...)
        # unchanged, every coefficient a Fraction
        for d in derivation_suite():
            alg = AlmostAbelianAlgebra(d)
            for p in range(5):
                for space in (alg.killing_space_structured(p), alg.killing_space_bruteforce(p)):
                    for t in space.basis:
                        assert SymTensor(t.dim, t.degree, dict(t.terms)) == t
                        assert all(type(c) is Fraction for c in t.terms.values())

    def test_derivation_kernel_is_the_primitive_rref_kernel(self):
        # int vectors keyed by ideal monomial, primitive and positive at
        # their leads: divided by the lead, the RREF kernel of the dense
        # derivation action, in the order of the leads
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            for q in range(5):
                monomials = list(combinations_with_replacement(range(1, alg.dim), q))
                images = [replace_factor({m: 1}, alg.int_ad_b) for m in monomials]
                keys = sorted({k for image in images for k in image})
                dense = [[image.get(k, 0) for image in images] for k in keys]
                got = alg.derivation_kernel(q)
                assert ([tuple(Fraction(v.get(m, 0), v[min(v)]) for m in monomials) for v in got]
                        == nullspace_oracle(dense, len(monomials)))
                for v in got:
                    assert all(type(x) is int and x for x in v.values())
                    assert gcd(*v.values()) == 1 and v[min(v)] > 0

    def test_assembly_makes_no_symtensor_product(self, monkeypatch):
        # the layers are assembled on int vectors over monomial positions
        calls = []
        real = tensors.sym_mul
        monkeypatch.setattr(tensors, "sym_mul", lambda a, b: calls.append(1) or real(a, b))
        for d in derivation_suite(per_kind=1, sizes=(1, 2, 3)):
            alg = AlmostAbelianAlgebra(d)
            for p in range(5):
                alg.killing_space_structured(p)
        assert SymTensor.basis(2, 0) * SymTensor.basis(2, 1) and calls == [1]


class TestStructuredBudget:
    """Both structured solvers refuse a degree whose monomials pass
    ``MAX_STRUCTURED_MONOMIALS`` before they build any layer."""

    def test_budget_admits_the_rotation_algebra_to_degree_139(self):
        assert sym_dimension(3, 139) <= MAX_STRUCTURED_MONOMIALS < sym_dimension(3, 140)

    @pytest.mark.parametrize("solve", ["killing_dimension", "killing_space_structured"])
    @pytest.mark.parametrize("p", [140, 3000])
    def test_refused_before_any_layer(self, monkeypatch, solve, p):
        alg = AlmostAbelianAlgebra(J2)
        kernels = []
        monkeypatch.setattr(alg, "derivation_kernel", lambda q: kernels.append(q) or [])
        with pytest.raises(StructuredCapError, match=(
                f"^degree {p} in dimension 3 has {sym_dimension(3, p)} monomials "
                f"\\(structured solver cap {MAX_STRUCTURED_MONOMIALS}\\)$")):
            getattr(alg, solve)(p)
        assert kernels == []

    def test_degrees_in_use_are_admitted(self, monkeypatch):
        # the degrees of the CI solver-agreement step and the example scripts
        alg = AlmostAbelianAlgebra(Endomorphism.zero(5))
        monkeypatch.setattr(alg, "derivation_kernel", lambda q: [])
        for p in range(9):
            assert alg.killing_dimension(p) == 0
            assert alg.killing_space_structured(p).dimension == 0


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
