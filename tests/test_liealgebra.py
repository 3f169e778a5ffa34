import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from killingtensors import (
    AlmostAbelianAlgebra,
    Endomorphism,
    MetricLieAlgebra,
    SolverCapError,
    SymTensor,
    apply_derivation,
    sum_of_squares,
    sym2_from_endo,
)
from killingtensors.exactlinalg import basis_vec, dot
from killingtensors.tensors import basis_monomials
from conftest import (derivation_action_oracle, derivation_suite, jacobi_failure_oracle,
                      killing_operator_oracle, koszul_oracle, nullspace_oracle, random_derivation,
                      random_tensor, random_vector)

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])


def heisenberg3():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = Fraction(1)
    c[1][0][2] = Fraction(-1)
    return MetricLieAlgebra(c)


def so3():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i][j][k] = Fraction(1)
        c[j][i][k] = Fraction(-1)
    return MetricLieAlgebra(c)


def rotation_type(a, b, c):
    """``[e0,e1] = a e2``, ``[e1,e2] = b e0``, ``[e2,e0] = c e1``; the Jacobi
    identity holds for every a, b, c (so(3) at 1, 1, 1)."""
    s = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), x in (((0, 1, 2), a), ((1, 2, 0), b), ((2, 0, 1), c)):
        s[i][j][k] = x
        s[j][i][k] = -x
    return MetricLieAlgebra(s)


def wide_algebras():
    """Structure constants with denominators 2, 3 and 7 and 40-digit numerators."""
    a, b, c = (Fraction(10 ** 39 + 1, 2), Fraction(-4 * 10 ** 39 - 3, 3),
               Fraction(7 * 10 ** 39 + 5, 7))
    return [rotation_type(a, b, c), AlmostAbelianAlgebra(Endomorphism.from_rows([[a, b], [c, 0]]))]


class TestConstruction:
    def test_jacobi_violation_rejected(self):
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = Fraction(1)
        c[1][0][2] = Fraction(-1)
        c[1][2][1] = Fraction(1)
        c[2][1][1] = Fraction(-1)
        with pytest.raises(ValueError, match="Jacobi"):
            MetricLieAlgebra(c)

    def test_antisymmetry_violation_rejected(self):
        c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        c[0][1][0] = Fraction(1)
        c[1][0][0] = Fraction(1)
        with pytest.raises(ValueError, match="antisymmetric"):
            MetricLieAlgebra(c)

    def test_valid_algebras_accepted(self):
        heisenberg3()
        so3()
        MetricLieAlgebra.abelian(4)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_jacobi_check_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        entry = st.sampled_from([Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2)])
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c[i][j][k] = data.draw(entry)
                    c[j][i][k] = -c[i][j][k]
        failure = jacobi_failure_oracle(c)
        if failure is None:
            MetricLieAlgebra(c)
        else:
            triple = "(" + ",".join(map(str, failure)) + ")"
            with pytest.raises(ValueError, match=re.escape(f"Jacobi identity fails on basis "
                                                           f"triple {triple}")):
                MetricLieAlgebra(c)


class TestAdjoint:
    def test_abelian_ad_is_zero(self):
        alg = MetricLieAlgebra.abelian(3)
        assert alg.ad((Fraction(1), Fraction(2), Fraction(-1))).is_zero()

    def test_almost_abelian_ad_of_b(self):
        alg = AlmostAbelianAlgebra(DIAG)
        got = alg.ad((Fraction(1), Fraction(0), Fraction(0)))
        # D = diag(1, -1) with a zero row and a zero column for b
        assert got == Endomorphism.diagonal([0, 1, -1])

    def test_almost_abelian_ad_of_ideal_vector(self):
        alg = AlmostAbelianAlgebra(DIAG)
        h1 = (Fraction(0), Fraction(1), Fraction(0))
        got = alg.ad(h1)
        # only the b-column is populated, with -D(h1)
        assert got.column(0) == (Fraction(0), Fraction(-1), Fraction(0))
        assert got.column(1) == (Fraction(0),) * 3
        assert got.column(2) == (Fraction(0),) * 3

    def test_ad_star_is_transpose(self):
        rng = random.Random(2)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            x = random_vector(rng, alg.dim)
            assert alg.ad_star(x) == alg.ad(x).transpose()

    def test_ad_linear_in_argument(self):
        alg = so3()
        rng = random.Random(3)
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        lhs = alg.ad(tuple(a + b for a, b in zip(x, y)))
        assert lhs == alg.ad(x) + alg.ad(y)

    def test_ad_applies_the_bracket(self):
        # bracket keeps its own loop over the structure constants
        rng = random.Random(4)
        algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)]
        for alg in algebras + [so3(), heisenberg3()]:
            for _ in range(3):
                x, y = random_vector(rng, alg.dim), random_vector(rng, alg.dim)
                assert alg.ad(x).apply(y) == alg.bracket(x, y)
            for i in range(alg.dim):
                assert alg.ad_basis(i).apply(y) == alg.bracket(basis_vec(alg.dim, i), y)


class TestConnection:
    def test_abelian_connection_vanishes(self):
        alg = MetricLieAlgebra.abelian(3)
        rng = random.Random(5)
        assert alg.nabla(random_vector(rng, 3), random_vector(rng, 3)) == (Fraction(0),) * 3

    def test_b_direction_geodesic(self):
        alg = AlmostAbelianAlgebra(DIAG)
        b = (Fraction(1), Fraction(0), Fraction(0))
        assert alg.nabla(b, b) == (Fraction(0),) * 3

    def test_ideal_self_derivative_hits_b(self):
        # Koszul gives nabla_{h1} h1 = b for D = diag(1, -1)
        alg = AlmostAbelianAlgebra(DIAG)
        h1 = (Fraction(0), Fraction(1), Fraction(0))
        got = alg.nabla(h1, h1)
        assert got == (Fraction(1), Fraction(0), Fraction(0))
        assert got == koszul_oracle(alg, h1, h1)

    def test_against_koszul_oracle(self):
        rng = random.Random(7)
        algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)]
        algebras += [heisenberg3(), so3()]
        for alg in algebras:
            x, y = random_vector(rng, alg.dim), random_vector(rng, alg.dim)
            assert alg.nabla(y, x) == koszul_oracle(alg, y, x)

    def test_metric_compatibility_and_torsion(self):
        rng = random.Random(11)
        algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)]
        algebras.append(so3())
        for alg in algebras:
            x = random_vector(rng, alg.dim)
            y = random_vector(rng, alg.dim)
            z = random_vector(rng, alg.dim)
            assert dot(alg.nabla(y, x), z) + dot(x, alg.nabla(y, z)) == 0
            lhs = tuple(a - b for a, b in zip(alg.nabla(y, x), alg.nabla(x, y)))
            assert lhs == alg.bracket(y, x)


class TestKillingOperator:
    def test_basis_squares_are_killing(self):
        for alg in [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)] + [so3()]:
            assert alg.killing_operator(sum_of_squares(alg.dim)).is_zero()

    def test_degree_one_formula(self):
        rng = random.Random(13)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            x = random_vector(rng, alg.dim)
            got = alg.killing_operator(SymTensor.from_vector(alg.dim, x))
            assert got == -2 * sym2_from_endo(alg.ad(x))

    def test_b_value_two_ways(self):
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            db = alg.killing_operator(alg.b_tensor())
            assert db == -2 * sym2_from_endo(alg.derivation_full)
            half = apply_derivation(alg.derivation_full, alg.ideal_twice_metric)
            assert db == half * Fraction(-1, 2)

    def test_leibniz(self):
        rng = random.Random(17)
        for d in derivation_suite(per_kind=1, sizes=(1, 2)):
            alg = AlmostAbelianAlgebra(d)
            a = random_tensor(rng, alg.dim, rng.randint(0, 2))
            b = random_tensor(rng, alg.dim, rng.randint(0, 2))
            lhs = alg.killing_operator(a * b)
            assert lhs == alg.killing_operator(a) * b + a * alg.killing_operator(b)

    def test_agrees_with_connection_route(self):
        rng = random.Random(19)
        algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=2)]
        algebras += [heisenberg3(), so3()]
        for alg in algebras:
            k = random_tensor(rng, alg.dim, rng.randint(0, 3))
            assert alg.killing_operator(k) == alg.killing_operator_via_nabla(k)


class TestFactorReplacementOracles:
    """``apply_derivation``, both Killing operators and the brute-force
    columns share ``tensors.replace_factor``; the oracles in ``conftest``
    share nothing with it."""

    @staticmethod
    def _check_operators(alg, rng, degrees=range(5)):
        for p in degrees:
            k = random_tensor(rng, alg.dim, p, nterms=6)
            expected = killing_operator_oracle(alg, k)
            assert alg.killing_operator(k) == expected
            assert alg.killing_operator_via_nabla(k) == expected

    def test_derivation_action(self):
        rng = random.Random(41)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            for e in (alg.derivation_full, random_derivation(rng, alg.dim, "generic")):
                for p in range(5):
                    k = random_tensor(rng, alg.dim, p, nterms=6)
                    assert apply_derivation(e, k) == derivation_action_oracle(e.entries, k)

    def test_operators(self):
        rng = random.Random(43)
        for alg in [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)] \
                + [so3(), heisenberg3()]:
            self._check_operators(alg, rng, range(4))

    def test_operators_on_wide_constants(self):
        rng = random.Random(47)
        for alg in wide_algebras():
            assert {x.denominator for *_, x in alg.nonzero_structure} == {2, 3, 7}
            self._check_operators(alg, rng)

    def test_bruteforce_matches_dense_nullspace(self):
        algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1, sizes=(1, 2))]
        for alg in algebras + [so3(), heisenberg3()] + wide_algebras():
            for p in range(4):
                images = [killing_operator_oracle(alg, SymTensor.monomial(alg.dim, m)).dense()
                          for m in basis_monomials(alg.dim, p)]
                rows = [list(row) for row in zip(*images)]
                expected = nullspace_oracle(rows, len(images))
                assert [tuple(t.dense()) for t in alg.killing_space_bruteforce(p).basis] == \
                    expected


class TestBruteForceSolver:
    def test_abelian_degree_one_is_everything(self):
        space = MetricLieAlgebra.abelian(3).killing_space_bruteforce(1)
        assert space.dimension == 3

    def test_rotation_degree_one_is_spanned_by_b(self):
        space = AlmostAbelianAlgebra(J2).killing_space_bruteforce(1)
        assert space.dimension == 1
        assert space.basis[0] == SymTensor.basis(3, 0)

    def test_diagonal_degree_two(self):
        space = AlmostAbelianAlgebra(DIAG).killing_space_bruteforce(2)
        assert space.dimension == 2
        assert space.basis == (sum_of_squares(3), SymTensor.monomial(3, (1, 2)))

    def test_bi_invariant_metric_all_vectors_killing(self):
        assert so3().killing_space_bruteforce(1).dimension == 3

    def test_every_basis_element_annihilated(self):
        rng = random.Random(23)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            p = rng.randint(0, 3)
            for t in alg.killing_space_bruteforce(p).basis:
                assert alg.killing_operator(t).is_zero()

    def test_caps_enforced(self):
        alg = MetricLieAlgebra.abelian(2)
        with pytest.raises(ValueError):
            alg.killing_space_bruteforce(9)
        with pytest.raises(ValueError):
            MetricLieAlgebra.abelian(7).killing_space_bruteforce(1)
        # explicit override works
        assert MetricLieAlgebra.abelian(7).killing_space_bruteforce(1, dim_cap=7).dimension == 7

    def test_cap_error_names_the_caps(self):
        with pytest.raises(SolverCapError, match=r"degree 9 / dimension 2 exceed the "
                                                 r"brute-force caps \(degree 8, dimension 6\)"):
            MetricLieAlgebra.abelian(2).killing_space_bruteforce(9)
