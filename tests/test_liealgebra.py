import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from killingtensors import (
    MAX_DIMENSION,
    AlmostAbelianAlgebra,
    DimensionCapError,
    Endomorphism,
    MetricLieAlgebra,
    SolverCapError,
    SymTensor,
    apply_derivation,
    sum_of_squares,
    sym2_from_endo,
)
from killingtensors.exactlinalg import basis_vec
from killingtensors.tensors import basis_monomials
from conftest import (_structure_bracket, derivation_action_oracle, derivation_residual_oracle,
                      derivation_suite, dot, jacobi_failure_oracle, killing_operator_oracle,
                      koszul_oracle, nullspace_oracle, random_derivation, random_tensor,
                      random_vector, wide_algebras)

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])


HEISENBERG = {(0, 1, 2): 1, (1, 0, 2): -1}
SO3 = {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 1, (2, 1, 0): -1, (2, 0, 1): 1, (0, 2, 1): -1}


def heisenberg3():
    return MetricLieAlgebra(3, HEISENBERG)


def so3():
    return MetricLieAlgebra(3, SO3)


class TestConstruction:
    def test_jacobi_violation_rejected(self):
        with pytest.raises(ValueError, match="Jacobi"):
            MetricLieAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 1): 1, (2, 1, 1): -1})

    def test_antisymmetry_violation_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            MetricLieAlgebra(2, {(0, 1, 0): 1, (1, 0, 0): 1})

    # the first failing triple (i, j, k), i <= j, of a scan in that order;
    # "mixed" hides a one-sided entry and a diagonal one among valid pairs, and
    # "mixed denominators" a pair off by its denominator among valid ones
    @pytest.mark.parametrize("entries, triple", [
        ({(1, 1, 2): 1}, "(1,1,2)"),
        ({(2, 0, 1): 1}, "(0,2,1)"),
        ({(0, 1, 2): 1, (1, 0, 2): 1}, "(0,1,2)"),
        ({(0, 1, 2): 1, (1, 0, 2): -1, (2, 2, 1): 3, (2, 1, 0): Fraction(1, 2)}, "(1,2,0)"),
        ({(0, 1, 2): Fraction(1, 3), (1, 0, 2): Fraction(-1, 3), (0, 2, 1): Fraction(2, 7),
          (2, 0, 1): Fraction(-2, 3), (1, 2, 0): Fraction(10 ** 39 + 2, 7),
          (2, 1, 0): Fraction(-10 ** 39 - 2, 7)}, "(0,2,1)"),
    ], ids=["nonzero diagonal", "one-sided", "wrong-sign pair", "mixed", "mixed denominators"])
    def test_antisymmetry_message_names_the_first_failing_triple(self, entries, triple):
        with pytest.raises(ValueError) as exc:
            MetricLieAlgebra(3, entries)
        assert str(exc.value) == f"structure constants not antisymmetric at {triple}"

    def test_at_the_dimension_bound_constructs(self):
        assert MetricLieAlgebra(MAX_DIMENSION, {}).dim == MAX_DIMENSION

    def test_past_the_dimension_bound_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(DimensionCapError, match=(
                f"^dimension {MAX_DIMENSION + 1} exceeds the algebra cap "
                f"\\(dimension {MAX_DIMENSION}\\)$")):
            MetricLieAlgebra(MAX_DIMENSION + 1, {})
        assert time.perf_counter() - start < 0.1

    def test_valid_algebras_accepted(self):
        heisenberg3()
        so3()
        MetricLieAlgebra(4, {})

    @pytest.mark.parametrize("dim, constants, walked", [
        (4000, {}, []), (3, HEISENBERG, [0, 1]), (3, SO3, [0, 1, 2]),
        (50, {(40, 7, 9): 1, (7, 40, 9): -1}, [7, 40])])
    def test_validation_walks_only_nonzero_adjoint_maps(self, monkeypatch, dim, constants,
                                                        walked):
        # ad_{e_i} = 0 has no Jacobi residual, so validation costs follow the
        # nonzero constants, not the dimension
        seen = []
        real = MetricLieAlgebra.derivation_residual

        def counting(self, t):
            seen.append(sorted(t))
            return real(self, t)

        monkeypatch.setattr(MetricLieAlgebra, "derivation_residual", counting)
        alg = MetricLieAlgebra(dim, constants)
        assert len(seen) == len(walked)
        assert [sorted((k, j) for (i, j, k) in constants if i == w) for w in walked] == seen
        assert alg.dim == dim

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_jacobi_check_matches_dense_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        entry = st.sampled_from([Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2),
                                                     Fraction(1, 3), Fraction(-2, 7),
                                                     Fraction(10 ** 39 + 2, 7)])
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c[i][j][k] = data.draw(entry)
                    c[j][i][k] = -c[i][j][k]
        failure = jacobi_failure_oracle(c)
        constants = {(i, j, k): x for i, plane in enumerate(c) for j, row in enumerate(plane)
                     for k, x in enumerate(row) if x}
        if failure is None:
            MetricLieAlgebra(n, constants)
        else:
            triple = "(" + ",".join(map(str, failure)) + ")"
            with pytest.raises(ValueError, match=re.escape(f"Jacobi identity fails on basis "
                                                           f"triple {triple}")):
                MetricLieAlgebra(n, constants)


class TestConstants:
    """``structure`` is a view built from ``int_structure``, and the dense
    oracles read it; so the view is pinned here to the constants given to
    the constructor, and the tables to the order of the keys."""

    WIDE = (Fraction(10 ** 39 + 1, 2), Fraction(-4 * 10 ** 39 - 3, 3),
            Fraction(7 * 10 ** 39 + 5, 7))  # wide_algebras()'s a, b, c

    @staticmethod
    def _rotation_type(a, b, c):
        return {(0, 1, 2): a, (1, 0, 2): -a, (1, 2, 0): b, (2, 1, 0): -b,
                (2, 0, 1): c, (0, 2, 1): -c}

    def _general(self):
        return [(so3(), SO3), (heisenberg3(), HEISENBERG), (MetricLieAlgebra(3, {}), {}),
                (wide_algebras()[0], self._rotation_type(*self.WIDE))]

    def test_view_of_a_general_algebra_is_its_constants(self):
        for alg, constants in self._general():
            assert alg.structure == tuple(
                tuple(tuple(Fraction(constants.get((i, j, k), 0)) for k in range(3))
                      for j in range(3)) for i in range(3))
            assert all(type(x) is Fraction for plane in alg.structure for row in plane
                       for x in row)

    @pytest.mark.parametrize("alg", [AlmostAbelianAlgebra(d) for d in derivation_suite()]
                             + [wide_algebras()[1]])
    def test_view_of_an_almost_abelian_algebra_is_its_derivation(self, alg):
        d, n = alg.derivation.entries, alg.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want = (d[k - 1][j - 1] if i == 0 < j and k else
                            -d[k - 1][i - 1] if j == 0 < i and k else 0)
                    assert alg.structure[i][j][k] == want

    def test_so3_tables_in_key_order(self):
        alg = so3()
        assert alg.int_structure == ((((1, 2), -1), ((2, 1), 1)), (((0, 2), 1), ((2, 0), -1)),
                                     (((0, 1), -1), ((1, 0), 1)))
        assert alg.ad_forms == ((0, ((1, ((2, -1),)), (2, ((1, 1),)))),
                                (1, ((0, ((2, 1),)), (2, ((0, -1),)))),
                                (2, ((0, ((1, -1),)), (1, ((0, 1),)))))

    @pytest.mark.parametrize("alg", [AlmostAbelianAlgebra(d)
                                     for d in derivation_suite(per_kind=1)] + wide_algebras())
    def test_tables_do_not_depend_on_the_order_of_the_constants(self, alg):
        constants = {(i, j, k): x for i, plane in enumerate(alg.structure)
                     for j, row in enumerate(plane) for k, x in enumerate(row) if x}
        again = MetricLieAlgebra(alg.dim, dict(reversed(constants.items())))
        assert (again.int_structure, again.denominator, again.ad_forms) == \
            (alg.int_structure, alg.denominator, alg.ad_forms)

    def test_zero_constants_are_dropped(self):
        alg = MetricLieAlgebra(3, {(0, 1, 2): 0, (1, 0, 2): "0", (2, 0, 1): Fraction(0)})
        assert alg.int_structure == ((), (), ()) and alg.denominator == 1
        assert alg.structure == MetricLieAlgebra(3, {}).structure

    @pytest.mark.parametrize("key", [(0, 1, 3), (-1, 0, 1), (0, 1), (0, 1, 2, 0), "012",
                                     (0, 1, True), (0, 1.0, 2), 0])
    def test_key_not_a_triple_of_indices_is_rejected(self, key):
        with pytest.raises(ValueError, match=re.escape(
                f"key {key!r} is not a triple of indices in range(3)")):
            MetricLieAlgebra(3, {key: 1})


class TestAdjoint:
    def test_abelian_ad_is_zero(self):
        alg = MetricLieAlgebra(3, {})
        assert alg.ad((Fraction(1), Fraction(2), Fraction(-1))) == Endomorphism.zero(3)

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
        # the metric adjoint, <[x, y], z> = <y, ad*_x z>, is the transpose of
        # ad_x in the orthonormal basis; the judge brackets densely
        rng = random.Random(2)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            x, y, z = (random_vector(rng, alg.dim) for _ in range(3))
            assert (dot(y, alg.ad(x).transpose().apply(z))
                    == dot(_structure_bracket(alg.structure, x, y), z))

    def test_ad_linear_in_argument(self):
        alg = so3()
        rng = random.Random(3)
        x, y = random_vector(rng, 3), random_vector(rng, 3)
        lhs = alg.ad(tuple(a + b for a, b in zip(x, y)))
        assert lhs == alg.ad(x) + alg.ad(y)

    def test_ad_applies_the_bracket(self):
        # the judge brackets over the dense structure array
        rng = random.Random(4)
        algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=1)]
        for alg in algebras + [so3(), heisenberg3()]:
            for _ in range(3):
                x, y = random_vector(rng, alg.dim), random_vector(rng, alg.dim)
                assert alg.ad(x).apply(y) == _structure_bracket(alg.structure, x, y)
            for i in range(alg.dim):
                assert alg.ad(basis_vec(alg.dim, i)).apply(y) == \
                    _structure_bracket(alg.structure, basis_vec(alg.dim, i), y)


_RESIDUAL_ALGEBRAS = ([AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=2)]
                      + [so3(), heisenberg3(), MetricLieAlgebra(4, {})] + wide_algebras())


class TestIntStructureAgainstDenseOracle:
    """``ad`` and ``derivation_residual`` sum over ``int_structure`` and
    divide once by ``denominator``; the dense oracles read ``structure``."""

    @staticmethod
    def _algebras():
        return [AlmostAbelianAlgebra(d) for d in derivation_suite()] \
            + [so3(), heisenberg3()] + wide_algebras()

    def test_bracket(self):
        # ad(x).apply(y) is the bracket [x, y]
        rng = random.Random(53)
        for alg in self._algebras():
            wide = tuple(Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.choice((1, 3, 7)))
                         for _ in range(alg.dim))
            for x, y in ((random_vector(rng, alg.dim), random_vector(rng, alg.dim)),
                         (wide, random_vector(rng, alg.dim))):
                assert alg.ad(x).apply(y) == _structure_bracket(alg.structure, x, y)

    def test_derivation_residual(self):
        rng = random.Random(59)
        for alg in self._algebras():
            for m in (alg.ad(basis_vec(alg.dim, 0)), random_derivation(rng, alg.dim, "skew"),
                      random_derivation(rng, alg.dim, "generic")):
                assert alg.derivation_residual(m.sparse()) == derivation_residual_oracle(alg, m)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_derivation_residual_of_a_sparse_matrix(self, data):
        # T names a few rows and columns: only the constants that meet them
        # are walked, and the residual is the dense oracle's, for entries
        # that are ints (as skew_derivation_basis passes) or Fractions
        alg = _RESIDUAL_ALGEBRAS[data.draw(st.sampled_from(range(len(_RESIDUAL_ALGEBRAS))))]
        index = st.integers(0, alg.dim - 1)
        value = st.integers(-5, 5).filter(bool)
        entries = data.draw(st.dictionaries(st.tuples(index, index), value | st.builds(
            Fraction, value, st.sampled_from([2, 3])), max_size=3))
        m = Endomorphism(tuple(tuple(entries.get((r, c), Fraction(0)) for c in range(alg.dim))
                               for r in range(alg.dim)))
        assert alg.derivation_residual(entries) == derivation_residual_oracle(alg, m)


class TestConnection:
    def test_abelian_connection_vanishes(self):
        alg = MetricLieAlgebra(3, {})
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
            assert lhs == _structure_bracket(alg.structure, y, x)


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
            assert {x.denominator for plane in alg.structure for row in plane
                    for x in row if x} == {2, 3, 7}
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
        space = MetricLieAlgebra(3, {}).killing_space_bruteforce(1)
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
        alg = MetricLieAlgebra(2, {})
        with pytest.raises(ValueError):
            alg.killing_space_bruteforce(9)
        with pytest.raises(ValueError):
            MetricLieAlgebra(7, {}).killing_space_bruteforce(1)

    def test_cap_error_names_the_caps(self):
        with pytest.raises(SolverCapError, match=r"degree 9 / dimension 2 exceed the "
                                                 r"brute-force caps \(degree 8, dimension 6\)"):
            MetricLieAlgebra(2, {}).killing_space_bruteforce(9)
