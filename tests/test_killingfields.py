import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import killingtensors.killingfields as kf

from killingtensors import (
    AlmostAbelianAlgebra,
    Certificate,
    CompiledCertificate,
    DerivationField,
    Endomorphism,
    LeftInvariant,
    Metric,
    MetricLieAlgebra,
    NotKillingError,
    RightInvariant,
    SkewDerivation,
    SymTensor,
    decompose,
    decompose_ideal_tensor,
    exp_action,
    generator_degree,
    omega_derivation_matrix,
    omega_generator,
    omega_right,
    omega_tensor,
    skew_derivation_basis,
    skew_derivations,
    sum_of_squares,
    validate_skew_derivation,
    verify_certificate,
)
from conftest import (DERIVATION_KINDS, derivation_suite, omega_derivation,
                      omega_series_oracle, omega_tensor_oracle, random_derivation, random_vector,
                      skew_derivation_basis_oracle)

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])
NILP = Endomorphism.from_rows([[0, 1], [0, 0]])


def basis_vec(dim, i):
    return tuple(Fraction(1 if t == i else 0) for t in range(dim))


class TestSkewDerivations:
    def test_rotation_gives_one_dimension(self):
        alg = AlmostAbelianAlgebra(J2)
        ders = skew_derivations(alg)
        assert len(ders) == 1
        t = ders[0]
        assert all(x == 0 for x in t.b_image)
        # the block spans the rotation itself (up to the canonical scaling)
        block = t.ideal_part
        assert block.entries[0][1] != 0 and block.entries[0][1] == -block.entries[1][0]

    def test_diagonal_gives_none(self):
        assert skew_derivations(AlmostAbelianAlgebra(DIAG)) == ()

    def test_abelian_gives_full_rotation_algebra(self):
        assert len(skew_derivations(AlmostAbelianAlgebra(Endomorphism.zero(2)))) == 3
        assert len(skew_derivation_basis(MetricLieAlgebra.abelian(4))) == 6

    def test_nilpotent_allows_nonzero_b_image(self):
        ders = skew_derivations(AlmostAbelianAlgebra(NILP))
        assert any(any(x != 0 for x in t.b_image) for t in ders)

    def test_all_solutions_validate(self):
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            for t in skew_derivations(alg):
                validate_skew_derivation(alg, t)  # raises on violation

    def test_square_nonzero_forces_zero_b_image(self):
        for d in derivation_suite(per_kind=3):
            if (d @ d).is_zero():
                continue
            alg = AlmostAbelianAlgebra(d)
            for t in skew_derivations(alg):
                assert all(x == 0 for x in t.b_image)

    def test_validation_rejects_bad_candidates(self):
        alg = AlmostAbelianAlgebra(DIAG)
        bad = SkewDerivation((Fraction(0), Fraction(0)), J2)
        with pytest.raises(ValueError):
            validate_skew_derivation(alg, bad)


# the benchmark's gallery of almost abelian derivations, and two general algebras
GALLERY = [
    [[0, 0], [0, 0]], [[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [0, 0]],
    [[1, 0], [0, 1]], [[1, -1], [1, 1]], [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    [[2, 0, 0], [0, -1, 0], [0, 0, -1]],
]
SO3 = MetricLieAlgebra([[[0, 0, 0], [0, 0, 1], [0, -1, 0]], [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]])
HEISENBERG = MetricLieAlgebra([[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                               [[0, 0, -1], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3])


class TestSkewDerivationBasisOracle:
    """The sparse residual solve against the dense wedge-by-wedge solve."""

    @pytest.mark.parametrize("alg", [SO3, HEISENBERG, MetricLieAlgebra.abelian(4)]
                             + [AlmostAbelianAlgebra(Endomorphism.from_rows(d)) for d in GALLERY]
                             + [AlmostAbelianAlgebra(d)
                                for d in derivation_suite(sizes=(1, 2, 3, 4))]
                             # dim 10: 45 wedge unknowns, 394 residual rows, a 4-dim kernel
                             + [AlmostAbelianAlgebra(random_derivation(random.Random(10), 9,
                                                                       "skew"))])
    def test_equals_dense_oracle(self, alg):
        assert skew_derivation_basis(alg) == skew_derivation_basis_oracle(alg)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.sampled_from(DERIVATION_KINDS))
    def test_random_almost_abelian(self, seed, n, kind):
        alg = AlmostAbelianAlgebra(random_derivation(random.Random(seed), n, kind))
        assert skew_derivation_basis(alg) == skew_derivation_basis_oracle(alg)


class TestOmegaRight:
    def test_rotation_closed_form(self):
        alg = AlmostAbelianAlgebra(J2)
        with mp.workdps(40):
            for gamma in (0.3, -1.2, 2.0):
                w = (mp.mpf(gamma), mp.mpf(0), mp.mpf(0))
                got = omega_right(alg, basis_vec(3, 1), w)
                assert abs(got[1] - mp.cos(gamma)) < 1e-12
                assert abs(got[2] + mp.sin(gamma)) < 1e-12
                assert abs(got[0]) < 1e-12

    def test_constant_inside_ideal(self):
        rng = random.Random(3)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            x = (Fraction(0), *random_vector(rng, alg.ideal_dim))
            w = (Fraction(0), *random_vector(rng, alg.ideal_dim))
            assert omega_right(alg, x, w) == x

    def test_nilpotent_exact(self):
        # e^{-ad_b} h2 = h2 - h1, a terminating two-term series
        alg = AlmostAbelianAlgebra(NILP)
        got = omega_right(alg, basis_vec(3, 2), basis_vec(3, 0))
        assert got == (Fraction(0), Fraction(-1), Fraction(1))

    def test_exact_mode_raises_for_nonterminating(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(ValueError):
            omega_right(alg, basis_vec(3, 1), basis_vec(3, 0))

    def test_no_room_under_the_term_cap_passes_only_vanishing_series(self):
        # a min_order at the cap leaves the stop rule no room: a converging
        # series is refused after n terms, a nilpotent one is summed as usual
        w = (mp.mpf(1), mp.mpf(0), mp.mpf(0))
        with pytest.raises(kf.SeriesCapError):
            omega_right(AlmostAbelianAlgebra(DIAG), basis_vec(3, 1), w, min_order=kf._MAX_TERMS)
        alg = AlmostAbelianAlgebra(NILP)
        assert (omega_right(alg, basis_vec(3, 2), w, min_order=kf._MAX_TERMS)
                == omega_right(alg, basis_vec(3, 2), w))

    def test_matches_exp_action_on_ideal_vectors(self):
        # along pure b directions the value is the exponentiated derivation
        alg = AlmostAbelianAlgebra(NILP)
        gamma = Fraction(3, 2)
        w = (gamma, Fraction(0), Fraction(0))
        for i in (1, 2):
            got = omega_right(alg, basis_vec(3, i), w)
            expected = exp_action(alg.derivation_full, gamma, SymTensor.basis(3, i))
            assert SymTensor.from_vector(3, got) == expected

    def test_b_series_closed_form(self):
        # the value on b is b + sum_{k>=1} (-gamma)^(k-1)/k! D^k(h)
        shift = Endomorphism.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        alg = AlmostAbelianAlgebra(shift)
        gamma = Fraction(2)
        h = (Fraction(1), Fraction(1), Fraction(3))
        w = (gamma, *h)
        got = omega_right(alg, basis_vec(4, 0), w)
        dh = alg.derivation.apply(h)
        d2h = alg.derivation.apply(dh)  # D^3 = 0
        expected = (Fraction(1),) + tuple(
            a - gamma * b / 2 for a, b in zip(dh, d2h))
        assert got == expected


class TestOmegaDerivation:
    def test_zero_at_origin(self):
        for d in derivation_suite(per_kind=1, sizes=(2, 3)):
            alg = AlmostAbelianAlgebra(d)
            for t in skew_derivations(alg):
                w = (Fraction(0),) * alg.dim
                assert omega_derivation(alg, t, w) == w

    def test_block_applied_at_gamma_zero(self):
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        t = SkewDerivation((Fraction(0), Fraction(0)), J2)
        h = (Fraction(2), Fraction(-1))
        w = (Fraction(0), *h)
        got = omega_derivation(alg, t, w)
        assert got == (Fraction(0), *J2.apply(h))

    def test_rotation_block_vanishes_along_b(self):
        alg = AlmostAbelianAlgebra(J2)
        t = skew_derivations(alg)[0]
        got = omega_derivation(alg, t, basis_vec(3, 0), order=40)
        assert all(x == 0 for x in got)

    def test_closed_form_matches_general_series(self):
        rng = random.Random(9)
        with mp.workdps(50):
            for d in derivation_suite(per_kind=2):
                alg = AlmostAbelianAlgebra(d)
                for t in skew_derivations(alg):
                    for _ in range(3):
                        w = tuple(mp.mpf(rng.uniform(-2, 2)) for _ in range(alg.dim))
                        closed = omega_derivation(alg, t, w)
                        series = omega_derivation_matrix(alg, t.full_matrix(), w)
                        dev = max(abs(a - b) for a, b in zip(closed, series))
                        assert dev < mp.mpf(10) ** (-30)

    def test_nonzero_b_image_branch(self):
        # nilpotent block admits derivations moving b; exercise the g(v,h) terms
        alg = AlmostAbelianAlgebra(NILP)
        candidates = [t for t in skew_derivations(alg) if any(x != 0 for x in t.b_image)]
        assert candidates
        t = candidates[0]
        w = (Fraction(1), Fraction(2), Fraction(3))
        closed = omega_derivation(alg, t, w)
        series = omega_derivation_matrix(alg, t.full_matrix(), w)
        assert closed == series  # nilpotent: both terminate exactly


class TestOmegaTensor:
    def test_metric_generator_constant(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = Certificate(target=sum_of_squares(3) * Fraction(1, 2),
                           terms=((Fraction(1), (Metric(),)),))
        w = (Fraction(1), Fraction(-2), Fraction(3))
        assert omega_tensor(alg, cert, w, order=25) == cert.target

    def test_left_invariant_generators_constant(self):
        alg = AlmostAbelianAlgebra(J2)
        b = LeftInvariant(basis_vec(3, 0))
        cert = Certificate(target=SymTensor.monomial(3, (0, 0)),
                           terms=((Fraction(1), (b, b)),))
        w = (Fraction(2), Fraction(1), Fraction(0))
        assert omega_tensor(alg, cert, w, order=25) == cert.target

    def test_opposite_exponentials_cancel(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = Certificate(
            target=SymTensor.monomial(3, (1, 2)),
            terms=((Fraction(1), (RightInvariant(basis_vec(3, 1)),
                                  RightInvariant(basis_vec(3, 2)))),))
        with mp.workdps(40):
            for gamma in (0.7, -1.9):
                w = (mp.mpf(gamma), mp.mpf(0), mp.mpf(0))
                val = omega_tensor(alg, cert, w)
                assert abs(val.terms[(1, 2)] - 1) < 1e-25
                assert all(abs(c) < 1e-25 for m, c in val.terms.items() if m != (1, 2))


class TestDecomposeIdeal:
    def test_mixed_monomial(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = decompose_ideal_tensor(alg, SymTensor.monomial(3, (1, 2)))
        assert cert.terms == ((Fraction(1), (RightInvariant(basis_vec(3, 1)),
                                             RightInvariant(basis_vec(3, 2)))),)

    def test_ideal_squares_for_rotation(self):
        alg = AlmostAbelianAlgebra(J2)
        cert = decompose_ideal_tensor(alg, alg.ideal_twice_metric)
        assert len(cert.terms) == 2
        assert all(len(fs) == 2 and fs[0] == fs[1] for _, fs in cert.terms)

    def test_scalar(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = decompose_ideal_tensor(alg, SymTensor.monomial(3, (), Fraction(7, 2)))
        assert cert.terms == ((Fraction(7, 2), ()),)

    def test_rejects_b_support(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(ValueError):
            decompose_ideal_tensor(alg, SymTensor.monomial(3, (0, 1)))

    def test_rejects_non_killing(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(NotKillingError):
            decompose_ideal_tensor(alg, SymTensor.monomial(3, (1, 1)))


class TestDecompose:
    def test_basis_squares_to_double_metric(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = decompose(alg, alg.twice_metric)
        assert cert.terms == ((Fraction(2), (Metric(),)),)

    def test_odd_layer_for_skew(self):
        alg = AlmostAbelianAlgebra(J2)
        cert = decompose(alg, alg.b_tensor() * alg.twice_metric)
        assert cert.terms == ((Fraction(2), (Metric(), LeftInvariant(basis_vec(3, 0)))),)

    def test_mixed_example(self):
        alg = AlmostAbelianAlgebra(DIAG)
        k = SymTensor.monomial(3, (1, 2)) + alg.twice_metric
        cert = decompose(alg, k)
        terms = set(cert.terms)
        assert (Fraction(2), (Metric(),)) in terms
        assert (Fraction(1), (RightInvariant(basis_vec(3, 1)),
                              RightInvariant(basis_vec(3, 2)))) in terms
        assert len(terms) == 2

    def test_rejects_non_killing_with_diagnosis(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(NotKillingError) as err:
            decompose(alg, SymTensor.monomial(3, (0, 1)))
        assert err.value.diagnosis is not None
        assert any("odd part" in f for f in err.value.diagnosis.failures)

    def test_left_invariant_b_only_when_skew(self):
        rng = random.Random(71)
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            skew = d.is_skew()
            p = rng.randint(0, 3)
            for k in alg.killing_space_bruteforce(p).basis:
                cert = decompose(alg, k)
                uses_b = any(isinstance(g, LeftInvariant) for _, fs in cert.terms for g in fs)
                if uses_b:
                    assert skew

    def test_exact_at_origin(self):
        rng = random.Random(73)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            p = rng.randint(0, 4)
            for k in alg.killing_space_bruteforce(p).basis:
                cert = decompose(alg, k)
                zero = (Fraction(0),) * alg.dim
                assert omega_tensor(alg, cert, zero, order=0) == k


class TestVerifyCertificate:
    def test_valid_certificates_pass(self):
        alg = AlmostAbelianAlgebra(DIAG)
        for p in (2, 3, 4):
            for k in alg.killing_space_bruteforce(p).basis:
                check = verify_certificate(alg, decompose(alg, k))
                assert check.passed and check.exact_at_zero
                assert check.max_deviation < 1e-9

    def test_metric_certificate_deviation_exactly_zero(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = Certificate(target=sum_of_squares(3) * Fraction(1, 2),
                           terms=((Fraction(1), (Metric(),)),))
        check = verify_certificate(alg, cert)
        assert check.passed and check.max_deviation == 0.0

    def test_broken_certificate_fails(self):
        # xi_{h1}^2 is not constant when the derivation stretches h1
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 0]))
        cert = Certificate(
            target=SymTensor.monomial(3, (1, 1)),
            terms=((Fraction(1), (RightInvariant(basis_vec(3, 1)),
                                  RightInvariant(basis_vec(3, 1)))),))
        check = verify_certificate(alg, cert)
        assert not check.passed
        assert check.exact_at_zero  # at the origin it does match
        assert check.max_deviation > 1e-3

    def test_wrong_target_detected_exactly(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = Certificate(target=2 * sum_of_squares(3),
                           terms=((Fraction(1), (Metric(),)),))
        check = verify_certificate(alg, cert)
        assert not check.exact_at_zero and not check.passed

    def test_deterministic(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = decompose(alg, SymTensor.monomial(3, (1, 2)))
        a = verify_certificate(alg, cert)
        b = verify_certificate(alg, cert)
        assert a == b

    def test_seed_changes_samples(self):
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 0]))
        cert = Certificate(
            target=SymTensor.monomial(3, (1, 1)),
            terms=((Fraction(1), (RightInvariant(basis_vec(3, 1)),
                                  RightInvariant(basis_vec(3, 1)))),))
        a = verify_certificate(alg, cert, seed=1)
        b = verify_certificate(alg, cert, seed=2)
        assert a.max_deviation != b.max_deviation


class TestDerivationFieldCertificates:
    def test_exact_at_origin_but_not_constant(self):
        # every derivation-induced field vanishes at the identity, so a
        # certificate built from one matches any zero target exactly at the
        # origin while its sampled pullback moves
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        t = skew_derivations(alg)[0]
        cert = Certificate(target=SymTensor.zero(3, 1),
                           terms=((Fraction(1), (DerivationField(t),)),))
        check = verify_certificate(alg, cert)
        assert check.exact_at_zero
        assert not check.passed and check.max_deviation > 1e-3


class TestPrecisionHostileCases:
    def test_large_symmetric_eigenvalues_degree_four(self):
        # eigenvalues +-2 make the factor values grow like e^(4|gamma|); the
        # additive cancellation across monomials needs extended precision
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, 2], [2, 0]]))
        space = alg.killing_space_bruteforce(4)
        assert space.dimension >= 1
        for k in space.basis:
            check = verify_certificate(alg, decompose(alg, k))
            assert check.passed
            assert check.max_deviation < 1e-9

    def test_working_precision_is_not_capped(self):
        # ||ad_w||_1 up to 800 at the default samples: the amplification bound
        # asks for 1090 digits, and at 300 digits two of the three fail
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([200, -200]))
        checks = [verify_certificate(alg, decompose(alg, k))
                  for k in alg.killing_space_structured(4).basis]
        assert [c.passed for c in checks] == [True] * 3
        assert max(c.precision_digits for c in checks) > 300


class TestTruncatedExactSeries:
    def test_explicit_order_gives_rational_partial_sum(self):
        # non-terminating series, truncated by hand over exact arithmetic
        alg = AlmostAbelianAlgebra(DIAG)
        x = basis_vec(3, 1)
        gamma = Fraction(1, 2)
        w = (gamma, Fraction(0), Fraction(0))
        got = omega_right(alg, x, w, order=3)
        # ad_w h1 = (gamma) h1 under diag(1,-1), so the value is the partial
        # exponential sum in -gamma
        partial = sum((-gamma) ** k / factorial(k) for k in range(4))
        assert got == (Fraction(0), partial, Fraction(0))

    def test_order_zero_returns_argument(self):
        alg = AlmostAbelianAlgebra(DIAG)
        x = basis_vec(3, 2)
        assert omega_right(alg, x, (Fraction(1), Fraction(2), Fraction(3)), order=0) == x


class TestVerifyParameters:
    # target e1^2 against right:1^2 on D = diag(1, 2): exact at the origin, wrong elsewhere
    ALG = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 2]))
    R1 = RightInvariant(basis_vec(3, 1))
    CERT = Certificate(target=SymTensor.monomial(3, (1, 1)), terms=((Fraction(1), (R1, R1)),))

    def test_sampled_check_rejects(self):
        assert not verify_certificate(self.ALG, self.CERT, samples=3).passed

    @pytest.mark.parametrize("kwargs", [pytest.param({"samples": 0}, id="0"),
                                        pytest.param({"samples": -3}, id="-3"),
                                        pytest.param({"order_floor": -1}, id="order_floor=-1")])
    def test_no_samples_is_an_error(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            verify_certificate(self.ALG, self.CERT, **kwargs)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("inf"), float("nan")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_certificate(self.ALG, self.CERT, tol=tol)

    def test_degree_mismatch_is_a_value_error(self):
        cert = Certificate(target=SymTensor.monomial(3, (1, 1)),
                           terms=((Fraction(1), (self.R1,)),))
        with pytest.raises(ValueError, match="term 0 has degree 1, the target has degree 2"):
            verify_certificate(self.ALG, cert)
        with pytest.raises(ValueError, match="degree"):
            omega_tensor(self.ALG, cert, (Fraction(0),) * 3, order=0)


# ---------------------------------------------------------------------------
# the compiled (Horner) evaluation against the term-by-term expansion
# ---------------------------------------------------------------------------

def _split(m):
    """A skew derivation matrix of any algebra as split pieces."""
    n = m.dim - 1
    return SkewDerivation(tuple(m.entries[i + 1][0] for i in range(n)),
                          Endomorphism(tuple(tuple(m.entries[i + 1][j + 1] for j in range(n))
                                             for i in range(n))))


def _so3():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i][j][k] = Fraction(1)
        c[j][i][k] = Fraction(-1)
    return MetricLieAlgebra(c)


def _almost_abelian(rows):
    alg = AlmostAbelianAlgebra(Endomorphism.from_rows(rows))
    return alg, skew_derivations(alg)


_SO3 = _so3()
# (algebra, skew derivations as split pieces): one general algebra and
# almost abelian ones with and without skew derivations
ORACLE_CASES = {
    "so3": (_SO3, tuple(_split(m) for m in skew_derivation_basis(_SO3))),
    "rotation": _almost_abelian([[0, -1], [1, 0]]),
    "abelian": _almost_abelian([[0, 0], [0, 0]]),
    "diag(1,2)": _almost_abelian([[1, 0], [0, 2]]),
    "rotation+stretch": _almost_abelian([[0, -1, 0], [1, 0, 0], [0, 0, "1/2"]]),
}
_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def certificates(draw):
    """``(algebra, certificate)``: random terms over all four generator
    kinds, drawn from a small pool so factors repeat, with the factors of
    each term in random order; degree 0 gives terms without factors."""
    alg, derivations = ORACLE_CASES[draw(st.sampled_from(sorted(ORACLE_CASES)))]
    dim = alg.dim
    vector = st.tuples(*[_RATIONAL] * dim)
    pool = [Metric()]
    for _ in range(draw(st.integers(1, 3))):
        pool.append(draw(st.sampled_from([LeftInvariant, RightInvariant]))(draw(vector)))
    pool.append(RightInvariant(basis_vec(dim, draw(st.integers(0, dim - 1)))))
    if derivations:
        pool.append(DerivationField(draw(st.sampled_from(derivations))))
    degree = draw(st.integers(0, 3))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        factors = []
        while sum(generator_degree(g) for g in factors) < degree:
            left = degree - sum(generator_degree(g) for g in factors)
            factors.append(draw(st.sampled_from([g for g in pool if generator_degree(g) <= left])))
        terms.append((draw(_RATIONAL), tuple(draw(st.permutations(factors)))))
    return alg, Certificate(target=SymTensor.zero(dim, degree), terms=tuple(terms))


class TestHornerAgainstTermByTerm:
    @settings(max_examples=150, deadline=None)
    @given(certificates(), st.data())
    def test_exact_points(self, case, data):
        alg, cert = case
        w = data.draw(st.tuples(*[_RATIONAL] * alg.dim))
        order = data.draw(st.integers(0, 3))
        assert omega_tensor(alg, cert, w, order=order) == omega_tensor_oracle(alg, cert, w, order)

    @settings(max_examples=100, deadline=None)
    @given(certificates(), st.data())
    def test_mpf_points(self, case, data):
        alg, cert = case
        coords = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
        w = data.draw(st.tuples(*[coords] * alg.dim))
        with mp.workdps(50):
            wm = tuple(mp.mpf(x) for x in w)
            got = omega_tensor(alg, cert, wm)
            want = omega_tensor_oracle(alg, cert, wm)
            scale = max([mp.mpf(1)] + [abs(c) for c in want.terms.values()])
            for mono in set(got.terms) | set(want.terms):
                diff = got.terms.get(mono, 0) - want.terms.get(mono, 0)
                assert abs(diff) <= mp.mpf("1e-40") * scale

    def test_merges_terms_with_reordered_factors(self):
        alg, _ = ORACLE_CASES["diag(1,2)"]
        a, b = RightInvariant(basis_vec(3, 1)), LeftInvariant(basis_vec(3, 0))
        cert = Certificate(target=SymTensor.zero(3, 2),
                           terms=((Fraction(1), (a, b)), (Fraction(2), (b, a))))
        compiled = CompiledCertificate(cert)
        assert compiled.coefficients == (Fraction(3),)
        w = (Fraction(1, 2), Fraction(1), Fraction(-1))
        assert omega_tensor(alg, compiled, w, order=3) == omega_tensor_oracle(alg, cert, w, 3)


# ---------------------------------------------------------------------------
# the memo of generator values at sample points
# ---------------------------------------------------------------------------

_FRESH_CHECK = """
import sys
from killingtensors import AlmostAbelianAlgebra, Endomorphism, decompose, verify_certificate
alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -1], [1, 0]]))
cert = decompose(alg, alg.killing_space_structured(2).basis[1])
print(repr(verify_certificate(alg, cert, tol=float(sys.argv[1]))))
"""


class TestSampledValueMemo:
    # target e1^2 against right:1^2: constant only when the derivation is zero
    R1 = RightInvariant(basis_vec(3, 1))
    CERT = Certificate(target=SymTensor.monomial(3, (1, 1)), terms=((Fraction(1), (R1, R1)),))

    # D = 0 accepts the certificate; D = diag(-1, -2) has the ad_w norms of
    # D = diag(1, 2), hence the same working digits and series order
    @pytest.mark.parametrize("first", [[0, 0], [-1, -2]])
    def test_values_of_another_algebra_are_not_reused(self, first):
        other = AlmostAbelianAlgebra(Endomorphism.diagonal(first))
        stretched = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 2]))
        kf._sampled_value.cache_clear()
        kf._point_norm.cache_clear()
        alone = verify_certificate(stretched, self.CERT)
        kf._sampled_value.cache_clear()
        kf._point_norm.cache_clear()
        assert verify_certificate(other, self.CERT).passed == (first == [0, 0])
        after = verify_certificate(stretched, self.CERT)
        assert not after.passed
        assert after.max_deviation == alone.max_deviation
        assert after == alone

    def test_norms_of_another_algebra_are_not_reused(self):
        # the same sample points: ||ad_w||_1 is 0 on D = 0, and on diag(20, -20)
        # it asks for more than the 50-digit floor
        wide = AlmostAbelianAlgebra(Endomorphism.diagonal([20, -20]))
        kf._point_norm.cache_clear()
        alone = verify_certificate(wide, self.CERT, samples=3)
        kf._point_norm.cache_clear()
        verify_certificate(AlmostAbelianAlgebra(Endomorphism.diagonal([0, 0])), self.CERT,
                           samples=3)
        after = verify_certificate(wide, self.CERT, samples=3)
        assert after.precision_digits == alone.precision_digits > 50

    def test_shared_generators_are_summed_once(self, monkeypatch):
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 2]))
        r2 = RightInvariant(basis_vec(3, 2))
        other = Certificate(target=SymTensor.monomial(3, (1, 2)),
                            terms=((Fraction(1), (self.R1, r2)),))
        series = kf._ad_series
        sampled = []

        def counting(lie, w, x, s, shift, order, min_order):
            if shift is not None:
                sampled.append((tuple(w), tuple(x)))
            return series(lie, w, x, s, shift, order, min_order)

        monkeypatch.setattr(kf, "_ad_series", counting)
        kf._sampled_value.cache_clear()
        first = verify_certificate(alg, self.CERT, samples=5)
        second = verify_certificate(alg, other, samples=5)
        # same working precision and order, so right:1 repeats at every point
        assert first.precision_digits == second.precision_digits
        assert len(sampled) == len(set(sampled)) == 2 * 5

    def test_two_tolerances_match_fresh_processes(self):
        # tol 1e-9 and 1e-40 need the series to orders 21 and 50
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -1], [1, 0]]))
        cert = decompose(alg, alg.killing_space_structured(2).basis[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(kf.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        kf._sampled_value.cache_clear()
        for tol in ("1e-9", "1e-40"):
            here = repr(verify_certificate(alg, cert, tol=float(tol)))
            fresh = subprocess.run([sys.executable, "-c", _FRESH_CHECK, tol], env=env,
                                   capture_output=True, text=True, check=True).stdout.strip()
            assert here == fresh


# ---------------------------------------------------------------------------
# the fixed-point series kernel against independent references
# ---------------------------------------------------------------------------

def _heisenberg():
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = Fraction(1), Fraction(-1)
    return MetricLieAlgebra(c)


def _kernel_cases():
    rng = random.Random(20251018)
    cases = {"so3": _SO3, "heisenberg": _heisenberg()}
    for n in (1, 2, 3):
        for kind in ("skew", "symmetric", "nilpotent", "generic"):
            cases[f"{kind} dim {n + 1}"] = AlmostAbelianAlgebra(random_derivation(rng, n, kind))
    return cases


KERNEL_CASES = _kernel_cases()
KERNEL_ORDER = 200  # past every tail: the tests compare arithmetic, not truncation
MAX_TERMS = 5000


def _ad_norm(alg, w):
    n = alg.dim
    return max(sum(abs(sum(float(w[i]) * float(alg.structure[i][j][k]) for i in range(n)))
                   for k in range(n)) for j in range(n))


def kernel_bound(alg, w, x):
    """The error bound stated in ``killingfields``: fixed-point floors at
    ``2^-P``, P = prec + bit_length(n^2 K) + 8, amplified by ``e^a``,
    plus the final rounding of a value of size ``<= e^a ||x||_1``."""
    n = alg.dim
    u = 2.0 ** -(mp.prec + (n * n * MAX_TERMS).bit_length() + 8)
    e = math.exp(_ad_norm(alg, w))
    xn = sum(abs(float(c)) for c in x)
    return u * e * (n * MAX_TERMS + n * n * (1 + e * xn)) + 2.0 ** -mp.prec * e * xn


def _mpf(c):
    return mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpf(c)


def _expm_reference(alg, w, x, phi):
    """``exp(-ad_w) x`` by ``mp.expm``, or ``phi(-ad_w) x`` as the top right
    block of ``exp([[-ad_w, I], [0, 0]])`` (Van Loan 1978)."""
    n = alg.dim
    a = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = alg.structure[i][j][k]
                if c:
                    a[k, j] -= _mpf(w[i]) * _mpf(c)
    if not phi:
        e = mp.expm(a)
    else:
        big = mp.matrix(2 * n, 2 * n)
        for i in range(n):
            big[i, n + i] = 1
            for j in range(n):
                big[i, j] = a[i, j]
        e = mp.expm(big)[0:n, n:2 * n]
    xv = mp.matrix([_mpf(c) for c in x])
    return tuple((e * xv)[i] for i in range(n))


def _assert_within(got, want, bound):
    assert len(got) == len(want)
    worst = max(abs(g - r) for g, r in zip(got, want))
    assert worst <= bound, f"deviation {mp.nstr(worst, 5)} exceeds the bound {bound:.3e}"


def _tw(t, w):
    return tuple(sum(c * v for c, v in zip(row, w)) for row in t.entries)


_COORD = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
_KERNEL_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 7]))


@st.composite
def kernel_inputs(draw, exact=False):
    """``(algebra, w, x, T)``: a float or rational point, a rational vector
    and a rational matrix ``T`` for the phi series."""
    alg = KERNEL_CASES[draw(st.sampled_from(sorted(KERNEL_CASES)))]
    n = alg.dim
    coord = _KERNEL_RATIONAL if exact else draw(st.sampled_from([_COORD, _KERNEL_RATIONAL]))
    w = draw(st.tuples(*[coord] * n))
    x = draw(st.tuples(*[_KERNEL_RATIONAL] * n))
    t = Endomorphism.from_rows([[draw(_KERNEL_RATIONAL) for _ in range(n)] for _ in range(n)])
    return alg, w, x, t


class TestSeriesKernel:
    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs(exact=True), st.integers(0, 3))
    def test_exact_truncations(self, case, order):
        alg, w, x, t = case
        assert omega_right(alg, x, w, order=order) == omega_series_oracle(alg, x, w, order=order)
        assert omega_derivation_matrix(alg, t, w, order=order) == omega_series_oracle(
            alg, _tw(t, w), w, phi=True, order=order)

    def test_exact_terminating_series(self):
        alg = KERNEL_CASES["heisenberg"]
        w, x = (Fraction(3, 2), Fraction(-2), Fraction(5)), (Fraction(1), Fraction(2), Fraction(0))
        t = Endomorphism.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert omega_right(alg, x, w) == omega_series_oracle(alg, x, w)
        assert omega_derivation_matrix(alg, t, w) == omega_series_oracle(alg, _tw(t, w), w, True)

    def test_exact_non_terminating_phi_raises(self):
        alg = KERNEL_CASES["so3"]
        t = Endomorphism.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="does not terminate"):
            omega_derivation_matrix(alg, t, (Fraction(1), Fraction(1), Fraction(0)))

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_exp_against_mpf_series_and_expm(self, case):
        alg, w, x, _ = case
        with mp.workdps(50):
            # mpf entries in x make a rational point numeric as well
            got = omega_right(alg, tuple(_mpf(c) for c in x), w, min_order=KERNEL_ORDER)
            bound = kernel_bound(alg, w, x)
            with mp.workdps(70):
                series = omega_series_oracle(alg, tuple(_mpf(c) for c in x), w,
                                             min_order=KERNEL_ORDER)
                expm = _expm_reference(alg, w, x, phi=False)
            _assert_within(got, series, bound)
            _assert_within(got, expm, bound)

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_phi_against_mpf_series_and_expm(self, case):
        alg, w, _, t = case
        w = tuple(float(c) for c in w)
        with mp.workdps(50):
            got = omega_derivation_matrix(alg, t, w, min_order=KERNEL_ORDER)
            tw = _tw(t, tuple(Fraction(c) for c in w))
            bound = kernel_bound(alg, w, tw)
            with mp.workdps(70):
                series = omega_series_oracle(alg, tw, w, phi=True, min_order=KERNEL_ORDER)
                expm = _expm_reference(alg, w, tw, phi=True)
            _assert_within(got, series, bound)
            _assert_within(got, expm, bound)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(n for n, a in KERNEL_CASES.items()
                                  if isinstance(a, AlmostAbelianAlgebra) and skew_derivations(a))),
           st.data())
    def test_phi_against_closed_form(self, name, data):
        alg = KERNEL_CASES[name]
        t = data.draw(st.sampled_from(skew_derivations(alg)))
        w = data.draw(st.tuples(*[_COORD] * alg.dim))
        with mp.workdps(50):
            got = omega_generator(alg, DerivationField(t), w, min_order=KERNEL_ORDER)
            bound = kernel_bound(alg, w, _tw(t.full_matrix(), tuple(Fraction(c) for c in w)))
            with mp.workdps(70):
                closed = omega_derivation(alg, t, tuple(mp.mpf(c) for c in w),
                                          min_order=KERNEL_ORDER)
            _assert_within(tuple(_mpf(got.coeff((i,))) for i in range(alg.dim)), closed, bound)

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_large_norm_point(self, name):
        alg = KERNEL_CASES[name]
        w = (7.5, -6.25, 5.0, -4.5)[:alg.dim]
        x = tuple(Fraction(1, i + 1) for i in range(alg.dim))
        with mp.workdps(50):
            got = omega_right(alg, x, w, min_order=KERNEL_ORDER)
            bound = kernel_bound(alg, w, x)
            with mp.workdps(70):
                expm = _expm_reference(alg, w, x, phi=False)
            _assert_within(got, expm, bound)

    def test_term_cap(self):
        # ||ad_w||_1 = 6000 puts the hump past the 5000-term cap
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([2, 2]))
        with mp.workdps(20), pytest.raises(RuntimeError, match="converge"):
            omega_right(alg, basis_vec(3, 1), (3000.0, 0.0, 0.0))

    def test_nilpotent_series_past_the_cap_terminates(self):
        # ||ad_w||_1 = 6000 puts the hump past the cap, but ad_w^2 = 0: the
        # series is x - ad_w x
        alg = AlmostAbelianAlgebra(NILP)
        with mp.workdps(20):
            got = omega_right(alg, basis_vec(3, 2), (6000.0, 0.0, 0.0))
        assert got == (0, -6000, 1)
