import math
import random
from fractions import Fraction

import pytest

from killingtensors import (
    AlmostAbelianAlgebra,
    Endomorphism,
    classify,
    flat_metric_certificate,
    left_invariant_killing_vectors,
    metric_obstruction,
    sym2_from_endo,
    verify_certificate,
)
from conftest import derivation_suite, random_derivation

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])


class TestClassify:
    def test_rotation_is_flat(self):
        assert classify(AlmostAbelianAlgebra(J2)).kind == "flat"

    def test_identity_is_constant_negative(self):
        d = Endomorphism.identity(2)
        cls = classify(AlmostAbelianAlgebra(d))
        assert cls.kind == "constant_negative"
        assert cls.curvature_scale == 1
        # D = lambda I + S, with skew part S = 0
        assert d - cls.curvature_scale * Endomorphism.identity(2) == Endomorphism.zero(2)

    def test_identity_plus_rotation(self):
        d = Endomorphism.identity(2) + J2
        cls = classify(AlmostAbelianAlgebra(d))
        assert cls.kind == "constant_negative"
        assert cls.curvature_scale == 1
        assert d - cls.curvature_scale * Endomorphism.identity(2) == J2

    def test_negative_scale(self):
        cls = classify(AlmostAbelianAlgebra(Endomorphism.diagonal([-2, -2, -2])))
        assert cls.kind == "constant_negative" and cls.curvature_scale == -2

    def test_mixed_diagonal_not_constant(self):
        assert classify(AlmostAbelianAlgebra(DIAG)).kind == "not_constant"

    def test_flat_iff_sym2_vanishes_iff_b_killing(self):
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            flat = classify(alg).kind == "flat"
            assert flat == sym2_from_endo(d).is_zero()
            assert flat == alg.killing_operator(alg.b_tensor()).is_zero()


class TestFlatCertificate:
    def test_rotation_certificate_passes(self):
        alg = AlmostAbelianAlgebra(J2)
        cert = flat_metric_certificate(alg)
        assert cert.target == alg.twice_metric
        from killingtensors import Metric
        assert not any(isinstance(g, Metric) for _, fs in cert.terms for g in fs)
        assert verify_certificate(alg, cert).passed

    def test_abelian_exact(self):
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        check = verify_certificate(alg, flat_metric_certificate(alg))
        assert check.passed and check.max_deviation == 0.0

    def test_random_skew_blocks(self):
        rng = random.Random(83)
        for _ in range(6):
            n = rng.choice((2, 3))
            alg = AlmostAbelianAlgebra(random_derivation(rng, n, "skew"))
            check = verify_certificate(alg, flat_metric_certificate(alg))
            assert check.passed and check.max_deviation < 1e-9

    def test_rejected_off_the_flat_case(self):
        with pytest.raises(ValueError):
            flat_metric_certificate(AlmostAbelianAlgebra(DIAG))


class TestLeftInvariantKillingVectors:
    def test_constant_negative_has_none(self):
        rng = random.Random(89)
        for _ in range(5):
            a = random_derivation(rng, 2, "skew")
            d = Endomorphism.identity(2) + a
            assert left_invariant_killing_vectors(AlmostAbelianAlgebra(d)).dimension == 0

    def test_rotation_has_only_b(self):
        space = left_invariant_killing_vectors(AlmostAbelianAlgebra(J2))
        assert space.dimension == 1

    def test_abelian_has_everything(self):
        space = left_invariant_killing_vectors(AlmostAbelianAlgebra(Endomorphism.zero(3)))
        assert space.dimension == 4

    def test_kernel_plus_b_for_skew(self):
        rng = random.Random(97)
        for _ in range(5):
            d = random_derivation(rng, 3, "skew")
            alg = AlmostAbelianAlgebra(d)
            kernel_dim = len(alg.derivation_kernel(1))
            assert left_invariant_killing_vectors(alg).dimension == kernel_dim + 1


class TestObstruction:
    def test_identity_two_dimensional(self):
        alg = AlmostAbelianAlgebra(Endomorphism.identity(2))
        rep = metric_obstruction(alg)
        assert rep.eigen_scalar == 2
        assert rep.derivative_of_ideal_squares == 2 * alg.ideal_twice_metric
        assert rep.obstructed
        want = math.exp(-2) - 1
        assert abs(rep.residual_coefficients[(1, 1)] - want) < 1e-9
        assert abs(rep.residual_coefficients[(2, 2)] - want) < 1e-9
        assert abs(rep.residual_max - abs(want)) < 1e-9

    def test_half_scale_three_dimensional(self):
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([Fraction(1, 2)] * 3))
        rep = metric_obstruction(alg)
        assert rep.eigen_scalar == 1
        assert rep.derivative_of_ideal_squares == alg.ideal_twice_metric

    def test_skew_part_does_not_contribute(self):
        alg = AlmostAbelianAlgebra(Endomorphism.identity(2) + J2)
        rep = metric_obstruction(alg)
        assert rep.derivative_of_ideal_squares == 2 * alg.ideal_twice_metric
        # the rotated right-invariant fields cancel exactly in the cross term
        assert set(rep.residual_coefficients) == {(1, 1), (2, 2)}

    def test_rejects_flat_and_nonconstant(self):
        with pytest.raises(ValueError):
            metric_obstruction(AlmostAbelianAlgebra(J2))
        with pytest.raises(ValueError):
            metric_obstruction(AlmostAbelianAlgebra(DIAG))

    def test_eigen_relation_exact_for_random_scales(self):
        rng = random.Random(101)
        for lam in (Fraction(1), Fraction(1, 2), Fraction(-2)):
            for n in (2, 3):
                d = lam * Endomorphism.identity(n) + random_derivation(rng, n, "skew")
                alg = AlmostAbelianAlgebra(d)
                rep = metric_obstruction(alg)
                assert rep.eigen_scalar == 2 * lam
                assert rep.derivative_of_ideal_squares == (2 * lam) * alg.ideal_twice_metric
                assert rep.residual_max > 0
