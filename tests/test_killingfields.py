import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import killingtensors.fileformats as ff
import killingtensors.killingfields as kf
import killingtensors.liealgebra
from killingtensors.tensors import basis_monomials, monomial_positions, product_positions

from killingtensors import (
    AlmostAbelianAlgebra,
    Certificate,
    CompiledCertificate,
    DerivationField,
    Endomorphism,
    EvaluationCapError,
    GeneratorError,
    LeftInvariant,
    LevelCapError,
    MAX_EVALUATION_INDICES,
    MAX_LEVEL_INDICES,
    Metric,
    MAX_SAMPLED_FACTOR_DIGITS,
    MAX_SAMPLED_LEVEL_INDICES,
    MAX_SAMPLES,
    MAX_WORKING_DIGITS,
    MetricLieAlgebra,
    NotKillingError,
    PrecisionCapError,
    RightInvariant,
    SampleCapError,
    SampledLevelCapError,
    SampledWorkCapError,
    SkewDerivation,
    SymTensor,
    basis_fields,
    decompose,
    flat_metric_certificate,
    generator_degree,
    omega_generator,
    omega_tensor,
    sample_points,
    skew_derivation_basis,
    skew_derivations,
    sum_of_squares,
    sym_dimension,
    verify_certificate,
)
from conftest import (DERIVATION_KINDS, decompose_oracle, dense_rows, derivation_suite, dot,
                      fixed_series_oracle, horner_oracle, omega_derivation, omega_series_oracle,
                      omega_tensor_oracle, point_oracle, random_derivation, random_vector,
                      series_bounds_oracle, series_kernel_oracle, skew_derivation_basis_oracle,
                      wide_algebras)

J2 = Endomorphism.from_rows([[0, -1], [1, 0]])
DIAG = Endomorphism.diagonal([1, -1])
NILP = Endomorphism.from_rows([[0, 1], [0, 0]])


def basis_vec(dim, i):
    return tuple(Fraction(1 if t == i else 0) for t in range(dim))


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty sampled-value memo in place of the module's for the test,
    and a call that swaps in another and returns it."""
    def swap():
        memo = kf._SampleMemo()
        monkeypatch.setattr(kf, "_MEMO", memo)
        return memo

    swap()
    return swap


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

    def test_one_solve_under_both_module_names(self):
        # perfbench/workloads.py reads the solve as killingfields.skew_derivation_basis
        assert kf.skew_derivation_basis is killingtensors.liealgebra.skew_derivation_basis

    def test_abelian_gives_full_rotation_algebra(self):
        assert len(skew_derivations(AlmostAbelianAlgebra(Endomorphism.zero(2)))) == 3
        assert len(skew_derivation_basis(MetricLieAlgebra(4, {}))) == 6

    def test_nilpotent_allows_nonzero_b_image(self):
        ders = skew_derivations(AlmostAbelianAlgebra(NILP))
        assert any(any(x != 0 for x in t.b_image) for t in ders)

    def test_all_solutions_validate(self):
        # the derivation identity on the pairs (b, h) forces theta D = D theta
        # and D^T v = 0, on the pairs (h, k) D = (D v) v^T / |v|^2
        for d in derivation_suite(per_kind=2):
            alg = AlmostAbelianAlgebra(d)
            for t in skew_derivations(alg):
                full, theta, v = t.full_matrix(), t.ideal_part, t.b_image
                assert full.is_skew()
                assert alg.derivation_residual(full.sparse()) == {}
                assert theta @ d == d @ theta
                assert d.transpose().apply(v) == (0,) * len(v)
                vv, dv = dot(v, v), d.apply(v)
                assert all(a * vv == dv[i] * v[j] for i, row in enumerate(d.entries)
                           for j, a in enumerate(row))

    def test_square_nonzero_forces_zero_b_image(self):
        for d in derivation_suite(per_kind=3):
            if d @ d == Endomorphism.zero(d.dim):
                continue
            alg = AlmostAbelianAlgebra(d)
            for t in skew_derivations(alg):
                assert all(x == 0 for x in t.b_image)

    def test_validation_rejects_bad_candidates(self):
        alg = AlmostAbelianAlgebra(DIAG)
        bad = DerivationField(SkewDerivation((Fraction(0), Fraction(0)), J2))
        cert = Certificate(SymTensor.zero(3, 1), ((Fraction(1), (bad,)),))
        with pytest.raises(GeneratorError, match="not a derivation of the algebra"):
            verify_certificate(alg, cert)

    def test_a_derivation_that_is_not_skew_is_rejected(self):
        # on the abelian algebra of dimension 2 every matrix is a derivation,
        # so only the skewness check refuses the block [[1]]
        alg = AlmostAbelianAlgebra(Endomorphism.zero(1))
        bad = DerivationField(SkewDerivation((Fraction(0),), Endomorphism.from_rows([[1]])))
        assert alg.derivation_residual(bad.derivation.full_matrix().sparse()) == {}
        cert = Certificate(SymTensor.zero(2, 1), ((Fraction(1), (bad,)),))
        where = r"^certificate\.terms\[0\]\.factors\[0\]: "
        with pytest.raises(GeneratorError, match=where + "derivation matrix is not skew$"):
            verify_certificate(alg, cert)

    def test_split_of_a_skew_matrix_round_trips(self):
        algebras = [SO3, HEISENBERG, MetricLieAlgebra(4, {}), AlmostAbelianAlgebra(NILP)]
        for alg in algebras:
            for m in skew_derivation_basis(alg):
                assert SkewDerivation.from_matrix(m).full_matrix() == m


# the benchmark's gallery of almost abelian derivations, and two general algebras
GALLERY = [
    [[0, 0], [0, 0]], [[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [0, 0]],
    [[1, 0], [0, 1]], [[1, -1], [1, 1]], [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    [[2, 0, 0], [0, -1, 0], [0, 0, -1]],
]
SO3 = MetricLieAlgebra(3, {(0, 1, 2): 1, (0, 2, 1): -1, (1, 0, 2): -1, (1, 2, 0): 1,
                           (2, 0, 1): 1, (2, 1, 0): -1})
HEISENBERG = MetricLieAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1})


class TestSkewDerivationBasisOracle:
    """The sparse residual solve against the dense wedge-by-wedge solve."""

    @pytest.mark.parametrize("alg", [SO3, HEISENBERG, MetricLieAlgebra(4, {})]
                             + [AlmostAbelianAlgebra(Endomorphism.from_rows(d)) for d in GALLERY]
                             + [AlmostAbelianAlgebra(d)
                                for d in derivation_suite(sizes=(1, 2, 3, 4))]
                             # dim 10: 45 wedge unknowns, 394 residual rows, a 4-dim kernel
                             + [AlmostAbelianAlgebra(random_derivation(random.Random(10), 9,
                                                                       "skew"))]
                             + wide_algebras())
    def test_equals_dense_oracle(self, alg):
        assert skew_derivation_basis(alg) == skew_derivation_basis_oracle(alg)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.sampled_from(DERIVATION_KINDS))
    def test_random_almost_abelian(self, seed, n, kind):
        alg = AlmostAbelianAlgebra(random_derivation(random.Random(seed), n, kind))
        assert skew_derivation_basis(alg) == skew_derivation_basis_oracle(alg)


def _right(i, dim=3):
    return RightInvariant(basis_vec(dim, i))


def _mpf(c):
    """An exact value, or an mpf, as an mpf at the working precision."""
    return mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpf(c)


class TestOmegaRight:
    def test_rotation_closed_form(self):
        alg = AlmostAbelianAlgebra(J2)
        with mp.workdps(40):
            for gamma in (0.3, -1.2, 2.0):
                got = [_mpf(c) for c in
                       omega_generator(alg, _right(1), (gamma, 0, 0), prec=mp.prec).dense()]
                assert abs(got[1] - mp.cos(gamma)) < 1e-12
                assert abs(got[2] + mp.sin(gamma)) < 1e-12
                assert abs(got[0]) < 1e-12

    def test_constant_inside_ideal(self):
        rng = random.Random(3)
        for d in derivation_suite(per_kind=1):
            alg = AlmostAbelianAlgebra(d)
            x = (Fraction(0), *random_vector(rng, alg.ideal_dim))
            w = (Fraction(0), *random_vector(rng, alg.ideal_dim))
            assert omega_generator(alg, RightInvariant(x), w) == SymTensor.from_vector(alg.dim, x)

    def test_nilpotent_exact(self):
        # e^{-ad_b} h2 = h2 - h1, a terminating two-term series
        alg = AlmostAbelianAlgebra(NILP)
        got = omega_generator(alg, _right(2), basis_vec(3, 0))
        assert got == SymTensor.from_vector(3, (0, -1, 1))

    def test_exact_mode_raises_for_nonterminating(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(ValueError):
            omega_generator(alg, _right(1), basis_vec(3, 0))

    def test_no_room_under_the_term_cap_passes_only_vanishing_series(self):
        # a min_order at the cap leaves the stop rule no room: a converging
        # series is refused after n terms, a nilpotent one is summed as usual
        w = (1, 0, 0)
        with pytest.raises(kf.SeriesCapError):
            omega_generator(AlmostAbelianAlgebra(DIAG), _right(1), w, min_order=kf._MAX_TERMS,
                            prec=53)
        alg = AlmostAbelianAlgebra(NILP)
        assert (omega_generator(alg, _right(2), w, min_order=kf._MAX_TERMS, prec=53)
                == omega_generator(alg, _right(2), w, prec=53))

    def test_matches_exp_action_on_ideal_vectors(self):
        # along pure b directions the value is the exponentiated derivation,
        # a series that terminates for a nilpotent one
        alg = AlmostAbelianAlgebra(NILP)
        gamma = Fraction(3, 2)
        w = (gamma, Fraction(0), Fraction(0))
        for i in (1, 2):
            got = omega_generator(alg, _right(i), w)
            assert got == SymTensor.from_vector(3, omega_series_oracle(alg, basis_vec(3, i), w))

    def test_b_series_closed_form(self):
        # the value on b is b + sum_{k>=1} (-gamma)^(k-1)/k! D^k(h)
        shift = Endomorphism.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        alg = AlmostAbelianAlgebra(shift)
        gamma = Fraction(2)
        h = (Fraction(1), Fraction(1), Fraction(3))
        w = (gamma, *h)
        got = omega_generator(alg, _right(0, 4), w)
        dh = alg.derivation.apply(h)
        d2h = alg.derivation.apply(dh)  # D^3 = 0
        expected = (Fraction(1),) + tuple(
            a - gamma * b / 2 for a, b in zip(dh, d2h))
        assert got == SymTensor.from_vector(4, expected)


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
                        w = tuple(rng.uniform(-2, 2) for _ in range(alg.dim))
                        closed = omega_derivation(alg, t, w)
                        series = [_mpf(c) for c in omega_generator(
                            alg, DerivationField(t), w, prec=mp.prec).dense()]
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
        series = omega_generator(alg, DerivationField(t), w)
        assert SymTensor.from_vector(3, closed) == series  # nilpotent: both terminate exactly


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
                val = omega_tensor(alg, cert, (gamma, 0, 0), prec=mp.prec)
                assert abs(val.terms[(1, 2)] - 1) < 1e-25
                assert all(abs(c) < 1e-25 for m, c in val.terms.items() if m != (1, 2))


class TestDecomposeIdeal:
    """A Killing tensor supported on the ideal is one layer: its certificate
    puts one right-invariant field in place of each factor."""

    def test_mixed_monomial(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = decompose(alg, SymTensor.monomial(3, (1, 2)))
        assert cert.terms == ((Fraction(1), (RightInvariant(basis_vec(3, 1)),
                                             RightInvariant(basis_vec(3, 2)))),)
        assert verify_certificate(alg, cert).passed

    def test_ideal_squares_for_rotation(self):
        alg = AlmostAbelianAlgebra(J2)
        cert = decompose(alg, alg.ideal_twice_metric)
        assert len(cert.terms) == 2
        assert all(len(fs) == 2 and fs[0] == fs[1] for _, fs in cert.terms)
        assert verify_certificate(alg, cert).passed

    def test_scalar(self):
        alg = AlmostAbelianAlgebra(DIAG)
        cert = decompose(alg, SymTensor.monomial(3, (), Fraction(7, 2)))
        assert cert.terms == ((Fraction(7, 2), ()),)
        assert verify_certificate(alg, cert).passed

    def test_rejects_b_support(self):
        # b*h1 is an odd layer, Killing only for a skew derivation
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(NotKillingError):
            decompose(alg, SymTensor.monomial(3, (0, 1)))

    def test_rejects_non_killing(self):
        alg = AlmostAbelianAlgebra(DIAG)
        with pytest.raises(NotKillingError):
            decompose(alg, SymTensor.monomial(3, (1, 1)))


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


_DECOMPOSE_ALGEBRAS = ([AlmostAbelianAlgebra(d) for d in derivation_suite(per_kind=2)]
                       + [AlmostAbelianAlgebra(J2), wide_algebras()[1]])
_COEFFICIENTS = st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25),
                          st.sampled_from([1, 2, 3, 7, 10 ** 20 + 1]))


class TestDecomposeOnInts:
    """``decompose`` on ints against ``decompose_oracle``, the ``Fraction``
    route: the same certificate, term for term, each coefficient a
    ``Fraction``, or the same failures; and one generator object per basis
    field of the algebra."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(range(len(_DECOMPOSE_ALGEBRAS))), st.integers(0, 4), st.data())
    def test_matches_the_fraction_route(self, which, p, data):
        alg = _DECOMPOSE_ALGEBRAS[which]
        k = SymTensor.zero(alg.dim, p)
        for t in alg.killing_space_structured(p).basis:
            k = k + t.scale(data.draw(_COEFFICIENTS))
        if data.draw(st.booleans()):  # a term on one more monomial, Killing or not
            mono = data.draw(st.sampled_from(basis_monomials(alg.dim, p)))
            k = k + SymTensor.monomial(alg.dim, mono, data.draw(_COEFFICIENTS))
        want, failures = decompose_oracle(alg, k)
        if want is None:
            with pytest.raises(NotKillingError) as err:
                decompose(alg, k)
            assert list(err.value.diagnosis.failures) == failures
        else:
            got = decompose(alg, k)
            assert got == want
            assert all(type(c) is Fraction for c, _ in got.terms)

    def test_certificates_on_one_algebra_share_generator_objects(self):
        alg = AlmostAbelianAlgebra(J2)
        fields = basis_fields(alg)
        assert basis_fields(alg) is fields
        certs = [decompose(alg, k) for p in range(5) for k in alg.killing_space_structured(p).basis]
        certs.append(flat_metric_certificate(alg))
        used = {id(g) for cert in certs for _, factors in cert.terms for g in factors}
        assert used == {id(fields.metric), id(fields.left[0]), id(fields.right[1]),
                        id(fields.right[2])}


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


def _rotation3_flat_certificate():
    alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
    return alg, flat_metric_certificate(alg)


def _basis_certificate(d, p, t):
    alg = AlmostAbelianAlgebra(d)
    return alg, decompose(alg, alg.killing_space_structured(p).basis[t])


def _moved_square_certificate():
    alg = AlmostAbelianAlgebra(DIAG)
    r1 = RightInvariant(basis_vec(3, 1))
    return alg, Certificate(target=SymTensor.monomial(3, (1, 1)),
                            terms=((Fraction(1), (r1, r1)),))


def _derivation_difference_certificate():
    # 3 phi(-ad_w) T w - phi(-ad_w) (3T) w vanishes up to the rounding of the
    # two phi series, whose start vectors differ by the factor 3
    alg = AlmostAbelianAlgebra(J2)
    t = skew_derivations(alg)[0]
    t3 = SkewDerivation.from_matrix(Endomorphism(tuple(
        tuple(3 * x for x in row) for row in t.full_matrix().entries)))
    return alg, Certificate(target=SymTensor.zero(3, 1), terms=(
        (Fraction(3), (DerivationField(t),)), (Fraction(-1), (DerivationField(t3),))))


class TestPinnedRounding:
    # deviations of real certificates, recorded before the series kernel took
    # its current form: the fixed-point arithmetic must keep every bit of them
    @pytest.mark.parametrize("build, passed, deviation", [
        (lambda: _basis_certificate(J2, 2, 0), True, "0x1.9d4f3a31e0000p-155"),
        (lambda: _basis_certificate(J2, 2, 1), True, "0x1.9d4f3a31e4000p-155"),
        (_rotation3_flat_certificate, True, "0x1.234a5a3285000p-154"),
        (lambda: _basis_certificate(DIAG, 2, 1), True, "0x1.897612dc2c000p-153"),
        (_derivation_difference_certificate, True, "0x1.c8e104a114000p-155"),
        (_moved_square_certificate, False, "0x1.20f07268359bep+5"),
    ], ids=["rotation p=2 t=0", "rotation p=2 t=1", "rotation3 flat metric",
            "stretch p=2 t=1", "rotation derivation fields", "stretch moved square"])
    def test_deviation_and_digits(self, build, passed, deviation):
        alg, cert = build()
        check = verify_certificate(alg, cert)
        assert check.passed is passed and check.exact_at_zero
        assert check.max_deviation.hex() == deviation
        assert check.precision_digits == 50

    # the same certificates over two and four blocks of sample points,
    # recorded when each point was summed on its own
    @pytest.mark.parametrize("build, passed, at33, at100", [
        (lambda: _basis_certificate(J2, 2, 0), True,
         "0x1.2e09771b4c000p-154", "0x1.2e09771b4c000p-154"),
        (lambda: _basis_certificate(J2, 2, 1), True,
         "0x1.2e09771b4e000p-154", "0x1.2e09771b4e000p-154"),
        (_rotation3_flat_certificate, True, "0x1.7bc730362c000p-154", "0x1.7bc730362c000p-154"),
        (lambda: _basis_certificate(DIAG, 2, 1), True,
         "0x1.897612dc2c000p-153", "0x1.b73c797065000p-153"),
        (_derivation_difference_certificate, True,
         "0x1.c8e104a114000p-155", "0x1.3771b33a7a000p-154"),
        (_moved_square_certificate, False, "0x1.20f07268359bep+5", "0x1.3fa1a945c0c48p+5"),
    ], ids=["rotation p=2 t=0", "rotation p=2 t=1", "rotation3 flat metric",
            "stretch p=2 t=1", "rotation derivation fields", "stretch moved square"])
    def test_deviation_and_digits_across_blocks(self, build, passed, at33, at100):
        alg, cert = build()
        for samples, deviation in ((33, at33), (100, at100)):
            check = verify_certificate(alg, cert, samples=samples)
            assert check.passed is passed and check.exact_at_zero
            assert check.max_deviation.hex() == deviation
            assert check.precision_digits == 50


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
        got = omega_generator(alg, RightInvariant(x), w, order=3)
        # ad_w h1 = (gamma) h1 under diag(1,-1), so the value is the partial
        # exponential sum in -gamma
        partial = sum((-gamma) ** k / factorial(k) for k in range(4))
        assert got == SymTensor.from_vector(3, (0, partial, 0))

    def test_order_zero_returns_argument(self):
        alg = AlmostAbelianAlgebra(DIAG)
        x = basis_vec(3, 2)
        w = (Fraction(1), Fraction(2), Fraction(3))
        assert omega_generator(alg, RightInvariant(x), w, order=0) == SymTensor.from_vector(3, x)


class TestExplicitOrderPastTheCap:
    """An explicit ``order`` past the term cap is capped as no order is: a
    series still nonzero past ``_MAX_TERMS`` terms raises, one that
    vanishes earlier keeps its value, and an order within the cap never
    raises."""

    ORDER = kf._MAX_TERMS + 1000
    ROT = AlmostAbelianAlgebra(J2)

    @pytest.mark.parametrize("w, prec", [((10 ** 30, 1.0, 0.0), 53),
                                         ((Fraction(10 ** 30), 1, 0), None),
                                         ((Fraction(1), 1, 0), None)],
                             ids=["1e30", "exact 1e30", "exact 1"])
    def test_series_still_nonzero_raises_at_once(self, w, prec):
        start = time.perf_counter()
        with pytest.raises(kf.SeriesCapError, match="5000-term cap"):
            omega_generator(self.ROT, _right(1), w, order=self.ORDER, prec=prec)
        with pytest.raises(kf.SeriesCapError, match="5000-term cap"):
            omega_generator(self.ROT, DerivationField(skew_derivations(self.ROT)[0]), w,
                            order=self.ORDER, prec=prec)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("alg, w, prec", [
        (AlmostAbelianAlgebra(NILP), (3, 1, -2), 53),
        (AlmostAbelianAlgebra(NILP), (Fraction(3), Fraction(1), Fraction(-2)), None),
        (ROT, (0,) * 3, 53),
        (ROT, (Fraction(0),) * 3, None),
    ], ids=["nilpotent", "exact nilpotent", "zero", "exact zero"])
    def test_vanishing_series_keeps_its_value(self, alg, w, prec):
        for i in range(3):
            assert (omega_generator(alg, _right(i), w, order=self.ORDER, prec=prec)
                    == omega_generator(alg, _right(i), w, prec=prec))

    def test_series_that_rounds_to_zero_keeps_its_value(self):
        with mp.workdps(30):
            got = omega_generator(self.ROT, _right(1), (1, 0, 0), order=self.ORDER,
                                  prec=mp.prec).dense()
            assert (abs(_mpf(got[1]) - mp.cos(1)) < 1e-25
                    and abs(_mpf(got[2]) + mp.sin(1)) < 1e-25)

    def test_order_within_the_cap_does_not_raise(self):
        w = (10 ** 30, 0, 0)
        assert omega_generator(self.ROT, _right(1), w, order=20, prec=53).degree == 1


class TestEvaluationCap:
    """A certificate of degree p on n dimensions is refused when p times its
    C(n+p-1, p) monomials passes ``MAX_EVALUATION_INDICES``, before any of
    them is listed."""

    ALG = AlmostAbelianAlgebra(J2)

    def test_the_bound_falls_between_degrees_124_and_125_on_three_dimensions(self):
        assert 124 * sym_dimension(3, 124) <= MAX_EVALUATION_INDICES < 125 * sym_dimension(3, 125)

    def test_just_under_the_bound_verifies(self):
        check = verify_certificate(self.ALG, Certificate(SymTensor.zero(3, 124), ()))
        assert check.passed and check.exact_at_zero

    @pytest.mark.parametrize("p", [125, 3000, 10 ** 9])
    def test_past_the_bound_raises_before_allocating(self, p):
        cert = Certificate(SymTensor.zero(3, p), ())
        listed = monomial_positions.cache_info().misses
        start = time.perf_counter()
        with pytest.raises(EvaluationCapError, match=f"^degree {p} in dimension 3 needs "
                                                     f"{p * sym_dimension(3, p)} monomial"):
            verify_certificate(self.ALG, cert)
        with pytest.raises(EvaluationCapError):
            omega_tensor(self.ALG, cert, (0.5, 0.0, 0.0))
        with pytest.raises(EvaluationCapError):  # before the p/2 + 1 layers are built
            decompose(self.ALG, cert.target)
        assert time.perf_counter() - start < 1
        assert monomial_positions.cache_info().misses == listed

    def test_decompose_checks_the_bound_before_the_killing_test(self):
        # e1^125 is not Killing for the rotation, and past the bound
        with pytest.raises(EvaluationCapError):
            decompose(self.ALG, SymTensor.monomial(3, (1,) * 125))


class TestLevelCap:
    """A certificate whose trie levels, each a degree r left below a node
    with edges, hold more than ``MAX_LEVEL_INDICES`` monomial indices, r
    C(n+r-1, r) per level, is refused before any position map or product
    table is built, though its top degree passes ``MAX_EVALUATION_INDICES``."""

    ONE = AlmostAbelianAlgebra(Endomorphism.from_rows([[1]]))
    ROT = AlmostAbelianAlgebra(J2)

    @staticmethod
    def _chain(dim, p):
        """One term of ``p`` right-invariant fields of ``e_1``."""
        return Certificate(SymTensor.zero(dim, p),
                           ((Fraction(1), (RightInvariant(basis_vec(dim, 1)),) * p),))

    def test_a_chain_of_p_fields_holds_n_binomial_n_plus_p_p_minus_1_indices(self):
        for n, p in [(1, 5), (2, 900), (3, 62), (10, 10)]:
            assert sum(r * sym_dimension(n, r) for r in range(p + 1)) == n * math.comb(n + p, p - 1)

    def test_the_bound_falls_between_61_and_62_fields_on_the_rotation(self):
        assert 3 * math.comb(64, 60) <= MAX_LEVEL_INDICES < 3 * math.comb(65, 61)

    @pytest.mark.parametrize("alg, p, levels, indices", [(ONE, 900, 900, 243810600),
                                                         (ROT, 62, 62, 2031120),
                                                         (ROT, 120, 120, 27235890)],
                             ids=["one-900", "rotation-62", "rotation-120"])
    def test_past_the_bound_raises_before_any_table_is_built(self, alg, p, levels, indices):
        cert = self._chain(alg.dim, p)
        assert p * sym_dimension(alg.dim, p) <= MAX_EVALUATION_INDICES
        listed = monomial_positions.cache_info().misses, product_positions.cache_info().misses
        start = time.perf_counter()
        message = (f"^degree {p} in dimension {alg.dim} needs {indices} monomial indices over "
                   f"{levels} trie levels \\(cap {MAX_LEVEL_INDICES}\\)$")
        with pytest.raises(LevelCapError, match=message):
            CompiledCertificate(cert)
        with pytest.raises(LevelCapError, match=message):
            verify_certificate(alg, cert)
        with pytest.raises(LevelCapError, match=message):
            omega_tensor(alg, cert, (0.5,) * alg.dim)
        assert time.perf_counter() - start < 1
        assert (monomial_positions.cache_info().misses,
                product_positions.cache_info().misses) == listed

    def test_just_under_the_bound_verifies(self):
        check = verify_certificate(self.ROT, self._chain(3, 61))
        assert check.exact_at_zero is False and check.passed is False

    def test_every_node_but_the_root_is_one_child_after_its_parent(self):
        # e1^4 + m^2 + e1^2 m: the third term shares e1^2 with the first
        e1, m = RightInvariant(basis_vec(2, 1)), Metric()
        cert = Certificate(SymTensor.zero(2, 4), ((Fraction(1), (e1,) * 4),
                                                  (Fraction(2), (m, m)), (Fraction(3), (m, e1, e1))))
        compiled = CompiledCertificate(cert)
        nodes = compiled.nodes
        edges = [(at, child) for at, node in enumerate(nodes) if not isinstance(node, int)
                 for _, _, child in node[1]]
        assert len(nodes) == 8 and all(at < child for at, child in edges)
        assert sorted(child for _, child in edges) == list(range(1, 8))
        assert sorted(n for n in nodes if isinstance(n, int)) == [0, 1, 2]
        assert compiled.coefficients == (1, 2, 3)
        # the empty certificate is its root, with no edge and so no level
        assert CompiledCertificate(Certificate(SymTensor.zero(1, 999999), ())).nodes == [(1, ())]


class TestDecomposeLevelBound:
    """``decompose`` refuses a nonzero tensor whose certificate's trie levels
    must pass ``MAX_LEVEL_INDICES`` before its Killing test and layers: every
    term descends from the degree in steps of 1 or 2, so the levels hold at
    least the chain ``p, p - 2, ...`` down to 1 or 2."""

    LINE = AlmostAbelianAlgebra(Endomorphism.from_rows([]))
    ROT = AlmostAbelianAlgebra(J2)

    @staticmethod
    def _power_of_b(dim, p):
        return SymTensor.monomial(dim, (0,) * p)

    @pytest.mark.parametrize("p", [1, 2, 5, 8, 40])
    def test_the_chain_is_the_levels_of_a_power_of_the_metric(self, p):
        # on the line algebra b^p is 2^(p // 2) m^(p // 2) b^(p % 2): the chain itself
        levels = range(p, 0, -2)
        cert = decompose(self.LINE, self._power_of_b(1, p))
        assert CompiledCertificate(cert).level_indices == sum(levels)

    @pytest.mark.parametrize("alg, dim, p, levels, indices", [
        (LINE, 1, 2828, 1414, 2000810), (ROT, 3, 124, 62, 15748992), (ROT, 3, 74, 37, 2083692)],
        ids=["line-2828", "rotation-124", "rotation-74"])
    def test_past_the_bound_refuses_before_the_killing_test(self, monkeypatch, alg, dim, p,
                                                            levels, indices):
        assert sum(r * sym_dimension(dim, r) for r in range(p, 0, -2)) == indices
        monkeypatch.setattr(AlmostAbelianAlgebra, "is_killing_structured",
                            lambda *args: pytest.fail("Killing test ran"))
        start = time.perf_counter()
        with pytest.raises(LevelCapError, match=f"^degree {p} in dimension {dim} needs {indices} "
                                                f"monomial indices over {levels} trie levels"):
            decompose(alg, self._power_of_b(dim, p))
        assert time.perf_counter() - start < 0.3

    def test_under_the_bound_the_compiled_levels_decide(self):
        # b^73 on the rotation passes the chain bound; its certificate has
        # more levels than the chain and is refused when compiled
        assert sum(r * sym_dimension(3, r) for r in range(73, 0, -2)) <= MAX_LEVEL_INDICES
        cert = decompose(self.ROT, self._power_of_b(3, 73))
        with pytest.raises(LevelCapError, match="needs 3848925 monomial indices over 73 trie"):
            CompiledCertificate(cert)

    def test_the_zero_tensor_has_no_levels(self):
        cert = decompose(self.ROT, SymTensor.zero(3, 124))
        assert cert.terms == () and CompiledCertificate(cert).level_indices == 0


class TestSampledLevelCap:
    """The sampled check walks every trie level once per point: samples
    times the compiled certificate's level indices past
    ``MAX_SAMPLED_LEVEL_INDICES`` are refused before any point is drawn."""

    ROT = AlmostAbelianAlgebra(J2)
    CHAIN = TestLevelCap._chain(3, 61)

    def test_past_the_bound_refuses_before_any_point_is_drawn(self, monkeypatch):
        indices = CompiledCertificate(self.CHAIN).level_indices
        samples = MAX_SAMPLED_LEVEL_INDICES // indices + 1
        assert (indices, samples) == (1906128, 210)
        monkeypatch.setattr(kf, "sample_points", lambda *args: pytest.fail("points drawn"))
        monkeypatch.setattr(kf, "_exact_sum", lambda *args: pytest.fail("origin checked"))
        start = time.perf_counter()
        with pytest.raises(SampledLevelCapError,
                           match=f"^210 samples of 1906128 trie-level indices need 400286880 "
                                 f"\\(sampled-check cap {MAX_SAMPLED_LEVEL_INDICES}\\)$"):
            verify_certificate(self.ROT, self.CHAIN, samples=samples)
        assert time.perf_counter() - start < 2


class TestPrecisionCap:
    """The working digits grow with the factors of a term times the series
    gain of each; past ``MAX_WORKING_DIGITS`` the check is refused before
    any series is summed."""

    ALG = AlmostAbelianAlgebra(Endomorphism.from_rows([[100]]))

    @staticmethod
    def _chain(p):
        field = RightInvariant((Fraction(0), Fraction(1), Fraction(1)))
        return Certificate(SymTensor.zero(2, p), ((Fraction(1), (field,) * p),))

    @pytest.mark.parametrize("p, digits", [(30, 2020), (61, 4060), (62, 4130), (80, 5310)])
    def test_digits_grow_with_the_factors(self, p, digits):
        points = sample_points(2, 20, kf.DEFAULT_SEED)
        gain = max(kf._series_bounds(self.ALG, w)[1] for w in points)
        if digits > MAX_WORKING_DIGITS:
            message = (f"^the sampled check needs {digits} working digits "
                       f"\\(cap {MAX_WORKING_DIGITS}\\)$")
            with pytest.raises(PrecisionCapError, match=message):
                kf._working_digits(self._chain(p), gain, 2, kf.DEFAULT_TOL)
        else:
            assert kf._working_digits(self._chain(p), gain, 2, kf.DEFAULT_TOL) == digits

    def test_past_the_cap_refuses_before_any_series(self, monkeypatch):
        monkeypatch.setattr(kf, "_fixed_series", lambda *args: pytest.fail("series summed"))
        start = time.perf_counter()
        with pytest.raises(PrecisionCapError, match="needs 5310 working digits"):
            verify_certificate(self.ALG, self._chain(80))
        assert time.perf_counter() - start < 2


class TestSampledWorkCap:
    """Samples times working digits times the factors of the longest term
    and the series generators past ``MAX_SAMPLED_FACTOR_DIGITS`` are refused
    before any series is summed."""

    ALG = TestPrecisionCap.ALG

    class Summed(Exception):
        pass

    @staticmethod
    def _chain(p):
        field = RightInvariant((Fraction(1), Fraction(1)))
        return Certificate(SymTensor.zero(2, p), ((Fraction(1), (field,) * p),))

    @pytest.mark.parametrize("p, samples, work", [
        (30, 20, None),
        (30, 100, "100 samples at 2620 digits of 31 factors and series need 8122000"),
        (30, 200, "200 samples at 2640 digits of 31 factors and series need 16368000"),
        (61, 20, "20 samples at 4060 digits of 62 factors and series need 5034400")])
    def test_refused_before_any_series(self, monkeypatch, p, samples, work, fresh_memo):
        def summed(*args):
            raise self.Summed

        monkeypatch.setattr(kf, "_fixed_series", summed)
        start = time.perf_counter()
        if work is None:  # within the cap: the check goes on to its series
            with pytest.raises(self.Summed):
                verify_certificate(self.ALG, self._chain(p), samples=samples)
            return
        message = f"^{work} \\(sampled-check cap {MAX_SAMPLED_FACTOR_DIGITS}\\)$"
        with pytest.raises(SampledWorkCapError, match=message):
            verify_certificate(self.ALG, self._chain(p), samples=samples)
        assert time.perf_counter() - start < 2


class TestMatrixIsNotAGenerator:
    """A derivation field is always a ``DerivationField``: a bare matrix is
    refused wherever a generator is expected, so no certificate carries a
    matrix that the generator check never sees."""

    ALG = AlmostAbelianAlgebra(J2)
    T = skew_derivation_basis(ALG)[0]

    def test_certificate_with_a_matrix_factor_is_rejected(self):
        cert = Certificate(target=SymTensor.zero(3, 1), terms=((Fraction(1), (self.T,)),))
        with pytest.raises(TypeError, match="unknown generator"):
            generator_degree(self.T)
        with pytest.raises(TypeError, match="unknown generator"):
            CompiledCertificate(cert)
        with pytest.raises(TypeError, match="unknown generator"):
            verify_certificate(self.ALG, cert)

    def test_pullback_of_a_matrix_is_refused(self):
        with pytest.raises(TypeError, match="unknown generator"):
            omega_generator(self.ALG, self.T, (Fraction(1), Fraction(0), Fraction(0)))


class TestStructureConstantsPastTheFloatRange:
    BIG = 10 ** 400
    ALG = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -BIG], [BIG, 0]]))

    def test_point_norm_is_exact(self):
        for alg in (self.ALG, AlmostAbelianAlgebra(DIAG), SO3):
            for w in sample_points(3, 5, 1):
                assert kf._series_bounds(alg, w) == series_bounds_oracle(alg, w)
        assert kf._series_bounds(MetricLieAlgebra(3, {}), (1.5, 0.0, -2.0)) == (-math.inf, 0)

    def test_cap_message(self):
        assert str(kf.SeriesCapError(Fraction(6000))).endswith("(||ad_w||_1 = 6000)")
        assert str(kf.SeriesCapError(Fraction(4, 3))).endswith("(||ad_w||_1 = 1.33333)")
        assert str(kf.SeriesCapError(Fraction(self.BIG))).endswith("(||ad_w||_1 = 1e+400)")
        assert str(kf.SeriesCapError(Fraction(3 * self.BIG, 7))).endswith("= 4.28571e+399)")

    def test_verify_reaches_the_series_cap(self):
        r1, r2 = RightInvariant(basis_vec(3, 1)), RightInvariant(basis_vec(3, 2))
        cert = Certificate(target=SymTensor.build(3, 2, [((1, 1), 1), ((2, 2), 1)]),
                           terms=((Fraction(1), (r1, r1)), (Fraction(1), (r2, r2))))
        with pytest.raises(kf.SeriesCapError, match="e\\+400"):
            verify_certificate(self.ALG, cert, samples=2)


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

    def test_samples_past_the_cap_are_refused_before_any_point_is_drawn(self, monkeypatch):
        monkeypatch.setattr(kf, "sample_points", lambda *args: pytest.fail("points drawn"))
        with pytest.raises(SampleCapError, match=f"^{MAX_SAMPLES + 1} samples exceed the "
                                                 f"sampled-check cap \\({MAX_SAMPLES}\\)$"):
            verify_certificate(self.ALG, self.CERT, samples=MAX_SAMPLES + 1)

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

    # down to subnormal tolerances, at which tol / 10 underflows to 0
    @pytest.mark.parametrize("tol", [1e-60, 1e-200, 2.5e-323, 5e-324])
    def test_working_digits_cover_the_tolerance(self, tol):
        # e1^2 + e2^2 on the rotation is valid, but summed at 50 digits it
        # deviates by about 5e-58
        alg = AlmostAbelianAlgebra(J2)
        cert = decompose(alg, SymTensor.monomial(3, (1, 1)) + SymTensor.monomial(3, (2, 2)))
        check = verify_certificate(alg, cert, tol=tol)
        assert check.passed and check.max_deviation < tol
        assert not verify_certificate(self.ALG, self.CERT, tol=tol).passed

    @pytest.mark.parametrize("d, p, t, digits", [(J2, 2, 0, 50),
                                                 (Endomorphism.diagonal([3, -3]), 4, 0, 60),
                                                 (Endomorphism.diagonal([20, -20]), 2, 1, 90)])
    def test_tolerances_down_to_1e_25_keep_the_digits(self, d, p, t, digits):
        alg, cert = _basis_certificate(d, p, t)
        assert {verify_certificate(alg, cert, tol=tol).precision_digits
                for tol in (1e-9, 1e-25)} == {digits}


# ---------------------------------------------------------------------------
# the compiled (Horner) evaluation against the term-by-term expansion
# ---------------------------------------------------------------------------

def _so3():
    return MetricLieAlgebra(3, {key: x for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
                                for key, x in (((i, j, k), 1), ((j, i, k), -1))})


def _almost_abelian(rows):
    alg = AlmostAbelianAlgebra(Endomorphism.from_rows(rows))
    return alg, skew_derivations(alg)


_SO3 = _so3()
# (algebra, skew derivations as split pieces): one general algebra and
# almost abelian ones with and without skew derivations
ORACLE_CASES = {
    "so3": (_SO3, tuple(SkewDerivation.from_matrix(m) for m in skew_derivation_basis(_SO3))),
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
            got = omega_tensor(alg, cert, w, prec=mp.prec)
            want = omega_tensor_oracle(alg, cert, w, prec=mp.prec)
            scale = max([mp.mpf(1)] + [abs(c) for c in want.terms.values()])
            for mono in set(got.terms) | set(want.terms):
                diff = _mpf(got.terms.get(mono, 0)) - want.terms.get(mono, 0)
                assert abs(diff) <= mp.mpf("1e-40") * scale

    def test_merges_terms_with_reordered_factors(self):
        alg, _ = ORACLE_CASES["diag(1,2)"]
        a, b = RightInvariant(basis_vec(3, 1)), LeftInvariant(basis_vec(3, 0))
        cert = Certificate(target=SymTensor.zero(3, 2),
                           terms=((Fraction(1), (a, b)), (Fraction(2), (b, a))))
        compiled = CompiledCertificate(cert)
        assert compiled.coefficients == (Fraction(3),)
        w = (Fraction(1, 2), Fraction(1), Fraction(-1))
        assert omega_tensor(alg, cert, w, order=3) == omega_tensor_oracle(alg, cert, w, 3)


def lane(v, i):
    """Lane ``i`` of a position in the layout of ``_horner_lanes``: None,
    one int for every lane, or a tuple of one int per lane."""
    return 0 if v is None else v[i] if type(v) is tuple else v


class TestHornerLanes:
    """``_horner_lanes`` over a block of fixed-point points against
    ``horner_oracle`` at each point alone, int for int."""

    @staticmethod
    def _check(alg, cert, lanes, seed):
        compiled = CompiledCertificate(cert)
        shift = kf._fixed_shift(alg.dim, 170)
        ws = sample_points(alg.dim, lanes, seed)
        # the origin in one lane, where a derivation field is 0 and others not
        ws[seed % lanes] = (0.0,) * alg.dim
        points = kf._points(alg, [kf._scaled(w, shift) for w in ws], shift)
        columns = [kf._generator_values(alg, g, shift, points, None, 0)
                   for g in compiled.generators]
        coeffs = kf._scaled(compiled.coefficients, shift)
        varies = [kf._varies(alg, g) for g in compiled.generators]
        values = kf._lanes(columns, varies)
        # a constant generator's positions are single ints, a varying one's
        # tuples of one int per lane
        assert all(type(v) is (tuple if vary else int)
                   for value, vary in zip(values, varies) for v in value if v is not None)
        got = kf._horner_lanes(compiled.nodes, values, coeffs, shift)
        assert all(v is None or (type(v) is int and v) or (len(v) == lanes and any(v))
                   for v in got)
        for i in range(lanes):
            want = horner_oracle(compiled.nodes, [c[i] for c in columns], coeffs, shift)
            assert [lane(v, i) for v in got] == list(want)
        return values, got

    @settings(max_examples=150, deadline=None)
    @given(certificates(), st.sampled_from([1, 31, 32, 33, 70]), st.integers(0, 2 ** 32))
    # zero in every lane: the abelian algebra moves nothing, and a
    # right-invariant field of the ideal has no component along b
    @example((ORACLE_CASES["abelian"][0], Certificate(SymTensor.zero(3, 2), (
        (Fraction(1), (RightInvariant(basis_vec(3, 1)), RightInvariant(basis_vec(3, 1)))),
        (Fraction(-1, 2), (Metric(),))))), 33, 0)
    @example((ORACLE_CASES["rotation"][0], Certificate(SymTensor.zero(3, 2), (
        (Fraction(2), (RightInvariant(basis_vec(3, 1)), LeftInvariant(basis_vec(3, 0)))),))),
        70, 1)
    # the origin in lane 0, where the derivation field is 0
    @example((ORACLE_CASES["rotation"][0], Certificate(SymTensor.zero(3, 2), (
        (Fraction(1), (DerivationField(ORACLE_CASES["rotation"][1][0]),
                       RightInvariant(basis_vec(3, 1)))),))), 31, 0)
    def test_each_lane_matches_the_oracle(self, case, lanes, seed):
        alg, cert = case
        self._check(alg, cert, lanes, seed)

    def test_positions_zero_in_every_lane_are_none(self):
        r1 = RightInvariant(basis_vec(3, 1))
        cert = Certificate(SymTensor.zero(3, 2), ((Fraction(1), (r1, r1)),))
        values, got = self._check(ORACLE_CASES["rotation"][0], cert, 32, 2)
        assert values[0][0] is None and None not in values[0][1:]
        # e0^2, e0 e1 and e0 e2
        assert got[:3] == [None] * 3 and None not in got[3:]


def _value_at_zero(alg, cert):
    """A certificate's value at ``w = 0``, term by term in ``SymTensor``
    arithmetic: the metric is 1/2 on the squares, a left- or right-invariant
    field its vector, and a derivation field 0."""
    total = SymTensor.zero(alg.dim, cert.target.degree)
    for coeff, factors in cert.terms:
        acc = SymTensor.monomial(alg.dim, (), coeff)
        for g in factors:
            if isinstance(g, Metric):
                acc = acc * sum_of_squares(alg.dim).scale(Fraction(1, 2))
            elif isinstance(g, DerivationField):
                acc = acc * SymTensor.zero(alg.dim, 1)
            else:
                acc = acc * SymTensor.from_vector(alg.dim, g.vector)
        total = total + acc
    return total


class TestExactAtZeroOnInts:
    @settings(max_examples=200, deadline=None)
    @given(certificates(), st.data())
    def test_matches_the_fraction_route(self, case, data):
        # the target is the value at 0, or that value moved at one monomial
        # by a drawn rational, down to 1e-30; both the origin check's call
        # and omega_tensor meet it exactly when it is not moved
        alg, cert = case
        zero = (Fraction(0),) * alg.dim
        value = _value_at_zero(alg, cert)
        items = list(value.terms.items())
        moved = data.draw(st.booleans())
        if moved:
            mono = data.draw(st.sampled_from(basis_monomials(alg.dim, value.degree)))
            items.append((mono, data.draw(st.one_of(
                _RATIONAL.filter(bool), st.just(Fraction(1, 10 ** 30))))))
        cert = Certificate(SymTensor.build(alg.dim, value.degree, items), cert.terms)
        ints, scale = kf._exact_sum(alg, CompiledCertificate(cert),
                                    kf._Point(None, 1, zero, (), 0), 0)
        assert ([Fraction(v, scale) for v in ints] == cert.target.dense()) is not moved
        assert (omega_tensor(alg, cert, zero, order=0) == cert.target) is not moved

    def test_target_listing_a_zero_coefficient(self):
        # the direct constructor drops the zero, so both routes read it as 0
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        cert = Certificate(SymTensor(3, 1, {(1,): Fraction(0)}), ())
        assert omega_tensor(alg, cert, (Fraction(0),) * 3, order=0) == cert.target
        assert verify_certificate(alg, cert, samples=2).exact_at_zero

    def test_verify_reports_it(self):
        # right:1^2 against e1^2 with one coefficient off by 1e-30
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        r1 = RightInvariant((Fraction(0), Fraction(1, 3), Fraction(0)))
        for coeff, exact in ((Fraction(9), True), (Fraction(9) + Fraction(1, 10 ** 30), False)):
            cert = Certificate(SymTensor.monomial(3, (1, 1)), ((coeff, (r1, r1)),))
            check = verify_certificate(alg, cert, samples=2)
            assert check.exact_at_zero is exact and check.passed is exact


class TestSampledBlindSpot:
    """The sampled check cannot tell a certificate that is exact at the
    origin but not left-invariant from a valid one while its deviation stays
    below ``tol``: ``(1 - c) left:e0 + c right:e0`` against ``e0`` on the
    rotation deviates by ``c`` times the variation of ``right:e0``.  An exact
    check of left-invariance would refuse all three."""

    @pytest.mark.parametrize("c, passed, deviation", [
        (Fraction(1, 10 ** 10), True, 2.034934828698478e-10),
        (Fraction(1, 10 ** 30), True, 2.034934828698478e-30),
        (Fraction(1, 10 ** 9), False, 2.034934828698478e-09),
    ])
    def test_pinned_verdicts(self, c, passed, deviation):
        alg = AlmostAbelianAlgebra(J2)
        e0 = basis_vec(3, 0)
        cert = Certificate(SymTensor.basis(3, 0), ((1 - c, (LeftInvariant(e0),)),
                                                   (c, (RightInvariant(e0),))))
        check = verify_certificate(alg, cert)
        assert (check.passed, check.exact_at_zero) == (passed, True)
        assert (check.max_deviation, check.precision_digits) == (deviation, 50)


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


_WALK_ALGEBRAS = ([AlmostAbelianAlgebra(d) for d in derivation_suite()]
                  + [SO3, HEISENBERG] + wide_algebras())
_WALK_FLOATS = st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 4)
_WALK_RATIONALS = st.tuples(*[st.builds(Fraction, st.integers(-40, 40),
                                        st.sampled_from([1, 2, 3, 7, 10 ** 20 + 1]))] * 4)


def unstripped(point):
    """A prepared point's rows with the strip undone: ``2^strip`` times each
    entry, the rows ``ad_walk`` gave."""
    return tuple((r, c, tuple(a << point.strip for a in e)) for r, c, e in point.rows)


def assert_strip_is_largest(point):
    """``strip`` is at most ``shift``, and below it some entry is odd after
    the division: no larger power of two divides every entry."""
    entries = [a for _, _, e in point.rows for a in e]
    assert 0 <= point.strip <= point.shift
    if entries and point.strip < point.shift:
        assert any(a & 1 for a in entries)
    if not entries:
        assert point.strip == 0


class TestPointWalk:
    """``_points`` and ``_series_bounds`` walk ``ad_forms``; ``point_oracle``
    reads the dense structure array and floors each product on its own."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(len(_WALK_ALGEBRAS))), st.integers(50, 90),
           st.sampled_from(["float", "fixed", "rational"]), _WALK_FLOATS, _WALK_RATIONALS)
    # two products with fractional parts 1/2 and 2/3 in one entry of the
    # 40-digit almost abelian algebra: flooring their sum gains 1
    @example(len(_WALK_ALGEBRAS) - 1, 50, "rational", (0.0,) * 4,
             (Fraction(0), Fraction(-4, 3), Fraction(-2, 7), Fraction(0)))
    def test_walk_matches_the_dense_oracle(self, which, dps, kind, floats, rationals):
        alg = _WALK_ALGEBRAS[which]
        prec = kf._dps_to_prec(dps)
        shift = kf._fixed_shift(alg.dim, prec)
        w = (rationals if kind == "rational" else floats)[:alg.dim]
        # the entries of an omega_tensor point carry the full working precision
        wv = tuple(kf._fixed_entry(Fraction(c) / 3, prec, shift) if kind == "fixed"
                   else kf._to_fixed(c, shift) for c in w)
        point, = kf._points(alg, [wv], shift)
        rows, norm = point_oracle(alg, wv)
        assert point.w == wv
        # the rows divided by 2^strip, the largest power of two common to
        # all their entries, at most 2^shift: undone, they are the oracle's
        assert unstripped(point) == tuple((r, tuple(j for j, a in enumerate(row) if a),
                                           tuple(a for a in row if a))
                                          for r, row in enumerate(rows) if any(row))
        assert_strip_is_largest(point)
        assert point.norm == norm
        if kind != "fixed":  # sample points are floats
            want = series_bounds_oracle(alg, w)
            got = kf._series_bounds(alg, w)
            assert [float.hex(x) for x in got] == [float.hex(x) for x in want]


    @settings(max_examples=200, deadline=None)
    @given(st.builds(Fraction, st.integers(1, 40000), st.sampled_from([1, 2, 3, 7])),
           _WALK_FLOATS)
    # at w = 2 b the norm is 2 (c + 1): exactly the cap, and a quarter past it
    @example(Fraction(2499), (2.0, 0.0, 0.0, 0.0))
    @example(Fraction(19993, 8), (2.0, 0.0, 0.0, 0.0))
    def test_bounds_across_the_term_cap(self, c, floats):
        # ||ad_w||_1 near |c w_0| runs from 0 to 160000, across _MAX_TERMS,
        # where the gain changes form
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[c, 0], [1, -c]]))
        w = floats[:alg.dim]
        got, want = kf._series_bounds(alg, w), series_bounds_oracle(alg, w)
        assert [float.hex(x) for x in got] == [float.hex(x) for x in want]


def _mpf_to_fixed(x, shift):
    """An mpf ``x`` times ``2**shift`` truncated toward zero: how points
    were converted when they were summed through mpmath."""
    sign, man, exp, _ = x._mpf_
    exp += shift
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


_TINY_NEGATIVE = st.one_of(
    st.builds(lambda m, e: Fraction(-m, 10 ** e), st.integers(1, 10 ** 20), st.integers(60, 120)),
    st.floats(-1e-60, -1e-100))
_LARGE_RATIONAL = st.builds(Fraction, st.integers(-10 ** 80, 10 ** 80), st.integers(1, 10 ** 80))


def _halfway(prec):
    """Ints halfway between two of ``prec`` significant bits, either sign:
    the ties that round to the even one."""
    return st.builds(lambda m, z, sign: sign * ((2 * m + 1) << z),
                     st.integers(2 ** (prec - 1), 2 ** prec - 1), st.integers(0, 40),
                     st.sampled_from([1, -1]))


class TestRoundingAgainstMpmath:
    """The fixed-point values come in and go out at ``prec`` bits as mpmath
    rounded them: ``_fixed_entry`` as ``mpf(numerator) / denominator``
    truncated at the scale, ``_nearest`` as ``from_man_exp`` with
    ``round_nearest``."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 700), st.integers(1, 16), st.data())
    def test_point_entries(self, prec, dim, data):
        x = data.draw(st.one_of(
            _TINY_NEGATIVE, _LARGE_RATIONAL, st.floats(-4, 4), st.integers(-99, 99),
            st.builds(Fraction, _halfway(prec), st.sampled_from([1, 3, 2 ** 70, 10 ** 30]))))
        shift = kf._fixed_shift(dim, prec)
        with mp.workprec(prec):
            want = _mpf_to_fixed(_mpf(x), shift)
        assert kf._fixed_entry(x, prec, shift) == want

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 700), st.integers(0, 300), st.data())
    def test_values(self, prec, shift, data):
        from mpmath.libmp import from_man_exp, round_nearest

        v = data.draw(st.one_of(st.integers(-2 ** 1100, 2 ** 1100), st.integers(-2 ** 80, 2 ** 80),
                                st.integers(-300, 300), _halfway(prec)))
        got = kf._nearest(v, 1 << shift, prec)
        want = mp.make_mpf(from_man_exp(v, -shift, prec, round_nearest))
        sign, man, exp, _ = want._mpf_
        assert got == (-1) ** sign * man * Fraction(2) ** exp
        assert ff._json_float(got) == ff._json_float(want)
        if not isinstance(ff._json_float(got), str):
            assert float(got).hex() == float(want).hex()

    def test_precision_formulas(self):
        from mpmath.libmp import dps_to_prec, prec_to_dps

        for n in range(1, 10 ** 4 + 1):
            assert kf._dps_to_prec(n) == dps_to_prec(n)
            assert kf._prec_to_dps(n) == prec_to_dps(n)


class TestSampledValueMemo:
    # target e1^2 against right:1^2: constant only when the derivation is zero
    R1 = RightInvariant(basis_vec(3, 1))
    CERT = Certificate(target=SymTensor.monomial(3, (1, 1)), terms=((Fraction(1), (R1, R1)),))

    # D = 0 accepts the certificate; D = diag(-1, -2) has the ad_w norms of
    # D = diag(1, 2), hence the same working digits and series order
    @pytest.mark.parametrize("first", [[0, 0], [-1, -2]])
    def test_values_of_another_algebra_are_not_reused(self, first, fresh_memo):
        other = AlmostAbelianAlgebra(Endomorphism.diagonal(first))
        stretched = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 2]))
        alone = verify_certificate(stretched, self.CERT)
        fresh_memo()
        assert verify_certificate(other, self.CERT).passed == (first == [0, 0])
        after = verify_certificate(stretched, self.CERT)
        assert not after.passed
        assert after.max_deviation == alone.max_deviation
        assert after == alone

    def test_norms_of_another_algebra_are_not_reused(self, fresh_memo):
        # the same sample points: ||ad_w||_1 is 0 on D = 0, and on diag(20, -20)
        # it asks for more than the 50-digit floor
        wide = AlmostAbelianAlgebra(Endomorphism.diagonal([20, -20]))
        alone = verify_certificate(wide, self.CERT, samples=3)
        fresh_memo()
        verify_certificate(AlmostAbelianAlgebra(Endomorphism.diagonal([0, 0])), self.CERT,
                           samples=3)
        after = verify_certificate(wide, self.CERT, samples=3)
        assert after.precision_digits == alone.precision_digits > 50

    def test_shared_generators_are_summed_once(self, monkeypatch, fresh_memo):
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 2]))
        r2 = RightInvariant(basis_vec(3, 2))
        other = Certificate(target=SymTensor.monomial(3, (1, 2)),
                            terms=((Fraction(1), (self.R1, r2)),))
        series = kf._fixed_series
        sampled = []

        def counting(point, x, s, order, min_order):
            sampled.append((tuple(point.w), tuple(x)))
            return series(point, x, s, order, min_order)

        monkeypatch.setattr(kf, "_fixed_series", counting)
        first = verify_certificate(alg, self.CERT, samples=5)
        second = verify_certificate(alg, other, samples=5)
        # same working precision and order, so right:1 repeats at every point
        assert first.precision_digits == second.precision_digits
        assert len(sampled) == len(set(sampled)) == 2 * 5

    def test_columns_of_another_order_floor_are_not_reused(self, fresh_memo):
        # summed to order 300, past where the stop rule ends the default
        # series, the low bits of the deviation differ
        alg = AlmostAbelianAlgebra(J2)
        cert = decompose(alg, alg.killing_space_structured(2).basis[1])
        alone = verify_certificate(alg, cert, order_floor=300)
        fresh_memo()
        assert verify_certificate(alg, cert).max_deviation != alone.max_deviation
        assert verify_certificate(alg, cert, order_floor=300) == alone

    def test_constant_generators_are_valued_once_per_shift(self, monkeypatch, fresh_memo):
        # on the rotation the metric, left:0 and right:1, right:2 verify
        # 1/2 (e0^2 + e1^2 + e2^2) + e0^2 + e1^2 + e2^2; the constant ones
        # are valued by a check at another fixed-point scale than the last
        # one, and a check at the same scale values none
        alg = AlmostAbelianAlgebra(J2)
        left, r1, r2 = (f(basis_vec(3, i)) for f, i in ((LeftInvariant, 0), (RightInvariant, 1),
                                                        (RightInvariant, 2)))
        target = SymTensor.build(3, 2, [((0, 0), Fraction(3, 2)), ((1, 1), Fraction(3, 2)),
                                        ((2, 2), Fraction(3, 2))])
        cert = Certificate(target, tuple((Fraction(1), fs) for fs in
                                         ((Metric(),), (left, left), (r1, r1), (r2, r2))))
        real = kf._generator_values
        calls = []

        def counting(alg, gen, shift, points, order, min_order):
            if shift is not None:  # the sampled path, not the exact origin check
                calls.append((type(gen).__name__, len(points)))
            return real(alg, gen, shift, points, order, min_order)

        monkeypatch.setattr(kf, "_generator_values", counting)
        last, seen = None, set()
        for samples, tol in ((1, 1e-9), (20, 1e-9), (20, 1e-60), (100, 1e-9)):
            calls.clear()
            check = verify_certificate(alg, cert, samples=samples, tol=tol)
            assert check.passed
            shift = kf._fixed_shift(3, kf._dps_to_prec(check.precision_digits))
            constant = sorted(c for c in calls if c[0] != "RightInvariant")
            assert constant == ([] if shift == last else [("LeftInvariant", 1), ("Metric", 1)])
            seen.add(shift == last)
            last = shift
            # a series generator is valued per point, once per block of points
            right = [n for kind, n in calls if kind == "RightInvariant"]
            assert sum(right) == 2 * samples and max(right) <= kf._BLOCK
            calls.clear()
            assert verify_certificate(alg, cert, samples=samples, tol=tol).passed
            assert calls == []
        assert seen == {True, False}

    def test_points_are_prepared_once_per_check(self, monkeypatch, fresh_memo):
        # right:1 and right:2 share each block's prepared points; a check
        # whose columns are all kept prepares none
        alg = AlmostAbelianAlgebra(J2)
        r1, r2 = RightInvariant(basis_vec(3, 1)), RightInvariant(basis_vec(3, 2))
        cert = Certificate(SymTensor.build(3, 2, [((1, 1), 1), ((2, 2), 1)]),
                           ((Fraction(1), (r1, r1)), (Fraction(1), (r2, r2))))
        real = kf._points
        calls = []

        def counting(alg, ws, shift):
            calls.extend(ws)
            return real(alg, ws, shift)

        monkeypatch.setattr(kf, "_points", counting)
        for samples in (1, 20, 100):
            calls.clear()
            assert verify_certificate(alg, cert, samples=samples).passed
            assert len(calls) == samples
            calls.clear()
            assert verify_certificate(alg, cert, samples=samples).passed
            assert calls == []

    def test_a_block_looks_up_its_kernel_once(self, monkeypatch):
        # the points of a block share one sparsity pattern of ad_w, so one
        # lookup serves all of them; a point of another pattern (the origin,
        # where ad_w is 0) looks up its own and hands the next point back
        alg = AlmostAbelianAlgebra(J2)
        shift = kf._fixed_shift(alg.dim, 100)
        real = kf._MEMO.kernels.get
        looked_up = []

        def counting(key, make):
            looked_up.append(key)
            return real(key, make)

        monkeypatch.setattr(kf._MEMO.kernels, "get", counting)
        ws = sample_points(alg.dim, kf._BLOCK, 3)
        points = kf._points(alg, [kf._scaled(w, shift) for w in ws], shift)
        assert len(looked_up) == 1 and all(p.kernel is points[0].kernel for p in points)
        looked_up.clear()
        ws[5] = (0.0,) * alg.dim
        points = kf._points(alg, [kf._scaled(w, shift) for w in ws], shift)
        assert [len(shape) for _, shape in looked_up] == [2, 0, 2]
        assert points[5].kernel is not points[4].kernel is points[6].kernel

    def test_memo_stays_bounded_at_max_samples(self, fresh_memo):
        # on the shear [e0, e2] = e1 the series of right:2 stops after two
        # terms, so a check at the cap is quick; right:1 is central, hence
        # constant, and right:2 enters two terms that cancel, so the
        # certificate e1^2 passes while right:2 fills the columns
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, 1], [0, 0]]))
        r1, r2 = RightInvariant(basis_vec(3, 1)), RightInvariant(basis_vec(3, 2))
        cert = Certificate(SymTensor.monomial(3, (1, 1)), (
            (Fraction(1), (r1, r1)), (Fraction(1), (r1, r2)), (Fraction(-1), (r2, r1))))
        assert verify_certificate(alg, cert, samples=MAX_SAMPLES).passed
        memo = kf._MEMO
        columns = memo.columns.entries.values()
        assert memo.columns.size == sum(map(len, columns)) <= 256
        assert max(map(len, columns)) == kf._BLOCK
        # a sample set keeps its two bounds, not its points
        (bounds,) = memo.sets.entries.values()
        assert len(bounds) == 2 and bounds[0] > -math.inf
        # and ad_w has row 1 over columns 0 and 2 at every point: one kernel
        assert list(memo.kernels.entries) == [(3, ((1, (0, 2)),))] and memo.kernels.size == 18

    def test_two_tolerances_match_fresh_processes(self, fresh_memo):
        # tol 1e-9 and 1e-40 need the series to orders 21 and 50
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -1], [1, 0]]))
        cert = decompose(alg, alg.killing_space_structured(2).basis[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(kf.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for tol in ("1e-9", "1e-40"):
            here = repr(verify_certificate(alg, cert, tol=float(tol)))
            fresh = subprocess.run([sys.executable, "-c", _FRESH_CHECK, tol], env=env,
                                   capture_output=True, text=True, check=True).stdout.strip()
            assert here == fresh


    def test_memo_table_keeps_its_weight_under_contention(self):
        # four threads fill one small table with entries of weight 1 to 3:
        # a lost update would leave its size off the sum of its weights
        table = kf._LRU(10, len)
        errors = []

        def run(t):
            rng = random.Random(t)
            for _ in range(2000):
                key = rng.randrange(12)
                if table.get(key, lambda: (key,) * (1 + key % 3)) != (key,) * (1 + key % 3):
                    errors.append(key)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert table.size == sum(map(len, table.entries.values())) <= 10


class TestConcurrentChecks:
    REPEATS = 40
    # passes of each thread that shares generators: a kept value read again
    # after another thread replaced it failed 2 of 5 runs at this count
    SHARED_REPEATS = 150

    def test_threads_at_different_digits_match_the_sequential_checks(self):
        # the degree-4 basis of diag(3, -3) is checked at 60 and 50 digits
        # and the degree-2 basis of the rotation at 50; a short switch interval
        # interleaves the two threads' checks many times over
        jobs = []
        for d, p in ((Endomorphism.diagonal([3, -3]), 4), (J2, 2)):
            alg = AlmostAbelianAlgebra(d)
            jobs.append((alg, [decompose(alg, k) for k in alg.killing_space_structured(p).basis]))
        want = [[verify_certificate(alg, cert) for cert in certs] for alg, certs in jobs]
        assert [{c.precision_digits for c in checks} for checks in want] == [{50, 60}, {50}]
        got = ([], [])

        def run(i):
            alg, certs = jobs[i]
            for _ in range(self.REPEATS):
                got[i].append([verify_certificate(alg, cert) for cert in certs])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert list(got) == [[checks] * self.REPEATS for checks in want]

    def test_threads_sharing_generators_at_two_scales_match_the_sequential_checks(self):
        # four threads check the same certificates of the rotation algebra,
        # which share its generator objects and their kept facts, two at 50
        # digits and two at 80, so each constant generator's kept value
        # switches scale under the others many times over
        alg = AlmostAbelianAlgebra(J2)
        certs = [decompose(alg, k) for p in (2, 3) for k in alg.killing_space_structured(p).basis]
        tols = (1e-9, 1e-60, 1e-9, 1e-60)
        want = {tol: [verify_certificate(alg, cert, tol=tol) for cert in certs] for tol in tols}
        assert {tol: {c.precision_digits for c in checks} for tol, checks in want.items()} == {
            1e-9: {50}, 1e-60: {80}}
        got = [[] for _ in tols]

        def run(i):
            for _ in range(self.SHARED_REPEATS):
                got[i].append([verify_certificate(alg, cert, tol=tols[i]) for cert in certs])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(tols))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want[tol]] * self.SHARED_REPEATS for tol in tols]


# ---------------------------------------------------------------------------
# the fixed-point series kernel against independent references
# ---------------------------------------------------------------------------

def _heisenberg():
    return MetricLieAlgebra(3, {(0, 1, 2): 1, (1, 0, 2): -1})


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
    worst = max(abs(_mpf(g) - r) for g, r in zip(got, want))
    assert worst <= bound, f"deviation {mp.nstr(worst, 5)} exceeds the bound {bound:.3e}"


def _tw(t, w):
    return tuple(sum(c * v for c, v in zip(row, w)) for row in t.entries)


def _phi(alg, t, w, order=None, min_order=0, prec=None):
    """``phi(-ad_w) T w`` for any matrix ``T``, skew or not, from the series
    kernel, exact or at ``prec`` bits as ``omega_tensor`` sums it; a
    ``DerivationField`` reaches it only with a skew ``T``."""
    if prec is None:
        shift, (point,) = None, kf._points(alg, [tuple(map(Fraction, w))], None)
    else:
        shift = kf._fixed_shift(alg.dim, prec)
        point, = kf._points(alg, [[kf._fixed_entry(c, prec, shift) for c in w]], shift)
    tw = [sum(kf._rational_times(c, v, shift) for c, v in zip(row, point.w)) for row in t.entries]
    if shift is None:
        return tuple(kf._exact_series(point, tw, 1, order))
    value = kf._fixed_series(point, tw, 1, order, min_order)
    return tuple(kf._nearest(v, 1 << shift, prec) for v in value)


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


def _same_series(point, x, s, order, min_order, rows, norm):
    """The kernel at a prepared point against ``fixed_series_oracle`` over
    ``rows`` and ``norm``: equal ints, or the same ``SeriesCapError``.
    Returns the oracle's outcome."""
    try:
        want = fixed_series_oracle(rows, norm, x, s, point.shift, order, min_order)
    except kf.SeriesCapError as exc:
        with pytest.raises(kf.SeriesCapError) as got:
            kf._fixed_series(point, x, s, order, min_order)
        assert str(got.value) == str(exc)
        return exc
    assert kf._fixed_series(point, x, s, order, min_order) == want
    return want


def _same_fixed_series(alg, w, x, s, order, min_order):
    """``_same_series`` at ``w`` prepared by ``_points``, the oracle on the
    dense rows of ``point_oracle``."""
    shift = kf._fixed_shift(alg.dim, mp.prec)
    wv, xv = kf._scaled(w, shift), kf._scaled(x, shift)
    rows, norm = point_oracle(alg, wv)
    return _same_series(kf._points(alg, [wv], shift)[0], xv, s, order, min_order, dense_rows(rows),
                        norm)


def _synthetic_point(n, rows, shift):
    """A prepared fixed-point point of ``n`` dimensions whose ``2^shift
    ad_w`` has the given ``(row, columns, entries)`` rows, with no algebra
    behind it: the kernel is compiled for its pattern directly."""
    norms = [0] * n
    for _, columns, entries in rows:
        for c, a in zip(columns, entries):
            norms[c] += abs(a)
    kernel = kf._series_kernel((n, tuple((r, columns) for r, columns, _ in rows)))
    return kf._Point(shift, 1 << shift, (), rows, max(norms), kernel)


# the explicit orders: none, the identity, a few terms, at and past the cap
ORDERS = (None, 0, 3, MAX_TERMS, MAX_TERMS + 1)
AA16 = ff.algebra_from_dict(json.loads(
    (Path(__file__).parent / "data" / "aa16.json").read_text()))


class TestSeriesKernel:
    @settings(max_examples=150, deadline=None)
    # min_order up to 80 reaches past the stop rule's own point and, before
    # the terms round to zero, moves where the sum stops
    @given(kernel_inputs(), st.sampled_from([0, 1]),
           st.one_of(st.none(), st.integers(0, 9), st.just(MAX_TERMS + 1)),
           st.one_of(st.integers(0, 80), st.just(MAX_TERMS)), st.sampled_from([15, 50]))
    def test_fixed_series_matches_the_per_entry_loop(self, case, s, order, min_order, dps):
        alg, w, x, _ = case
        with mp.workdps(dps):
            _same_fixed_series(alg, w, x, s, order, min_order)

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_fixed_series_stops_where_the_per_entry_loop_does(self, name):
        # every min_order from the hump to past the last nonzero term, where
        # the stop rule, the hump and the zero term each decide the stop
        alg = KERNEL_CASES[name]
        w = (1.25, -0.75, 0.5, -1.5)[:alg.dim]
        x = tuple(Fraction(i + 1, 3) for i in range(alg.dim))
        for dps in (15, 50):
            with mp.workdps(dps):
                for s in (0, 1):
                    for min_order in range(0, 72):
                        _same_fixed_series(alg, w, x, s, None, min_order)

    def test_fixed_series_cap_matches_the_per_entry_loop(self):
        # the point of test_term_cap: ||ad_w||_1 = 6000 puts the hump past the cap
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([2, 2]))
        with mp.workdps(20):
            for s in (0, 1):
                got = _same_fixed_series(alg, (3000.0, 0.0, 0.0), (0, 1, 0), s, None, 0)
                assert isinstance(got, kf.SeriesCapError)

    @pytest.mark.parametrize("order", ORDERS)
    def test_zero_pattern(self, order):
        # an abelian algebra: no row, and the kernel returns x
        alg = AlmostAbelianAlgebra(Endomorphism.zero(2))
        x = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
        with mp.workdps(15):
            assert kf._points(alg, [kf._scaled((1.5, -0.25, 2.0), 60)], 60)[0].rows == ()
            for s in (0, 1):
                for min_order in (0, MAX_TERMS):
                    got = _same_fixed_series(alg, (1.5, -0.25, 2.0), x, s, order, min_order)
                    assert got == kf._scaled(x, kf._fixed_shift(3, mp.prec))

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("name", ["heisenberg", "nilpotent dim 4"])
    def test_nilpotent_series_stops_on_a_zero_term(self, name, order):
        # a min_order at the cap leaves the stop rule no room and caps the
        # series at n terms: only a zero term ends it without SeriesCapError
        alg = KERNEL_CASES[name]
        x = tuple(Fraction(i + 2, 3) for i in range(alg.dim))
        with mp.workdps(50):
            for w in sample_points(alg.dim, 4, 7):
                for s in (0, 1):
                    got = _same_fixed_series(alg, w, x, s, order, MAX_TERMS)
                    assert not isinstance(got, kf.SeriesCapError)

    @pytest.mark.parametrize("order", ORDERS)
    def test_sixteen_dimensions(self, order):
        # 15 rows of 9 to 16 entries, 200 nonzeros
        x = tuple(Fraction((-1) ** i * (i + 1), 4) for i in range(AA16.dim))
        with mp.workdps(15):
            for w in sample_points(AA16.dim, 2, 16):
                shift = kf._fixed_shift(AA16.dim, mp.prec)
                point, = kf._points(AA16, [kf._scaled(w, shift)], shift)
                lengths = [len(c) for _, c, _ in point.rows]
                assert len(lengths) == 15 and max(lengths) == 16 and sum(lengths) == 200
                for s in (0, 1):
                    _same_fixed_series(AA16, w, x, s, order, 0)

    @pytest.mark.parametrize("order", ORDERS)
    def test_a_row_of_3001_nonzeros(self, order):
        # one product per entry in a single row overflows the compiler's
        # recursion limit unless the row sum is split; the row reads itself,
        # so the series runs past its second term, and the last entry, no
        # row and never read, is the largest partial sum the stop rule sees
        rng = random.Random(3001)
        n = 3002
        with mp.workdps(15):
            shift = kf._fixed_shift(n, mp.prec)
            one = 1 << shift
            entries = (one // 2,) + tuple(rng.randrange(-one, one) // 3001 or 1
                                          for _ in range(3000))
            point = _synthetic_point(n, ((0, tuple(range(3001)), entries),), shift)
            x = [rng.randrange(-one, one) for _ in range(n - 1)] + [10 ** 12 << shift]
            for s in (0, 1):
                for min_order in (0, 40):
                    _same_series(point, x, s, order, min_order, point.rows, point.norm)

    @pytest.mark.parametrize("order", ORDERS)
    def test_cap_is_raised_at_the_same_term(self, order):
        # ad_w = I and a min_order at the cap: from x = (v, 0, -v) units of
        # 2^-shift the terms are v/(k + s)! rounded toward zero, and the
        # series raises exactly when term n + 1 = 4 is still nonzero: from
        # v = 4! on for s = 0, from 5! on for s = 1
        with mp.workdps(15):
            shift = kf._fixed_shift(3, mp.prec)
            one = 1 << shift
            point = _synthetic_point(3, tuple((r, (r,), (one,)) for r in range(3)), shift)
            for s in (0, 1):
                raised = [isinstance(_same_series(point, [v, 0, -v], s, order,
                                                  MAX_TERMS, point.rows, point.norm),
                                     kf.SeriesCapError) for v in range(150)]
                if order in (None, MAX_TERMS + 1):
                    assert raised == [v >= (24, 120)[s] for v in range(150)]
                else:
                    assert not any(raised)

    def test_threads_compile_one_new_pattern(self, fresh_memo):
        # eight threads make the first use of one pattern at once: each gets
        # the oracle's ints, and the table keeps the sum of its weights
        alg = AlmostAbelianAlgebra(random_derivation(random.Random(8), 4, "generic"))
        w = (0.5, 0.0, -1.25, 0.75, 1.5)
        x = tuple(Fraction(i - 2, 5) for i in range(alg.dim))
        with mp.workdps(30):
            shift = kf._fixed_shift(alg.dim, mp.prec)
            xv = kf._scaled(x, shift)
            rows, norm = point_oracle(alg, kf._scaled(w, shift))
            want = fixed_series_oracle(dense_rows(rows), norm, xv, 1, shift)
        got = []

        def run():
            point, = kf._points(alg, [kf._scaled(w, shift)], shift)
            got.append(kf._fixed_series(point, xv, 1, None, 0))

        threads = [threading.Thread(target=run) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8
        table = kf._MEMO.kernels
        assert len(table.entries) == 1
        assert table.size == sum(map(table.weigh, table.entries.values()))

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs(exact=True), st.integers(0, 3))
    def test_exact_truncations(self, case, order):
        alg, w, x, t = case
        got = omega_generator(alg, RightInvariant(x), w, order=order)
        assert tuple(got.dense()) == omega_series_oracle(alg, x, w, order=order)
        assert _phi(alg, t, w, order=order) == omega_series_oracle(
            alg, _tw(t, w), w, phi=True, order=order)

    def test_exact_terminating_series(self):
        alg = KERNEL_CASES["heisenberg"]
        w, x = (Fraction(3, 2), Fraction(-2), Fraction(5)), (Fraction(1), Fraction(2), Fraction(0))
        t = Endomorphism.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        got = omega_generator(alg, RightInvariant(x), w)
        assert tuple(got.dense()) == omega_series_oracle(alg, x, w)
        got = omega_generator(alg, DerivationField(SkewDerivation.from_matrix(t)), w)
        assert tuple(got.dense()) == omega_series_oracle(alg, _tw(t, w), w, True)

    def test_exact_non_terminating_phi_raises(self):
        alg = KERNEL_CASES["so3"]
        t = Endomorphism.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        field = DerivationField(SkewDerivation.from_matrix(t))
        with pytest.raises(ValueError, match="does not terminate"):
            omega_generator(alg, field, (Fraction(1), Fraction(1), Fraction(0)))

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_exp_against_mpf_series_and_expm(self, case):
        alg, w, x, _ = case
        with mp.workdps(50):
            # a rational point is rounded to the working precision, as a float one
            got = omega_generator(alg, RightInvariant(x), w, min_order=KERNEL_ORDER,
                                  prec=mp.prec).dense()
            w = tuple(_mpf(c) for c in w)
            bound = kernel_bound(alg, w, x)
            with mp.workdps(70):
                series = omega_series_oracle(alg, x, w, min_order=KERNEL_ORDER)
                expm = _expm_reference(alg, w, x, phi=False)
            _assert_within(got, series, bound)
            _assert_within(got, expm, bound)

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_phi_against_mpf_series_and_expm(self, case):
        alg, w, _, t = case
        w = tuple(float(c) for c in w)
        with mp.workdps(50):
            got = _phi(alg, t, w, min_order=KERNEL_ORDER, prec=mp.prec)
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
            got = omega_generator(alg, DerivationField(t), w, min_order=KERNEL_ORDER,
                                  prec=mp.prec)
            bound = kernel_bound(alg, w, _tw(t.full_matrix(), tuple(Fraction(c) for c in w)))
            with mp.workdps(70):
                closed = omega_derivation(alg, t, tuple(mp.mpf(c) for c in w),
                                          min_order=KERNEL_ORDER)
            _assert_within(tuple(map(_mpf, got.dense())), closed, bound)

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_large_norm_point(self, name):
        alg = KERNEL_CASES[name]
        w = (7.5, -6.25, 5.0, -4.5)[:alg.dim]
        x = tuple(Fraction(1, i + 1) for i in range(alg.dim))
        with mp.workdps(50):
            got = omega_generator(alg, RightInvariant(x), w, min_order=KERNEL_ORDER,
                                  prec=mp.prec).dense()
            bound = kernel_bound(alg, w, x)
            with mp.workdps(70):
                expm = _expm_reference(alg, w, x, phi=False)
            _assert_within(got, expm, bound)

    def test_term_cap(self):
        # ||ad_w||_1 = 6000 puts the hump past the 5000-term cap
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([2, 2]))
        with pytest.raises(RuntimeError, match="converge"):
            omega_generator(alg, _right(1), (3000.0, 0.0, 0.0), prec=kf._dps_to_prec(20))

    def test_nilpotent_series_past_the_cap_terminates(self):
        # ||ad_w||_1 = 6000 puts the hump past the cap, but ad_w^2 = 0: the
        # series is x - ad_w x
        alg = AlmostAbelianAlgebra(NILP)
        got = omega_generator(alg, _right(2), (6000.0, 0.0, 0.0), prec=kf._dps_to_prec(20))
        assert got == SymTensor.from_vector(3, (0, -6000, 1))


# ---------------------------------------------------------------------------
# the sampled check reads only what varies: central right fields, bounds
# drawn only for series on a bracketed algebra, the kernel's stop pre-check
# ---------------------------------------------------------------------------

_SMALL_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def central_algebras(draw):
    """``(algebra, central indices)``, the indices read off the constants the
    algebra was built from: an almost abelian algebra whose ``D`` has zero
    columns (``e_(j+1)`` is central when column ``j`` is zero, ``b`` when
    ``D = 0``), or a two-step nilpotent one whose brackets all land in a
    chosen set of central indices."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        zero = draw(st.sets(st.integers(0, n - 1)))
        rows = [[Fraction(0) if j in zero else draw(_SMALL_RATIONAL) for j in range(n)]
                for _ in range(n)]
        moved = {j for j in range(n) if any(row[j] for row in rows)}
        central = {j + 1 for j in range(n) if j not in moved} | ({0} if not moved else set())
        return AlmostAbelianAlgebra(Endomorphism.from_rows(rows)), central
    n = draw(st.integers(2, 6))
    z = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    v = [i for i in range(n) if i not in z]
    constants = {}
    for a in v:
        for b in v:
            if a < b:
                for k in sorted(z):
                    c = draw(_SMALL_RATIONAL)
                    if c:
                        constants[a, b, k], constants[b, a, k] = c, -c
    central = {j for j in range(n) if not any(constants.get((i, j, k))
                                              for i in range(n) for k in range(n))}
    return MetricLieAlgebra(n, constants), central


def _outcome(f):
    """``f()``, or the type and message of the error it raises."""
    try:
        return f()
    except ValueError as exc:
        return type(exc), str(exc)


class TestCentralRightFields:
    @settings(max_examples=300, deadline=None)
    @given(central_algebras(), st.data())
    def test_constant_equals_the_series(self, case, data):
        # a right-invariant field of a vector on the central columns is
        # valued as its vector: bit for bit the series summed directly, in
        # fixed point and over the rationals; a vector with one entry off
        # them is summed as a series
        alg, central = case
        n = alg.dim
        assert alg.central_columns == central
        support = data.draw(st.sets(st.sampled_from(sorted(central)))) if central else set()
        moved = sorted(set(range(n)) - central)
        if moved and data.draw(st.booleans()):
            support.add(data.draw(st.sampled_from(moved)))
        vector = tuple(data.draw(_SMALL_RATIONAL.filter(bool)) if i in support else Fraction(0)
                       for i in range(n))
        gen = RightInvariant(vector)
        assert kf._varies(alg, gen) == bool(support - central)
        w = data.draw(st.tuples(*[st.one_of(_SMALL_RATIONAL, st.floats(-2, 2))] * n))
        shift = data.draw(st.sampled_from([None, kf._fixed_shift(n, 8),
                                           kf._fixed_shift(n, 53), kf._fixed_shift(n, 200)]))
        order = data.draw(st.sampled_from([None, 0, 1, 2, 5]))
        min_order = data.draw(st.sampled_from([0, 3, 12]))
        point, = kf._points(alg, [kf._scaled(w, shift) if shift else tuple(map(Fraction, w))],
                            shift)
        x = kf._scaled(vector, shift)
        if shift is None:
            direct = _outcome(lambda: kf._exact_series(point, x, 0, order))
        else:
            direct = _outcome(lambda: kf._fixed_series(point, x, 0, order, min_order))
        got = _outcome(lambda: kf._generator_values(alg, gen, shift, [point], order,
                                                    min_order)[0])
        assert got == direct
        if not support - central:
            assert got == x

    def test_a_central_right_field_prepares_no_point(self, monkeypatch, fresh_memo):
        # right:2 on the Heisenberg algebra: no point is prepared and no
        # series summed, by verify_certificate or by omega_tensor
        alg = _heisenberg()
        r2 = RightInvariant(basis_vec(3, 2))
        cert = Certificate(SymTensor.monomial(3, (2, 2)), ((Fraction(1), (r2, r2)),))

        def refused(*args):
            raise AssertionError("prepared or summed")

        for name in ("_points", "_fixed_series", "_exact_series"):
            monkeypatch.setattr(kf, name, refused)
        check = verify_certificate(alg, cert)
        assert check.passed and check.max_deviation == 0.0 and check.precision_digits == 50
        assert omega_tensor(alg, cert, (1.5, -2, Fraction(1, 3))) == cert.target
        assert omega_tensor(alg, cert, (1.5, -2, Fraction(1, 3)), prec=53) == cert.target


class TestSamplePointsOnlyForSeries:
    J = LeftInvariant(basis_vec(3, 0))
    R1, R2 = RightInvariant(basis_vec(3, 1)), RightInvariant(basis_vec(3, 2))
    C = Fraction(10 ** 30 + 1, 3)

    @staticmethod
    def _squares(diagonal):
        return SymTensor.build(3, 2, [((i, i), v) for i, v in enumerate(diagonal) if v])

    # each CertificateCheck as the sampled check returned it when every
    # check drew its points for the bounds (defaults, then 100 samples at
    # tol 1e-40): (passed, exact_at_zero, max_deviation, precision_digits)
    @pytest.mark.parametrize("name, want", [
        ("series-free, bracketed", [(True, True, 0.0, 70), (True, True, 0.0, 80)]),
        ("series-free, bracketed, off target", [(False, False, 1 / 6, 50),
                                                (False, False, 1 / 6, 60)]),
        ("right fields, bracket-free", [(True, True, 0.0, 50), (True, True, 0.0, 60)]),
        ("every constant kind, bracket-free, off target", [(False, False, 1.0, 70),
                                                           (False, False, 1.0, 90)])])
    def test_no_point_is_drawn(self, monkeypatch, fresh_memo, name, want):
        rotation = AlmostAbelianAlgebra(J2)
        flat = AlmostAbelianAlgebra(Endomorphism.zero(2))
        j, r1, r2, c, squares = self.J, self.R1, self.R2, self.C, self._squares
        alg, cert = {
            "series-free, bracketed": (rotation, Certificate(
                squares([c / 2 + 1, c / 2, c / 2]), ((c, (Metric(),)), (Fraction(1), (j, j))))),
            "series-free, bracketed, off target": (rotation, Certificate(
                squares([Fraction(3, 2), Fraction(1, 2), Fraction(1, 3)]),
                ((Fraction(1), (Metric(),)), (Fraction(1), (j, j))))),
            "right fields, bracket-free": (flat, Certificate(
                SymTensor.build(3, 2, [((1, 2), 1)]), ((Fraction(1), (r1, r2)),))),
            "every constant kind, bracket-free, off target": (flat, Certificate(
                squares([c, 1, 0]), ((c, (j, j)), (Fraction(-1, 7), (r1, r2)),
                                     (Fraction(2), (Metric(),))))),
        }[name]

        def drawn(*args):
            raise AssertionError("a sample point was drawn")

        monkeypatch.setattr(kf, "sample_points", drawn)
        for kwargs, (passed, exact0, deviation, digits) in zip(
                ({}, {"samples": 100, "tol": 1e-40}), want):
            check = verify_certificate(alg, cert, **kwargs)
            assert check == kf.CertificateCheck(
                passed=passed, exact_at_zero=exact0, max_deviation=deviation,
                samples=kwargs.get("samples", 20), tol=kwargs.get("tol", 1e-9),
                seed=kf.DEFAULT_SEED, order_floor=kf.DEFAULT_ORDER_FLOOR,
                precision_digits=digits)
        assert not kf._MEMO.sets.entries

    def test_series_on_a_bracketed_algebra_draws_its_points(self, monkeypatch, fresh_memo):
        # a central right field is still a series factor: the bounds, and
        # with them the working digits, are those of the drawn points
        alg = _heisenberg()
        r2 = RightInvariant(basis_vec(3, 2))
        cert = Certificate(SymTensor.monomial(3, (2, 2)), ((Fraction(1), (r2, r2)),))
        drawn = []
        real = kf.sample_points

        def counting(*args):
            drawn.append(args)
            return real(*args)

        monkeypatch.setattr(kf, "sample_points", counting)
        assert verify_certificate(alg, cert).passed
        assert drawn == [(3, 20, kf.DEFAULT_SEED)]
        assert [b > -math.inf for b, _ in kf._MEMO.sets.entries.values()] == [True]


@st.composite
def kernel_patterns(draw):
    """``(n, rows)``: sorted rows of sorted columns with int entries, as a
    prepared point holds them; now and then one row wider than
    ``_KERNEL_WIDTH``."""
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.integers(kf._KERNEL_WIDTH + 1, kf._KERNEL_WIDTH + 12))
        wide = draw(st.integers(0, n - 1))
        others = draw(st.sets(st.integers(0, n - 1), max_size=2)) - {wide}
        rows = [(r, tuple(range(n)) if r == wide else
                 tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))))
                for r in sorted(others | {wide})]
    else:
        n = draw(st.integers(1, 5))
        rows = [(r, tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))))
                for r in sorted(draw(st.sets(st.integers(0, n - 1))))]
    entry = st.integers(-40, 40).filter(bool)
    return n, tuple((r, columns, tuple(draw(entry) for _ in columns)) for r, columns in rows)


class TestStopPreCheck:
    @settings(max_examples=400, deadline=None)
    @given(kernel_patterns(), st.data())
    def test_kernel_matches_the_full_comparison(self, pattern, data):
        # every compiled kernel against series_kernel_oracle, which makes
        # the exact stop comparison at every term: the same partial sums,
        # and None at the cap; eps runs from 0 past one, so the stop rule
        # fires early and late, while the partial sums grow and shrink.  The
        # row shift runs from 0 to the full shift, as a stripped point's
        # does, while the stop rule compares at the full scale
        n, rows = pattern
        kernel = kf._series_kernel((n, tuple((r, columns) for r, columns, _ in rows)))
        shift = data.draw(st.integers(0, 12))
        row_shift = data.draw(st.one_of(st.just(shift), st.integers(0, shift)))
        one = 1 << shift
        x = data.draw(st.lists(st.integers(-8 * one, 8 * one), min_size=n, max_size=n))
        s = data.draw(st.sampled_from([0, 1, 3]))
        eps = data.draw(st.one_of(st.just(0), st.integers(0, 4 * one), st.integers(0, 1 << 40)))
        stop_from = data.draw(st.integers(0, 8))
        cap = data.draw(st.integers(0, 40))
        last = data.draw(st.integers(0, 45))
        args = (rows, x, s, row_shift, one, eps, stop_from, cap, last)
        assert kernel(*args) == series_kernel_oracle(*args)

    def test_one_entry_sweep(self):
        # one diagonal entry, so each term is the last one times e/(k + s):
        # over small shifts, thresholds and start values, the partial sum
        # grows by up to hi before a term drops under the threshold, and
        # 2 eps hi / 2^shift is often not an integer, where the pre-check
        # bound must round up
        kernel = kf._series_kernel((1, ((0, (0,)),)))
        for shift in range(4):
            one = 1 << shift
            for s in (0, 1):
                for e in range(-16, 17):
                    rows = ((0, (0,), (e,)),)
                    for x in (1, 2, 3, 19, 23):
                        for eps in range(1, 2 * one + 1):
                            for row_shift in {0, shift}:
                                args = (rows, [x], s, row_shift, one, eps, 0, 30, 30)
                                assert kernel(*args) == series_kernel_oracle(*args)


# ---------------------------------------------------------------------------
# stripped points, lane-uniform Horner positions, and the stop rule below
# 5 working digits
# ---------------------------------------------------------------------------

def _thirds():
    """Algebras whose structure constants have denominator 3, where
    ``ad_walk`` floors each product and little or no power of two is
    common to the entries: the skew ``D`` of ``tests/data/skew3.json``, a
    generic ``D``, and a Heisenberg bracket of 1/3."""
    skew = ff.algebra_from_dict(json.loads(
        (Path(__file__).parent / "data" / "skew3.json").read_text()))
    generic = AlmostAbelianAlgebra(Endomorphism.from_rows(
        [[Fraction(1, 3), Fraction(-2, 3)], [Fraction(4, 3), Fraction(5, 3)]]))
    return [skew, generic, MetricLieAlgebra(3, {(0, 1, 2): Fraction(1, 3),
                                                (1, 0, 2): Fraction(-1, 3)})]


_STRIP_ALGEBRAS = ([KERNEL_CASES[name] for name in sorted(KERNEL_CASES)] + _thirds()
                   + [AlmostAbelianAlgebra(Endomorphism.zero(2))])
_STRIP_POINTS = {
    # sample points: floats in [-2, 2], at most 53 significant bits each
    "float": st.floats(-2, 2, allow_nan=False),
    # integer entries: over integer constants every product has at least
    # shift trailing zero bits, where the strip is capped
    "integer": st.integers(-3, 3).map(float),
    # odd denominators: each entry is floored at the scale
    "rational": st.builds(Fraction, st.integers(-40, 40), st.sampled_from([3, 5, 7, 9, 15])),
    # the origin: no row at all
    "origin": st.just(0.0),
}


def _series_outcome(point, x, s, order, min_order):
    """``_fixed_series`` at ``point``, or the type and message it raises."""
    try:
        return kf._fixed_series(point, x, s, order, min_order)
    except (ValueError, kf.SeriesCapError) as exc:
        return type(exc), str(exc)


class TestRowShift:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(_STRIP_ALGEBRAS))), st.sampled_from(sorted(_STRIP_POINTS)),
           st.data())
    # 2 b on an integer algebra: every product a multiple of 2^(shift + 1);
    # a float point on the skew algebra with thirds
    @example(len(_STRIP_ALGEBRAS) - 4, "integer", None)
    @example(len(_STRIP_ALGEBRAS) - 3, "float", None)
    def test_stripped_series_equals_the_unstripped(self, which, kind, data):
        # a prepared point keeps its rows divided by 2^strip, the largest
        # power of two common to them, capped at the shift, and rounds each
        # row sum by shift - strip: every series is the one of the undivided
        # rows, bit for bit, or raises the same error
        alg = _STRIP_ALGEBRAS[which]
        if data is None:  # the explicit examples
            w, prec, s, order, min_order = (2.0,) + (0.0,) * (alg.dim - 1), 53, 1, None, 0
            if kind == "float":
                w = (0.75, -1.5, 1e-3, 1.25, -0.3)[:alg.dim]
            x = [Fraction(i + 1, 3) for i in range(alg.dim)]
        else:
            w = data.draw(st.tuples(*[_STRIP_POINTS[kind]] * alg.dim))
            prec = data.draw(st.sampled_from([8, 53, 170]))
            s = data.draw(st.sampled_from([0, 1]))
            order = data.draw(st.one_of(st.none(), st.integers(0, 9)))
            min_order = data.draw(st.integers(0, 30))
            x = data.draw(st.tuples(*[_KERNEL_RATIONAL] * alg.dim))
        shift = kf._fixed_shift(alg.dim, prec)
        wv = tuple(kf._to_fixed(c, shift) for c in w)
        point, = kf._points(alg, [wv], shift)
        rows, norm = alg.ad_walk(wv, alg.denominator)
        assert unstripped(point) == rows and point.norm == norm
        assert_strip_is_largest(point)
        if kind == "integer" and alg.denominator == 1 and rows:
            assert point.strip == shift
        whole = point._replace(rows=rows, strip=0)
        xv = kf._scaled(x, shift)
        assert (_series_outcome(point, xv, s, order, min_order)
                == _series_outcome(whole, xv, s, order, min_order))

    def test_sample_points_strip_over_a_hundred_bits(self):
        # the sampled check's own points on integer constants: far more
        # zero bits than significant ones, each point its own strip
        alg = KERNEL_CASES["generic dim 4"]
        shift = kf._fixed_shift(alg.dim, kf._dps_to_prec(50))
        ws = sample_points(alg.dim, 20, kf.DEFAULT_SEED)
        points = kf._points(alg, [kf._scaled(w, shift) for w in ws], shift)
        assert all(p.strip >= 100 for p in points)
        assert len({p.strip for p in points}) > 1
        for p in points:
            assert_strip_is_largest(p)

    def test_thirds_leave_little_to_strip(self):
        alg = _thirds()[0]
        shift = kf._fixed_shift(alg.dim, kf._dps_to_prec(50))
        ws = sample_points(alg.dim, 20, kf.DEFAULT_SEED)
        points = kf._points(alg, [kf._scaled(w, shift) for w in ws], shift)
        assert all(p.strip <= 2 for p in points)


class TestMixedLanes:
    @settings(max_examples=200, deadline=None)
    @given(certificates(), st.sampled_from([1, 31, 32, 33, 70]),
           st.sampled_from(["constant", "mixed"]), st.data())
    def test_each_lane_matches_the_oracle(self, case, lanes, kind, data):
        # each position of a generator's value drawn on its own: None, one
        # int for every lane, or a tuple of one int per lane, with one lane
        # zero in every tuple (the origin, where a derivation field is 0);
        # all-constant values make no tuple at all
        alg, cert = case
        compiled = CompiledCertificate(cert)
        shift = data.draw(st.sampled_from([0, 3, 64]))
        entry = st.integers(-(1 << (shift + 8)), 1 << (shift + 8))
        origin = data.draw(st.integers(0, lanes - 1))
        varying = st.lists(entry, min_size=lanes, max_size=lanes).map(
            lambda v: tuple(v[:origin] + [0] + v[origin + 1:]))
        position = st.one_of(st.none(), entry.filter(bool),
                             *([varying] if kind == "mixed" else []))
        values = [[data.draw(position) for _ in range(sym_dimension(alg.dim, generator_degree(g)))]
                  for g in compiled.generators]
        coeffs = kf._scaled(compiled.coefficients, shift)
        got = kf._horner_lanes(compiled.nodes, values, coeffs, shift)
        assert all(v is None or (type(v) is int and v) or (type(v) is tuple and len(v) == lanes)
                   for v in got)
        if kind == "constant":
            assert not any(type(v) is tuple for v in got)
        for i in range(lanes):
            want = horner_oracle(compiled.nodes, [[lane(v, i) for v in value] for value in values],
                                 coeffs, shift)
            assert [lane(v, i) for v in got] == list(want)

    def test_constant_certificate_sums_single_ints(self):
        # the metric and left:0 on the rotation algebra: every position is
        # one int, the node shifts included, equal to the oracle
        alg = ORACLE_CASES["rotation"][0]
        left = LeftInvariant(basis_vec(3, 0))
        cert = Certificate(SymTensor.zero(3, 3), ((Fraction(5, 3), (Metric(), left)),
                                                  (Fraction(-7), (left, left, left))))
        compiled = CompiledCertificate(cert)
        shift = kf._fixed_shift(3, 170)
        columns = [kf._generator_values(alg, g, shift, (None,) * 20, None, 0)
                   for g in compiled.generators]
        values = kf._lanes(columns, [False] * len(columns))
        coeffs = kf._scaled(compiled.coefficients, shift)
        got = kf._horner_lanes(compiled.nodes, values, coeffs, shift)
        want = horner_oracle(compiled.nodes, [c[0] for c in columns], coeffs, shift)
        assert all(type(v) is int for v in got if v is not None)
        assert [v or 0 for v in got] == list(want)


class TestStopRuleBelowFiveDigits:
    @pytest.mark.parametrize("prec", range(1, 20))
    def test_eps_is_an_int(self, prec):
        # below 19 working bits the digits are under 5, where one // 10 **
        # (dps - 5) made eps a float and its product with a partial sum of
        # 1000 bits overflowed: the series is the oracle's, on ints
        alg = AlmostAbelianAlgebra(Endomorphism.diagonal([1, 1]))
        gen = RightInvariant((0, 1, 0))
        w = (700.0, 0.0, 0.0)
        value = omega_generator(alg, gen, w, prec=prec)
        shift = kf._fixed_shift(alg.dim, prec)
        point, = kf._points(alg, [[kf._fixed_entry(c, prec, shift) for c in w]], shift)
        with mp.workprec(prec):
            want = fixed_series_oracle(unstripped(point), point.norm,
                                       kf._scaled(gen.vector, shift), 0, shift)
        assert value == SymTensor.from_dense(alg.dim, 1, [kf._nearest(v, 1 << shift, prec)
                                                          for v in want])


# the batch pin: (algebra file, degrees) in the order the checks run
_BATCH = (("skew3", range(5)), ("aa6", range(4)), ("nil6", range(4)))


def _batch_checks():
    """One line per check of the batch pin, in one process and in a fixed
    order: ``decompose`` and ``verify_certificate`` of every structured
    basis tensor of each algebra in ``_BATCH``, then ``e_i^2`` against
    ``right:i^2`` for the first ideal vector ``e_i`` the derivation moves,
    which the sampled check rejects.  Later checks read what earlier ones on
    the same algebra left behind: its generator objects, their facts and the
    sampled-value memo."""
    lines = []
    for name, degrees in _BATCH:
        alg = ff.algebra_from_dict(json.loads(
            (Path(__file__).parent / "data" / f"{name}.json").read_text()))
        checks = []
        for p in degrees:
            for t, k in enumerate(alg.killing_space_structured(p).basis):
                checks.append((f"{name} p={p} #{t}", verify_certificate(alg, decompose(alg, k))))
        i = next(i for i in range(1, alg.dim) if any(alg.derivation.column(i - 1)))
        r = basis_fields(alg).right[i]
        checks.append((f"{name} e{i}^2 against right:{i}^2", verify_certificate(
            alg, Certificate(SymTensor.monomial(alg.dim, (i, i)), ((Fraction(1), (r, r)),)))))
        lines += [f"{label}: max_deviation={c.max_deviation!r} precision_digits="
                  f"{c.precision_digits} passed={c.passed} exact_at_zero={c.exact_at_zero}"
                  for label, c in checks]
    return lines


class TestBatchPin:
    def test_checks_as_recorded(self):
        # recorded when every check derived its generators' facts afresh
        want = (Path(__file__).parent / "data" / "batch.checks.out").read_text()
        assert "\n".join(_batch_checks()) + "\n" == want


class TestKeptFacts:
    """What one check keeps for the next: whether a generator is a Killing
    field, on the algebra object, and beside the generator its exact value
    at the origin (by dimension) and a constant one's fixed-point value (by
    dimension and shift).  None of it may carry over to another algebra,
    dimension, shift or certificate."""

    FAULTS = {"left": "left-invariant field of a vector whose ad is not skew",
              "derivation": "matrix is not a derivation of the algebra"}

    @pytest.mark.parametrize("kind", ["left", "derivation"])
    @pytest.mark.parametrize("first", ["killing", "not killing"])
    def test_a_fault_stays_with_its_algebra(self, kind, first):
        # left:0 and the rotation's skew derivation are Killing fields of
        # the rotation algebra, not of diag(1, -1); one object each is
        # checked on both, in either order
        rotation, stretch = AlmostAbelianAlgebra(J2), AlmostAbelianAlgebra(DIAG)
        gen = (LeftInvariant(basis_vec(3, 0)) if kind == "left"
               else DerivationField(skew_derivations(rotation)[0]))
        r1 = RightInvariant(basis_vec(3, 1))
        cert = Certificate(SymTensor.zero(3, 2),
                           ((Fraction(1), (Metric(),)), (Fraction(2), (r1, gen))))
        for alg in ((rotation, stretch) if first == "killing" else (stretch, rotation)):
            if alg is stretch:
                with pytest.raises(GeneratorError) as raised:
                    verify_certificate(alg, cert, samples=2)
                assert str(raised.value) == f"certificate.terms[1].factors[1]: {self.FAULTS[kind]}"
            else:
                assert verify_certificate(alg, cert, samples=2).samples == 2

    def test_a_moved_coefficient_is_not_exact_at_the_origin(self):
        # the same factor objects, kept values and all, under another coefficient
        alg = AlmostAbelianAlgebra(J2)
        cert = decompose(alg, alg.killing_space_structured(3).basis[-1])
        (coeff, factors), *rest = cert.terms
        moved = Certificate(cert.target, ((coeff + Fraction(1, 7), factors), *rest))
        assert [verify_certificate(alg, c).exact_at_zero for c in (cert, moved)] == [True, False]
        assert verify_certificate(alg, cert).passed

    def test_the_metric_is_valued_per_dimension_and_shift(self):
        # one metric object on dimensions 4 and 5, which share their guard
        # bits and so their shift at equal digits, then at 80 digits
        metric = Metric()
        for n, tol in ((3, 1e-9), (4, 1e-9), (4, 1e-60), (3, 1e-60), (3, 1e-9)):
            alg = AlmostAbelianAlgebra(Endomorphism.diagonal(range(1, n + 1)))
            cert = Certificate(sum_of_squares(n + 1).scale(Fraction(1, 2)),
                               ((Fraction(1), (metric,)),))
            check = verify_certificate(alg, cert, tol=tol)
            assert (check.passed, check.exact_at_zero, check.max_deviation) == (True, True, 0.0)
            assert (check.precision_digits > 50) is (tol < 1e-9)
        assert kf._fixed_shift(4, 100) == kf._fixed_shift(5, 100)

    def test_a_field_is_valued_per_shift(self):
        # left:0 on the rotation at 50, 70 and again 50 digits
        alg = AlmostAbelianAlgebra(J2)
        left = LeftInvariant((Fraction(3, 7), Fraction(0), Fraction(0)))
        cert = Certificate(SymTensor.monomial(3, (0, 0), Fraction(9, 49)),
                           ((Fraction(1), (left, left)),))
        for tol in (1e-9, 1e-60, 1e-9):
            check = verify_certificate(alg, cert, tol=tol)
            assert (check.passed, check.exact_at_zero) == (True, True)
            assert check.max_deviation < tol
