"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  The randomized derivation suite is deterministic (fixed seeds) and
shared across criteria through module-scoped fixtures.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from killingtensors import (
    AlmostAbelianAlgebra,
    Endomorphism,
    LeftInvariant,
    SymTensor,
    apply_derivation,
    basis_monomials,
    decompose,
    flat_metric_certificate,
    inner,
    left_invariant_killing_vectors,
    metric_obstruction,
    skew_derivations,
    sum_of_squares,
    sym2_from_endo,
    verify_certificate,
)
from conftest import (
    derivation_suite,
    inner_oracle,
    listed_layers,
    random_derivation,
    random_tensor,
    random_vector,
)

MAX_DEGREE = 4


def _report(num, name, detail=""):
    print(f"[acceptance] criterion {num} ({name}): PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def suite():
    algebras = [AlmostAbelianAlgebra(d) for d in derivation_suite()]
    assert len(algebras) >= 50
    return algebras


@pytest.fixture(scope="module")
def killing_spaces(suite):
    """(algebra, degree) -> (structured, brute) for every degree 0..4,
    with the wall time of the full double solve."""
    t0 = time.perf_counter()
    spaces = {}
    for idx, alg in enumerate(suite):
        for p in range(MAX_DEGREE + 1):
            spaces[(idx, p)] = (alg.killing_space_structured(p),
                                alg.killing_space_bruteforce(p))
    elapsed = time.perf_counter() - t0
    return spaces, elapsed


def test_criterion_1_oracle_equivalence(suite, killing_spaces):
    spaces, elapsed = killing_spaces
    checked = 0
    for idx in range(len(suite)):
        for p in range(MAX_DEGREE + 1):
            structured, brute = spaces[(idx, p)]
            assert structured.basis == brute.basis, \
                f"echelon bases differ for suite[{idx}], degree {p}"
            checked += 1
    assert elapsed < 60.0, f"oracle equivalence run took {elapsed:.1f}s"
    _report(1, "oracle equivalence",
            f"- {len(suite)} derivations x degrees 0..4, {checked} space pairs, "
            f"{elapsed:.1f}s")


def test_criterion_2_odd_part_vanishing(suite, killing_spaces):
    spaces, _ = killing_spaces
    checked = 0
    for idx, alg in enumerate(suite):
        if alg.derivation.is_skew():
            continue
        for p in range(MAX_DEGREE + 1):
            _, brute = spaces[(idx, p)]
            for k in brute.basis:
                odd, _ = alg.split_odd_even(k)
                assert odd.is_zero(), \
                    f"non-skew derivation admits odd Killing part at degree {p}"
                checked += 1
    assert checked > 0
    _report(2, "odd-part vanishing", f"- {checked} basis tensors, all exactly even")


def test_criterion_3_layer_division(suite):
    rng = random.Random(1003)
    for _ in range(200):
        alg = suite[rng.randrange(len(suite))]
        p = rng.randint(0, 5)
        k = random_tensor(rng, alg.dim, p, nterms=6)
        assert alg.layer_decomposition(k).reassemble() == k
    # worked degree-2 formula: even_1 = lam, odd_0 = v, even_0 subtracts lam
    # off each ideal square
    for alg in suite:
        if alg.ideal_dim < 2:
            continue
        lam = Fraction(rng.randint(-3, 3), 2)
        v = (Fraction(0), *random_vector(rng, alg.ideal_dim))
        quad = SymTensor.build(alg.dim, 2, [
            (m, Fraction(rng.randint(-2, 2)))
            for m in basis_monomials(alg.dim, 2) if 0 not in m])
        k = lam * alg.b_tensor() ** 2 + SymTensor.from_vector(alg.dim, v) * alg.b_tensor() + quad
        lay = alg.layer_decomposition(k)
        assert listed_layers(lay, 0)[1] == SymTensor.monomial(alg.dim, (), lam)
        assert listed_layers(lay, 1)[0] == SymTensor.from_vector(alg.dim, v)
        assert listed_layers(lay, 0)[0] == quad - lam * alg.ideal_twice_metric
    _report(3, "layer division", "- 200 random round trips + degree-2 worked formula")


def test_criterion_4_operator_identities(suite):
    rng = random.Random(1004)
    # d annihilates the basis squares
    for alg in suite:
        assert alg.killing_operator(alg.twice_metric).is_zero()
    # degree-1 formula on 100 random vectors
    for _ in range(100):
        alg = suite[rng.randrange(len(suite))]
        x = random_vector(rng, alg.dim)
        got = alg.killing_operator(SymTensor.from_vector(alg.dim, x))
        assert got == -2 * sym2_from_endo(alg.ad(x))
    # value on b through the ideal squares
    for alg in suite:
        db = alg.killing_operator(alg.b_tensor())
        assert db == apply_derivation(alg.derivation_full, alg.ideal_twice_metric) * Fraction(-1, 2)
    # Leibniz rule for d
    for _ in range(40):
        alg = suite[rng.randrange(len(suite))]
        a = random_tensor(rng, alg.dim, rng.randint(0, 2))
        b = random_tensor(rng, alg.dim, rng.randint(0, 2))
        assert alg.killing_operator(a * b) == \
            alg.killing_operator(a) * b + a * alg.killing_operator(b)
    # derivation identities on the squares and on symmetric 2-tensors
    for _ in range(40):
        n = rng.randint(1, 3)
        e = random_derivation(rng, n, "generic")
        f = random_derivation(rng, n, "generic").symmetric_part()
        assert apply_derivation(e, sum_of_squares(n)) == 4 * sym2_from_endo(e)
        assert apply_derivation(e, sym2_from_endo(f)) == 2 * sym2_from_endo(e @ f)
    # both Killing-operator routes agree
    for _ in range(60):
        alg = suite[rng.randrange(len(suite))]
        k = random_tensor(rng, alg.dim, rng.randint(0, 3))
        assert alg.killing_operator(k) == alg.killing_operator_via_nabla(k)
    _report(4, "operator identities", "- all exact")


def test_criterion_5_gram_norms(suite):
    pairs = 0
    for dim in (1, 2, 3):
        for p in range(MAX_DEGREE + 1):
            monos = basis_monomials(dim, p)
            for ma in monos:
                for mb in monos:
                    a = SymTensor.monomial(dim, ma)
                    b = SymTensor.monomial(dim, mb)
                    assert inner(a, b) == inner_oracle(a, b)
                    pairs += 1
    # headline values
    double = SymTensor.monomial(1, (0, 0))
    triple = SymTensor.monomial(1, (0, 0, 0))
    assert inner(double, double) == 2 and inner(triple, triple) == 6
    _report(5, "Gram norms", f"- {pairs} monomial pairs vs permutation oracle")


def test_criterion_6_decomposability(suite, killing_spaces):
    spaces, _ = killing_spaces
    t0 = time.perf_counter()
    certificates = 0
    worst = 0.0
    for idx, alg in enumerate(suite):
        skew = alg.derivation.is_skew()
        for p in range(MAX_DEGREE + 1):
            _, brute = spaces[(idx, p)]
            for k in brute.basis:
                cert = decompose(alg, k)
                uses_b = any(isinstance(g, LeftInvariant)
                             for _, fs in cert.terms for g in fs)
                assert skew or not uses_b, \
                    "left-invariant generator used with a non-skew derivation"
                check = verify_certificate(alg, cert)
                assert check.exact_at_zero, f"certificate wrong at origin (suite[{idx}], p={p})"
                assert check.passed, (
                    f"sampled deviation {check.max_deviation:.3e} over tolerance "
                    f"for suite[{idx}], degree {p}")
                worst = max(worst, check.max_deviation)
                certificates += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"decomposition suite took {elapsed:.1f}s"
    _report(6, "decomposability",
            f"- {certificates} certificates, worst sampled deviation {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_flat_case():
    rng = random.Random(1007)
    for trial in range(20):
        n = rng.choice((2, 3))
        alg = AlmostAbelianAlgebra(random_derivation(rng, n, "skew"))
        check = verify_certificate(alg, flat_metric_certificate(alg))
        assert check.passed and check.max_deviation < 1e-9
        kernel_dim = len(alg.derivation_kernel(1))
        assert alg.killing_dimension(1) == kernel_dim + 1
    _report(7, "flat decomposition", "- 20 random skew derivations at 1e-9")


def test_criterion_8_curvature_obstruction():
    rng = random.Random(1008)
    for lam in (Fraction(1), Fraction(1, 2), Fraction(-2)):
        for n in (2, 3):
            d = lam * Endomorphism.identity(n) + random_derivation(rng, n, "skew")
            alg = AlmostAbelianAlgebra(d)
            rep = metric_obstruction(alg)
            assert rep.eigen_scalar == 2 * lam
            assert rep.derivative_of_ideal_squares == (2 * lam) * alg.ideal_twice_metric
            assert rep.residual_max > 0 and rep.obstructed
            assert left_invariant_killing_vectors(alg).dimension == 0
    # pinned numeric value for the plain identity derivation in two dimensions
    rep = metric_obstruction(AlmostAbelianAlgebra(Endomorphism.identity(2)))
    want = math.exp(-2) - 1
    assert abs(rep.residual_coefficients[(1, 1)] - want) < 1e-9
    assert abs(rep.residual_max - 0.8646647167633873) < 1e-9
    _report(8, "curvature obstruction",
            f"- eigen relation exact, residual magnitude {rep.residual_max:.6f}")


def test_criterion_9_derivation_solver():
    rot = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -1], [1, 0]]))
    assert len(skew_derivations(rot)) == 1
    stretch = AlmostAbelianAlgebra(Endomorphism.diagonal([1, -1]))
    assert len(skew_derivations(stretch)) == 0
    abelian = AlmostAbelianAlgebra(Endomorphism.zero(2))
    assert len(skew_derivations(abelian)) == 3
    # every solution across the randomized suite re-validates exactly
    # (skew_derivations raises if the general identity fails)
    count = 0
    for d in derivation_suite(per_kind=2):
        count += len(skew_derivations(AlmostAbelianAlgebra(d)))
    _report(9, "derivation solver", f"- hand cases + {count} validated solutions")
