"""Constant-sectional-curvature classification of almost abelian metric Lie
algebras, and the two boundary results for Killing tensors there: the flat
case rewrites the metric in invariant fields, the constant-negative case
obstructs any such rewriting."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .almostabelian import AlmostAbelianAlgebra
from .exactlinalg import basis_vec
from .killingfields import (
    Certificate,
    LeftInvariant,
    RightInvariant,
    _mp_vec,
    _mpf_of,
    omega_tensor,
)
from .liealgebra import KillingSpace
from .tensors import Endomorphism, SymTensor, apply_derivation

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CurvatureClass:
    """Sectional-curvature class; curvature is constant exactly when the
    derivation is a scalar plus a skew map."""

    kind: str  # "flat" | "constant_negative" | "not_constant"
    curvature_scale: Fraction | None
    skew_part: Endomorphism | None


def classify(alg: AlmostAbelianAlgebra) -> CurvatureClass:
    d = alg.derivation
    n = alg.ideal_dim
    s = d.symmetric_part()
    lam = s.entries[0][0] if n else _ZERO
    if s == lam * Endomorphism.identity(n):
        if lam == 0:
            return CurvatureClass("flat", _ZERO, d)
        return CurvatureClass("constant_negative", lam, d.skew_part())
    return CurvatureClass("not_constant", None, None)


def flat_metric_certificate(alg: AlmostAbelianAlgebra) -> Certificate:
    """In the flat case the metric (times two) is the square of the
    left-invariant field of ``b`` plus the squares of the right-invariant
    fields of the ideal basis; no metric generator appears."""
    if classify(alg).kind != "flat":
        raise ValueError("algebra is not flat")
    dim = alg.dim
    b_field = LeftInvariant(basis_vec(dim, 0))
    terms = [(Fraction(1), (b_field, b_field))]
    for i in range(1, dim):
        xi = RightInvariant(basis_vec(dim, i))
        terms.append((Fraction(1), (xi, xi)))
    return Certificate(target=alg.twice_metric, terms=tuple(terms))


def left_invariant_killing_vectors(alg: AlmostAbelianAlgebra) -> KillingSpace:
    """Degree-1 Killing space: kernel of the derivation, plus ``b`` when the
    derivation is skew.  Zero-dimensional for constant nonzero curvature."""
    return alg.killing_space_structured(1)


@dataclass(frozen=True)
class ObstructionReport:
    """Why the metric of a constant-negative algebra has no polynomial
    expression in algebraic Killing fields: the derivation scales the ideal
    squares by a nonzero constant, so the candidate sum of squared
    right-invariant fields is visibly non-constant along ``b``."""

    curvature_scale: Fraction
    eigen_scalar: Fraction
    derivative_of_ideal_squares: SymTensor
    candidate: Certificate
    residual_coefficients: dict
    residual_max: float
    obstructed: bool


def metric_obstruction(alg: AlmostAbelianAlgebra) -> ObstructionReport:
    cls = classify(alg)
    if cls.kind != "constant_negative":
        raise ValueError("obstruction report applies to constant nonzero curvature only")
    lam = cls.curvature_scale
    ideal2 = alg.ideal_twice_metric
    derived = apply_derivation(alg.derivation_full, ideal2)
    eigen = 2 * lam
    if derived != ideal2 * eigen:
        raise AssertionError("ideal squares are not an eigenvector of the derivation action")
    dim = alg.dim
    terms = []
    for i in range(1, dim):
        xi = RightInvariant(basis_vec(dim, i))
        terms.append((Fraction(1), (xi, xi)))
    candidate = Certificate(target=ideal2, terms=tuple(terms))
    w = [1] + [0] * (dim - 1)
    residual = {}
    with mp.workdps(60):
        value = omega_tensor(alg, candidate, _mp_vec(w), order=None, min_order=30)
        for mono in set(value.terms) | set(ideal2.terms):
            a = _mpf_of(value.terms.get(mono, 0))
            b = _mpf_of(ideal2.terms.get(mono, _ZERO))
            residual[mono] = float(a - b)
    residual_max = max((abs(x) for x in residual.values()), default=0.0)
    return ObstructionReport(
        curvature_scale=lam,
        eigen_scalar=eigen,
        derivative_of_ideal_squares=derived,
        candidate=candidate,
        residual_coefficients=residual,
        residual_max=residual_max,
        obstructed=residual_max > 0,
    )
