"""Constant-sectional-curvature classification of almost abelian metric Lie
algebras, and the two boundary results for Killing tensors there: the flat
case rewrites the metric in invariant fields, the constant-negative case
obstructs any such rewriting."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .almostabelian import AlmostAbelianAlgebra
from .killingfields import Certificate, REPORT_PREC, _nearest, basis_fields, omega_tensor
from .liealgebra import KillingSpace
from .tensors import Endomorphism, SymTensor, replace_factor

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CurvatureClass:
    """Sectional-curvature class; curvature is constant exactly when the
    derivation is a scalar plus a skew map."""

    kind: str  # "flat" | "constant_negative" | "not_constant"
    curvature_scale: Fraction | None


def classify(alg: AlmostAbelianAlgebra) -> CurvatureClass:
    d = alg.derivation
    n = alg.ideal_dim
    s = d.symmetric_part()
    lam = s.entries[0][0] if n else _ZERO
    if s == lam * Endomorphism.identity(n):
        return CurvatureClass("flat" if lam == 0 else "constant_negative", lam)
    return CurvatureClass("not_constant", None)


def _ideal_terms(alg: AlmostAbelianAlgebra, k: SymTensor) -> tuple:
    """The certificate terms of a tensor ``k`` supported on the ideal, as
    ``decompose`` writes them: one right-invariant basis field per factor of
    each monomial, in sorted monomial order."""
    right = basis_fields(alg).right
    return tuple((k.terms[mono], tuple([right[i] for i in mono])) for mono in sorted(k.terms))


def flat_metric_certificate(alg: AlmostAbelianAlgebra) -> Certificate:
    """In the flat case the metric (times two) is the square of the
    left-invariant field of ``b`` plus the squares of the right-invariant
    fields of the ideal basis; no metric generator appears."""
    if classify(alg).kind != "flat":
        raise ValueError("algebra is not flat")
    b_field = basis_fields(alg).left[0]
    terms = ((Fraction(1), (b_field, b_field)),) + _ideal_terms(alg, alg.ideal_twice_metric)
    return Certificate(target=alg.twice_metric, terms=terms)


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
    residual_coefficients: dict
    residual_max: float
    obstructed: bool


def metric_obstruction(alg: AlmostAbelianAlgebra) -> ObstructionReport:
    """The obstruction of a constant-negative algebra.  ``D`` acts on the
    ideal squares through ``int_ad_b``, divided once by ``denominator``:
    ``D = lambda I + S`` with ``S`` skew, so it scales them by ``2 lambda``."""
    cls = classify(alg)
    if cls.kind != "constant_negative":
        raise ValueError("obstruction report applies to constant nonzero curvature only")
    lam = cls.curvature_scale
    ideal2 = alg.ideal_twice_metric
    derived = SymTensor(alg.dim, 2, replace_factor(ideal2.terms, alg.int_ad_b))
    derived = derived.scale(Fraction(1, alg.denominator))
    candidate = Certificate(target=ideal2, terms=_ideal_terms(alg, ideal2))
    w = [1] + [0] * (alg.dim - 1)
    residual = {}
    value = omega_tensor(alg, candidate, w, order=None, min_order=30, prec=REPORT_PREC)
    for mono in set(value.terms) | set(ideal2.terms):
        # the difference at the working precision; ideal2's coefficients, all 1, are exact
        d = value.terms.get(mono, _ZERO) - ideal2.terms.get(mono, _ZERO)
        residual[mono] = float(_nearest(d.numerator, d.denominator, REPORT_PREC))
    residual_max = max((abs(x) for x in residual.values()), default=0.0)
    return ObstructionReport(
        curvature_scale=lam,
        eigen_scalar=2 * lam,
        derivative_of_ideal_squares=derived,
        residual_coefficients=residual,
        residual_max=residual_max,
        obstructed=residual_max > 0,
    )
