"""Killing vector fields and decomposability certificates.

Every left-invariant Killing tensor on an almost abelian algebra can be
rewritten as a polynomial in the metric and in left-/right-invariant Killing
vector fields.  This module produces that rewriting as a ``Certificate`` (a
formal polynomial over symbolic generators) and checks it by evaluating the
pullback function of each generator along the exponential map: for a
right-invariant field of ``x`` this is ``exp(-ad_w) x``, for the field of a
skew derivation ``T`` it is the series ``sum_k (-1)^k/(k+1)! ad_w^k T(w)``,
and for left-invariant generators it is constant.  A certificate is valid
when the assembled value is constant equal to its target.  ``omega_generator``
(one generator) and ``omega_tensor`` (a certificate) are the two entry
points, and the point ``w`` alone decides between exact and sampled values.

Constancy is checked exactly at ``w = 0``, on ints (``_exact_at_zero``), and
numerically at seeded sample points.  Sampling runs in extended precision:
the factor values grow like ``exp(|gamma| * ||D||)`` and cancel additively
across monomials, which double precision cannot survive at the 1e-9 gate.
The series and the certificate polynomial are summed on Python ints scaled
by ``2**shift``, guard bits over a working precision that
``verify_certificate`` sizes per certificate and ``omega_tensor`` reads from
``mp.prec`` (error bound in ``_fixed_shift``).  ``verify_certificate`` works
generator-major: each series generator gets one column of values over the
sample points from a bounded memo (``_SampleMemo``) that certificates on
one algebra share, and the constant metric and left-invariant fields are
valued once.
"""
from __future__ import annotations

import math
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from decimal import Context
from fractions import Fraction
from functools import cache, partial
from operator import mul
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, prec_to_dps, round_nearest

from .almostabelian import AlmostAbelianAlgebra
from .exactlinalg import basis_vec, dot, nullspace
from .liealgebra import MetricLieAlgebra
from .tensors import (SymTensor, Endomorphism, monomial_positions, product_positions,
                      replace_factor, sym_dimension)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_SEED = 0x5EED
DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 20
DEFAULT_ORDER_FLOOR = 12

_LOG10_E = math.log10(math.e)


class NotKillingError(ValueError):
    """Raised when a decomposition is requested for a non-Killing tensor."""

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


class GeneratorError(ValueError):
    """A certificate factor that is not a Killing field of the algebra."""


# ``skew_derivation_basis`` solves C(n,2) unknowns against about n^3/2
# equations, and its time grows about as n^7 on a generic algebra (README,
# "Exact solvers"), so larger algebras are refused.
DERIVATION_DIM_CAP = 24


class DerivationCapError(ValueError):
    """A skew-derivation solve past ``DERIVATION_DIM_CAP``."""

    def __init__(self, dim: int):
        self.limits = (f"dimension {dim} exceeds the skew-derivation cap "
                       f"(dimension {DERIVATION_DIM_CAP})")
        super().__init__(self.limits)


# A certificate of degree p on n dimensions is evaluated as dense values over
# its C(n+p-1, p) monomials, whose positions are kept as p-tuples for the
# process (``tensors.monomial_positions``) with product tables over them.
# Bounding p times that count, the indices those tuples hold, before anything
# is allocated keeps this memory under about 100 MiB (degree 10 on ten
# dimensions, 923780 indices, takes 76 MiB with metric and field factors);
# degree 3000 on three dimensions, 1.4e10 indices, ends in a MemoryError.
MAX_EVALUATION_INDICES = 10 ** 6


class EvaluationCapError(ValueError):
    """A certificate whose monomial indices pass ``MAX_EVALUATION_INDICES``."""

    def __init__(self, dim: int, degree: int, indices: int):
        self.limits = (f"degree {degree} in dimension {dim} needs {indices} monomial indices "
                       f"(cap {MAX_EVALUATION_INDICES})")
        super().__init__(self.limits)


# The sampled check sums every series generator at each of its points, and
# the point list is drawn in full before the first one is checked.  10^4
# points, 500 times the default, keep a check of a small certificate to
# seconds (the rotation algebra's e1^2 + e2^2 took 2 s at 5000 points); a
# larger count adds little to a seeded check and could run for days.  The
# bound also caps the point list a sample set of the memo draws.
MAX_SAMPLES = 10 ** 4


class SampleCapError(ValueError):
    """A sampled check asked for more than ``MAX_SAMPLES`` points."""

    def __init__(self, samples: int):
        self.limits = f"{samples} samples exceed the sampled-check cap ({MAX_SAMPLES})"
        super().__init__(self.limits)


# ---------------------------------------------------------------------------
# generators and certificates
# ---------------------------------------------------------------------------

def _hash_once(gen) -> int:
    """The dataclass hash of a generator's fields, computed on first use and
    kept: generators key the sampled-value memo, and their tuples of
    ``Fraction``s are slow to hash again on every lookup."""
    h = gen.__dict__.get("_hash")
    if h is None:
        h = gen.__dict__["_hash"] = hash(tuple(getattr(gen, f.name) for f in fields(gen)))
    return h


@dataclass(frozen=True)
class Metric:
    """The invariant metric; its pullback value is constant."""


@dataclass(frozen=True)
class LeftInvariant:
    """Left-invariant field of a vector whose adjoint map is skew."""

    vector: tuple

    __hash__ = _hash_once


@dataclass(frozen=True)
class RightInvariant:
    """Right-invariant field generated by right translations of a vector."""

    vector: tuple

    __hash__ = _hash_once


@dataclass(frozen=True)
class SkewDerivation:
    """Skew derivation of an almost abelian algebra, split as the image of
    ``b`` (a vector in the ideal) plus a skew block on the ideal."""

    b_image: tuple
    ideal_part: Endomorphism

    @classmethod
    def from_matrix(cls, m: Endomorphism) -> "SkewDerivation":
        """The split pieces of a full skew matrix: column 0 below ``b``, and
        the block on the ideal."""
        rows = m.entries[1:]
        return cls(tuple(r[0] for r in rows), Endomorphism(tuple(r[1:] for r in rows)))

    def full_matrix(self) -> Endomorphism:
        """The derivation on ``b`` and the ideal: ``b -> b_image``, skew."""
        top = (_ZERO,) + tuple(-v for v in self.b_image)
        return Endomorphism((top,) + tuple((v,) + tuple(row) for v, row in
                                           zip(self.b_image, self.ideal_part.entries)))


@dataclass(frozen=True)
class DerivationField:
    """Killing field induced by a skew derivation."""

    derivation: SkewDerivation

    __hash__ = _hash_once


@dataclass(frozen=True)
class Certificate:
    """Formal polynomial over generators witnessing a decomposition.

    ``terms`` is a tuple of ``(coefficient, factors)`` pairs; evaluating all
    generators at the identity must reproduce ``target`` exactly.
    """

    target: SymTensor
    terms: tuple


# ---------------------------------------------------------------------------
# scalar contexts: exact Fractions, mpmath floats at the public edges, and
# fixed-point integers inside the sampled evaluation
# ---------------------------------------------------------------------------

def _numeric_seq(seq) -> bool:
    return any(not isinstance(v, (Fraction, int)) for v in seq)


def _mpf_of(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _mp_vec(seq):
    return tuple(_mpf_of(x) for x in seq)


_MAX_TERMS = 5000


class SeriesCapError(RuntimeError):
    """A pullback series that needs more than ``_MAX_TERMS`` terms, at the
    rational norm ``||ad_w||_1`` (shown by decimal division past floats)."""

    def __init__(self, norm: Fraction):
        try:
            shown = f"{float(norm):.6g}"
        except OverflowError:
            shown = f"{Context(prec=6).divide(norm.numerator, norm.denominator).normalize():g}"
        self.limits = (f"omega series failed to converge within the {_MAX_TERMS}-term cap "
                       f"(||ad_w||_1 = {shown})")
        super().__init__(self.limits)


def _fixed_shift(dim: int, prec: int) -> int:
    """Scale ``P = prec + G`` of the fixed-point evaluation at ``prec`` working
    bits, the one precision value it carries: values are Python ints times
    ``2**-P``.  Error bound in units ``u = 2**-P``, with ``n = dim``,
    ``a = ||ad_w||_1`` and ``K <= _MAX_TERMS`` series terms:

    * In: an int, a float or an mpf with ulp >= u converts exactly (sample
      points do), anything else with error < u.  A product by a non-integer
      rational is floored once (< u), so ``||ad_w^ - ad_w||_1 < n^2 u`` and
      the start vector ``x`` (``T w`` for phi) is off by < n^2 u.
    * Series: each term ``t_k = trunc(-ad_w^ t_(k-1) / (k + s))``, rounded
      toward zero, adds < n u.  ``_fixed_series`` sums each row exactly on
      ints and divides ``|v|`` by a shift and then ``// (k + s)``; since
      ``floor(floor(v/2^P)/m) = floor(v/(m 2^P))``, that is the same single
      rounding of the exact row sum.  An error entering at term j reaches
      term k times at most ``a^(k-j) / (k-j)!``, so the partial sum is off
      by at most ``u e^a (n K + n^2 (1 + e^a ||x||_1))``.
    * Horner: each trie node floors each entry once (< u); an error is then
      multiplied by the factor values above it, at most the amplification
      bound that ``_working_digits`` covers with 35 digits to spare (``e^a``
      is that of ``_series_log10_gain``, with ``K <= n + 1`` past the cap).
    * Out: one rounding to working precision, relative ``2**-prec``, as
      any mpf result.

    ``G = bit_length(n^2 K) + 8`` keeps ``n^2 K u`` under
    ``2**-(prec + 8)``: these roundings add less than 1/256 of one
    working-precision rounding, under the same ``e^a`` amplification that
    rounding suffers in an mpf series.  ``_fixed_shift(dim, 0)`` is ``G``.
    """
    return prec + (dim * dim * _MAX_TERMS).bit_length() + 8


def _to_fixed(x, shift: int) -> int:
    """``x * 2**shift`` as an int: exact for an int, and for a float or mpf
    whose ulp is at least ``2**-shift``; otherwise floored (truncated for a
    negative mpf)."""
    mpf = getattr(x, "_mpf_", None)
    if mpf is not None:
        sign, man, exp, _ = mpf
        if not man and exp:
            raise ValueError(f"non-finite value {x}")
        exp += shift
        man = man << exp if exp >= 0 else man >> -exp
        return -man if sign else man
    if isinstance(x, int):
        return x << shift
    num, den = x.as_integer_ratio()
    return (num << shift) // den


def _from_fixed(v: int, shift: int):
    """The mpf nearest ``v * 2**-shift`` at working precision."""
    return mp.make_mpf(from_man_exp(v, -shift, mp.prec, round_nearest))


def _rational_times(c, v, shift):
    """``c * v`` for a rational ``c``: exact, or floored once when ``v`` is
    fixed-point and ``c`` not an integer."""
    if shift is None:
        return c * v
    num, den = c.numerator, c.denominator
    return v * num if den == 1 else v * num // den


class _Point(NamedTuple):
    """A point ``w`` prepared once for every pullback series at it: ``rows``
    are the nonzero rows of ``scale·ad_w`` as ``(row, columns, entries)`` int
    tuples and ``norm`` their 1-norm, from ``MetricLieAlgebra.ad_walk``.

    Exact (``shift`` None): ``w`` as given and ``rows`` exact
    (``ad_exact``).  Fixed point: ``w`` as ints at ``shift``, ``scale =
    2**shift`` and each product of ``rows`` floored on its own."""

    shift: int | None
    scale: int
    w: tuple
    rows: tuple
    norm: int


def _point(alg: MetricLieAlgebra, w, shift) -> _Point:
    """``w`` prepared for the series: exact when ``shift`` is None."""
    if shift is None:
        scale, rows, norm = alg.ad_exact(w)
        return _Point(None, scale, tuple(w), rows, norm)
    wv = tuple(_to_fixed(c, shift) for c in w)
    return _Point(shift, 1 << shift, wv, *alg.ad_walk(wv, alg.denominator))


# Both series give the partial sum of ``sum_k (-ad_w)^k x / (k + s)!`` times
# ``s!``: with ``s = 0`` it is ``exp(-ad_w) x``, with ``s = 1`` it is
# ``phi(-ad_w) x`` for ``phi(z) = (e^z - 1)/z``.  ``order`` truncates after
# that many terms.

def _exact_series(point: _Point, x, s: int, order) -> list:
    """The series over exact ``x`` at a prepared exact point: untruncated,
    it must terminate within ``n`` terms, as it does when ``ad_w`` is
    nilpotent.  A term still nonzero past ``n`` terms has a part that no
    power of ``ad_w`` annihilates, so truncated past ``_MAX_TERMS`` terms
    the series raises ``SeriesCapError`` there.  Entry ``r`` of term ``k``
    is ``-(row_r . t_(k-1)) / ((k + s)·scale)``."""
    n = len(x)
    acc = list(x)
    term = list(x)
    k = 1
    while order is None or k <= order:
        m = (k + s) * point.scale
        term, old = [_ZERO] * n, term
        for r, columns, entries in point.rows:
            term[r] = Fraction(-sum(map(mul, entries, map(old.__getitem__, columns))), m)
        if not any(term):
            break
        acc = [p + q for p, q in zip(acc, term)]
        if order is None and k > n:
            raise ValueError("series does not terminate over exact arithmetic; "
                             "pass a truncation order")
        if k > n and order > _MAX_TERMS:
            raise SeriesCapError(Fraction(point.norm, point.scale))
        k += 1
    return acc


def _fixed_series(point: _Point, x, s: int, order, min_order: int) -> list:
    """The series over fixed-point ``x`` at a prepared fixed-point point.

    Untruncated, it stops, once past ``min_order`` and the hump at
    ``||ad_w||_1``, at the first term below ``10^-(dps-5)`` times the
    largest partial sum entry (at least 1), for the ``dps`` digits of the
    working bits ``shift - G`` (``_fixed_shift``), or raises ``SeriesCapError``
    after ``_MAX_TERMS`` terms.  A hump or a ``min_order`` already at that
    cap leaves the stop rule no room, so it raises after ``n`` terms: only a
    series that vanishes within them passes, as for a nilpotent ``ad_w``.
    Truncated past the cap, at ``order > _MAX_TERMS``, it raises at the
    same terms; truncated within it, it never raises.

    Entry ``r`` of term ``k`` is ``-(row_r . t_(k-1)) / ((k + s) 2^shift)``
    rounded toward zero, which commutes with negation: values equal up to a
    signed permutation that commutes with ``ad_w`` stay so.  The division of
    ``|v|`` is a shift and then ``// (k + s)``, the same rounding (see
    ``_fixed_shift``).  Each row is one ``sum(map(mul, ...))`` and only
    nonzero entries touch ``acc``.
    """
    shift, rows, norm = point.shift, point.rows, point.norm
    n = len(x)
    one = 1 << shift
    eps = one // 10 ** (prec_to_dps(shift - _fixed_shift(n, 0)) - 5)
    hump = (norm >> shift) + 2
    stop_from = max(min_order, hump)
    cap = _MAX_TERMS if hump <= _MAX_TERMS and min_order < _MAX_TERMS else n
    capped = order is None or order > _MAX_TERMS
    acc = list(x)
    term = list(x)
    k = 1
    while order is None or k <= order:
        m = k + s
        new = [0] * n
        zero = True
        for r, columns, entries in rows:
            v = sum(map(mul, entries, map(term.__getitem__, columns)))
            if v:
                t = -((v >> shift) // m) if v > 0 else (-v >> shift) // m
                if t:
                    new[r] = t
                    acc[r] += t
                    zero = False
        if zero:
            break
        term = new
        if (order is None and k >= stop_from
                and max(map(abs, term)) << shift < eps * max(one, *map(abs, acc))):
            break
        if capped and k > cap:
            raise SeriesCapError(Fraction(norm, one))
        k += 1
    return acc


def _scaled(seq, shift) -> list:
    """``seq`` as fixed-point ints at ``shift``, or as is when exact."""
    return list(seq) if shift is None else [_to_fixed(c, shift) for c in seq]


def _unscaled(seq, shift) -> tuple:
    """Inverse of ``_scaled``: fixed-point ints back to mpf values."""
    return tuple(seq) if shift is None else tuple(_from_fixed(v, shift) for v in seq)


# ---------------------------------------------------------------------------
# Omega evaluation
# ---------------------------------------------------------------------------

def _metric_value(dim: int, half) -> list:
    """Dense value of the metric, ``half`` on each square ``e_i e_i``: 1/2,
    or 1/2 at a scale."""
    out = [0] * sym_dimension(dim, 2)
    positions = monomial_positions(dim, 2)
    for i in range(dim):
        out[positions[i, i]] = half
    return out


def _generator_values(alg: MetricLieAlgebra, gen, shift, points, order, min_order: int) -> list:
    """Dense pullback values of the generator ``gen`` at each of ``points``,
    prepared by ``_point``: exact when ``shift`` is None, else fixed-point
    ints at ``shift``.

    The metric is 1/2 on the squares and a left-invariant field its vector
    at every point, so they are valued once and the points are not read.  A
    right-invariant field of ``x`` is ``exp(-ad_w) x`` and the field of a
    derivation ``T`` is ``phi(-ad_w) T w``, one series per point.
    """
    if isinstance(gen, Metric):
        half = Fraction(1, 2) if shift is None else 1 << (shift - 1)
        return [_metric_value(alg.dim, half)] * len(points)
    if isinstance(gen, LeftInvariant):
        return [_scaled(gen.vector, shift)] * len(points)
    if isinstance(gen, RightInvariant):
        x = _scaled(gen.vector, shift)
        starts = ((point, x, 0) for point in points)
    elif isinstance(gen, DerivationField):
        rows = gen.derivation.full_matrix().entries
        starts = ((point, [sum(_rational_times(c, v, shift) for c, v in zip(row, point.w)
                               if c and v) for row in rows], 1) for point in points)
    else:
        raise TypeError(f"unknown generator {gen!r}")
    if shift is None:
        return [_exact_series(point, x, s, order) for point, x, s in starts]
    return [_fixed_series(point, x, s, order, min_order) for point, x, s in starts]


def omega_generator(alg: MetricLieAlgebra, gen, w, order=None, min_order: int = 0) -> SymTensor:
    """Pullback value of ``gen`` at ``w``: ``omega_tensor`` of ``1 * gen``.

    At a point of rationals the value is exact, and a series must terminate
    (as for a nilpotent ``ad_w``) unless ``order`` truncates it; a point
    with a float or mpf entry is summed adaptively in fixed point to mpf.
    """
    cert = Certificate(SymTensor.zero(alg.dim, generator_degree(gen)), ((1, (gen,)),))
    return omega_tensor(alg, cert, w, order, min_order)


def generator_degree(gen) -> int:
    """Degree of a generator's pullback value: 2 for the metric, 1 for a field."""
    if isinstance(gen, Metric):
        return 2
    if isinstance(gen, (LeftInvariant, RightInvariant, DerivationField)):
        return 1
    raise TypeError(f"unknown generator {gen!r}")


class CompiledCertificate:
    """A certificate arranged for evaluation by Horner's rule over its factors.

    Factors commute, so each term's factors are sorted canonically (most
    frequent generator first) and the terms are stored as a trie keyed by
    factor; terms with the same factors merge.  A certificate
    ``sum_t c_t prod g`` is then evaluated from the leaves up as
    ``N(node) = sum_children g * N(child)``, with ``N(leaf)`` the merged
    coefficient, so each product has the degree left below its node rather
    than the degree of a whole term (Pena and Sauer, "On the multivariate
    Horner scheme", SIAM J. Numer. Anal. 37, 2000).

    A trie node is ``(size, edges)`` with one ``(generator index, product
    table, child)`` edge per distinct next factor; a leaf is the index of its
    coefficient.  Values are dense lists indexed by monomial position, so a
    certificate past ``MAX_EVALUATION_INDICES`` raises ``EvaluationCapError``.
    """

    def __init__(self, cert: Certificate):
        dim, degree = cert.target.dim, cert.target.degree
        indices = degree * sym_dimension(dim, degree)
        if indices > MAX_EVALUATION_INDICES:
            raise EvaluationCapError(dim, degree, indices)
        gens = {}
        for t, (_, factors) in enumerate(cert.terms):
            d = sum(generator_degree(g) for g in factors)
            if d != degree:
                raise ValueError(f"certificate term {t} has degree {d}, "
                                 f"the target has degree {degree}")
            for g in dict.fromkeys(factors):
                gens[g] = gens.get(g, 0) + 1
        # most frequent first shares the longest prefixes; ties keep first appearance
        order = sorted(gens, key=lambda g: -gens[g])
        index = {g: i for i, g in enumerate(order)}
        trie = {}
        coeffs = []
        for coeff, factors in cert.terms:
            node = trie
            for i in sorted(index[g] for g in factors):
                node = node.setdefault(i, {})
            if None in node:
                coeffs[node[None]] += coeff
            else:
                node[None] = len(coeffs)
                coeffs.append(Fraction(coeff) if isinstance(coeff, int) else coeff)
        self.dim = dim
        self.degree = degree
        self.generators = tuple(order)
        self.coefficients = tuple(coeffs)
        self._fixed_coefficients = {}
        degrees = [generator_degree(g) for g in order]
        self.root = self._freeze(trie, degree, degrees)

    def _freeze(self, node, r, degrees):
        if None in node:
            return node[None]
        return sym_dimension(self.dim, r), tuple(
            (i, product_positions(self.dim, degrees[i], r - degrees[i]),
             self._freeze(child, r - degrees[i], degrees))
            for i, child in node.items())

    def evaluate(self, values, shift=None) -> list:
        """Dense value of the certificate, given the dense value of each
        generator in ``generators`` order: exact, or fixed-point ints at
        ``shift`` with the coefficients converted once per shift."""
        coeffs = self.coefficients
        if shift is not None:
            coeffs = self._fixed_coefficients.get(shift)
            if coeffs is None:
                coeffs = self._fixed_coefficients[shift] = tuple(
                    _to_fixed(c, shift) for c in self.coefficients)
        return _horner(self.root, values, coeffs, shift)


def _horner(node, values, coeffs, shift):
    """Dense value ``N(node)`` of a trie node, from the leaves up.  Fixed-point
    products accumulate unshifted and each node shifts once."""
    if isinstance(node, int):
        return (coeffs[node],)
    size, edges = node
    out = [0] * size
    for g, table, child in edges:
        below = _horner(child, values, coeffs, shift)
        for a, row in zip(values[g], table):
            if a:
                for k, b in zip(row, below):
                    if b:
                        out[k] += a * b
    return out if shift is None else [v >> shift for v in out]


def omega_tensor(alg: MetricLieAlgebra, cert, w, order=None, min_order: int = 0) -> SymTensor:
    """Pullback value of a certificate at ``w``: the polynomial in its
    generators, evaluated by Horner's rule over the factor trie.

    ``cert`` is a ``Certificate`` or, to evaluate one certificate at many
    points, its ``CompiledCertificate``.  Each distinct generator is
    evaluated once.  At a numeric point the polynomial is summed in fixed
    point at mpmath's ``mp.prec``, read once here, and returned as mpf.
    """
    compiled = cert if isinstance(cert, CompiledCertificate) else CompiledCertificate(cert)
    if compiled.dim != alg.dim:
        raise ValueError("dimension mismatch")
    shift = _fixed_shift(alg.dim, mp.prec) if _numeric_seq(w) else None
    # only a series reads the prepared point
    series = any(isinstance(g, (RightInvariant, DerivationField)) for g in compiled.generators)
    points = (_point(alg, w, shift) if series else None,)
    values = [_generator_values(alg, gen, shift, points, order, min_order)[0]
              for gen in compiled.generators]
    out = compiled.evaluate(values, shift)
    return SymTensor.from_dense(compiled.dim, compiled.degree, _unscaled(out, shift))


# ---------------------------------------------------------------------------
# skew derivations: solver and validation
# ---------------------------------------------------------------------------

def skew_derivation_basis(lie: MetricLieAlgebra):
    """Canonical basis of the skew-symmetric derivations of the algebra: the
    kernel of ``derivation_residual`` over the wedge coordinates, with
    ``(i, j)`` for ``i < j`` standing for ``E_ji - E_ij``.  Past
    ``DERIVATION_DIM_CAP`` it raises ``DerivationCapError`` before solving."""
    n = lie.dim
    if n > DERIVATION_DIM_CAP:
        raise DerivationCapError(n)
    kernel = nullspace({(i, j): lie.derivation_residual({(j, i): _ONE, (i, j): -_ONE})
                        for i in range(n) for j in range(i + 1, n)})
    # entry (r, s) of the sum of w_ij (E_ji - E_ij) is w_sr below the diagonal
    return tuple(Endomorphism(tuple(
        tuple(w.get((s, r), _ZERO) if s < r else -w.get((r, s), _ZERO) for s in range(n))
        for r in range(n))) for w in kernel)


def validate_skew_derivation(alg: AlmostAbelianAlgebra, t: SkewDerivation):
    """Exact re-validation: skewness, the derivation identity on all basis
    pairs, and the structured conditions on the split pieces."""
    full = t.full_matrix()
    if not full.is_skew():
        raise ValueError("derivation matrix is not skew")
    residual = alg.derivation_residual(full.sparse())
    if residual:
        a, b, _ = min(residual)
        raise ValueError(f"derivation identity fails on basis pair ({a},{b})")
    d = alg.derivation
    th = t.ideal_part
    if th @ d != d @ th:
        raise ValueError("ideal block does not commute with the defining derivation")
    v = t.b_image
    for j in range(alg.ideal_dim):
        if sum((vi * ci for vi, ci in zip(v, d.column(j))), _ZERO) != 0:
            raise ValueError("image of the derivation not orthogonal to b-image")
    # D vanishes on the complement of v exactly when D = (D v) v^T / <v, v>
    vv, dv = dot(v, v), d.apply(v)
    if vv and any(a * vv != dv[i] * v[j] for i, row in enumerate(d.entries)
                  for j, a in enumerate(row)):
        raise ValueError("derivation does not vanish on the orthogonal complement "
                         "of the b-image")


def skew_derivations(alg: AlmostAbelianAlgebra):
    """Skew derivations of an almost abelian algebra, as split pieces."""
    out = tuple(SkewDerivation.from_matrix(m) for m in skew_derivation_basis(alg))
    for t in out:
        validate_skew_derivation(alg, t)
    return out


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose_ideal_tensor(alg: AlmostAbelianAlgebra, k: SymTensor) -> Certificate:
    """Certificate for a Killing tensor supported on the ideal: substitute the
    right-invariant field of each basis vector into the monomials of ``k``.

    The multilinear components of ``k`` divided by p!, regrouped over sorted
    monomials, reproduce exactly the monomial coefficients, so the rewriting
    is coefficient-for-coefficient.
    """
    if 0 in k.support():
        raise ValueError("tensor must be supported on the abelian ideal")
    if replace_factor(k.terms, alg.int_ad_b):
        raise NotKillingError("tensor is not Killing on the ideal")
    return Certificate(target=k, terms=_ideal_terms(alg.dim, k))


def _ideal_terms(dim: int, k: SymTensor) -> tuple:
    """The terms of ``decompose_ideal_tensor``, unchecked: one right-invariant
    field per factor of each monomial, in sorted monomial order."""
    fields = [RightInvariant(basis_vec(dim, i)) for i in range(dim)]
    return tuple((k.terms[mono], tuple(fields[i] for i in mono)) for mono in sorted(k.terms))


def decompose(alg: AlmostAbelianAlgebra, k: SymTensor) -> Certificate:
    """Certificate for any left-invariant Killing tensor.

    Layers are rewritten on the ideal; each power of the basis-squares tensor
    contributes metric generators (with a factor 2 each), and odd layers pick
    up the left-invariant field of ``b``, which is Killing exactly when the
    defining derivation is skew -- otherwise the odd part is zero.  The
    layers passed ``is_killing_structured``, so they are rewritten without
    the checks of ``decompose_ideal_tensor``.
    """
    diag = alg.is_killing_structured(k)
    if not diag.is_killing:
        raise NotKillingError("; ".join(diag.failures), diagnosis=diag)
    dim = alg.dim
    b_field = LeftInvariant(basis_vec(dim, 0))
    terms = []
    for layers, lead in ((diag.layers.even, ()), (diag.layers.odd, (b_field,))):
        for i, t in enumerate(layers):
            if t is None or t.is_zero():
                continue
            scale = Fraction(2) ** i
            for c, fs in _ideal_terms(dim, t):
                terms.append((c * scale, (Metric(),) * i + lead + fs))
    return Certificate(target=k, terms=tuple(terms))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateCheck:
    passed: bool
    exact_at_zero: bool
    max_deviation: float
    samples: int
    tol: float
    seed: int
    order_floor: int
    precision_digits: int


def _order_for_bound(log_norm: float, eps: float) -> int:
    """Smallest N with ``m^(N+1)/(N+1)! < eps`` for ``log_norm = ln m``, else
    ``_MAX_TERMS``, at which ``_ad_series`` passes only a series that
    vanishes within ``dim`` terms."""
    if log_norm == -math.inf:
        return 1
    log_eps = math.log(eps)
    for n in range(1, _MAX_TERMS):
        if (n + 1) * log_norm - math.lgamma(n + 2) < log_eps:
            return n
    return _MAX_TERMS


def _series_log10_gain(norm: Fraction, dim: int) -> float:
    """log10 of a bound on the gain of a pullback series at ``||ad_w||_1 =
    norm``: ``e^norm`` below the term cap.  From ``norm >= _MAX_TERMS`` on the
    hump is past the cap even after rounding, so ``_ad_series`` raises unless
    the series vanishes within ``dim`` terms, with gain at most
    ``sum_(k<=dim) norm^k/k! <= (dim + 1) norm^dim``: the working precision
    stays finite however large the structure constants are."""
    if norm < _MAX_TERMS:
        return norm * _LOG10_E
    return math.log10(dim + 1) + dim * _log10_at_least_one(norm)


def _log10_at_least_one(q) -> float:
    """``log10(max(1, |q|))`` for a rational ``q``, from its numerator and
    denominator: finite however large ``q`` is."""
    n, d = abs(q.numerator), q.denominator
    return math.log10(n) - math.log10(d) if n > d else 0.0


def _factor_log10_bound(gen, gain: float, dim: int) -> float:
    if isinstance(gen, Metric):
        return 0.0
    if isinstance(gen, LeftInvariant):
        return _log10_at_least_one(sum(map(abs, gen.vector)))
    if isinstance(gen, RightInvariant):
        return gain + _log10_at_least_one(sum(map(abs, gen.vector)))
    tnorm = sum(abs(x) for r in gen.derivation.full_matrix().entries for x in r)
    return gain + _log10_at_least_one(2 * dim * tnorm)


def _working_digits(cert: Certificate, gain: float, dim: int, tol: float) -> int:
    """Working digits for sampling ``cert``: 35 past the log10 of its
    amplification bound and 10 past that of the bound over ``tol``, at least
    50, rounded up to a multiple of 10.  ``tol`` decides only below 1e-25."""
    worst = 0.0
    # keyed by object: the terms share their generator objects, and an id
    # costs less than hashing a tuple of Fractions
    bounds = {}
    for coeff, factors in cert.terms:
        t = _log10_at_least_one(coeff)
        for gen in factors:
            bound = bounds.get(id(gen))
            if bound is None:
                bound = bounds[id(gen)] = _factor_log10_bound(gen, gain, dim)
            t += bound
        worst = max(worst, t)
    worst = math.ceil(worst + math.log10(len(cert.terms) + 1))
    digits = max(50, 35 + worst, worst + math.ceil(-math.log10(tol)) + 10)
    return 10 * int(math.ceil(digits / 10))


def sample_points(dim: int, samples: int, seed: int):
    """Seeded sample points, entries uniform in [-2, 2]."""
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2.0, 2.0) for _ in range(dim)) for _ in range(samples)]


def _series_bounds(alg: MetricLieAlgebra, w) -> tuple:
    """``ln ||ad_w||_1`` (``-inf`` at 0) and ``_series_log10_gain`` at a
    sample point.  The norm is exact (``ad_exact``: floats are exact
    rationals), so no float product can overflow."""
    scale, _, norm = alg.ad_exact(w)
    if not norm:
        return -math.inf, 0.0
    norm = Fraction(norm, scale)
    return math.log(norm.numerator) - math.log(norm.denominator), _series_log10_gain(norm, alg.dim)


class _LRU:
    """A thread-safe map that keeps its most recently used entries while
    their weights sum to at most ``budget``.  A missing value is made
    outside the lock, so two threads may make one entry twice, equal both
    times."""

    def __init__(self, budget: int, weigh):
        self.budget = budget
        self.weigh = weigh
        self.size = 0
        self.entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, make):
        with self._lock:
            value = self.entries.get(key)
            if value is not None:
                self.entries.move_to_end(key)
                return value
        value = make()
        with self._lock:
            if key not in self.entries:
                self.entries[key] = value
                self.size += self.weigh(value)
                while self.size > self.budget:
                    self.size -= self.weigh(self.entries.popitem(last=False)[1])
        return value

    def clear(self):
        with self._lock:
            self.entries.clear()
            self.size = 0


# Certificates verified on one algebra with the same samples share their
# sample points and generator values.  The memo keeps, with algebras compared
# by identity:
#
# * per sample set ``(algebra, samples, seed)``, the largest ``ln ||ad_w||_1``
#   and series gain over its points, which size the working precision; 64
#   sets, and no points: those are drawn again on a miss;
# * per block of at most ``_BLOCK`` of a set's points and per scale, the
#   points prepared by ``_point``, which every generator's series shares; 64
#   prepared points hold the 20 default samples at three working precisions;
# * per block, generator, scale and series order floor, one column: the
#   generator's values at the block's points.  256 values hold one algebra's
#   batch (at most 200 on the certify-batch benchmark) while bounding the
#   memory of the big fixed-point ints.
#
# A column or a prepared block holds at most ``_BLOCK`` points, so the memo
# keeps no more than 256 values and 64 prepared points whatever ``samples``
# is.  The metric and left-invariant fields are constant and are not kept.
_BLOCK = 32
_MEMO_SETS = 64
_MEMO_POINTS = 64
_MEMO_VALUES = 256


class _SampleMemo:
    """The sampled check's memo, generator-major: a certificate looks up
    each distinct generator once per block of points, not once per point."""

    def __init__(self):
        self.sets = _LRU(_MEMO_SETS, lambda bounds: 1)
        self.prepared = _LRU(_MEMO_POINTS, len)
        self.columns = _LRU(_MEMO_VALUES, len)

    def clear(self):
        for table in (self.sets, self.prepared, self.columns):
            table.clear()

    def bounds(self, alg: MetricLieAlgebra, samples: int, seed: int, points) -> tuple:
        """The largest ``_series_bounds`` over the sample set; ``points()``
        draws its points."""
        def make():
            log_norms, gains = zip(*(_series_bounds(alg, w) for w in points()))
            return max(log_norms), max(gains)

        return self.sets.get((alg, samples, seed), make)

    def values(self, alg: MetricLieAlgebra, generators, samples: int, seed: int, points,
               shift: int, min_order: int):
        """The fixed-point values of ``generators`` at each sample point, one
        point after another, from a column per generator and block.
        ``points()`` draws the points, and is called only on a miss."""
        constant = {g: _generator_values(alg, g, shift, (None,), None, min_order)[0]
                    for g in generators if isinstance(g, (Metric, LeftInvariant))}
        for start in range(0, samples, _BLOCK):
            n = min(samples - start, _BLOCK)
            block = (alg, samples, seed, start)

            def prepare():  # the block's points at this scale, shared by its series
                return self.prepared.get(block + (shift,), lambda: tuple(
                    _point(alg, w, shift) for w in points()[start:start + n]))

            def column(g):
                if g in constant:
                    return (constant[g],) * n
                return self.columns.get(block + (g, shift, min_order), lambda: tuple(
                    map(tuple, _generator_values(alg, g, shift, prepare(), None, min_order))))

            columns = [column(g) for g in generators]
            for i in range(n):
                yield [c[i] for c in columns]


_MEMO = _SampleMemo()


def _exact_at_zero(compiled: CompiledCertificate, target: SymTensor) -> bool:
    """Whether the certificate equals ``target`` at ``w = 0``, on ints:
    ``omega_tensor(alg, cert, 0, order=0) == target`` for a target that lists
    no zero coefficient (as ``SymTensor.build`` and the file reader make it).

    At 0 a left- or right-invariant field is its vector, a derivation field
    0 and the metric 1/2 on the squares.  With ``S = lcm(2, vector
    denominators)`` each field is scaled by ``S`` and the metric by ``S^2``,
    and the coefficients by their common denominator ``C``: one Horner pass
    over ints gives ``C S^p`` times the value, for the degree ``p``."""
    dim = compiled.dim
    s = math.lcm(2, *(c.denominator for g in compiled.generators
                      if isinstance(g, (LeftInvariant, RightInvariant)) for c in g.vector))
    values = []
    for g in compiled.generators:
        if isinstance(g, Metric):
            values.append(_metric_value(dim, s * s // 2))
        elif isinstance(g, DerivationField):
            values.append([0] * dim)
        else:
            values.append([c.numerator * (s // c.denominator) for c in g.vector])
    den = math.lcm(*(c.denominator for c in compiled.coefficients))
    coeffs = [c.numerator * (den // c.denominator) for c in compiled.coefficients]
    got = _horner(compiled.root, values, coeffs, None)
    scale = den * s ** compiled.degree
    return all(v * t.denominator == t.numerator * scale for v, t in zip(got, target.dense()))


def _check_generators(alg: MetricLieAlgebra, cert: Certificate, generators):
    """Raise ``GeneratorError``, naming the first factor that uses it, at a
    generator that is not a Killing field of ``alg``: a left-invariant field
    needs a vector ``x`` with skew ``ad_x``, a derivation field a skew
    derivation.  ``generators`` are the certificate's distinct ones."""
    for gen in generators:
        fault = None
        if isinstance(gen, LeftInvariant) and not alg.ad(gen.vector).is_skew():
            fault = "left-invariant field of a vector whose ad is not skew"
        elif isinstance(gen, DerivationField):
            full = gen.derivation.full_matrix()
            if not full.is_skew():
                fault = "derivation matrix is not skew"
            elif alg.derivation_residual(full.sparse()):
                fault = "matrix is not a derivation of the algebra"
        if fault:
            t, s = next((t, s) for t, (_, factors) in enumerate(cert.terms)
                        for s, g in enumerate(factors) if g == gen)
            raise GeneratorError(f"certificate.terms[{t}].factors[{s}]: {fault}")


def verify_certificate(alg: MetricLieAlgebra, cert: Certificate, *,
                       samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL,
                       seed: int = DEFAULT_SEED,
                       order_floor: int = DEFAULT_ORDER_FLOOR) -> CertificateCheck:
    """Check a certificate: exact equality at the origin plus sampled
    constancy of the pullback within ``tol`` at ``samples`` points, from 1
    to ``MAX_SAMPLES`` (past it ``SampleCapError``, before any point is
    drawn).  Every factor must be a Killing field: a left-invariant field of
    a vector with skew ``ad``, or the field of a skew derivation, else
    ``GeneratorError``.

    The certificate is compiled once (``CompiledCertificate``) and evaluated
    on ints at the origin (``_exact_at_zero``) and in fixed point at every
    sample point, from generator columns memoized across calls
    (``_SampleMemo``).  Each sampled value is compared with the target,
    converted once; only the largest deviation becomes a float.

    The series order at each sample is at least ``order_floor >= 0`` and at
    least the order making the crude tail bound ``||ad_w||^(N+1)/(N+1)!``
    fall under ``tol/10``; on top of that the series is summed adaptively at
    a working precision sized to the certificate's product-amplification
    bound and to ``tol``, passed down as the fixed-point scale: no mpmath
    state is read or set, so threads may verify concurrently.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise SampleCapError(samples)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if order_floor < 0:
        raise ValueError(f"order_floor must be at least 0, got {order_floor}")
    compiled = CompiledCertificate(cert)
    dim = alg.dim
    if compiled.dim != dim:
        raise ValueError("dimension mismatch")
    exact0 = _exact_at_zero(compiled, cert.target)
    _check_generators(alg, cert, compiled.generators)
    points = cache(partial(sample_points, dim, samples, seed))  # drawn on a memo miss only
    log_norm, gain = _MEMO.bounds(alg, samples, seed, points)
    digits = _working_digits(cert, gain, dim, tol)
    min_order = max(order_floor, _order_for_bound(log_norm, tol / 10.0))
    shift = _fixed_shift(dim, dps_to_prec(digits))
    target = _scaled(cert.target.dense(), shift)
    worst = 0
    for values in _MEMO.values(alg, compiled.generators, samples, seed, points, shift, min_order):
        value = compiled.evaluate(values, shift)
        worst = max(worst, *(abs(v - t) for v, t in zip(value, target)))
    try:
        max_dev = worst / (1 << shift)
    except OverflowError:  # a deviation past the float range
        max_dev = math.inf
    return CertificateCheck(
        passed=bool(exact0 and max_dev < tol),
        exact_at_zero=bool(exact0),
        max_deviation=max_dev,
        samples=samples,
        tol=tol,
        seed=seed,
        order_floor=order_floor,
        precision_digits=digits,
    )
