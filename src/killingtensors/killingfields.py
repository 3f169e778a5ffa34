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
points: exact values by default, or values in fixed point at ``prec`` bits.

Constancy is checked exactly at ``w = 0``, on ints (``_exact_at_zero``), and
numerically at seeded sample points.  Sampling runs in extended precision:
the factor values grow like ``exp(|gamma| * ||D||)`` and cancel additively
across monomials, which double precision cannot survive at the 1e-9 gate.
The series and the certificate polynomial are summed on Python ints scaled
by ``2**shift``, guard bits over a working precision that
``verify_certificate`` sizes per certificate and ``omega_tensor`` takes as
``prec`` (error bound in ``_fixed_shift``); each series by a function
compiled once per sparsity pattern of ``ad_w`` (``_series_kernel``).  Every
value is an exact ``Fraction`` or a fixed-point int, and no code reads or
writes process-wide numeric state.
``verify_certificate`` works a block of sample points at a time: each
series generator gets one column of values over the block from a bounded
memo (``_SampleMemo``) that certificates on one algebra share, the constant
metric and left-invariant fields are valued once, and the certificate is
summed once per block with one lane per point (``_horner_lanes``), which
every evaluation shares.
"""
from __future__ import annotations

import math
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from operator import add, mul, rshift, sub
from typing import NamedTuple

from .almostabelian import AlmostAbelianAlgebra
from .exactlinalg import basis_vec, dot, nullspace
from .liealgebra import MetricLieAlgebra
from .limits import (_MAX_TERMS, DERIVATION_DIM_CAP, MAX_EVALUATION_INDICES, MAX_LEVEL_INDICES,
                     MAX_SAMPLE_COORDINATES, MAX_SAMPLED_LEVEL_INDICES, MAX_SAMPLES,
                     MAX_WORKING_DIGITS, DerivationCapError, EvaluationCapError, LevelCapError,
                     PrecisionCapError, SampleCapError, SampleCoordinateCapError,
                     SampledLevelCapError, SeriesCapError)
from .tensors import (SymTensor, Endomorphism, monomial_positions, product_positions,
                      sym_dimension)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_SEED = 0x5EED
DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 20
DEFAULT_ORDER_FLOOR = 12

_LOG10_E = math.log10(math.e)


# mpmath's conversions between decimal digits and bits (``libmp.libmpf``,
# mpmath 1.3), by which the working precision has always been sized
def _prec_to_dps(n: int) -> int:
    return max(1, int(round(int(n) / 3.3219280948873626) - 1))


def _dps_to_prec(n: int) -> int:
    return max(1, int(round((int(n) + 1) * 3.3219280948873626)))


# the working precision of the omega-sample and curvature reports, 60 digits
REPORT_PREC = _dps_to_prec(60)


class NotKillingError(ValueError):
    """Raised when a decomposition is requested for a non-Killing tensor."""

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


class GeneratorError(ValueError):
    """A certificate factor that is not a Killing field of the algebra."""


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
        """The derivation on ``b`` and the ideal: ``b -> b_image``, skew.
        Built on first use and kept beside the fields, which alone decide
        equality, hashing and the file format."""
        full = self.__dict__.get("_full")
        if full is None:
            top = (_ZERO,) + tuple(-v for v in self.b_image)
            full = self.__dict__["_full"] = Endomorphism((top,) + tuple(
                (v,) + tuple(row) for v, row in zip(self.b_image, self.ideal_part.entries)))
        return full


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
# scalar contexts: exact Fractions, and fixed-point integers rounded at
# ``prec`` bits where they come in and go out
# ---------------------------------------------------------------------------

def _nearest(num: int, den: int, prec: int) -> Fraction:
    """``num/den`` (``den > 0``) rounded to ``prec`` significant bits, to
    nearest with ties to even, as mpmath rounds an ``mpf``.  ``m`` is the
    quotient at ``prec + 1`` or ``prec + 2`` bits, ``low`` its bits past
    ``prec`` and ``r`` the remainder."""
    if not num:
        return _ZERO
    s = prec + 1 - num.bit_length() + den.bit_length()
    m, r = divmod(abs(num) << s, den) if s >= 0 else divmod(abs(num), den << -s)
    extra = m.bit_length() - prec
    m, low, half = m >> extra, m & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or low == half and (r or m & 1):
        m += 1
    m, e = -m if num < 0 else m, extra - s
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _fixed_entry(x, prec: int, shift: int) -> int:
    """A point's entry ``x`` (an int, a float or a ``Fraction``) in fixed
    point at ``shift``: rounded at ``prec`` bits as mpmath's
    ``mpf(numerator) / denominator`` (the numerator, then the quotient), and
    truncated toward zero."""
    num, den = x.as_integer_ratio()
    q = _nearest(num, 1, prec)
    return int(_nearest(q.numerator, q.denominator * den, prec) * (1 << shift))


def _fixed_shift(dim: int, prec: int) -> int:
    """Scale ``P = prec + G`` of the fixed-point evaluation at ``prec`` working
    bits, the one precision value it carries: values are Python ints times
    ``2**-P``.  Error bound in units ``u = 2**-P``, with ``n = dim``,
    ``a = ||ad_w||_1`` and ``K <= _MAX_TERMS`` series terms:

    * In: an int or a float with ulp >= u converts exactly (sample points
      do), anything else with error < u.  A product by a non-integer
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
    * Out: one rounding to working precision, relative ``2**-prec``
      (``_nearest``).

    ``G = bit_length(n^2 K) + 8`` keeps ``n^2 K u`` under
    ``2**-(prec + 8)``: these roundings add less than 1/256 of one
    working-precision rounding, under the same ``e^a`` amplification that
    rounding suffers in a floating-point series at ``prec`` bits.
    ``_fixed_shift(dim, 0)`` is ``G``.
    """
    return prec + (dim * dim * _MAX_TERMS).bit_length() + 8


def _to_fixed(x, shift: int) -> int:
    """``x * 2**shift`` as an int for a rational ``x``: exact for an int,
    and for a float whose ulp is at least ``2**-shift``; otherwise
    floored."""
    num, den = x.as_integer_ratio()
    return (num << shift) // den


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
    2**shift``, each product of ``rows`` floored on its own, and
    ``kernel`` the series compiled for the sparsity pattern of ``rows``
    (``_series_kernel``), which takes ``rows`` as its entries."""

    shift: int | None
    scale: int
    w: tuple
    rows: tuple
    norm: int
    kernel: object = None


def _point(alg: MetricLieAlgebra, w, shift) -> _Point:
    """``w``, exact or fixed-point ints at ``shift``, prepared for the series."""
    if shift is None:
        scale, rows, norm = alg.ad_exact(w)
        return _Point(None, scale, tuple(w), rows, norm)
    rows, norm = alg.ad_walk(w, alg.denominator)
    pattern = (alg.dim, tuple([(r, columns) for r, columns, _ in rows]))
    return _Point(shift, 1 << shift, tuple(w), rows, norm,
                  _MEMO.kernels.get(pattern, partial(_series_kernel, pattern)))


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
    ``_fixed_shift``).  The terms are summed by the point's kernel, one
    compiled function per sparsity pattern of ``ad_w`` (``_series_kernel``);
    here the stop rule and the cap become the term numbers it compares
    ``k`` with.
    """
    shift, norm = point.shift, point.norm
    n = len(x)
    one = 1 << shift
    hump = (norm >> shift) + 2
    cap = _MAX_TERMS if hump <= _MAX_TERMS and min_order < _MAX_TERMS else n
    if order is None:  # the stop rule or the cap ends the series
        eps = one // 10 ** (_prec_to_dps(shift - _fixed_shift(n, 0)) - 5)
        stop_from, last = max(min_order, hump), cap + 1
    elif order:  # truncated: no stop rule, and within the cap no cap either
        eps, stop_from, last = 0, order + 1, order
        if order <= _MAX_TERMS:
            cap = order
    else:
        return list(x)
    acc = point.kernel(point.rows, x, s, shift, one, eps, stop_from, cap, last)
    if acc is None:
        raise SeriesCapError(Fraction(norm, one))
    return acc


# Products per statement of a generated row sum: ``a*b + c*d + ...`` nests
# one level per product, and CPython's compiler overflows its recursion
# limit on a few thousand of them.
_KERNEL_WIDTH = 64


def _series_kernel(pattern):
    """The series of ``_fixed_series`` for one sparsity pattern ``(n,
    ((row, columns), ...))`` of ``ad_w``, generated as straight-line Python
    and compiled once: ``series(rows, x, s, shift, one, eps, stop_from, cap,
    last)`` returns the partial sum after the last term, or None at the cap,
    where ``_fixed_series`` raises ``SeriesCapError``.

    The source is built from the pattern's indices alone: the ``(row,
    columns, entries)`` rows of the pattern, whose entries it unpacks, and
    ``x`` are arguments, so no structure constant and no input text is
    compiled.  Its loop follows the nonzeros, not ``n``: a row's partial
    sum and term are locals, a row sum is one unrolled sum of products
    (``_KERNEL_WIDTH`` per statement), rows and columns the pattern never
    touches get no locals, and a column that is no row is read from ``x`` by
    the first term only, as every later term is zero there.  Each term is
    rounded toward zero as ``_fixed_series`` states, so the rounding
    argument of ``_fixed_shift`` holds unchanged.  After term ``k`` the
    kernel ends on a zero term, then at ``k >= stop_from`` by the stop rule
    at ``eps``, then at ``k > cap`` with None, and before term ``k > last``.

    Compiling takes about 0.7 ms at 12 nonzeros, 1.2 ms at 30 and 6 ms at
    289 (CPython 3.11, one core of a shared 2-core machine).  ``_MEMO``
    keeps the kernels, weighed by their nonzeros within ``_MEMO_KERNELS``,
    so a process pays it about once per pattern.
    """
    n, rows = pattern
    head = "def series(rows, x, s, shift, one, eps, stop_from, cap, last):"
    if not rows:
        return _compiled([head, "    return list(x)"], 0)
    sums, i = [], 0  # per row, its (entry, column) pairs
    for r, columns in rows:
        sums.append((r, list(enumerate(columns, i))))
        i += len(columns)
    touched = {r for r, _ in rows}

    def term(read):
        """The statements of one term: row sums ``v`` over the previous
        term, whose entry at a column ``read`` names (None where it is
        zero), then the rounded entries ``u``."""
        out, rounded = [], []
        for r, pairs in sums:
            products = [f"e{j} * {read(c)}" for j, c in pairs if read(c)]
            for p in range(0, len(products), _KERNEL_WIDTH):
                out.append(f"v{r} {'+=' if p else '='} "
                           + " + ".join(products[p:p + _KERNEL_WIDTH]))
            rounded.append(f"u{r} = -((v{r} >> shift) // m) if v{r} > 0 else (-v{r} >> shift) // m"
                           if products else f"u{r} = 0")
        return out + rounded

    def largest(names):
        return names[0] if len(names) == 1 else f"max({', '.join(names)})"

    rs = [r for r, _ in rows]
    unpack = ", ".join(f"(_, _, ({', '.join(f'e{j}' for j, _ in pairs)},))" for _, pairs in sums)
    body = [head, f"    {unpack}, = rows", "    m = 1 + s"]
    body += ["    " + line for line in term(lambda c: f"x[{c}]")]
    body += [f"    a{r} = x[{r}]" for r in rs]
    # the partial sum outside the rows keeps its start value
    body += ["    b = " + largest(["one"] + [f"abs(x[{c}])" for c in range(n) if c not in touched]),
             "    k = 1",
             f"    while {' or '.join(f'u{r}' for r in rs)}:"]
    body += [f"        a{r} += u{r}" for r in rs]
    body += [f"        if k >= stop_from and {largest([f'abs(u{r})' for r in rs])} << shift"
             f" < eps * {largest(['b'] + [f'abs(a{r})' for r in rs])}:",
             "            break",
             "        if k > cap:",
             "            return None",
             "        k += 1",
             "        if k > last:",
             "            break",
             "        m = k + s"]
    body += ["        " + line for line in term(lambda c: f"u{c}" if c in touched else None)]
    out = ", ".join(f"a{c}" if c in touched else f"x[{c}]" for c in range(n))
    body.append(f"    return [{out}]")
    return _compiled(body, i)


def _compiled(lines, nonzeros: int):
    """The function ``series`` that ``lines`` define, with the number of
    ``nonzeros`` of its pattern, which weighs it in the kernel table."""
    namespace = {}
    exec(compile("\n".join(lines), "<series kernel>", "exec"), namespace)
    series = namespace["series"]
    series.nonzeros = nonzeros
    return series


def _scaled(seq, shift) -> list:
    """``seq`` as fixed-point ints at ``shift``, or as is when exact."""
    return list(seq) if shift is None else [_to_fixed(c, shift) for c in seq]


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


def omega_generator(alg: MetricLieAlgebra, gen, w, order=None, min_order: int = 0,
                    prec=None) -> SymTensor:
    """Pullback value of ``gen`` at ``w``: ``omega_tensor`` of ``1 * gen``."""
    cert = Certificate(SymTensor.zero(alg.dim, generator_degree(gen)), ((1, (gen,)),))
    return omega_tensor(alg, cert, w, order, min_order, prec)


def generator_degree(gen) -> int:
    """Degree of a generator's pullback value: 2 for the metric, 1 for a field."""
    if isinstance(gen, Metric):
        return 2
    if isinstance(gen, (LeftInvariant, RightInvariant, DerivationField)):
        return 1
    raise TypeError(f"unknown generator {gen!r}")


def _check_evaluation_size(dim: int, degree: int):
    """``EvaluationCapError`` for a certificate of ``degree`` on ``dim``
    dimensions past ``MAX_EVALUATION_INDICES``, before a monomial is listed."""
    indices = degree * sym_dimension(dim, degree)
    if indices > MAX_EVALUATION_INDICES:
        raise EvaluationCapError(dim, degree, indices)


def _check_level_size(dim: int, degree: int):
    """``LevelCapError`` for a nonzero tensor of ``degree`` on ``dim``
    dimensions whose certificate's trie levels must pass
    ``MAX_LEVEL_INDICES``, before its Killing test.  Every term descends
    from ``degree`` in steps of 1 or 2 (a field or the metric) to 1 or 2, so
    its levels hold at least the indices of the cheapest such chain,
    ``degree, degree - 2, ...`` down to 1 or 2: that chain is what is
    counted and reported."""
    levels = range(degree, 0, -2)
    indices = sum(r * sym_dimension(dim, r) for r in levels)
    if indices > MAX_LEVEL_INDICES:
        raise LevelCapError(dim, degree, len(levels), indices)


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

    The trie is one list, ``nodes``, appended to as the terms are inserted:
    the root first, so every child comes after its parent.  A node is
    ``(size, edges)`` with one ``(generator index, product table, child
    position)`` edge per distinct next factor; a leaf is the index of its
    coefficient.  Values are dense, indexed by monomial position, so a
    certificate past ``MAX_EVALUATION_INDICES`` raises ``EvaluationCapError``.
    Each level of the trie (a degree left below a node with edges) holds
    the position map and product tables of its degree; past
    ``MAX_LEVEL_INDICES`` indices over all levels, ``level_indices``, it
    raises ``LevelCapError``, before any table is built.  ``_horner_lanes``
    walks ``nodes`` backwards at a block of points at once, one lane per
    point.
    """

    def __init__(self, cert: Certificate):
        dim, degree = cert.target.dim, cert.target.degree
        _check_evaluation_size(dim, degree)
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
        degrees = [generator_degree(g) for g in order]
        # while terms are inserted, a node is (degree left, edges), an edge
        # (generator index, child position), and ``child`` maps a node's
        # position and a generator index to the child's position; once the
        # levels pass the bound, each node gets its size and each edge its table
        nodes = [(degree, [])]
        child = {}
        coeffs = []
        for coeff, factors in cert.terms:
            at = 0
            for i in sorted(index[g] for g in factors):
                if (at, i) not in child:
                    child[at, i] = len(nodes)
                    nodes[at][1].append((i, len(nodes)))
                    nodes.append((nodes[at][0] - degrees[i], []))
                at = child[at, i]
            if isinstance(nodes[at], int):
                coeffs[nodes[at]] += coeff
            else:
                nodes[at] = len(coeffs)
                coeffs.append(Fraction(coeff) if isinstance(coeff, int) else coeff)
        levels = {node[0] for node in nodes if not isinstance(node, int) and node[1]}
        if (indices := sum(r * sym_dimension(dim, r) for r in levels)) > MAX_LEVEL_INDICES:
            raise LevelCapError(dim, degree, len(levels), indices)
        self.dim, self.degree, self.level_indices = dim, degree, indices
        self.generators = tuple(order)
        self.coefficients = tuple(coeffs)
        self.nodes = [node if isinstance(node, int) else (sym_dimension(dim, node[0]), tuple(
            (i, product_positions(dim, degrees[i], node[0] - degrees[i]), c)
            for i, c in node[1])) for node in nodes]


def _horner_lanes(nodes, values, coeffs, shift, lanes: int) -> list:
    """Dense value ``N(root)`` of a ``CompiledCertificate``'s ``nodes`` at
    ``lanes`` points at once, from the leaves up: the list is walked
    backwards, so each child is summed before its parent, and each value is
    dropped once its parent has read it.  Each position holds a tuple of
    values, one per lane (point), or None when it is zero in every lane;
    ``values[g]`` holds the generator's in that layout, and zero positions
    are skipped.  Each product is lane-wise, a node sums its products
    exactly on each lane, and in fixed point shifts each sum once: lane by
    lane, the same ints as one point at a time."""
    done = {}
    for at, node in reversed(list(enumerate(nodes))):
        if isinstance(node, int):
            done[at] = [(coeffs[node],) * lanes if coeffs[node] else None]
            continue
        size, edges = node
        out = [None] * size
        for g, table, child in edges:
            below = [(j, b) for j, b in enumerate(done.pop(child)) if b is not None]
            for a, row in zip(values[g], table):
                if a is not None:
                    for j, b in below:
                        k = row[j]
                        acc = out[k]
                        out[k] = (tuple(map(mul, a, b)) if acc is None
                                  else tuple(map(add, acc, map(mul, a, b))))
        for k, v in enumerate(out):
            if v is not None:
                if shift is not None:
                    v = out[k] = tuple(map(rshift, v, repeat(shift)))
                if not any(v):
                    out[k] = None
        done[at] = out
    return done[0]


def _lanes(columns) -> list:
    """Generator values in the layout of ``_horner_lanes``, from one column
    per generator: its dense value at each point of a block."""
    return [[v if any(v) else None for v in zip(*column)] for column in columns]


def _one_lane(nodes, values, coeffs, shift) -> list:
    """``_horner_lanes`` at one point, from and to dense lists of values."""
    out = _horner_lanes(nodes, _lanes((v,) for v in values), coeffs, shift, 1)
    return [0 if v is None else v[0] for v in out]


def omega_tensor(alg: MetricLieAlgebra, cert, w, order=None, min_order: int = 0,
                 prec=None) -> SymTensor:
    """Pullback value of a certificate at ``w``, a point of ints, floats or
    ``Fraction``s: the polynomial in its generators, evaluated by Horner's
    rule over the factor trie.

    ``cert`` is a ``Certificate`` or, to evaluate one certificate at many
    points, its ``CompiledCertificate``.  Each distinct generator is
    evaluated once.  With ``prec`` None the value is exact, and a series
    must terminate (as for a nilpotent ``ad_w``) unless ``order`` truncates
    it.  With ``prec`` bits each entry of ``w`` is rounded to ``prec`` bits
    and truncated toward zero at the fixed-point scale, the series is summed
    adaptively in fixed point, and each coefficient is rounded to ``prec``
    bits: an exact dyadic ``Fraction``, as an mpf at ``prec`` bits would be.
    """
    compiled = cert if isinstance(cert, CompiledCertificate) else CompiledCertificate(cert)
    if compiled.dim != alg.dim:
        raise ValueError("dimension mismatch")
    if prec is None:
        shift, w = None, tuple(map(Fraction, w))
    else:
        shift = _fixed_shift(alg.dim, prec)
        w = tuple(_fixed_entry(c, prec, shift) for c in w)
    # only a series reads the prepared point
    series = any(isinstance(g, (RightInvariant, DerivationField)) for g in compiled.generators)
    points = (_point(alg, w, shift) if series else None,)
    values = [_generator_values(alg, gen, shift, points, order, min_order)[0]
              for gen in compiled.generators]
    out = _one_lane(compiled.nodes, values, _scaled(compiled.coefficients, shift), shift)
    if shift is not None:
        out = [_nearest(v, 1 << shift, prec) for v in out]
    return SymTensor.from_dense(compiled.dim, compiled.degree, out)


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

def _ideal_terms(dim: int, k: SymTensor) -> tuple:
    """The certificate terms of a tensor ``k`` supported on the ideal: one
    right-invariant field per factor of each monomial, in sorted monomial
    order.  The multilinear components of ``k`` divided by p!, regrouped
    over sorted monomials, reproduce exactly the monomial coefficients, so
    the rewriting is coefficient-for-coefficient."""
    fields = [RightInvariant(basis_vec(dim, i)) for i in range(dim)]
    return tuple((k.terms[mono], tuple(fields[i] for i in mono)) for mono in sorted(k.terms))


def decompose(alg: AlmostAbelianAlgebra, k: SymTensor) -> Certificate:
    """Certificate for any left-invariant Killing tensor.

    Layers are rewritten on the ideal; each power of the basis-squares tensor
    contributes metric generators (with a factor 2 each), and odd layers pick
    up the left-invariant field of ``b``, which is Killing exactly when the
    defining derivation is skew -- otherwise the odd part is zero.  The
    layers passed ``is_killing_structured``, so each is rewritten by
    ``_ideal_terms`` without a check of its own.  A target too large to
    evaluate raises ``EvaluationCapError`` before the layers are built, as
    its certificate could never be verified, and so does one whose
    certificate's trie levels must pass ``MAX_LEVEL_INDICES``
    (``LevelCapError``).
    """
    _check_evaluation_size(k.dim, k.degree)
    if k.terms:
        _check_level_size(k.dim, k.degree)
    diag = alg.is_killing_structured(k)
    if not diag.is_killing:
        raise NotKillingError("; ".join(diag.failures), diagnosis=diag)
    dim = alg.dim
    b_field = LeftInvariant(basis_vec(dim, 0))
    terms = []
    for (e, i), t in sorted(diag.layers.nonzero.items()):  # the even layers first
        scale = Fraction(2) ** i
        for c, fs in _ideal_terms(dim, t):
            terms.append((c * scale, (Metric(),) * i + (b_field,) * e + fs))
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
    ``_MAX_TERMS``, at which ``_fixed_series`` passes only a series that
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
    hump is past the cap even after rounding, so ``_fixed_series`` raises unless
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
    50, rounded up to a multiple of 10.  ``tol`` decides only below 1e-25.
    Past ``MAX_WORKING_DIGITS`` it raises ``PrecisionCapError``."""
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
    digits = 10 * int(math.ceil(digits / 10))
    if digits > MAX_WORKING_DIGITS:
        raise PrecisionCapError(digits)
    return digits


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
#
# Beside them, keyed by sparsity pattern and shared by every algebra, the
# compiled series kernels (``_series_kernel``).  A kernel takes about 2 KB
# plus 130 to 280 bytes per nonzero of its pattern (CPython 3.11), so it
# weighs its nonzeros plus 16, and 2^13 of that keep the table under about
# 2.5 MB: some 300 patterns of dimension 4, or 40 of 200 nonzeros.  A
# verification meets one pattern per algebra, and 24 algebras of the
# certify-batch benchmark make 14.
_BLOCK = 32
_MEMO_SETS = 64
_MEMO_POINTS = 64
_MEMO_VALUES = 256
_MEMO_KERNELS = 1 << 13


class _SampleMemo:
    """The sampled check's memo, generator-major: a certificate looks up
    each distinct generator once per block of points, not once per point."""

    def __init__(self):
        self.sets = _LRU(_MEMO_SETS, lambda bounds: 1)
        self.prepared = _LRU(_MEMO_POINTS, len)
        self.columns = _LRU(_MEMO_VALUES, len)
        self.kernels = _LRU(_MEMO_KERNELS, lambda kernel: kernel.nonzeros + 16)

    def clear(self):
        for table in (self.sets, self.prepared, self.columns, self.kernels):
            table.clear()

    def bounds(self, alg: MetricLieAlgebra, samples: int, seed: int, points) -> tuple:
        """The largest ``_series_bounds`` over the sample set; ``points()``
        draws its points."""
        def make():
            log_norms, gains = zip(*(_series_bounds(alg, w) for w in points()))
            return max(log_norms), max(gains)

        return self.sets.get((alg, samples, seed), make)

    def blocks(self, alg: MetricLieAlgebra, generators, samples: int, seed: int, points,
               shift: int, min_order: int):
        """The fixed-point values of ``generators`` at the sample points, one
        block after another: the block's number of points and one column per
        generator, its dense value at each of them.  ``points()`` draws the
        points, and is called only on a miss."""
        constant = {g: _generator_values(alg, g, shift, (None,), None, min_order)[0]
                    for g in generators if isinstance(g, (Metric, LeftInvariant))}
        for start in range(0, samples, _BLOCK):
            n = min(samples - start, _BLOCK)
            block = (alg, samples, seed, start)

            def prepare():  # the block's points at this scale, shared by its series
                return self.prepared.get(block + (shift,), lambda: tuple(
                    _point(alg, _scaled(w, shift), shift) for w in points()[start:start + n]))

            def column(g):
                if g in constant:
                    return (constant[g],) * n
                return self.columns.get(block + (g, shift, min_order), lambda: tuple(
                    map(tuple, _generator_values(alg, g, shift, prepare(), None, min_order))))

            yield n, [column(g) for g in generators]


_MEMO = _SampleMemo()


def _exact_at_zero(compiled: CompiledCertificate, target: SymTensor) -> bool:
    """Whether the certificate equals ``target`` at ``w = 0``, on ints:
    ``omega_tensor(alg, cert, 0, order=0) == target``.

    At 0 a left- or right-invariant field is its vector, a derivation field
    0 and the metric 1/2 on the squares.  With ``S = lcm(2, vector
    denominators)`` each field is scaled by ``S`` and the metric by ``S^2``,
    and the coefficients by their common denominator ``C``: one Horner pass
    over ints, a single lane, gives ``C S^p`` times the value, for the
    degree ``p``."""
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
    got = _one_lane(compiled.nodes, values, coeffs, None)
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
    drawn), at most ``MAX_SAMPLE_COORDINATES`` coordinates over them (past
    it ``SampleCoordinateCapError``) and at most ``MAX_SAMPLED_LEVEL_INDICES``
    samples times the compiled certificate's level indices (past it
    ``SampledLevelCapError``, before the origin check).  A certificate that
    needs more than ``MAX_WORKING_DIGITS`` digits raises
    ``PrecisionCapError`` before any series is summed.  Every factor must
    be a Killing field: a left-invariant field of a vector with skew ``ad``,
    or the field of a skew derivation, else ``GeneratorError``.

    The certificate is compiled once (``CompiledCertificate``) and evaluated
    on ints at the origin (``_exact_at_zero``) and in fixed point at the
    sample points, a block of at most ``_BLOCK`` at a time: the generator
    columns of the block, memoized across calls (``_SampleMemo``), are
    turned into lanes, one per point, and the trie is walked once for the
    block (``_horner_lanes``).  Each value is compared with the target,
    converted once, lane by lane; only the largest deviation becomes a
    float.

    The series order at each sample is at least ``order_floor >= 0`` and at
    least the order making the crude tail bound ``||ad_w||^(N+1)/(N+1)!``
    fall under ``tol/10``; on top of that the series is summed adaptively at
    a working precision sized to the certificate's product-amplification
    bound and to ``tol``, passed down as the fixed-point scale.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise SampleCapError(samples)
    if samples * alg.dim > MAX_SAMPLE_COORDINATES:
        raise SampleCoordinateCapError(samples, alg.dim)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if order_floor < 0:
        raise ValueError(f"order_floor must be at least 0, got {order_floor}")
    compiled = CompiledCertificate(cert)
    if samples * compiled.level_indices > MAX_SAMPLED_LEVEL_INDICES:
        raise SampledLevelCapError(samples, compiled.level_indices)
    dim = alg.dim
    if compiled.dim != dim:
        raise ValueError("dimension mismatch")
    exact0 = _exact_at_zero(compiled, cert.target)
    _check_generators(alg, cert, compiled.generators)
    points = cache(partial(sample_points, dim, samples, seed))  # drawn on a memo miss only
    log_norm, gain = _MEMO.bounds(alg, samples, seed, points)
    digits = _working_digits(cert, gain, dim, tol)
    min_order = max(order_floor, _order_for_bound(log_norm, tol / 10.0))
    shift = _fixed_shift(dim, _dps_to_prec(digits))
    target = _scaled(cert.target.dense(), shift)
    coeffs = _scaled(compiled.coefficients, shift)
    worst = 0
    for n, columns in _MEMO.blocks(alg, compiled.generators, samples, seed, points, shift,
                                   min_order):
        out = _horner_lanes(compiled.nodes, _lanes(columns), coeffs, shift, n)
        for lanes, t in zip(out, target):
            worst = max(worst, abs(t) if lanes is None
                        else max(map(abs, map(sub, lanes, repeat(t)))))
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
