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

Constancy is checked exactly at ``w = 0`` by the one exact evaluator
(``_exact_sum``, on ints), and numerically at seeded sample points.
Sampling runs in extended precision: the factor values grow like
``exp(|gamma| * ||D||)`` and cancel additively across monomials, which
double precision cannot survive at the 1e-9 gate.
The series and the certificate polynomial are summed on Python ints scaled
by ``2**shift``, guard bits over a working precision that
``verify_certificate`` sizes per certificate and ``omega_tensor`` takes as
``prec`` (error bound in ``_fixed_shift``); each series by a function
compiled once per sparsity pattern of ``ad_w`` (``_series_kernel``).  Every
value is an exact ``Fraction`` or a fixed-point int, and no code reads or
writes process-wide numeric state.
``verify_certificate`` works a block of sample points at a time: each
generator that varies with the point (``_varies``) gets one column of values
over the block from a bounded memo (``_SampleMemo``) that certificates on
one algebra share, the points of a block are prepared once per check for
those generators, the constant ones (the metric, left-invariant fields and
right-invariant fields of central vectors) are valued once, and the
certificate is summed once per block with one lane per point
(``_horner_lanes``), which every evaluation shares: a value the same in
every lane is one int, multiplied and shifted once for the block.
What a check finds out about a generator is kept for the next one: whether
it is a Killing field, which depends on the algebra, on the algebra object
(``_generator_fault``), and its exact value at the origin and a constant
one's fixed-point value, which do not, beside the generator
(``_origin_value``, ``_constant_value``).
"""
from __future__ import annotations

import math
import random
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add, mul, rshift, sub
from typing import NamedTuple

from .almostabelian import AlmostAbelianAlgebra
from .exactlinalg import basis_vec
from .liealgebra import MetricLieAlgebra, skew_derivation_basis
from .limits import (_MAX_TERMS, MAX_EVALUATION_INDICES, MAX_LEVEL_INDICES,
                     MAX_SAMPLE_COORDINATES, MAX_SAMPLED_FACTOR_DIGITS, MAX_SAMPLED_LEVEL_INDICES,
                     MAX_SAMPLES, MAX_WORKING_DIGITS, EvaluationCapError, LevelCapError,
                     PrecisionCapError, SampleCapError, SampleCoordinateCapError,
                     SampledLevelCapError, SampledWorkCapError, SeriesCapError)
from .tensors import (SymTensor, Endomorphism, monomial_positions, product_positions,
                      sym_dimension)

_ZERO = Fraction(0)

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


def _kept(gen, name: str, key, make):
    """A fact of ``gen`` that also depends on ``key``, kept beside its
    fields under ``name`` as its hash is (``_hash_once``), for the last
    ``key`` asked: ``make()`` is called for another ``key``."""
    kept = gen.__dict__.get(name)
    if kept is None or kept[0] != key:
        kept = gen.__dict__[name] = (key, make())
    return kept[1]


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


# the generators whose pullback value is a series in ``ad_w``, and which the
# working digits and the sampled-work cap charge with the series gain; the
# metric and the left-invariant fields are constant, and so is a
# right-invariant field of a central vector (``_varies``)
_SERIES = (RightInvariant, DerivationField)


def _varies(alg: MetricLieAlgebra, gen) -> bool:
    """Whether the pullback value of ``gen`` on ``alg`` depends on the point:
    a series generator, except a right-invariant field of a vector on the
    central columns (``MetricLieAlgebra.central_columns``).  That field is
    also left-invariant: its first series term is 0, exactly and in fixed
    point, so its value is its vector at every point.  A right-invariant
    field keeps its support, the indices of its nonzero entries, beside its
    fields, as it keeps its hash: a check asks three or four times per field."""
    if isinstance(gen, RightInvariant):
        support = gen.__dict__.get("_support")
        if support is None:
            support = gen.__dict__["_support"] = frozenset(i for i, v in enumerate(gen.vector) if v)
        return not support <= alg.central_columns
    return isinstance(gen, DerivationField)


class BasisFields(NamedTuple):
    """One generator object per basis field of an algebra: the metric, and
    the left- and right-invariant fields of each basis vector."""

    metric: Metric
    left: tuple
    right: tuple


def basis_fields(alg: MetricLieAlgebra) -> BasisFields:
    """The algebra's ``BasisFields``, built on first use and kept on it, as
    a generator's hash is (``_hash_once``).  Certificates built on one
    algebra then share their generator objects: each hashes its vector once,
    and the trie, the working-digit bounds and the sampled-value memo meet
    it as one object, which compares by identity."""
    fields = alg.__dict__.get("_basis_fields")
    if fields is None:
        vectors = [basis_vec(alg.dim, i) for i in range(alg.dim)]
        fields = alg._basis_fields = BasisFields(
            Metric(), tuple(map(LeftInvariant, vectors)), tuple(map(RightInvariant, vectors)))
    return fields


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
    tuples, divided by ``2**strip``, and ``norm`` the 1-norm of the undivided
    rows, from ``MetricLieAlgebra.ad_walk``.

    Exact (``shift`` None): ``w`` as given, ``rows`` exact (``ad_exact``)
    and ``strip`` 0.  Fixed point: ``w`` as ints at ``shift``, ``scale =
    2**shift``, each product of ``rows`` floored on its own, ``strip`` the
    largest power of two common to those products, at most ``shift``, and
    ``kernel`` the series compiled for the sparsity pattern of ``rows``
    (``_series_kernel``), which takes ``rows`` as its entries and rounds each
    row sum with a shift by ``shift - strip``."""

    shift: int | None
    scale: int
    w: tuple
    rows: tuple
    norm: int
    kernel: object = None
    strip: int = 0


def _points(alg: MetricLieAlgebra, ws, shift) -> list:
    """The points ``ws``, exact or fixed-point ints at ``shift``, prepared
    for the series.  The points of a block almost always share the sparsity
    pattern of ``ad_w``, so a fixed-point point looks up its kernel only
    where its pattern differs from that of the point before.

    A fixed-point point's entries are divided by ``2**strip``, the largest
    power of two that divides all of them, capped at ``shift`` (0 when there
    is no row).  A float sample entry has at most 53 significant bits, so at
    the fixed-point scale it ends in a long run of zero bits (at least 141
    at 50 digits), and with integer structure constants so do the products,
    which no series product then multiplies; a constant with an odd
    denominator floors each product and leaves little or nothing to strip.
    Each row sum is then exactly ``2**-strip`` times the undivided one, so
    ``v >> (shift - strip)`` is the same floor as the undivided ``v >>
    shift``."""
    out, shape, kernel = [], None, None
    for w in ws:
        if shift is None:
            scale, rows, norm = alg.ad_exact(w)
            out.append(_Point(None, scale, tuple(w), rows, norm))
            continue
        rows, norm = alg.ad_walk(w, alg.denominator)
        common = 0
        for _, _, entries in rows:
            for a in entries:
                common |= a
        strip = min(shift, (common & -common).bit_length() - 1) if common else 0
        if strip:
            rows = tuple([(r, c, tuple([a >> strip for a in entries]))
                          for r, c, entries in rows])
        columns = tuple([(r, c) for r, c, _ in rows])
        if columns != shape:
            shape, pattern = columns, (alg.dim, columns)
            kernel = _MEMO.kernels.get(pattern, partial(_series_kernel, pattern))
        out.append(_Point(shift, 1 << shift, tuple(w), rows, norm, kernel, strip))
    return out


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
    ``k`` with, and each row sum is rounded by a shift by ``shift -
    point.strip`` (``_points``), the same floor as a shift of the undivided
    sum by ``shift``.  ``eps`` is an int at every working precision, also
    below 5 digits, so the stop rule never compares a float.
    """
    shift, norm = point.shift, point.norm
    n = len(x)
    one = 1 << shift
    hump = (norm >> shift) + 2
    cap = _MAX_TERMS if hump <= _MAX_TERMS and min_order < _MAX_TERMS else n
    if order is None:  # the stop rule or the cap ends the series
        digits = _prec_to_dps(shift - _fixed_shift(n, 0)) - 5
        eps = one // 10 ** digits if digits >= 0 else one * 10 ** -digits
        stop_from, last = max(min_order, hump), cap + 1
    elif order:  # truncated: no stop rule, and within the cap no cap either
        eps, stop_from, last = 0, order + 1, order
        if order <= _MAX_TERMS:
            cap = order
    else:
        return list(x)
    acc = point.kernel(point.rows, x, s, shift - point.strip, one, eps, stop_from, cap, last)
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
    where ``_fixed_series`` raises ``SeriesCapError``.  ``shift`` is the row
    shift, which rounds each row sum (``shift - strip`` of a prepared
    point), and ``one`` is ``2**P`` at the full fixed-point scale ``P``,
    which the stop rule compares with.

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

    The stop rule ``t * one < eps * H``, for the largest entry ``t`` of the
    term and ``H`` of ``b`` and the partial sums, is pre-checked: the kernel
    keeps ``hi``, the ``H`` it last took, and ``grown``, the sum of the
    ``t`` since then, and takes ``hi`` again once ``grown > hi``.  So ``H <=
    hi + grown <= 2 hi``, and a term with ``t >= ceil(2 eps hi / one)``
    cannot stop the series: only a term under that bound makes the
    comparison, which then stops exactly where it would at every term.

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
             "    hi = grown = floor = 0",
             f"    while {' or '.join(f'u{r}' for r in rs)}:"]
    body += [f"        a{r} += u{r}" for r in rs]
    high = largest(['b'] + [f'abs(a{r})' for r in rs])
    body += ["        if k >= stop_from:",
             f"            t = {largest([f'abs(u{r})' for r in rs])}",
             "            grown += t",
             "            if grown > hi:",
             f"                hi, grown = {high}, 0",
             "                floor = -(-2 * eps * hi // one)",
             f"            if t < floor and t * one < eps * {high}:",
             "                break",
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

def _generator_values(alg: MetricLieAlgebra, gen, shift, points, order, min_order: int) -> list:
    """Dense pullback values of the generator ``gen`` at each of ``points``,
    prepared by ``_points``: exact when ``shift`` is None, else fixed-point
    ints at ``shift``.

    The metric is 1/2 on the squares, and a left-invariant field and a
    right-invariant field of a central vector (``_varies``) are their vector
    at every point, so they are valued once and the points are not read.
    Any other right-invariant field of ``x`` is ``exp(-ad_w) x`` and the
    field of a derivation ``T`` is ``phi(-ad_w) T w``, one series per point.
    """
    if isinstance(gen, Metric):
        half = Fraction(1, 2) if shift is None else 1 << (shift - 1)
        value = [0] * sym_dimension(alg.dim, 2)
        positions = monomial_positions(alg.dim, 2)
        for i in range(alg.dim):
            value[positions[i, i]] = half
        return [value] * len(points)
    if not _varies(alg, gen):
        return [_scaled(gen.vector, shift)] * len(points)
    if isinstance(gen, RightInvariant):
        x = _scaled(gen.vector, shift)
        starts = ((point, x, 0) for point in points)
    else:  # a derivation field: every other generator fails generator_degree
        rows = gen.derivation.full_matrix().entries
        starts = ((point, [sum(_rational_times(c, v, shift) for c, v in zip(row, point.w)
                               if c and v) for row in rows], 1) for point in points)
    if shift is None:
        return [_exact_series(point, x, s, order) for point, x, s in starts]
    return [_fixed_series(point, x, s, order, min_order) for point, x, s in starts]


def _on_ints(value) -> tuple:
    """An exact value as ``(ints, den)``: ints over the lcm ``den`` of its
    denominators."""
    den = math.lcm(*(v.denominator for v in value))
    return tuple([v.numerator * (den // v.denominator) for v in value]), den


def _origin_value(alg: MetricLieAlgebra, gen) -> tuple:
    """The exact value of ``gen`` at the origin as ``(ints, den)``, ints
    over the lcm ``den`` of its denominators: a field's vector (0 for a
    derivation field) and the metric's 1/2 on the squares.  It depends on
    the dimension alone, not on the algebra, so it is kept beside the
    generator (``_kept``) for the dimension last asked.  There the series
    end before their first term, and ``ad_0 = 0``."""
    def make():
        origin = _Point(None, 1, (0,) * alg.dim, (), 0)
        return _on_ints(_generator_values(alg, gen, None, (origin,), 0, 0)[0])

    return _kept(gen, "_origin", alg.dim, make)


def _constant_value(alg: MetricLieAlgebra, gen, shift: int) -> tuple:
    """The fixed-point value at ``shift`` of a generator that does not vary
    (``_varies``), the same at every point: kept beside the generator
    (``_kept``) for the dimension and the shift last asked, as it depends on
    nothing else."""
    return _kept(gen, "_fixed", (alg.dim, shift), lambda: tuple(
        _generator_values(alg, gen, shift, (None,), None, 0)[0]))


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


def _check_level_size(dim: int, degree: int, levels) -> int:
    """The indices ``sum r C(dim+r-1, r)`` that the trie ``levels`` (the
    degrees left below a node with edges) of a certificate of ``degree``
    hold, or ``LevelCapError`` past ``MAX_LEVEL_INDICES``."""
    indices = sum(r * sym_dimension(dim, r) for r in levels)
    if indices > MAX_LEVEL_INDICES:
        raise LevelCapError(dim, degree, len(levels), indices)
    return indices


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
        # each factor object is hashed once, then met by its id: ``seen``
        # maps it to its generator's slot, the first appearance of an equal
        # one in ``gens``, and ``counts`` holds the terms each slot is a factor of
        seen, first, gens, degs, counts, rows = {}, {}, [], [], [], []
        for t, (_, factors) in enumerate(cert.terms):
            row, d = [], 0
            for f in factors:
                k = seen.get(id(f))
                if k is None:
                    e = generator_degree(f)
                    k = seen[id(f)] = first.setdefault(f, len(gens))
                    if k == len(gens):
                        gens.append(f)
                        degs.append(e)
                        counts.append(0)
                row.append(k)
                d += degs[k]
            if d != degree:
                raise ValueError(f"certificate term {t} has degree {d}, "
                                 f"the target has degree {degree}")
            for k in set(row):
                counts[k] += 1
            rows.append(row)
        # most frequent first shares the longest prefixes; ties keep first appearance
        order = sorted(range(len(gens)), key=lambda k: -counts[k])
        rank = [0] * len(order)
        for i, k in enumerate(order):
            rank[k] = i
        degrees = [degs[k] for k in order]
        # while terms are inserted, a node is (degree left, edges), an edge
        # (generator index, child position), and ``child`` maps a node's
        # position and a generator index to the child's position; once the
        # levels pass the bound, each node gets its size and each edge its table
        nodes = [(degree, [])]
        child = {}
        coeffs = []
        levels = set()
        for (coeff, _), row in zip(cert.terms, rows):
            at = 0
            for i in sorted([rank[k] for k in row]):
                below = child.get((at, i))
                if below is None:
                    below = child[at, i] = len(nodes)
                    left, edges = nodes[at]
                    levels.add(left)
                    edges.append((i, below))
                    nodes.append((left - degrees[i], []))
                at = below
            if isinstance(nodes[at], int):
                coeffs[nodes[at]] += coeff
            else:
                nodes[at] = len(coeffs)
                coeffs.append(Fraction(coeff) if isinstance(coeff, int) else coeff)
        self.level_indices = _check_level_size(dim, degree, levels)
        self.dim, self.degree = dim, degree
        self.generators = tuple([gens[k] for k in order])
        self.coefficients = tuple(coeffs)
        self.nodes = [node if isinstance(node, int) else (sym_dimension(dim, node[0]), tuple([
            (i, product_positions(dim, degrees[i], node[0] - degrees[i]), c)
            for i, c in node[1]])) for node in nodes]


def _horner_lanes(nodes, values, coeffs, shift) -> list:
    """Dense value ``N(root)`` of a ``CompiledCertificate``'s ``nodes`` at a
    block of points at once, one lane per point, from the leaves up: the
    list is walked backwards, so each child is summed before its parent, and
    each value is dropped once its parent has read it.  Every value is an
    int: fixed point at ``shift``, or scaled exact values (``_exact_sum``,
    ``shift`` None).  A position holds None when it is zero in every lane,
    one int when it is the same in every lane, or a tuple of one int per
    lane; ``values[g]`` holds the generator's in that layout, and the
    coefficients are one int each.  A node sums the products of two single
    values once, and the lane-wise products, where a single value meets a
    tuple, spread over its lanes; it adds the single sum to each lane only
    where a position has both, and in fixed point shifts each sum once.
    Every sum is exact, so lane by lane these are the same ints as one point
    at a time."""
    done = {}
    for at, node in reversed(list(enumerate(nodes))):
        if isinstance(node, int):
            done[at] = [coeffs[node] or None]
            continue
        size, edges = node
        same, apart = [0] * size, [None] * size  # the single sums, the lane-wise ones
        for g, table, child in edges:
            single, lanes = [], []
            for j, b in enumerate(done.pop(child)):
                if b is not None:
                    (lanes if type(b) is tuple else single).append((j, b))
            for a, row in zip(values[g], table):
                if a is None:
                    continue
                if type(a) is tuple:
                    for j, b in single:
                        k = row[j]
                        acc = apart[k]
                        apart[k] = (tuple(map(mul, a, repeat(b))) if acc is None
                                    else tuple(map(add, acc, map(mul, a, repeat(b)))))
                    for j, b in lanes:
                        k = row[j]
                        acc = apart[k]
                        apart[k] = (tuple(map(mul, a, b)) if acc is None
                                    else tuple(map(add, acc, map(mul, a, b))))
                else:
                    for j, b in single:
                        same[row[j]] += a * b
                    for j, b in lanes:
                        k = row[j]
                        acc = apart[k]
                        apart[k] = (tuple(map(mul, b, repeat(a))) if acc is None
                                    else tuple(map(add, acc, map(mul, b, repeat(a)))))
        out = [None] * size
        for k, v in enumerate(apart):
            u = same[k]
            if v is None:
                if u and shift is not None:
                    u >>= shift
                out[k] = u or None
                continue
            if u:
                v = map(add, v, repeat(u))
            if shift is not None:
                v = map(rshift, v, repeat(shift))
            v = tuple(v)
            out[k] = v if any(v) else None
        done[at] = out
    return done[0]


def _lanes(columns, varies) -> list:
    """Generator values in the layout of ``_horner_lanes``, from one column
    per generator, its dense value at each point of a block, and whether it
    varies with the point (``_varies``): a varying one's positions become
    tuples, one entry per point, and a constant one's its value at the
    first point, with no scan over the lanes."""
    return [[v if any(v) else None for v in zip(*column)] if vary
            else [v or None for v in column[0]] for column, vary in zip(columns, varies)]


def _exact_sum(alg: MetricLieAlgebra, compiled: CompiledCertificate, point, order) -> tuple:
    """The exact value of ``compiled`` at an exact ``point`` (``_points``)
    as ints over one scale, ``(ints, scale)``.  ``point`` None is the
    origin, or any point when no generator varies: there each generator's
    value is the one kept for the origin (``_origin_value``), elsewhere it
    is ``_generator_values``.  Each value is scaled to ints: a field's by
    ``S``, the lcm of every denominator among the values, and the metric's
    (1/2 on the squares, so 2 divides ``S``) by ``S^2``; the coefficients by
    their common denominator ``C``.  One Horner pass, a single lane, then
    gives ``C S^p`` times the value, for the degree ``p``."""
    if point is None:
        values = [_origin_value(alg, g) for g in compiled.generators]
    else:
        values = [_on_ints(_generator_values(alg, g, None, (point,), order, 0)[0])
                  for g in compiled.generators]
    s = math.lcm(*(den for _, den in values))
    lanes = []
    for g, (value, den) in zip(compiled.generators, values):
        m = s ** generator_degree(g) // den
        lanes.append([v * m or None for v in value])
    den = math.lcm(*(c.denominator for c in compiled.coefficients))
    coeffs = [c.numerator * (den // c.denominator) for c in compiled.coefficients]
    out = _horner_lanes(compiled.nodes, lanes, coeffs, None)
    return [v or 0 for v in out], den * s ** compiled.degree


def omega_tensor(alg: MetricLieAlgebra, cert: Certificate, w, order=None, min_order: int = 0,
                 prec=None) -> SymTensor:
    """Pullback value of a certificate at ``w``, a point of ints, floats or
    ``Fraction``s: the polynomial in its generators, evaluated by Horner's
    rule over the factor trie (``CompiledCertificate``).  Each distinct
    generator is evaluated once.  With ``prec`` None the value is exact,
    and a series must terminate (as for a nilpotent ``ad_w``) unless
    ``order`` truncates it.  With ``prec`` bits each entry of ``w`` is
    rounded to ``prec`` bits and truncated toward zero at the fixed-point
    scale, the series is summed adaptively in fixed point, and each
    coefficient is rounded to ``prec`` bits: an exact dyadic ``Fraction``,
    as an mpf at ``prec`` bits would be.
    """
    compiled = CompiledCertificate(cert)
    if compiled.dim != alg.dim:
        raise ValueError("dimension mismatch")
    if prec is None:
        shift, w = None, tuple(map(Fraction, w))
    else:
        shift = _fixed_shift(alg.dim, prec)
        w = tuple(_fixed_entry(c, prec, shift) for c in w)
    # only a generator that varies reads the prepared point
    varies = any(_varies(alg, g) for g in compiled.generators)
    points = _points(alg, (w,), shift) if varies else (None,)
    if shift is None:
        ints, scale = _exact_sum(alg, compiled, points[0], order)
        out = [Fraction(v, scale) for v in ints]
    else:  # a block of one point, where every value is the same in every lane
        values = _lanes([_generator_values(alg, gen, shift, points, order, min_order)
                         for gen in compiled.generators], repeat(False))
        out = _horner_lanes(compiled.nodes, values, _scaled(compiled.coefficients, shift), shift)
        out = [_nearest(v or 0, 1 << shift, prec) for v in out]
    return SymTensor.from_dense(compiled.dim, compiled.degree, out)


# ---------------------------------------------------------------------------
# skew derivations
# ---------------------------------------------------------------------------

def skew_derivations(alg: AlmostAbelianAlgebra):
    """Skew derivations of an almost abelian algebra, as split pieces of the
    matrices of ``liealgebra.skew_derivation_basis``."""
    return tuple(SkewDerivation.from_matrix(m) for m in skew_derivation_basis(alg))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose(alg: AlmostAbelianAlgebra, k: SymTensor) -> Certificate:
    """Certificate for any left-invariant Killing tensor.

    Layers are rewritten on the ideal, one right-invariant field per factor
    of each monomial, in sorted monomial order: the multilinear components
    of a layer divided by its degree's factorial, regrouped over sorted
    monomials, reproduce exactly the monomial coefficients, so the rewriting
    is coefficient-for-coefficient.  Each power of the basis-squares tensor
    contributes metric generators (with a factor 2 each), and odd layers
    pick up the left-invariant field of ``b``, which is Killing exactly when
    the defining derivation is skew -- otherwise the odd part is zero.  The
    layers passed ``is_killing_structured``, so each is rewritten without a
    check of its own.  They are ints over the tensor's scale ``s``, so an
    entry ``v`` of layer ``i`` becomes one ``Fraction(v * 2^i, s)``, and the
    generators are the algebra's ``basis_fields``.  A target too large to
    evaluate raises ``EvaluationCapError`` before the layers are built, as
    its certificate could never be verified, and so does one whose
    certificate's trie levels must pass ``MAX_LEVEL_INDICES``
    (``LevelCapError``).
    """
    _check_evaluation_size(k.dim, k.degree)
    if k.terms:
        # every term descends from the degree in steps of 1 or 2 (a field or
        # the metric) to 1 or 2, so its levels hold at least the indices of
        # the cheapest such chain: that chain is what is counted and reported
        _check_level_size(k.dim, k.degree, range(k.degree, 0, -2))
    diag = alg.is_killing_structured(k)
    if not diag.is_killing:
        raise NotKillingError("; ".join(diag.failures), diagnosis=diag)
    fields = basis_fields(alg)
    right, s = fields.right, diag.layers.scale
    terms = []
    for (e, i), layer in sorted(diag.layers.nonzero.items()):  # the even layers first
        head = (fields.metric,) * i + (fields.left[0],) * e
        terms += [(Fraction(layer[mono] << i, s), head + tuple([right[j] for j in mono]))
                  for mono in sorted(layer)]
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


def _order_for_bound(log_norm: float, tol: float) -> int:
    """Smallest N with ``m^(N+1)/(N+1)! < tol/10`` for ``log_norm = ln m``,
    else ``_MAX_TERMS``, at which ``_fixed_series`` passes only a series
    that vanishes within ``dim`` terms."""
    if log_norm == -math.inf:
        return 1
    eps = tol / 10.0
    # at tol <= 2.5e-323 the quotient underflows to 0: its log is the difference
    log_eps = math.log(eps) if eps else math.log(tol) - math.log(10.0)
    for n in range(1, _MAX_TERMS):
        if (n + 1) * log_norm - math.lgamma(n + 2) < log_eps:
            return n
    return _MAX_TERMS


def _series_log10_gain(num: int, den: int, dim: int) -> float:
    """log10 of a bound on the gain of a pullback series at ``||ad_w||_1 =
    num/den`` (in lowest terms, positive): ``e^norm`` below the term cap.
    From ``norm >= _MAX_TERMS`` on the hump is past the cap even after
    rounding, so ``_fixed_series`` raises unless the series vanishes within
    ``dim`` terms, with gain at most ``sum_(k<=dim) norm^k/k! <= (dim + 1)
    norm^dim``: the working precision stays finite however large the
    structure constants are.  The floats are those of the ``Fraction``
    ``num/den``: ``float(norm)`` is ``num / den``."""
    if num < _MAX_TERMS * den:
        return num / den * _LOG10_E
    return math.log10(dim + 1) + dim * (math.log10(num) - math.log10(den))


def _log10_at_least_one(q) -> float:
    """``log10(max(1, |q|))`` for a rational ``q``, from its numerator and
    denominator: finite however large ``q`` is."""
    n, d = abs(q.numerator), q.denominator
    return math.log10(n) - math.log10(d) if n > d else 0.0


def _vector_log10(gen) -> float:
    """``_log10_at_least_one`` of the 1-norm of a field's vector, computed
    on first use and kept beside the fields, as the hash is: one field
    object recurs across the certificates of an algebra (``basis_fields``)."""
    size = gen.__dict__.get("_log10")
    if size is None:
        size = gen.__dict__["_log10"] = _log10_at_least_one(sum(map(abs, gen.vector)))
    return size


def _factor_log10_bound(gen, gain: float, dim: int) -> float:
    if isinstance(gen, Metric):
        return 0.0
    if isinstance(gen, LeftInvariant):
        return _vector_log10(gen)
    if isinstance(gen, RightInvariant):
        return gain + _vector_log10(gen)
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
    sample point.  The norm is exact (``ad_norm``: floats are exact
    rationals), on ints, so no float product can overflow; each log is
    taken of the numerator and denominator in lowest terms."""
    scale, norm = alg.ad_norm(w)
    if not norm:
        return -math.inf, 0.0
    g = math.gcd(norm, scale)
    num, den = norm // g, scale // g
    return math.log(num) - math.log(den), _series_log10_gain(num, den, alg.dim)


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


# Certificates verified on one algebra with the same samples share their
# sample points and generator values.  The memo keeps, with algebras compared
# by identity:
#
# * per sample set ``(algebra, samples, seed)``, the largest ``ln ||ad_w||_1``
#   and series gain over its points, which size the working precision; 64
#   sets, and no points: those are drawn again on a miss;
# * per block of at most ``_BLOCK`` of a set's points, generator, scale and
#   series order floor, one column: the generator's values at the block's
#   points.  256 values hold one algebra's batch (at most 200 on the
#   certify-batch benchmark) while bounding the memory of the big
#   fixed-point ints.  Certificates on one algebra share their generator
#   objects (``basis_fields``, and one object per distinct generator
#   document of a parsed certificate), whose hash is kept, so a lookup
#   hashes no vector and compares the generator by identity.
#
# A column holds at most ``_BLOCK`` points, so the memo keeps no more than
# 256 values whatever ``samples`` is.  The metric, left-invariant fields and
# right-invariant fields of central vectors are constant (``_varies``) and
# are not kept here: their value at the check's scale is kept beside the
# generator (``_constant_value``), and enters Horner's rule as one int per
# position for every point of a block (``_lanes``).  A sample set's
# bounds are read only for a certificate with a series factor on an algebra
# with a bracket, so a check of constant generators alone draws no point.  On an abelian algebra only derivation
# fields are columns.  The points of a block are prepared by
# ``_points`` once per check, on its first column miss, with the common
# power of two of its entries divided out (``strip``), and shared by the
# check's series generators: kept across checks, they saved 8 of 67 block
# preparations over two certify-batch rounds.  A block looks up its kernel
# once per run of points with one sparsity pattern, almost always once.
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
_MEMO_VALUES = 256
_MEMO_KERNELS = 1 << 13


class _SampleMemo:
    """The sampled check's memo, generator-major: a certificate looks up
    each distinct generator once per block of points, not once per point."""

    def __init__(self):
        self.sets = _LRU(_MEMO_SETS, lambda bounds: 1)
        self.columns = _LRU(_MEMO_VALUES, len)
        self.kernels = _LRU(_MEMO_KERNELS, lambda kernel: kernel.nonzeros + 16)

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
        block after another: one column per generator, its dense value at
        each point of the block.  ``points()`` draws the points, and is
        called only on a miss."""
        constant = {g: _constant_value(alg, g, shift) for g in generators if not _varies(alg, g)}
        for start in range(0, samples, _BLOCK):
            n = min(samples - start, _BLOCK)
            block = (alg, samples, seed, start)
            prepared = []  # the block's points at this scale, shared by the check's series

            def prepare():
                if not prepared:
                    prepared.extend(_points(alg, [_scaled(w, shift)
                                                  for w in points()[start:start + n]], shift))
                return prepared

            def column(g):
                if g in constant:
                    return (constant[g],) * n
                return self.columns.get(block + (g, shift, min_order), lambda: tuple(
                    map(tuple, _generator_values(alg, g, shift, prepare(), None, min_order))))

            yield [column(g) for g in generators]


_MEMO = _SampleMemo()


def _generator_fault(alg: MetricLieAlgebra, gen):
    """Why ``gen`` is not a Killing field of ``alg``, or None: a
    left-invariant field needs a vector ``x`` with skew ``ad_x``, a
    derivation field a skew derivation.  The metric and a right-invariant
    field always are one.  The answer depends on the algebra, so it is kept
    on the algebra, as ``basis_fields`` are, keyed weakly by the generator:
    it lives no longer than either of them."""
    if not isinstance(gen, (LeftInvariant, DerivationField)):
        return None
    faults = alg.__dict__.get("_generator_faults")
    if faults is None:
        faults = alg.__dict__.setdefault("_generator_faults", weakref.WeakKeyDictionary())
    fault = faults.get(gen, False)
    if fault is False:
        fault = None
        if isinstance(gen, LeftInvariant):
            if not alg.ad(gen.vector).is_skew():
                fault = "left-invariant field of a vector whose ad is not skew"
        else:
            full = gen.derivation.full_matrix()
            if not full.is_skew():
                fault = "derivation matrix is not skew"
            elif alg.derivation_residual(full.sparse()):
                fault = "matrix is not a derivation of the algebra"
        faults[gen] = fault
    return fault


def _check_generators(alg: MetricLieAlgebra, cert: Certificate, generators):
    """Raise ``GeneratorError``, naming the first factor that uses it, at a
    generator that is not a Killing field of ``alg`` (``_generator_fault``).
    ``generators`` are the certificate's distinct ones."""
    for gen in generators:
        fault = _generator_fault(alg, gen)
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
    ``PrecisionCapError``, and one whose samples times those digits times
    the factors of its longest term and its series generators pass
    ``MAX_SAMPLED_FACTOR_DIGITS`` raises ``SampledWorkCapError``, both
    before any series is summed.  Every factor must
    be a Killing field: a left-invariant field of a vector with skew ``ad``,
    or the field of a skew derivation, else ``GeneratorError``; the answer
    is kept on the algebra for the next check (``_generator_fault``).

    The certificate is compiled once (``CompiledCertificate``) and evaluated
    exactly at the origin (``_exact_sum``, from each generator's value kept
    there, ``_origin_value``) and in fixed point at the sample points, a
    block of at most ``_BLOCK`` at a time: the generator columns of the
    block, memoized across calls (``_SampleMemo``), are turned into lanes,
    one per point, with a constant generator one int per position (its value
    kept at the check's scale, ``_constant_value``), and the trie is walked
    once for the block
    (``_horner_lanes``).  Only a generator that varies with the point
    (``_varies``) reads the points, and the largest ``||ad_w||_1`` and gain
    over them are read only for a certificate with a series factor on an
    algebra with a bracket; otherwise they are those of ``w = 0``, which
    every point gives when ``ad_w = 0`` and which nothing reads without a
    series factor.  Each value is compared with the target, whose nonzero
    entries are converted once, lane by lane, or once for a position that
    is one int for the block; only the largest deviation becomes a float.

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
    ints, scale = _exact_sum(alg, compiled, None, 0)  # at the origin
    dense = cert.target.dense()
    exact0 = all(v * t.denominator == t.numerator * scale for v, t in zip(ints, dense) if v or t)
    _check_generators(alg, cert, compiled.generators)
    varies = [_varies(alg, g) for g in compiled.generators]
    drawn = []

    def points():  # drawn on a memo miss only, and then once
        if not drawn:
            drawn.append(sample_points(dim, samples, seed))
        return drawn[0]

    series = sum(isinstance(g, _SERIES) for g in compiled.generators)
    # ad_w = 0 at every point of a bracket-free algebra, and without a series
    # the bounds are not read: either way they are those of w = 0
    log_norm, gain = (_MEMO.bounds(alg, samples, seed, points) if series and alg.ad_forms
                      else (-math.inf, 0.0))
    digits = _working_digits(cert, gain, dim, tol)
    factors = max((len(fs) for _, fs in cert.terms), default=0) + series
    if samples * digits * factors > MAX_SAMPLED_FACTOR_DIGITS:
        raise SampledWorkCapError(samples, digits, factors)
    min_order = max(order_floor, _order_for_bound(log_norm, tol))
    shift = _fixed_shift(dim, _dps_to_prec(digits))
    target = [t and _to_fixed(t, shift) for t in dense]
    coeffs = _scaled(compiled.coefficients, shift)
    worst = 0
    for columns in _MEMO.blocks(alg, compiled.generators, samples, seed, points, shift,
                                min_order):
        out = _horner_lanes(compiled.nodes, _lanes(columns, varies), coeffs, shift)
        for v, t in zip(out, target):
            if type(v) is tuple:
                worst = max(worst, max(map(abs, map(sub, v, repeat(t)))))
            elif v is not None or t:
                worst = max(worst, abs((v or 0) - t))
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
