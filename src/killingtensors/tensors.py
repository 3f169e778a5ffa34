"""Symmetric tensor algebra over an inner-product space with a fixed orthonormal basis.

A ``SymTensor`` is a sparse homogeneous polynomial in the basis symbols
``e_0 .. e_{dim-1}``: a map from sorted index tuples (monomials, repetitions
allowed) to coefficients.  A stored monomial stands for the fully
permutation-symmetrized tensor, so the product is plain commutative
polynomial multiplication; the symmetrization convention only surfaces in
the extended inner product, where a monomial with index multiplicities
``m_i`` has squared norm ``prod_i m_i!``.

Every derivation-type map is one loop, ``replace_factor``, on plain
``{monomial: coefficient}`` dicts: the action of a matrix
(``apply_derivation``) and the Killing operator.  The exact solvers'
equations, its images of single monomials, come from
``replace_factor_rows`` as integer rows, one per image monomial, keyed by
the position of each unknown's monomial as the cached position tables give
it: the ints that ``exactlinalg.integer_kernel`` eliminates, with no
monomial built.  The solvers key only their results by monomial, and
build their bases with ``SymTensor._unchecked``, which trusts the
monomials of those tables; ``SymTensor(...)`` checks every monomial a
caller supplies.  Every product is one loop too,
``multiply_terms`` on the same dicts: ``sym_mul`` and the integer products
of the structured solver and of the layer decomposition.

Coefficients are exact ``Fraction`` values throughout, sampled values
included: a value summed in fixed point comes back as the dyadic
``Fraction`` it was rounded to.  The arithmetic is coefficient-agnostic,
so other number types pass through; exactness holds for rationals only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .exactlinalg import basis_vec, frac
from .limits import MAX_POSITION_TABLES

_ZERO = Fraction(0)


def _coeff(x):
    # ints become exact; Fractions and any other numbers stay
    return Fraction(x) if isinstance(x, int) else x


def sym_dimension(dim: int, degree: int) -> int:
    """Dimension of the degree-``degree`` symmetric power of an n-space."""
    return comb(dim + degree - 1, degree)


def basis_monomials(dim: int, degree: int):
    """All sorted index tuples of the given length, in lexicographic order."""
    return list(combinations_with_replacement(range(dim), degree))


@lru_cache(maxsize=MAX_POSITION_TABLES)
def monomial_positions(dim: int, degree: int) -> dict:
    """Position of each basis monomial in ``basis_monomials(dim, degree)``;
    the keys iterate in that order.  Shared: do not modify."""
    return {m: k for k, m in enumerate(combinations_with_replacement(range(dim), degree))}


@lru_cache(maxsize=MAX_POSITION_TABLES)
def product_positions(dim: int, d: int, e: int) -> tuple:
    """``table[i][j]``: position of the product of the degree-``d`` monomial at
    position ``i`` and the degree-``e`` monomial at position ``j`` among the
    degree ``d + e`` monomials.  Built on first use per ``(dim, d, e)``."""
    out = monomial_positions(dim, d + e)
    return tuple(tuple(out[tuple(sorted(a + b))] for b in monomial_positions(dim, e))
                 for a in monomial_positions(dim, d))


@dataclass(frozen=True)
class SymTensor:
    """Homogeneous symmetric tensor: sparse monomial-to-coefficient map.
    Zero coefficients are dropped, so equal tensors have equal ``terms``."""

    dim: int
    degree: int
    terms: dict

    def __post_init__(self):
        for mono in self.terms:
            if len(mono) != self.degree:
                raise ValueError(f"monomial {mono} has wrong degree, expected {self.degree}")
            if mono and (min(mono) < 0 or max(mono) >= self.dim):
                raise ValueError(f"monomial {mono} out of range for dim {self.dim}")
            if tuple(sorted(mono)) != mono:
                raise ValueError(f"monomial {mono} not sorted")
        if not all(self.terms.values()):
            object.__setattr__(self, "terms", {m: c for m, c in self.terms.items() if c})

    @classmethod
    def _unchecked(cls, dim, degree, terms) -> "SymTensor":
        """The tensor of ``terms`` that a solver keyed by the monomials of
        its own position tables, sorted, in range and of the degree, with
        nonzero coefficients: built without checking each monomial again."""
        t = object.__new__(cls)
        vars(t).update(dim=dim, degree=degree, terms=terms)
        return t

    @classmethod
    def build(cls, dim, degree, items) -> "SymTensor":
        """Normalize an iterable or mapping of (monomial, coefficient) pairs."""
        acc = {}
        pairs = items.items() if isinstance(items, dict) else items
        for mono, c in pairs:
            key = tuple(sorted(mono))
            acc[key] = acc.get(key, _ZERO) + _coeff(c)
        return cls(dim, degree, acc)

    @classmethod
    def zero(cls, dim, degree) -> "SymTensor":
        return cls(dim, degree, {})

    @classmethod
    def unit(cls, dim) -> "SymTensor":
        """The constant 1 in degree 0."""
        return cls(dim, 0, {(): Fraction(1)})

    @classmethod
    def basis(cls, dim, i) -> "SymTensor":
        return cls(dim, 1, {(i,): Fraction(1)})

    @classmethod
    def monomial(cls, dim, indices, coefficient=1) -> "SymTensor":
        key = tuple(sorted(indices))
        return cls(dim, len(key), {key: _coeff(coefficient)})

    @classmethod
    def from_vector(cls, dim, components) -> "SymTensor":
        return cls(dim, 1, {(i,): _coeff(c) for i, c in enumerate(components)})

    @classmethod
    def from_dense(cls, dim, degree, values) -> "SymTensor":
        """Inverse of ``dense``: coefficients listed by monomial position."""
        return cls(dim, degree, dict(zip(monomial_positions(dim, degree), values)))

    def dense(self) -> list:
        """Coefficients listed by monomial position (``monomial_positions``),
        with 0 for absent monomials."""
        out = [0] * sym_dimension(self.dim, self.degree)
        positions = monomial_positions(self.dim, self.degree)
        for m, c in self.terms.items():
            out[positions[m]] = c
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, _ZERO) + c
        return SymTensor(self.dim, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymTensor(self.dim, self.degree, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = _coeff(c)
        return SymTensor(self.dim, self.degree, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymTensor):
            return sym_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = SymTensor.unit(self.dim)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            sym = "*".join(f"e{i}" for i in mono) if mono else "1"
            bits.append(f"({c})*{sym}")
        return " + ".join(bits)


@dataclass(frozen=True)
class Endomorphism:
    """Exact square matrix in the orthonormal basis, column convention
    ``E(e_j) = sum_i entries[i][j] e_i``."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if any(len(r) != n for r in self.entries):
            raise ValueError("matrix not square")

    @classmethod
    def from_rows(cls, rows) -> "Endomorphism":
        return cls(tuple(tuple(frac(x) for x in r) for r in rows))

    @classmethod
    def zero(cls, n) -> "Endomorphism":
        return cls(tuple((_ZERO,) * n for _ in range(n)))

    @classmethod
    def identity(cls, n) -> "Endomorphism":
        return cls(tuple(basis_vec(n, i) for i in range(n)))

    @classmethod
    def diagonal(cls, values) -> "Endomorphism":
        vals = [frac(v) for v in values]
        n = len(vals)
        return cls(tuple(tuple(vals[i] if i == j else _ZERO for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def apply(self, v):
        return tuple(sum((a * b for a, b in zip(row, v)), _ZERO) for row in self.entries)

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Endomorphism":
        return Endomorphism(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other):
        return Endomorphism(tuple(tuple(a + b for a, b in zip(r, s))
                                  for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Endomorphism(tuple(tuple(-a for a in r) for r in self.entries))

    def __mul__(self, c):
        c = frac(c)
        return Endomorphism(tuple(tuple(c * a for a in r) for r in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "Endomorphism") -> "Endomorphism":
        cols = other.transpose().entries
        return Endomorphism(tuple(tuple(sum((a * b for a, b in zip(row, col)), _ZERO)
                                        for col in cols) for row in self.entries))

    def symmetric_part(self) -> "Endomorphism":
        t = self.transpose()
        return Endomorphism(tuple(tuple((a + b) / 2 for a, b in zip(r, s))
                                  for r, s in zip(self.entries, t.entries)))

    def is_skew(self) -> bool:
        return self == -self.transpose()

    def sparse(self) -> dict:
        """The nonzero entries, keyed ``(row, column)``."""
        return {(i, j): a for i, row in enumerate(self.entries) for j, a in enumerate(row) if a}


def multiply_terms(a: dict, b: dict) -> dict:
    """Product of two ``{monomial: coefficient}`` maps, over their nonzero
    terms: monomials merge as multisets and only nonzero coefficients stay.
    The coefficients may be ints (which stay ints), ``Fraction``s or any
    other numbers."""
    out = {}
    for ma, x in a.items():
        for mb, y in b.items():
            m = tuple(sorted(ma + mb))
            out[m] = out.get(m, 0) + x * y
    return {m: v for m, v in out.items() if v}


def sym_mul(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric (commutative) product, ``multiply_terms`` of the terms."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return SymTensor(a.dim, a.degree + b.degree, multiply_terms(a.terms, b.terms))


def monomial_norm(mono) -> int:
    """Squared norm of a basis monomial: product of index-multiplicity factorials."""
    n = 1
    run = 1
    for t in range(1, len(mono)):
        run = run + 1 if mono[t] == mono[t - 1] else 1
        n *= run
    return n


def inner(a: SymTensor, b: SymTensor):
    """Extended inner product.  Distinct monomials are orthogonal, and
    ``<e_I, e_I> = prod_i m_i!`` for index multiplicities ``m_i``."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    total = _ZERO
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for mono, ca in small.items():
        cb = big.get(mono)
        if cb is not None:
            total += ca * cb * monomial_norm(mono)
    return total


def replace_factor(terms: dict, subs) -> dict:
    """The derivation-type map that sends each factor ``e_a`` of a monomial,
    one at a time, to ``sum c * e_extra`` over the ``(extra, c)`` pairs of
    ``subs[a]`` (``extra`` a tuple of indices): the nonzero terms of the image
    of ``terms``, a ``{monomial: coefficient}`` map.  A factor of
    multiplicity ``m`` is replaced once and the result counted ``m`` times.

    ``extra = (i,)`` gives the action of a matrix; ``extra = (i, k)`` with the
    structure constants ``c_iak`` gives the Killing operator.  The
    coefficients may be ints, ``Fraction``s or floats alike.
    """
    out = {}
    for mono, c in terms.items():
        for pos, a in enumerate(mono):
            if (pos and mono[pos - 1] == a) or not subs[a]:
                continue  # monomials are sorted: the first of a run stands for all
            base = mono[:pos] + mono[pos + 1:]
            cm = c * mono.count(a)
            for extra, x in subs[a]:
                key = tuple(sorted(base + extra))
                out[key] = out.get(key, 0) + cm * x
    return {m: v for m, v in out.items() if v}


def replace_factor_rows(subs, degree: int, indices=None) -> list:
    """The exact solvers' equations: the nonzero rows of the matrix whose
    column ``u`` is ``replace_factor({m_u: 1}, subs)``, for ``m_u`` the
    monomial at position ``u`` among the degree-``degree`` monomials in the
    increasing ``indices`` (by default all ``len(subs)`` of them), in
    lexicographic order.  Each row, one per image monomial, is a ``{u:
    coefficient}`` dict of its nonzero entries, in the order of the image
    monomials' positions.  The extras of ``subs`` at ``indices`` have one
    length ``e`` and their indices among ``indices``.

    The positions come from the cached tables of ``monomial_positions(r,
    degree - 1 + e)``, with the ``r`` indices numbered ``0 .. r-1``, so no
    monomial is built or sorted.  Each monomial of degree ``degree - 1`` (a
    rest) times a factor ``e_a`` is the monomial of an unknown
    (``product_positions(r, degree - 1, 1)``), and the rest times an extra
    of ``a`` is an image monomial of that unknown, the row it enters
    (``product_positions(r, degree - 1, e)``), counted with the multiplicity
    of ``a`` in the unknown's monomial."""
    indices = range(len(subs)) if indices is None else indices
    lengths = {len(extra) for i in indices for extra, _ in subs[i]}
    if not degree or not lengths:
        return []
    (e,) = lengths
    number = {i: t for t, i in enumerate(indices)}
    r = len(number)
    extra_at = monomial_positions(r, e)
    local = [[(extra_at[tuple(sorted(number[t] for t in extra))], x) for extra, x in subs[i]]
             for i in indices]
    rows = [{} for _ in range(sym_dimension(r, degree - 1 + e))]
    table, times = product_positions(r, degree - 1, e), product_positions(r, degree - 1, 1)
    for b, rest in enumerate(monomial_positions(r, degree - 1)):
        images, at = table[b], times[b]
        for a, pairs in enumerate(local):
            if pairs:
                u = at[a]
                cm = rest.count(a) + 1
                for j, x in pairs:
                    row = rows[images[j]]
                    row[u] = row.get(u, 0) + cm * x
    return [nonzero for row in rows if (nonzero := {u: v for u, v in row.items() if v})]


def apply_derivation(e: Endomorphism, k: SymTensor) -> SymTensor:
    """Derivation action of an endomorphism (``replace_factor`` with
    ``e_j -> E(e_j)``).

    Degree is preserved; the action is zero on degree 0 and satisfies the
    Leibniz rule with respect to the symmetric product.
    """
    if e.dim != k.dim:
        raise ValueError("dimension mismatch")
    subs = [[] for _ in range(e.dim)]
    for (i, j), a in e.sparse().items():
        subs[j].append(((i,), a))
    return SymTensor(k.dim, k.degree, replace_factor(k.terms, subs))


def sym2_from_endo(e: Endomorphism) -> SymTensor:
    """The symmetric 2-tensor ``(1/2) sum_j E(e_j)*e_j``.

    Depends only on the symmetric part of E; skew matrices map to zero.
    """
    out = {}
    n = e.dim
    for j in range(n):
        for i in range(n):
            a = e.entries[i][j]
            if a != 0:
                key = (i, j) if i <= j else (j, i)
                out[key] = out.get(key, _ZERO) + a / 2
    return SymTensor(n, 2, out)


def sum_of_squares(dim: int, indices=None) -> SymTensor:
    """``sum_i e_i*e_i`` over the given indices (all of them by default).

    Over the full basis this is twice the metric tensor.
    """
    idx = range(dim) if indices is None else indices
    return SymTensor(dim, 2, {(i, i): Fraction(1) for i in idx})

