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
(``apply_derivation``), the Killing operator and the columns of both exact
solvers.

Coefficients are exact ``Fraction`` values throughout the core.  The same
container also carries float/mpf coefficients on the numeric sampling paths
(the arithmetic is coefficient-agnostic); exactness guarantees apply to the
rational case only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .exactlinalg import basis_vec, frac, rref_span

Monomial = tuple

_ZERO = Fraction(0)


def _coeff(x):
    # ints become exact; Fractions stay; floats/mpf pass through for sampling
    return Fraction(x) if isinstance(x, int) else x


def sym_dimension(dim: int, degree: int) -> int:
    """Dimension of the degree-``degree`` symmetric power of an n-space."""
    return comb(dim + degree - 1, degree)


def basis_monomials(dim: int, degree: int):
    """All sorted index tuples of the given length, in lexicographic order."""
    return list(combinations_with_replacement(range(dim), degree))


@lru_cache(maxsize=None)
def monomial_positions(dim: int, degree: int) -> dict:
    """Position of each basis monomial in ``basis_monomials(dim, degree)``;
    the keys iterate in that order.  Shared: do not modify."""
    return {m: k for k, m in enumerate(combinations_with_replacement(range(dim), degree))}


@lru_cache(maxsize=None)
def product_positions(dim: int, d: int, e: int) -> tuple:
    """``table[i][j]``: position of the product of the degree-``d`` monomial at
    position ``i`` and the degree-``e`` monomial at position ``j`` among the
    degree ``d + e`` monomials.  Built on first use per ``(dim, d, e)``."""
    out = monomial_positions(dim, d + e)
    return tuple(tuple(out[tuple(sorted(a + b))] for b in monomial_positions(dim, e))
                 for a in monomial_positions(dim, d))


@dataclass(frozen=True)
class SymTensor:
    """Homogeneous symmetric tensor: sparse monomial-to-coefficient map."""

    dim: int
    degree: int
    terms: dict

    def __post_init__(self):
        for mono in self.terms:
            if len(mono) != self.degree:
                raise ValueError(f"monomial {mono} has wrong degree, expected {self.degree}")
            if any(not (0 <= i < self.dim) for i in mono):
                raise ValueError(f"monomial {mono} out of range for dim {self.dim}")
            if tuple(sorted(mono)) != mono:
                raise ValueError(f"monomial {mono} not sorted")

    @classmethod
    def build(cls, dim, degree, items) -> "SymTensor":
        """Normalize an iterable or mapping of (monomial, coefficient) pairs."""
        acc = {}
        pairs = items.items() if isinstance(items, dict) else items
        for mono, c in pairs:
            key = tuple(sorted(mono))
            acc[key] = acc.get(key, _ZERO) + _coeff(c)
        return cls(dim, degree, {k: v for k, v in acc.items() if v != 0})

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
        c = _coeff(coefficient)
        key = tuple(sorted(indices))
        return cls(dim, len(key), {key: c} if c != 0 else {})

    @classmethod
    def from_vector(cls, dim, components) -> "SymTensor":
        terms = {(i,): _coeff(c) for i, c in enumerate(components) if c != 0}
        return cls(dim, 1, terms)

    @classmethod
    def from_dense(cls, dim, degree, values) -> "SymTensor":
        """Inverse of ``dense``: coefficients listed by monomial position."""
        return cls(dim, degree, {m: c for m, c in zip(monomial_positions(dim, degree), values)
                                 if c != 0})

    def dense(self) -> list:
        """Coefficients listed by monomial position (``monomial_positions``),
        with 0 for absent monomials."""
        out = [0] * sym_dimension(self.dim, self.degree)
        positions = monomial_positions(self.dim, self.degree)
        for m, c in self.terms.items():
            out[positions[m]] = c
        return out

    def coeff(self, indices):
        return self.terms.get(tuple(sorted(indices)), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self):
        """Set of basis indices that appear in some monomial."""
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def vector(self):
        """Components of a degree-1 tensor."""
        if self.degree != 1:
            raise ValueError("vector() requires degree 1")
        return tuple(self.terms.get((i,), _ZERO) for i in range(self.dim))

    def __add__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, _ZERO) + c
            if s != 0:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return SymTensor(self.dim, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymTensor(self.dim, self.degree, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = _coeff(c)
        if c == 0:
            return SymTensor.zero(self.dim, self.degree)
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

    def skew_part(self) -> "Endomorphism":
        t = self.transpose()
        return Endomorphism(tuple(tuple((a - b) / 2 for a, b in zip(r, s))
                                  for r, s in zip(self.entries, t.entries)))

    def is_skew(self) -> bool:
        return self == -self.transpose()

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_invertible(self) -> bool:
        """Full rank: the rows span a space of dimension ``dim``."""
        return len(rref_span([{j: a for j, a in enumerate(row) if a}
                              for row in self.entries])) == self.dim

    def sparse(self) -> dict:
        """The nonzero entries, keyed ``(row, column)``."""
        return {(i, j): a for i, row in enumerate(self.entries) for j, a in enumerate(row) if a}


def sym_mul(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric (commutative) product; monomials merge as multisets."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = tuple(sorted(ma + mb))
            s = out.get(key, _ZERO) + ca * cb
            out[key] = s
    return SymTensor(a.dim, a.degree + b.degree, {k: v for k, v in out.items() if v != 0})


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
    return SymTensor(n, 2, {m: v for m, v in out.items() if v != 0})


def endo_from_sym2(k: SymTensor) -> Endomorphism:
    """Inverse of ``sym2_from_endo`` on symmetric matrices: the monomial
    ``e_i*e_j`` maps to ``x -> g(x,e_i) e_j + g(x,e_j) e_i``."""
    if k.degree != 2:
        raise ValueError("degree must be 2")
    n = k.dim
    return Endomorphism(tuple(tuple(k.coeff((i, j)) * (2 if i == j else 1) for j in range(n))
                              for i in range(n)))


def act_group(a: Endomorphism, k: SymTensor) -> SymTensor:
    """Multiplicative action of an invertible map: apply it to every factor."""
    if a.dim != k.dim:
        raise ValueError("dimension mismatch")
    if not a.is_invertible():
        raise ValueError("matrix is singular")
    cols = [SymTensor.from_vector(a.dim, a.column(j)) for j in range(a.dim)]
    total = SymTensor.zero(k.dim, k.degree)
    for mono, c in k.terms.items():
        acc = SymTensor.monomial(k.dim, (), c)
        for idx in mono:
            acc = acc * cols[idx]
        total = total + acc
    return total


def exp_action(d: Endomorphism, gamma, k: SymTensor, order=None) -> SymTensor:
    """Exponentiated derivation ``sum_j (-gamma)^j / j! d^j(k)``.

    With ``order=None`` the series must terminate exactly (it does whenever d
    is nilpotent); otherwise it is truncated after ``order`` terms.  Equals
    the multiplicative action of the matrix exponential of ``-gamma*d``.
    """
    gamma = _coeff(gamma)
    acc = k
    term = k
    # if the series has not terminated within the Krylov dimension it never will
    cap = sym_dimension(k.dim, k.degree) + 1
    j = 1
    while True:
        if order is not None and j > order:
            break
        term = apply_derivation(d, term) * (Fraction(-1, j) * gamma)
        if term.is_zero():
            break
        if order is None and j > cap:
            raise ValueError("derivation series does not terminate; pass a truncation order")
        acc = acc + term
        j += 1
    return acc


def sum_of_squares(dim: int, indices=None) -> SymTensor:
    """``sum_i e_i*e_i`` over the given indices (all of them by default).

    Over the full basis this is twice the metric tensor.
    """
    idx = range(dim) if indices is None else indices
    return SymTensor(dim, 2, {(i, i): Fraction(1) for i in idx})

