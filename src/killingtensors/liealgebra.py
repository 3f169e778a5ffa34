"""Metric Lie algebras: structure constants, the Levi-Civita connection, the
algebraic Killing operator, and the brute-force Killing-space solver that
serves as the oracle for all structured computations.

The nonzero structure constants are kept once more as integers over their
common denominator (``int_structure``, ``denominator``).  The Killing
operator and both exact solvers feed them to ``tensors.replace_factor``, so
a solver's columns are integer dicts built without ``SymTensor`` products or
``Fraction`` arithmetic."""
from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .exactlinalg import basis_vec, frac, nullspace
from .tensors import (SymTensor, Endomorphism, apply_derivation, basis_monomials,
                      replace_factor)

_ZERO = Fraction(0)


class SolverCapError(ValueError):
    """A brute-force solve past its degree or dimension cap."""

    def __init__(self, degree: int, dim: int, degree_cap: int, dim_cap: int):
        self.limits = (f"degree {degree} / dimension {dim} exceed the brute-force caps "
                       f"(degree {degree_cap}, dimension {dim_cap})")
        super().__init__(self.limits + "; raise them explicitly if you mean it")


@dataclass(frozen=True)
class KillingSpace:
    """Space of Killing tensors of one degree, basis in reduced echelon form
    over the lexicographic monomial coordinates."""

    degree: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


class MetricLieAlgebra:
    """Lie algebra with structure constants in a declared orthonormal basis.

    ``structure[i][j][k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``.
    Antisymmetry and the Jacobi identity are validated exactly at
    construction.  Instances are immutable; all operations are pure.
    """

    def __init__(self, structure):
        c = tuple(tuple(tuple(frac(x) for x in row) for row in plane) for plane in structure)
        n = len(c)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in c):
            raise ValueError("structure constants must form an n*n*n array")
        self.structure = c
        self.dim = n
        # (i, j, k, c) for every nonzero c = structure[i][j][k], in the order i, j, k
        self.nonzero_structure = tuple((i, j, k, x) for i, plane in enumerate(c)
                                       for j, row in enumerate(plane)
                                       for k, x in enumerate(row) if x != 0)
        # the same constants as ints over their common denominator, keyed by
        # the factor e_j they replace: int_structure[j] lists ((i, k), denominator * c_ijk)
        den = self.denominator = lcm(*(x.denominator for *_, x in self.nonzero_structure))
        subs = [[] for _ in range(n)]
        for i, j, k, x in self.nonzero_structure:
            subs[j].append(((i, k), x.numerator * (den // x.denominator)))
        self.int_structure = tuple(map(tuple, subs))
        self._ad_basis = None
        self._nabla_basis = None
        self._validate()

    def _validate(self):
        c = self.structure
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if c[i][j][k] != -c[j][i][k]:
                        raise ValueError(f"structure constants not antisymmetric at ({i},{j},{k})")
        # Jacobi on (i, a, b) is the derivation identity of ad_{e_i} on (a, b);
        # at the first failing i every failing triple has i as its least index
        ad = [{} for _ in range(n)]
        for i, j, k, x in self.nonzero_structure:
            ad[i][k, j] = x
        for i in range(n):
            residual = self.derivation_residual(ad[i])
            if residual:
                a, b, _ = min(residual)
                raise ValueError(f"Jacobi identity fails on basis triple ({i},{a},{b})")

    @classmethod
    def abelian(cls, dim: int) -> "MetricLieAlgebra":
        return cls(tuple(tuple(tuple(_ZERO for _ in range(dim)) for _ in range(dim))
                         for _ in range(dim)))

    def bracket(self, x, y):
        out = dict.fromkeys(range(self.dim), _ZERO)
        for i, j, k, c in self.nonzero_structure:
            out[k] += x[i] * y[j] * c
        return tuple(out.values())

    def derivation_residual(self, t: dict) -> dict:
        """Nonzero entries of ``T[e_a,e_b] - [T e_a,e_b] - [e_a,T e_b]`` for
        ``a < b``, keyed ``(a, b, k)`` by the component ``k``, summed over the
        nonzero structure constants.  ``t`` maps ``(row, column)`` to the
        nonzero entries of ``T``; ``T`` is a derivation exactly when the
        result is empty."""
        rows, cols = defaultdict(list), defaultdict(list)
        for (r, s), x in t.items():
            rows[r].append((s, x))
            cols[s].append((r, x))
        out = defaultdict(Fraction)
        for i, j, k, c in self.nonzero_structure:
            if i < j:  # T[e_i,e_j] takes c_ijk T e_k
                for r, x in cols[k]:
                    out[i, j, r] += c * x
            for a, x in rows[i]:  # [T e_a,e_j] takes T_ia c_ijk e_k
                if a < j:
                    out[a, j, k] -= x * c
            for b, x in rows[j]:  # [e_i,T e_b] takes T_jb c_ijk e_k
                if i < b:
                    out[i, b, k] -= x * c
        return {key: v for key, v in out.items() if v}

    def ad_rows(self, x, times) -> list:
        """Rows of ``ad_x = [x, .]`` as ``(column, entry)`` pairs of the nonzero
        entries: entry ``(k, j)`` sums ``times(c_ijk, x_i)`` over the nonzero
        structure constants, in the order of i.  ``times`` is ``operator.mul``
        for exact or float ``x``; the pullback series pass a fixed-point
        product."""
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for i, j, k, c in self.nonzero_structure:
            if x[i]:
                rows[k][j] += times(c, x[i])
        return [[(j, a) for j, a in enumerate(row) if a] for row in rows]

    def ad(self, x) -> Endomorphism:
        """Adjoint map ``ad_x`` as a dense matrix, built from ``ad_rows``."""
        return Endomorphism(tuple(tuple(dict(row).get(j, _ZERO) for j in range(self.dim))
                                  for row in self.ad_rows(x, mul)))

    def ad_basis(self, i: int) -> Endomorphism:
        """``ad`` of the i-th basis vector, built once per algebra."""
        if self._ad_basis is None:
            self._ad_basis = tuple(self.ad(basis_vec(self.dim, t)) for t in range(self.dim))
        return self._ad_basis[i]

    def ad_star(self, x) -> Endomorphism:
        """Metric adjoint of ``ad_x``; transpose in the orthonormal basis."""
        return self.ad(x).transpose()

    def nabla(self, y, x):
        """Levi-Civita connection of the left-invariant metric:
        ``nabla_y x = (1/2)(ad_y x - ad_y^* x - ad_x^* y)``."""
        ady = self.ad(y)
        adx = self.ad(x)
        t1 = ady.apply(x)
        t2 = ady.transpose().apply(x)
        t3 = adx.transpose().apply(y)
        return tuple((a - b - c) / 2 for a, b, c in zip(t1, t2, t3))

    def nabla_basis(self, i: int) -> Endomorphism:
        """Matrix of covariant differentiation in the i-th basis direction."""
        if self._nabla_basis is None:
            mats = []
            for t in range(self.dim):
                et = basis_vec(self.dim, t)
                cols = [self.nabla(et, basis_vec(self.dim, j)) for j in range(self.dim)]
                rows = tuple(tuple(cols[j][k] for j in range(self.dim)) for k in range(self.dim))
                mats.append(Endomorphism(rows))
            self._nabla_basis = tuple(mats)
        return self._nabla_basis[i]

    def killing_operator(self, k: SymTensor) -> SymTensor:
        """Algebraic Killing operator ``sum_i e_i * ad_{e_i}(k)``; a tensor is
        Killing exactly when this vanishes.  Each factor ``e_j`` goes to
        ``sum c_ijk e_i e_k`` (``replace_factor`` over ``int_structure``),
        divided once by ``denominator``."""
        if k.dim != self.dim:
            raise ValueError("dimension mismatch")
        inv = Fraction(1, self.denominator)
        out = replace_factor(k.terms, self.int_structure)
        return SymTensor(self.dim, k.degree + 1, {m: v * inv for m, v in out.items()})

    def killing_operator_via_nabla(self, k: SymTensor) -> SymTensor:
        """Same operator through the connection, ``sum_i e_i * nabla_{e_i} k``.

        Kept as an independent cross-check of :meth:`killing_operator`.
        """
        if k.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = SymTensor.zero(self.dim, k.degree + 1)
        for i in range(self.dim):
            t = apply_derivation(self.nabla_basis(i), k)
            if not t.is_zero():
                out = out + SymTensor.basis(self.dim, i) * t
        return out

    def killing_space_bruteforce(self, p: int, *, degree_cap: int = 8,
                                 dim_cap: int = 6) -> KillingSpace:
        """Exact nullspace of the Killing operator on the full symmetric power.

        The operator's image of each monomial, times ``denominator`` (which
        leaves the kernel alone), is one sparse integer column of the exact
        solve.  Desk-scale guard rails: raise past the caps, warn when the
        column count gets out of hand.
        """
        if p < 0:
            raise ValueError("degree must be nonnegative")
        if p > degree_cap or self.dim > dim_cap:
            raise SolverCapError(p, self.dim, degree_cap, dim_cap)
        monos = basis_monomials(self.dim, p)
        if len(monos) > 100_000:
            warnings.warn(f"symmetric power has {len(monos)} monomials; this will be slow")
        kernel = nullspace({m: replace_factor({m: 1}, self.int_structure) for m in monos})
        return KillingSpace(p, tuple(SymTensor(self.dim, p, v) for v in kernel))
