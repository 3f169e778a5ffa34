"""Metric Lie algebras: structure constants, the Levi-Civita connection, the
algebraic Killing operator, the skew derivations, and the brute-force
Killing-space solver that serves as the oracle for all structured
computations.

The nonzero structure constants are kept once, as integers over their
common denominator (``int_structure``, ``denominator``); ``structure`` is
a dense view of them.  Validation, ``derivation_residual`` (whose kernel
over the skew matrices is ``skew_derivation_basis``), the Killing operator
and both exact solvers read them (the solvers through
``tensors.replace_factor_rows``, whose integer equations keep the
kernel) and divide by the denominator once at the end, if at all.  The
same integers, grouped by entry of ``ad_w`` (``ad_forms``), give ``ad_w``
in one integer pass per point, ``ad_walk``: exactly at a point scaled to
ints (``ad_exact``, which serves ``ad`` and the exact pullback), and in
the fixed point of the sampled pullback; ``ad_norm`` walks them for the
1-norm alone, which sizes the sampled check, and the columns they never
list are ``central_columns``."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from .exactlinalg import basis_vec, frac, integer_kernel, nullspace
from .limits import (BRUTE_FORCE_MAX_DEGREE, BRUTE_FORCE_MAX_DIM, DERIVATION_DIM_CAP,
                     MAX_DIMENSION, DerivationCapError, DimensionCapError, SolverCapError)
from .tensors import (SymTensor, Endomorphism, apply_derivation, monomial_positions,
                      replace_factor, replace_factor_rows)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class KillingSpace:
    """Space of Killing tensors of one degree, basis in reduced echelon form
    over the lexicographic monomial coordinates."""

    degree: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _integer_point(x) -> tuple:
    """``(q, v)``: a point of exact rationals scaled to ints ``v`` by the lcm
    ``q`` of their denominators."""
    ratios = [c.as_integer_ratio() for c in x]
    q = lcm(*(d for _, d in ratios))
    return q, [a * (q // d) for a, d in ratios]


class MetricLieAlgebra:
    """Lie algebra with structure constants in a declared orthonormal basis.

    ``constants`` maps ``(i, j, k)`` to the coefficient of ``e_k`` in
    ``[e_i, e_j]``, absent keys to 0; past ``MAX_DIMENSION`` it raises
    ``DimensionCapError``, and antisymmetry and the Jacobi identity are
    validated exactly.  Instances are immutable; all operations are pure.
    """

    def __init__(self, dim: int, constants: dict):
        if dim > MAX_DIMENSION:
            raise DimensionCapError(dim)
        for key in constants:
            if not (type(key) is tuple and len(key) == 3
                    and all(type(i) is int and 0 <= i < dim for i in key)):
                raise ValueError(f"key {key!r} is not a triple of indices in range({dim})")
        self.dim = dim
        self._keep_constants([(*key, x) for key, v in sorted(constants.items()) if (x := frac(v))])
        self._validate()

    def _keep_constants(self, nonzero: list):
        """Keep the nonzero constants ``(i, j, k, c_ijk)``, given in key
        order, as ints over their common denominator, by factor and by entry
        of ``ad_w``, for the dimension ``self.dim``."""
        # int_structure[j] lists ((i, k), denominator * c_ijk), keyed by the
        # factor e_j they replace
        den = self.denominator = lcm(*(x.denominator for *_, x in nonzero))
        # entry (k, j) of L·ad_w is the integer linear form sum C·w_i over the
        # pairs (i, C = L·c_ijk): ad_forms lists, for each row k that has one,
        # (k, ((j, ((i, C), ...)), ...)) with the columns j in order
        subs = [[] for _ in range(self.dim)]
        forms = {}
        for i, j, k, x in nonzero:
            scaled = x.numerator * (den // x.denominator)
            subs[j].append(((i, k), scaled))
            forms.setdefault(k, {}).setdefault(j, []).append((i, scaled))
        self.int_structure = tuple(map(tuple, subs))
        self.ad_forms = tuple((k, tuple((j, tuple(forms[k][j])) for j in sorted(forms[k])))
                              for k in sorted(forms))

    def _validate(self):
        """Antisymmetry, then the Jacobi identity, exactly, on the ints of
        ``int_structure``.  Each entry looks up its mirror ``C_jik``, and a
        failure at ``(i, j, k)`` or ``(j, i, k)`` is reported as the triple
        with ``i <= j``, the least one of all."""
        c = {(i, j, k): x for j, pairs in enumerate(self.int_structure) for (i, k), x in pairs}
        bad = [(min(i, j), max(i, j), k) for (i, j, k), x in c.items()
               if c.get((j, i, k), 0) != -x]
        if bad:
            i, j, k = min(bad)
            raise ValueError(f"structure constants not antisymmetric at ({i},{j},{k})")
        # Jacobi on (i, a, b) is the derivation identity of ad_{e_i} (here times
        # L) on (a, b); at the first failing i each failing triple has i least.
        # Only the i with a nonzero ad_{e_i} are walked: a zero map has none.
        ad = {}
        for (i, j, k), x in c.items():
            ad.setdefault(i, {})[k, j] = x
        for i, t in sorted(ad.items()):
            residual = self.derivation_residual(t)
            if residual:
                a, b, _ = min(residual)
                raise ValueError(f"Jacobi identity fails on basis triple ({i},{a},{b})")

    @cached_property
    def central_columns(self) -> frozenset:
        """The basis vectors ``e_j`` that no structure constant moves, the
        columns ``j`` that no row of ``ad_forms`` lists: column ``j`` of
        ``ad_w`` is 0 at every ``w``, so ``e_j`` is central."""
        return frozenset(range(self.dim)).difference(
            j for _, entries in self.ad_forms for j, _ in entries)

    @cached_property
    def structure(self) -> tuple:
        """Dense view ``structure[i][j][k] = c_ijk``, built on first access."""
        c = {(i, j, k): Fraction(x, self.denominator)
             for j, pairs in enumerate(self.int_structure) for (i, k), x in pairs}
        r = range(self.dim)
        return tuple(tuple(tuple(c.get((i, j, k), _ZERO) for k in r) for j in r) for i in r)

    def derivation_residual(self, t: dict) -> dict:
        """Nonzero entries of ``T[e_a,e_b] - [T e_a,e_b] - [e_a,T e_b]`` for
        ``a < b``, keyed ``(a, b, k)`` by the component ``k``: summed over the
        ints of the structure constants and divided once by ``denominator``
        at the end.  ``t`` maps ``(row, column)`` to the nonzero entries of
        ``T``; ``T`` is a derivation exactly when the result is empty.

        Only the constants ``c_ijk`` that meet an index ``t`` names are
        walked: those whose ``k`` is a column of ``T`` (the rows ``k`` of
        ``ad_forms``), and those whose ``i`` or ``j`` is a row of ``T``
        (``int_structure[m]`` for a row ``m``, which lists ``c_imk`` and, by
        antisymmetry, ``c_mik = -c_imk``)."""
        rows, cols = defaultdict(list), defaultdict(list)
        for (r, s), x in t.items():
            rows[r].append((s, x))
            cols[s].append((r, x))
        out = defaultdict(int)
        for k, entries in self.ad_forms:
            if k in cols:
                for j, form in entries:
                    for i, c in form:
                        if i < j:  # T[e_i,e_j] takes c_ijk T e_k
                            for r, x in cols[k]:
                                out[i, j, r] += c * x
        for m, row in rows.items():
            for (i, k), c in self.int_structure[m]:
                for a, x in row:
                    if i < a:  # [e_i,T e_a] takes T_ma c_imk e_k
                        out[i, a, k] -= x * c
                    elif a < i:  # [T e_a,e_i] takes T_ma c_mik e_k = -T_ma c_imk e_k
                        out[a, i, k] += x * c
        return {key: Fraction(v, self.denominator) for key, v in out.items() if v}

    def ad_walk(self, v, den: int = 1) -> tuple:
        """``ad_v`` at an int point ``v``, in one pass over ``ad_forms``: the
        nonzero rows as ``(row, columns, entries)`` int tuples, and their
        1-norm.  Entry ``(k, j)`` is ``sum floor(C·v_i / den)`` over the
        form's pairs ``(i, C = L·c_ijk)``, each product floored on its own.
        With ``den = L`` that is ``floor(c_ijk·v_i)``, as ``floor(C·v/L) =
        floor(num·v/q)`` when ``C/L = num/q``; with ``den = 1`` it is ``L``
        times ``ad_v``, exactly."""
        rows, norms = [], [0] * self.dim
        for r, entries in self.ad_forms:
            row = [(j, a) for j, form in entries if (a := sum([c * v[i] // den for i, c in form]))]
            if row:
                rows.append((r, *zip(*row)))
                for j, a in row:
                    norms[j] += abs(a)
        return tuple(rows), max(norms, default=0)

    def ad_exact(self, x) -> tuple:
        """``(scale, rows, norm)`` of ``ad_x`` at an exact point (ints,
        ``Fraction``s or floats, each an exact rational): ``ad_walk`` with
        ``den = 1`` over ``x`` scaled to ints by the lcm ``q`` of its
        denominators, so ``rows`` and ``norm`` are ``scale = L·q`` times
        those of ``ad_x``."""
        q, v = _integer_point(x)
        return (self.denominator * q, *self.ad_walk(v))

    def ad_norm(self, x) -> tuple:
        """``(scale, norm)`` of ``ad_exact`` without its rows: one pass over
        ``ad_forms`` that sums each entry's absolute value into its
        column."""
        q, v = _integer_point(x)
        norms = [0] * self.dim
        for _, entries in self.ad_forms:
            for j, form in entries:
                norms[j] += abs(sum([c * v[i] for i, c in form]))
        return self.denominator * q, max(norms, default=0)

    def ad(self, x) -> Endomorphism:
        """Adjoint map ``ad_x`` as a dense matrix, from ``ad_exact``."""
        scale, rows, _ = self.ad_exact(x)
        out = [[_ZERO] * self.dim for _ in range(self.dim)]
        for r, columns, entries in rows:
            for j, a in zip(columns, entries):
                out[r][j] = Fraction(a, scale)
        return Endomorphism(tuple(map(tuple, out)))

    def nabla(self, y, x):
        """Levi-Civita connection of the left-invariant metric:
        ``nabla_y x = (1/2)(ad_y x - ad_y^* x - ad_x^* y)``."""
        ady = self.ad(y)
        adx = self.ad(x)
        t1 = ady.apply(x)
        t2 = ady.transpose().apply(x)
        t3 = adx.transpose().apply(y)
        return tuple((a - b - c) / 2 for a, b, c in zip(t1, t2, t3))

    @cached_property
    def _nabla_basis(self) -> tuple:
        """The matrices of ``nabla_basis``, built on first access: column
        ``j`` of the ``t``-th is ``nabla_(e_t) e_j``."""
        e = [basis_vec(self.dim, j) for j in range(self.dim)]
        return tuple(Endomorphism(tuple(zip(*[self.nabla(et, ej) for ej in e]))) for et in e)

    def nabla_basis(self, i: int) -> Endomorphism:
        """Matrix of covariant differentiation in the i-th basis direction."""
        return self._nabla_basis[i]

    def killing_operator(self, k: SymTensor) -> SymTensor:
        """Algebraic Killing operator ``sum_i e_i * ad_{e_i}(k)``; a tensor is
        Killing exactly when this vanishes.  Each factor ``e_j`` goes to
        ``sum c_ijk e_i e_k`` (``replace_factor`` over ``int_structure``),
        divided once by ``denominator``."""
        if k.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = SymTensor(self.dim, k.degree + 1, replace_factor(k.terms, self.int_structure))
        return out.scale(Fraction(1, self.denominator))

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

    def killing_space_bruteforce(self, p: int) -> KillingSpace:
        """Exact nullspace of the Killing operator on the full symmetric power.

        The operator times ``denominator`` (which leaves the kernel alone)
        gives the integer equations, keyed by monomial position
        (``replace_factor_rows``); each primitive kernel vector
        (``integer_kernel``) is divided by its lead into ``Fraction``s as it
        is keyed by monomial.  Past ``BRUTE_FORCE_MAX_DEGREE`` or
        ``BRUTE_FORCE_MAX_DIM`` it raises ``SolverCapError`` before building
        an equation.
        """
        if p < 0:
            raise ValueError("degree must be nonnegative")
        if p > BRUTE_FORCE_MAX_DEGREE or self.dim > BRUTE_FORCE_MAX_DIM:
            raise SolverCapError(p, self.dim)
        monomials = list(monomial_positions(self.dim, p))
        kernel = integer_kernel(replace_factor_rows(self.int_structure, p), len(monomials))
        basis = []
        for v in kernel:
            lead = v[min(v)]
            basis.append(SymTensor._unchecked(
                self.dim, p, {monomials[j]: Fraction(x, lead) for j, x in v.items()}))
        return KillingSpace(p, tuple(basis))


def skew_derivation_basis(lie: MetricLieAlgebra) -> tuple:
    """Canonical basis of the skew-symmetric derivations of the algebra: the
    kernel of ``derivation_residual`` over the wedge coordinates, with
    ``(i, j)`` for ``i < j`` standing for ``E_ji - E_ij``.  Past
    ``DERIVATION_DIM_CAP`` it raises ``DerivationCapError`` before solving."""
    n = lie.dim
    if n > DERIVATION_DIM_CAP:
        raise DerivationCapError(n)
    kernel = nullspace({(i, j): lie.derivation_residual({(j, i): 1, (i, j): -1})
                        for i in range(n) for j in range(i + 1, n)})
    # entry (r, s) of the sum of w_ij (E_ji - E_ij) is w_sr below the diagonal
    return tuple(Endomorphism(tuple(
        tuple(w.get((s, r), _ZERO) if s < r else -w.get((r, s), _ZERO) for s in range(n))
        for r in range(n))) for w in kernel)
