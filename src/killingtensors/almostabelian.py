"""Almost abelian metric Lie algebras: the line spanned by a unit vector ``b``
acting on an abelian ideal through a derivation matrix.

Basis convention: index 0 is ``b``, indices ``1..n`` span the ideal.  The
layer decomposition writes any symmetric tensor uniquely as
``sum_i L^i * (odd_i * b + even_i)`` with the layers supported on the ideal,
where ``L`` is the sum of basis squares, in closed form from the powers of
``b``; the structured Killing test, the structured solver and the dimension
formula work layer by layer.  ``ad_b`` is applied in one way, by the
Killing test of a layer, the derivation kernel and every other exact caller:
``replace_factor`` over its integer substitutions ``int_ad_b``, or for the
kernel's equations ``replace_factor_rows`` over the same substitutions.
The structured solver stays on ints from those equations to the span of
its layer products; its basis is the first ``Fraction`` it makes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb, lcm

from .exactlinalg import basis_vec, frac, integer_kernel, rref_span
from .liealgebra import KillingSpace, MetricLieAlgebra
from .limits import MAX_DIMENSION, MAX_STRUCTURED_MONOMIALS, DimensionCapError, StructuredCapError
from .tensors import (SymTensor, Endomorphism, multiply_terms, replace_factor,
                      replace_factor_rows, sum_of_squares, sym_dimension)


@dataclass(frozen=True)
class LayeredDecomposition:
    """Unique layers of a symmetric tensor relative to powers of the sum of
    squares, all supported on the ideal, on ints over one ``scale`` (the
    lcm of the tensor's denominators).  Layer i is ``(odd_i * b + even_i) /
    scale``, with ``odd_i`` of degree p-2i-1 and ``even_i`` of degree p-2i;
    a degree-p tensor has about p of them, and ``nonzero`` keeps only the
    nonzero ones as ``{monomial: int}`` maps, ``odd_i`` at ``(1, i)`` and
    ``even_i`` at ``(0, i)``."""

    dim: int
    degree: int
    scale: int
    nonzero: dict

    def reassemble(self) -> SymTensor:
        b = SymTensor.basis(self.dim, 0)
        total = SymTensor.zero(self.dim, self.degree)
        for (e, i), layer in self.nonzero.items():
            t = SymTensor(self.dim, self.degree - 2 * i - e,
                          {m: Fraction(v, self.scale) for m, v in layer.items()})
            total = total + sum_of_squares(self.dim) ** i * b ** e * t
        return total


@dataclass(frozen=True)
class KillingDiagnosis:
    """Outcome of the structured Killing test, with the failing layers."""

    is_killing: bool
    failures: tuple
    layers: LayeredDecomposition


class AlmostAbelianAlgebra(MetricLieAlgebra):
    """``(n+1)``-dimensional algebra with brackets ``[b, h] = derivation(h)``
    and an abelian orthonormal ideal."""

    def __init__(self, derivation):
        if not isinstance(derivation, Endomorphism):
            derivation = Endomorphism.from_rows(derivation)
        n = derivation.dim
        if n + 1 > MAX_DIMENSION:
            raise DimensionCapError(n + 1)
        self.dim = n + 1
        # only [b, h] = D h and [h, b] are nonzero: c_0jk = D_kj = -c_j0k, in
        # key order.  They are antisymmetric by construction, and the Jacobi
        # identity holds for every D (the ideal is abelian), so neither is
        # checked.
        nonzero = [(j, k, frac(x)) for j, column in enumerate(zip(*derivation.entries), 1)
                   for k, x in enumerate(column, 1) if x]
        self._keep_constants([(0, j, k, x) for j, k, x in nonzero] + [(j, 0, k, -x) for j, k, x in nonzero])
        self.derivation = derivation
        self.ideal_dim = n
        # int_ad_b[j] lists ((k,), L·c_0jk), the int_structure entries with
        # i = 0: replace_factor over them is L times the action of ad_b
        self.int_ad_b = tuple(tuple(((k,), x) for (i, k), x in pairs if i == 0)
                              for pairs in self.int_structure)

    @cached_property
    def skew(self) -> bool:
        """Whether the derivation is skew."""
        return self.derivation.is_skew()

    @property
    def derivation_full(self) -> Endomorphism:
        """The derivation extended by zero on ``b``: ``ad_b`` as a dense
        matrix, for the tests; the exact routes apply ``int_ad_b``."""
        return self.ad(basis_vec(self.dim, 0))

    @property
    def twice_metric(self) -> SymTensor:
        """Sum of all basis squares (twice the metric tensor)."""
        return sum_of_squares(self.dim)

    @property
    def ideal_twice_metric(self) -> SymTensor:
        """Sum of the ideal basis squares."""
        return sum_of_squares(self.dim, range(1, self.dim))

    def b_tensor(self) -> SymTensor:
        return SymTensor.basis(self.dim, 0)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def layer_decomposition(self, k: SymTensor) -> LayeredDecomposition:
        """Unique layers with ``k = sum_i L^i * (odd_i*b + even_i)``, in one
        pass over the components ``b^m * c`` of ``k`` (``c`` on the ideal),
        on ints: the coefficients of ``k`` times the lcm ``s`` of their
        denominators.  With ``b^2 = L - L_h`` (``L_h`` the ideal squares) and
        ``m = 2j + e``,

            ``b^m * c = sum_i C(j, i) * L^i * b^e * (-L_h)^(j-i) * c``,

        so the component adds ``C(j, i) * (-L_h)^(j-i) * c`` to the odd (``e =
        1``) or even (``e = 0``) layer ``i`` for each ``i <= j``."""
        if k.dim != self.dim:
            raise ValueError("dimension mismatch")
        s = lcm(*(c.denominator for c in k.terms.values()))
        components = {}
        for mono, c in k.terms.items():
            m = mono.count(0)  # monomials are sorted: the factors b lead
            components.setdefault(m, {})[mono[m:]] = c.numerator * (s // c.denominator)
        minus_lh = {(h, h): -1 for h in range(1, self.dim)}
        layers = {}
        for m, c in components.items():
            j, e = divmod(m, 2)
            for i in range(j, -1, -1):  # here c is (-L_h)^(j-i) times the component
                layer = layers.setdefault((e, i), {})
                f = comb(j, i)
                for mono, x in c.items():
                    layer[mono] = layer.get(mono, 0) + f * x
                if i:
                    c = multiply_terms(c, minus_lh)
        nonzero = {key: t for key, layer in layers.items()
                   if (t := {mono: x for mono, x in layer.items() if x})}
        return LayeredDecomposition(self.dim, k.degree, s, nonzero)

    def split_odd_even(self, k: SymTensor):
        """Parts of the tensor with odd resp. even degree in ``b``."""
        odd, even = {}, {}
        for mono, c in k.terms.items():
            (odd if sum(1 for i in mono if i == 0) % 2 else even)[mono] = c
        return (SymTensor(self.dim, k.degree, odd), SymTensor(self.dim, k.degree, even))

    # ------------------------------------------------------------------
    # Killing tensors, structured route
    # ------------------------------------------------------------------

    def is_killing_structured(self, k: SymTensor) -> KillingDiagnosis:
        """Layer-by-layer Killing test.

        Even layers must be annihilated by the derivation; odd layers too if
        the derivation is skew, and must vanish outright otherwise.
        """
        lay = self.layer_decomposition(k)
        failures = [f"{('even', 'odd')[e]} layer {i} not annihilated by the derivation"
                    for (e, i), t in sorted(lay.nonzero.items())
                    if (self.skew or not e) and replace_factor(t, self.int_ad_b)]
        if not self.skew and any(e for e, _ in lay.nonzero):
            failures.append("odd part nonzero, derivation not skew")
        return KillingDiagnosis(not failures, tuple(failures), lay)

    def derivation_kernel(self, q: int) -> list:
        """Kernel of the derivation action on the degree-q symmetric power
        of the ideal, as primitive integer vectors ``{ideal monomial: int}``,
        each positive at its lead: divided by the lead, the canonical (RREF)
        basis.  The equations are those of ``int_ad_b``: integers,
        ``denominator`` times the action, with the same kernel, keyed by
        position among the ideal's monomials (``replace_factor_rows``)."""
        if q < 0:
            return []
        ideal = range(1, self.dim)
        monomials = list(combinations_with_replacement(ideal, q))
        kernel = integer_kernel(replace_factor_rows(self.int_ad_b, q, ideal), len(monomials))
        return [{monomials[j]: x for j, x in v.items()} for v in kernel]

    def _layer_kernels(self, p: int):
        """``(i, odd, kernel)`` for each layer of a degree-p Killing tensor: the
        even layer ``L^i * beta`` with ``beta`` in the derivation kernel of
        degree ``p - 2i``, and, for a skew derivation only, the odd layer
        ``L^i * b * alpha`` with ``alpha`` in the kernel of degree ``p - 2i - 1``.
        Past ``MAX_STRUCTURED_MONOMIALS`` it raises ``StructuredCapError``
        before the first layer."""
        if p < 0:
            raise ValueError("degree must be nonnegative")
        monomials = sym_dimension(self.dim, p)
        if monomials > MAX_STRUCTURED_MONOMIALS:
            raise StructuredCapError(self.dim, p, monomials)
        for i in range(p // 2 + 1):
            yield i, False, self.derivation_kernel(p - 2 * i)
            if self.skew and p - 2 * i - 1 >= 0:
                yield i, True, self.derivation_kernel(p - 2 * i - 1)

    def killing_space_structured(self, p: int) -> KillingSpace:
        """Killing space assembled from the layer kernels (``_layer_kernels``),
        on ints.  Each layer factor ``L^i * b^odd`` has int coefficients, and
        its product with each primitive int kernel vector runs over the
        nonzero terms keyed by monomial, so no ``SymTensor`` and no
        ``Fraction`` is formed before ``rref_span``; the basis is built from
        its monomials, which the products sorted, unchecked."""
        squares = {(i, i): 1 for i in range(self.dim)}
        b = {(0,): 1}
        powers = [{(): 1}]
        generated = []
        for i, odd, kernel in self._layer_kernels(p):
            if i == len(powers):
                powers.append(multiply_terms(powers[-1], squares))
            factor = multiply_terms(powers[i], b) if odd else powers[i]
            generated += [multiply_terms(factor, v) for v in kernel]
        return KillingSpace(p, tuple(SymTensor._unchecked(self.dim, p, t)
                                     for t in rref_span(generated)))

    def killing_dimension(self, p: int) -> int:
        """Dimension of the degree-p Killing space from the layer kernels."""
        return sum(len(kernel) for _, _, kernel in self._layer_kernels(p))
