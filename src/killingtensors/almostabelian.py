"""Almost abelian metric Lie algebras: the line spanned by a unit vector ``b``
acting on an abelian ideal through a derivation matrix.

Basis convention: index 0 is ``b``, indices ``1..n`` span the ideal.  The
layer decomposition writes any symmetric tensor uniquely as
``sum_i L^i * (odd_i * b + even_i)`` with the layers supported on the ideal,
where ``L`` is the sum of basis squares; the structured Killing solver and
the dimension formula work layer by layer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

from .exactlinalg import nullspace, rref_span
from .liealgebra import KillingSpace, MetricLieAlgebra
from .tensors import (SymTensor, Endomorphism, apply_derivation, replace_factor,
                      sum_of_squares)

_ZERO = Fraction(0)


def _int_product(a: dict, b: dict) -> dict:
    """Product of two symmetric tensors given as int coefficients keyed by
    sorted monomial: the nonzero coefficients, over the nonzero terms only."""
    out = {}
    for ma, x in a.items():
        for mb, y in b.items():
            m = tuple(sorted(ma + mb))
            out[m] = out.get(m, 0) + x * y
    return {m: v for m, v in out.items() if v}


@dataclass(frozen=True)
class LayeredDecomposition:
    """Unique layers of a symmetric tensor relative to powers of the sum of
    squares.  ``odd[i]`` (degree p-2i-1, or None when that is negative) is the
    coefficient of ``b`` in layer i; ``even[i]`` (degree p-2i) is the rest.
    All layers are supported on the ideal."""

    degree: int
    odd: tuple
    even: tuple

    def reassemble(self) -> SymTensor:
        dim = self.even[0].dim
        metric2 = sum_of_squares(dim)
        b = SymTensor.basis(dim, 0)
        power = SymTensor.unit(dim)
        total = SymTensor.zero(dim, self.degree)
        for i in range(len(self.even)):
            layer = self.even[i]
            if self.odd[i] is not None:
                layer = layer + self.odd[i] * b
            total = total + power * layer
            power = power * metric2
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
        d = derivation.entries

        def bracket(i, j, k):
            # component k of [e_i, e_j]: only [b, h] = D h and [h, b] are nonzero
            if k == 0 or (i == 0) == (j == 0):
                return _ZERO
            return d[k - 1][j - 1] if i == 0 else -d[k - 1][i - 1]

        super().__init__([[[bracket(i, j, k) for k in range(n + 1)] for j in range(n + 1)]
                          for i in range(n + 1)])
        self.derivation = derivation
        self.ideal_dim = n

    @property
    def derivation_full(self) -> Endomorphism:
        """The derivation extended by zero on ``b``: ``ad_b``."""
        return self.ad_basis(0)

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

    def d_on_ideal(self, k: SymTensor) -> SymTensor:
        """Killing operator of an ideal-supported tensor: ``b * derivation(k)``.

        Vanishes exactly when the derivation annihilates the tensor.
        """
        if 0 in k.support():
            raise ValueError("tensor touches the distinguished direction")
        return self.b_tensor() * apply_derivation(self.derivation_full, k)

    def _b_components(self, k: SymTensor):
        """Split into ``{m: c_m}`` with ``k = sum_m b^m * c_m`` and the ``c_m``
        supported on the ideal (monomials are sorted, so leading zeros count
        the power of b)."""
        comps = {}
        for mono, c in k.terms.items():
            m = 0
            while m < len(mono) and mono[m] == 0:
                m += 1
            comps.setdefault(m, {})[mono[m:]] = c
        return {
            m: SymTensor(self.dim, k.degree - m, terms)
            for m, terms in comps.items()
        }

    def _divide_once(self, k: SymTensor):
        """Write ``k = L*quotient + (alpha*b + beta)`` with alpha, beta on the
        ideal; quotient is None when the degree drops below zero."""
        p = k.degree
        work = self._b_components(k)
        b = self.b_tensor()
        lh = self.ideal_twice_metric
        quotient = SymTensor.zero(self.dim, p - 2) if p >= 2 else None
        for m in range(p, 1, -1):
            c = work.get(m)
            if c is None or c.is_zero():
                continue
            quotient = quotient + (b ** (m - 2)) * c
            low = work.get(m - 2, SymTensor.zero(self.dim, p - m + 2))
            work[m - 2] = low - lh * c
            del work[m]
        alpha = work.get(1, SymTensor.zero(self.dim, p - 1)) if p >= 1 else None
        beta = work.get(0, SymTensor.zero(self.dim, p))
        return quotient, alpha, beta

    def layer_decomposition(self, k: SymTensor) -> LayeredDecomposition:
        """Unique layers with ``k = sum_i L^i * (odd_i*b + even_i)``; the
        division happens in the polynomial ring over the ideal, treating the
        degree-2 relation ``b^2 = L - L_ideal`` as the divisor."""
        if k.dim != self.dim:
            raise ValueError("dimension mismatch")
        p = k.degree
        odd, even = [], []
        cur = k
        for _ in range(p // 2 + 1):
            cur, alpha, beta = self._divide_once(cur)
            odd.append(alpha)
            even.append(beta)
        return LayeredDecomposition(p, tuple(odd), tuple(even))

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
        dfull = self.derivation_full
        skew = self.derivation.is_skew()
        failures = []
        for kind, layers in (("even", lay.even), ("odd", lay.odd if skew else ())):
            for i, t in enumerate(layers):
                if t is not None and not t.is_zero() and not apply_derivation(dfull, t).is_zero():
                    failures.append(f"{kind} layer {i} not annihilated by the derivation")
        if not skew and any(a is not None and not a.is_zero() for a in lay.odd):
            failures.append("odd part nonzero, derivation not skew")
        return KillingDiagnosis(not failures, tuple(failures), lay)

    def derivation_kernel(self, q: int):
        """Canonical basis of the kernel of the derivation action on the
        degree-q symmetric power of the ideal.  The columns are those of
        ``ad_b``, the entries of ``int_structure`` with ``i = 0``: integers,
        ``denominator`` times the action, with the same kernel."""
        if q < 0:
            return []
        subs = [[((k,), x) for (i, k), x in pairs if i == 0] for pairs in self.int_structure]
        kernel = nullspace({m: replace_factor({m: 1}, subs)
                            for m in combinations_with_replacement(range(1, self.dim), q)})
        return [SymTensor(self.dim, q, v) for v in kernel]

    def _layer_kernels(self, p: int):
        """``(i, odd, kernel)`` for each layer of a degree-p Killing tensor: the
        even layer ``L^i * beta`` with ``beta`` in the derivation kernel of
        degree ``p - 2i``, and, for a skew derivation only, the odd layer
        ``L^i * b * alpha`` with ``alpha`` in the kernel of degree ``p - 2i - 1``."""
        if p < 0:
            raise ValueError("degree must be nonnegative")
        skew = self.derivation.is_skew()
        for i in range(p // 2 + 1):
            yield i, False, self.derivation_kernel(p - 2 * i)
            if skew and p - 2 * i - 1 >= 0:
                yield i, True, self.derivation_kernel(p - 2 * i - 1)

    def killing_space_structured(self, p: int) -> KillingSpace:
        """Killing space assembled from the layer kernels (``_layer_kernels``),
        on ints.  Each layer factor ``L^i * b^odd`` has int coefficients, each
        kernel vector is scaled to ints (which leaves the span alone), and
        their product runs over the nonzero terms keyed by monomial, so no
        ``SymTensor`` product and no ``Fraction`` product is formed before
        ``rref_span``."""
        squares = {(i, i): 1 for i in range(self.dim)}
        b = {(0,): 1}
        powers = [{(): 1}]
        generated = []
        for i, odd, kernel in self._layer_kernels(p):
            if i == len(powers):
                powers.append(_int_product(powers[-1], squares))
            factor = _int_product(powers[i], b) if odd else powers[i]
            for t in kernel:
                scale = lcm(*(x.denominator for x in t.terms.values()))
                generated.append(_int_product(factor, {
                    m: x.numerator * (scale // x.denominator) for m, x in t.terms.items()}))
        return KillingSpace(p, tuple(SymTensor(self.dim, p, v) for v in rref_span(generated)))

    def killing_dimension(self, p: int) -> int:
        """Dimension of the degree-p Killing space from the layer kernels."""
        return sum(len(kernel) for _, _, kernel in self._layer_kernels(p))
