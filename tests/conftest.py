"""Shared randomized-suite builders and independent oracles for the tests."""
import math
import random
from fractions import Fraction
from itertools import permutations
from math import comb

from mpmath import mp

from killingtensors import (AlmostAbelianAlgebra, Endomorphism, MetricLieAlgebra, SymTensor,
                            apply_derivation, basis_monomials, omega_generator)
from killingtensors.exactlinalg import basis_vec
from killingtensors.killingfields import (Certificate, LeftInvariant, Metric, RightInvariant,
                                          SeriesCapError)

SERIES_TERM_CAP = 5000

DERIVATION_KINDS = ("skew", "symmetric", "nilpotent", "generic")


def rational_entry(rng):
    return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))


def random_derivation(rng, n, kind):
    e = [[Fraction(0)] * n for _ in range(n)]
    if kind == "skew":
        for i in range(n):
            for j in range(i + 1, n):
                x = rational_entry(rng)
                e[i][j] = x
                e[j][i] = -x
    elif kind == "symmetric":
        for i in range(n):
            e[i][i] = rational_entry(rng)
            for j in range(i + 1, n):
                x = rational_entry(rng)
                e[i][j] = x
                e[j][i] = x
    elif kind == "nilpotent":
        for i in range(n):
            for j in range(i + 1, n):
                e[i][j] = rational_entry(rng)
    elif kind == "generic":
        for i in range(n):
            for j in range(n):
                e[i][j] = rational_entry(rng)
    else:
        raise ValueError(kind)
    return Endomorphism.from_rows(e)


def derivation_suite(seed=20250809, per_kind=5, sizes=(1, 2, 3)):
    """Deterministic suite of derivation matrices covering all kinds and sizes."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for kind in DERIVATION_KINDS:
            for _ in range(per_kind):
                out.append(random_derivation(rng, n, kind))
    return out


def rotation_type(a, b, c):
    """``[e0,e1] = a e2``, ``[e1,e2] = b e0``, ``[e2,e0] = c e1``; the Jacobi
    identity holds for every a, b, c (so(3) at 1, 1, 1)."""
    triples = (((0, 1, 2), a), ((1, 2, 0), b), ((2, 0, 1), c))
    return MetricLieAlgebra(3, {key: y for (i, j, k), x in triples
                                for key, y in (((i, j, k), x), ((j, i, k), -x))})


def wide_algebras():
    """Structure constants with denominators 2, 3 and 7 and 40-digit numerators."""
    a, b, c = (Fraction(10 ** 39 + 1, 2), Fraction(-4 * 10 ** 39 - 3, 3),
               Fraction(7 * 10 ** 39 + 5, 7))
    return [rotation_type(a, b, c), AlmostAbelianAlgebra(Endomorphism.from_rows([[a, b], [c, 0]]))]


def random_tensor(rng, dim, degree, nterms=4, span=3):
    monos = basis_monomials(dim, degree)
    items = [(rng.choice(monos), Fraction(rng.randint(-span, span), rng.choice((1, 2))))
             for _ in range(nterms)]
    return SymTensor.build(dim, degree, items)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def random_vector(rng, dim, span=3):
    return tuple(Fraction(rng.randint(-span, span), rng.choice((1, 2))) for _ in range(dim))


# ---------------------------------------------------------------------------
# oracles, independent of the implementations they check
# ---------------------------------------------------------------------------

def inner_oracle(a, b):
    """Extended inner product by the raw permutation sum over each monomial
    pair: sum over sigma of the product of Kronecker deltas."""
    total = Fraction(0)
    for left, ca in a.terms.items():
        for right, cb in b.terms.items():
            matches = 0
            for sigma in permutations(right):
                if all(x == y for x, y in zip(left, sigma)):
                    matches += 1
            total += ca * cb * matches
    return total


def koszul_oracle(alg, y, x):
    """Connection components via the three-bracket Koszul identity
    ``2<nabla_y x, z> = <[y,x],z> - <[x,z],y> + <[z,y],x>``."""
    n, c = alg.dim, alg.structure
    basis = [tuple(Fraction(1 if t == i else 0) for t in range(n)) for i in range(n)]
    comps = []
    for z in basis:
        val = (dot(_structure_bracket(c, y, x), z)
               - dot(_structure_bracket(c, x, z), y)
               + dot(_structure_bracket(c, z, y), x))
        comps.append(val / 2)
    return tuple(comps)


def omega_tensor_oracle(alg, cert, w, order=None, prec=None):
    """Pullback value of a certificate by term-by-term expansion: per term,
    the symmetric product of its factors' values, each evaluated afresh,
    scaled by the coefficient and summed; exact, or in mpf at the working
    precision from factor values at ``prec`` bits."""
    total = SymTensor.zero(alg.dim, cert.target.degree)
    for coeff, factors in cert.terms:
        acc = SymTensor.monomial(alg.dim, (), coeff if prec is None else _mpf_of(coeff))
        for gen in factors:
            value = omega_generator(alg, gen, w, order, prec=prec)
            if prec is not None:
                value = SymTensor(value.dim, value.degree,
                                  {m: _mpf_of(c) for m, c in value.terms.items()})
            acc = acc * value
        total = total + acc
    return total


def listed_layers(lay, e):
    """Every layer of a ``LayeredDecomposition`` by index as a ``SymTensor``,
    its ints divided by the scale, zero ones included: the even ones (``e =
    0``, degree p-2i) or the odd ones (``e = 1``, degree p-2i-1, None where
    that is negative)."""
    p = lay.degree
    return tuple(None if p - 2 * i - e < 0
                 else SymTensor(lay.dim, p - 2 * i - e, {
                     m: Fraction(v, lay.scale) for m, v in lay.nonzero.get((e, i), {}).items()})
                 for i in range(p // 2 + 1))


def decompose_oracle(alg, k):
    """``(certificate, failures)`` of ``decompose`` by the ``Fraction``
    route it replaced: the layers of ``k`` in ``SymTensor`` arithmetic, a
    component ``b^m c`` (``m = 2j + e``) adding ``C(j, i) (-L_h)^(j-i) c`` to
    layer ``(e, i)``; the Killing test of each layer by ``apply_derivation``
    of the dense ``ad_b``; coefficients ``c 2^i`` as ``Fraction`` products,
    and fresh generator objects.  The certificate is None where ``k`` is not
    Killing, the failures empty where it is."""
    n = alg.dim
    minus_lh = -alg.ideal_twice_metric
    layers = {}
    for mono, c in k.terms.items():
        m = mono.count(0)
        j, e = divmod(m, 2)
        part = SymTensor.monomial(n, mono[m:], c)
        for i in range(j + 1):
            term = minus_lh ** (j - i) * part * comb(j, i)
            layers[e, i] = layers[e, i] + term if (e, i) in layers else term
    layers = {key: t for key, t in layers.items() if t}
    skew, ad_b = alg.derivation.is_skew(), alg.derivation_full
    failures = [f"{('even', 'odd')[e]} layer {i} not annihilated by the derivation"
                for (e, i), t in sorted(layers.items())
                if (skew or not e) and apply_derivation(ad_b, t)]
    if not skew and any(e for e, _ in layers):
        failures.append("odd part nonzero, derivation not skew")
    if failures:
        return None, failures
    terms = []
    for (e, i), t in sorted(layers.items()):
        head = (Metric(),) * i + (LeftInvariant(basis_vec(n, 0)),) * e
        for mono in sorted(t.terms):
            fields = tuple(RightInvariant(basis_vec(n, a)) for a in mono)
            terms.append((t.terms[mono] * Fraction(2) ** i, head + fields))
    return Certificate(k, tuple(terms)), []


def horner_oracle(nodes, values, coeffs, shift, at=0):
    """Dense value ``N(node)`` of the node at position ``at`` of a
    ``CompiledCertificate``'s ``nodes`` at one point, by recursion from the
    leaves up: the per-point Horner pass the lane-wise one replaced.
    Fixed-point products accumulate unshifted and each node shifts once."""
    node = nodes[at]
    if isinstance(node, int):
        return (coeffs[node],)
    size, edges = node
    out = [0] * size
    for g, table, child in edges:
        below = horner_oracle(nodes, values, coeffs, shift, child)
        for a, row in zip(values[g], table):
            if a:
                for k, b in zip(row, below):
                    if b:
                        out[k] += a * b
    return out if shift is None else [v >> shift for v in out]


def _oracle_ad(lie, w, numeric):
    n = lie.dim
    zero = mp.mpf(0) if numeric else Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    for i, wi in enumerate(w):
        for j in range(n):
            for k in range(n):
                c = lie.structure[i][j][k]
                if wi != 0 and c != 0:
                    rows[k][j] += wi * (mp.mpf(c.numerator) / c.denominator if numeric else c)
    return rows


def omega_series_oracle(lie, x, w, phi=False, order=None, min_order=0):
    """The adaptive series the fixed-point kernel replaced, summed term by
    term on exact or mpf matrices: ``exp(-ad_w) x``, or ``phi(-ad_w) x``
    with ``phi(z) = (e^z - 1)/z`` when ``phi`` is set.  Numeric inputs run
    at working precision with the same stop rule as the kernel."""
    numeric = any(not isinstance(v, (Fraction, int)) for v in tuple(w) + tuple(x))

    def conv(v):
        if not numeric:
            return v
        return mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mp.mpf(v)

    w = [conv(v) for v in w]
    x = [conv(v) for v in x]
    adw = _oracle_ad(lie, w, numeric)
    acc = list(x)
    term = list(x)
    hump = int(max(sum(abs(float(r[j])) for r in adw) for j in range(lie.dim))) + 2
    eps = mp.mpf(10) ** (-(mp.dps - 5))
    k = 1
    while order is None or k <= order:
        div = k + 1 if phi else k
        term = [-sum((a * t for a, t in zip(row, term)), 0 * term[0]) / div for row in adw]
        if all(t == 0 for t in term):
            break
        acc = [a + t for a, t in zip(acc, term)]
        if order is None:
            if not numeric:
                if k > lie.dim:
                    raise ValueError("series does not terminate over exact arithmetic")
            else:
                scale = max(1.0, max(abs(float(a)) for a in acc))
                if k >= max(min_order, hump) and max(abs(t) for t in term) < eps * scale:
                    break
                if k > 5000:
                    raise RuntimeError("omega series failed to converge")
        k += 1
    return tuple(acc)


def point_oracle(lie, v, floor=True):
    """Dense rows of ``ad_v`` read off the dense ``structure`` array, and
    their 1-norm (the largest column sum of absolute entries).  Entry
    ``(k, j)`` sums ``c_ijk v_i`` over every ``i``; with ``floor`` (``v``
    fixed-point ints) each product is floored on its own, otherwise it is
    exact."""
    n = lie.dim
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                product = lie.structure[i][j][k] * v[i]
                rows[k][j] += math.floor(product) if floor else product
    return rows, max(sum(abs(row[j]) for row in rows) for j in range(n))


_LOG10_E = math.log10(math.e)


def series_bounds_oracle(lie, w):
    """``ln ||ad_w||_1`` (``-inf`` at 0) and the log10 gain bound of a series
    at a sample point, by the ``Fraction`` route: the exact norm from the
    dense oracle as a ``Fraction``, its log from its numerator and
    denominator, and the gain ``norm * log10(e)`` below the term cap,
    ``log10(dim + 1) + dim * log10(norm)`` from it on."""
    norm = point_oracle(lie, tuple(map(Fraction, w)), floor=False)[1]
    if not norm:
        return -math.inf, 0.0
    norm = Fraction(norm)
    n, d = norm.numerator, norm.denominator
    if norm < SERIES_TERM_CAP:
        gain = norm * _LOG10_E
    else:
        gain = math.log10(lie.dim + 1) + lie.dim * (math.log10(n) - math.log10(d))
    return math.log(n) - math.log(d), gain


def fixed_series_oracle(rows, norm, x, s, shift, order=None, min_order=0):
    """A per-entry reference for the fixed-point series kernel: ``x`` is
    ints at ``shift`` and ``rows`` the ``(row, columns, entries)`` of
    ``2^shift ad_w``, with ``norm`` their 1-norm, as a prepared point holds
    them or as ``dense_rows`` makes them from ``point_oracle``.  Each term
    entry is a generator sum over its row divided once by ``(k + s) 2^shift``
    and rounded toward zero, and the term and the partial sum are rebuilt
    every term.  The kernel must return the same ints and raise the same
    ``SeriesCapError``."""
    n = len(x)
    one = 1 << shift
    # on ints below 5 digits too, where 10 ** (dps - 5) is a float
    eps = one * 10 ** (5 - mp.dps) if mp.dps < 5 else one // 10 ** (mp.dps - 5)
    hump = (norm >> shift) + 2
    stop_from = max(min_order, hump)
    cap = SERIES_TERM_CAP if hump <= SERIES_TERM_CAP and min_order < SERIES_TERM_CAP else n
    acc = list(x)
    term = list(x)
    k = 1
    while order is None or k <= order:
        d = (k + s) << shift
        sums = {r: sum(a * term[c] for c, a in zip(columns, entries))
                for r, columns, entries in rows}
        term = [-(v // d) if v >= 0 else -v // d for v in (sums.get(r, 0) for r in range(n))]
        if not any(term):
            break
        acc = [p + q for p, q in zip(acc, term)]
        if order is None:
            if k >= stop_from and max(map(abs, term)) << shift < eps * max(one, *map(abs, acc)):
                break
        # an order past the cap is capped as no order is
        if (order is None or order > SERIES_TERM_CAP) and k > cap:
            raise SeriesCapError(Fraction(norm, one))
        k += 1
    return acc


def series_kernel_oracle(rows, x, s, shift, one, eps, stop_from, cap, last):
    """A reference for a compiled series kernel, with its arguments: the
    terms of ``fixed_series_oracle``, each entry a row sum shifted by the
    row shift ``shift`` and then divided by ``k + s`` toward zero, and the
    stop comparison ``max|u| * one < eps * max(one, |partial sum|)``, at the
    full scale ``one``, made in full at every term from ``stop_from`` on,
    with no pre-check.  Ends on a zero term, then by the stop rule, then
    with None past ``cap``, and before a term past ``last``."""
    acc = list(x)
    term = list(x)
    k = 1
    while True:
        m = k + s
        sums = {r: sum(a * term[c] for c, a in zip(columns, entries))
                for r, columns, entries in rows}
        term = [0] * len(x)
        for r, v in sums.items():
            term[r] = -((v >> shift) // m) if v > 0 else (-v >> shift) // m
        if not any(term):
            return acc
        acc = [p + q for p, q in zip(acc, term)]
        if k >= stop_from and max(map(abs, term)) * one < eps * max(one, *map(abs, acc)):
            return acc
        if k > cap:
            return None
        k += 1
        if k > last:
            return acc


def dense_rows(rows):
    """Dense rows, as ``point_oracle`` returns them, in the layout of
    ``fixed_series_oracle``: every entry, zero or not."""
    return [(r, range(len(row)), row) for r, row in enumerate(rows)]


def _mpf_of(x):
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


def _matvec(rows, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)


def omega_derivation(alg, t, w, order=None, min_order=0):
    """Pullback value of the field induced by a skew derivation ``t`` of an
    almost abelian algebra, through the closed form

    ``sum_{k>=0} (-1)^k/(k+1)! D^k(g^{k+1} v + g^k Th(h) + g^{k-1} <v,h> h)``

    for ``w = g*b + h`` (the k = 0 term contributes ``-<v,h>`` along b).
    Independent of the series kernel: it never forms ``ad_w``."""
    numeric = any(not isinstance(x, (Fraction, int)) for x in w)
    n = alg.ideal_dim
    gamma, h = w[0], tuple(w[1:])
    v = t.b_image
    th = t.ideal_part.entries
    drows = alg.derivation.entries
    if numeric:
        gamma = _mpf_of(gamma)
        h = tuple(_mpf_of(x) for x in h)
        v = tuple(_mpf_of(x) for x in v)
        th = [tuple(_mpf_of(x) for x in r) for r in th]
        drows = [tuple(_mpf_of(x) for x in r) for r in drows]
    gvh = sum((a * b for a, b in zip(v, h)), mp.mpf(0) if numeric else Fraction(0))
    out_b = -gvh
    dth = _matvec(th, h)
    out_h = [gamma * a + b for a, b in zip(v, dth)]
    dv, dh = tuple(v), tuple(h)
    gamma_pow = mp.mpf(1) if numeric else Fraction(1)  # gamma^(k-1)
    sign = 1
    fact = 1  # (k+1)!
    d_norm = max((sum(abs(float(r[j])) for r in drows) for j in range(n)), default=0.0)
    hump = int(abs(float(gamma)) * d_norm) + 2 if n else 0
    eps = mp.mpf(10) ** (-(mp.dps - 5)) if numeric else None
    k = 1
    while n:
        if order is not None and k > order:
            break
        dv = _matvec(drows, dv)
        dth = _matvec(drows, dth)
        dh = _matvec(drows, dh)
        sign = -sign
        fact *= k + 1
        coeff = Fraction(sign, fact) if not numeric else mp.mpf(sign) / fact
        term = [coeff * (gamma * gamma * gamma_pow * a
                         + gamma * gamma_pow * b
                         + gamma_pow * gvh * c)
                for a, b, c in zip(dv, dth, dh)]
        out_h = [o + s for o, s in zip(out_h, term)]
        gamma_pow = gamma_pow * gamma
        if order is None:
            if not numeric:
                dead = gamma == 0 or (
                    all(a == 0 for a in dv) and all(a == 0 for a in dth)
                    and (gvh == 0 or all(a == 0 for a in dh)))
                if dead:
                    break
                if k > n + 1:
                    raise ValueError("series does not terminate over exact arithmetic; "
                                     "pass a truncation order")
            else:
                scale = max(1.0, max(abs(float(a)) for a in out_h))
                if k >= max(min_order, hump) and max(abs(s) for s in term) < eps * scale:
                    break
                if k > 5000:
                    raise RuntimeError("omega series failed to converge")
        k += 1
    return (out_b, *out_h)


# ---------------------------------------------------------------------------
# oracles for the factor-replacement kernel: the derivation action position by
# position, and the Killing operator over the dense structure array
# ---------------------------------------------------------------------------

def derivation_action_oracle(rows, k):
    """Derivation action of the dense matrix ``rows`` (``E(e_j) = sum_i
    rows[i][j] e_i``) on ``k``: every position of every monomial is replaced
    in turn, repeated indices included, with no multiplicity shortcut."""
    n = len(rows)
    items = []
    for mono, c in k.terms.items():
        for pos, j in enumerate(mono):
            for i in range(n):
                if rows[i][j] != 0:
                    items.append((mono[:pos] + (i,) + mono[pos + 1:], c * rows[i][j]))
    return SymTensor.build(k.dim, k.degree, items)


def killing_operator_oracle(alg, k):
    """``sum_j e_j * ad_{e_j}(k)`` with ``ad_{e_j}`` read densely off
    ``alg.structure`` and applied by ``derivation_action_oracle``."""
    n = alg.dim
    c = alg.structure
    items = []
    for j in range(n):
        ad_j = [[c[j][a][r] for a in range(n)] for r in range(n)]
        items += [((j,) + mono, x)
                  for mono, x in derivation_action_oracle(ad_j, k).terms.items()]
    return SymTensor.build(n, k.degree + 1, items)


# ---------------------------------------------------------------------------
# dense oracles for the exact solvers: Gauss-Jordan on dense rows, the dense
# Jacobi triple loop and the wedge-by-wedge skew-derivation solve that the
# sparse ``derivation_residual`` replaced
# ---------------------------------------------------------------------------

def gauss_jordan_oracle(rows, ncols):
    """Reduced row echelon form of dense rows: (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(r) for r in m[:len(pivots)]], pivots


def nullspace_oracle(rows, ncols):
    """Reduced echelon basis of the kernel of dense rows, as dense tuples:
    the free-column kernel vectors, reduced once more."""
    red, pivots = gauss_jordan_oracle(rows, ncols)
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, pc in zip(red, pivots):
                v[pc] = -row[f]
            kernel.append(v)
    return gauss_jordan_oracle(kernel, ncols)[0]


def _structure_bracket(c, x, y):
    # the products with a zero coordinate of x or y add nothing and are skipped
    n = len(c)
    pairs = [(i, j) for i in range(n) if x[i] for j in range(n) if y[j]]
    return tuple(sum((x[i] * y[j] * c[i][j][k] for i, j in pairs), Fraction(0))
                 for k in range(n))


def derivation_residual_oracle(lie, m):
    """Nonzero entries of ``T[e_a,e_b] - [Te_a,e_b] - [e_a,Te_b]`` for
    ``a < b``, keyed ``(a, b, k)``, by three dense brackets per basis pair;
    ``m`` is ``T`` as an ``Endomorphism``."""
    c = lie.structure
    e = [basis_vec(lie.dim, s) for s in range(lie.dim)]
    out = {}
    for a in range(lie.dim):
        for b in range(a + 1, lie.dim):
            residual = (p - q - r for p, q, r in zip(
                m.apply(_structure_bracket(c, e[a], e[b])),
                _structure_bracket(c, m.apply(e[a]), e[b]),
                _structure_bracket(c, e[a], m.apply(e[b]))))
            out.update({(a, b, k): v for k, v in enumerate(residual) if v})
    return out


def jacobi_failure_oracle(structure):
    """First basis triple ``(i, j, k)``, ``i < j < k``, on which the Jacobi
    identity fails, by dense brackets; None when it holds."""
    c = [[[Fraction(x) for x in row] for row in plane] for plane in structure]
    n = len(c)
    e = [basis_vec(n, t) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = [a + b + d for a, b, d in zip(
                    _structure_bracket(c, _structure_bracket(c, e[i], e[j]), e[k]),
                    _structure_bracket(c, _structure_bracket(c, e[j], e[k]), e[i]),
                    _structure_bracket(c, _structure_bracket(c, e[k], e[i]), e[j]))]
                if any(jac):
                    return (i, j, k)
    return None


def skew_derivation_basis_oracle(lie):
    """Canonical basis of the skew derivations, solved densely over the
    wedge matrices ``E_ji - E_ij`` with three dense brackets per basis pair
    and wedge, then summed back from the wedge coordinates."""
    n = lie.dim
    wedges = []
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[Fraction(0)] * n for _ in range(n)]
            rows[j][i] = Fraction(1)
            rows[i][j] = Fraction(-1)
            wedges.append(Endomorphism(tuple(tuple(r) for r in rows)))
    c = lie.structure
    e = [basis_vec(n, s) for s in range(n)]
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            bab = _structure_bracket(c, e[a], e[b])
            residuals = [tuple(p - q - r for p, q, r in zip(
                m.apply(bab), _structure_bracket(c, m.apply(e[a]), e[b]),
                _structure_bracket(c, e[a], m.apply(e[b])))) for m in wedges]
            rows.extend([res[comp] for res in residuals] for comp in range(n))
    out = []
    for coords in nullspace_oracle(rows, len(wedges)):
        m = Endomorphism.zero(n)
        for c, wedge in zip(coords, wedges):
            if c != 0:
                m = m + c * wedge
        out.append(m)
    return tuple(out)
