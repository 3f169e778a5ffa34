"""Shared randomized-suite builders and independent oracles for the tests."""
import random
from fractions import Fraction
from itertools import permutations

from mpmath import mp

from killingtensors import Endomorphism, SymTensor, basis_monomials, omega_generator
from killingtensors.exactlinalg import basis_vec, dot

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


def random_tensor(rng, dim, degree, nterms=4, span=3):
    monos = basis_monomials(dim, degree)
    items = [(rng.choice(monos), Fraction(rng.randint(-span, span), rng.choice((1, 2))))
             for _ in range(nterms)]
    return SymTensor.build(dim, degree, items)


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
    n = alg.dim
    basis = [tuple(Fraction(1 if t == i else 0) for t in range(n)) for i in range(n)]
    comps = []
    for z in basis:
        val = (dot(alg.bracket(y, x), z)
               - dot(alg.bracket(x, z), y)
               + dot(alg.bracket(z, y), x))
        comps.append(val / 2)
    return tuple(comps)


def omega_tensor_oracle(alg, cert, w, order=None):
    """Pullback value of a certificate by term-by-term expansion: per term,
    the symmetric product of its factors' values, each evaluated afresh,
    scaled by the coefficient and summed."""
    numeric = any(not isinstance(x, (Fraction, int)) for x in w)
    total = SymTensor.zero(alg.dim, cert.target.degree)
    for coeff, factors in cert.terms:
        c = mp.mpf(coeff.numerator) / coeff.denominator if numeric else coeff
        acc = SymTensor.monomial(alg.dim, (), c)
        for gen in factors:
            acc = acc * omega_generator(alg, gen, w, order)
        total = total + acc
    return total


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
