"""Shared randomized-suite builders and independent oracles for the tests."""
import random
from fractions import Fraction
from itertools import permutations

from mpmath import mp

from killingtensors import Endomorphism, SymTensor, basis_monomials, omega_generator
from killingtensors.exactlinalg import dot

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
