"""Dense exact elimination over the rationals.

Vectors are tuples of Fraction, matrices are sequences of rows; matrix
arithmetic lives in ``tensors.Endomorphism``.  Everything is plain
Gauss-Jordan at desk scale; the point is exactness, not speed.  The
reduced row echelon form of a matrix is unique, so the canonical basis of a
row space or nullspace does not depend on pivoting choices.
"""
from __future__ import annotations

from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce x (Fraction, int, 'p/q' string, float) to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def basis_vec(n: int, i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m], pivots


def nullspace(rows, ncols: int):
    """Canonical basis of the kernel of the matrix with the given column count.

    The basis vectors come from the free columns of the RREF with the free
    coordinate set to 1; the result is deterministic.
    """
    if ncols == 0:
        return []
    if not rows:
        return [basis_vec(ncols, i) for i in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for rowi, pc in enumerate(pivots):
            v[pc] = -red[rowi][f]
        basis.append(tuple(v))
    return basis


def rref_span(vectors):
    """Canonical (RREF) basis of the span of the given coordinate vectors."""
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return [red[i] for i in range(len(pivots))]


def determinant(rows) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det
