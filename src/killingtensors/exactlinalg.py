"""Exact elimination over the rationals.

The solvers hand in sparse vectors: ``{key: Fraction}`` dicts that name only
their nonzero entries.  ``nullspace`` takes the image of each unknown as one
such column and ``rref_span`` takes the spanning vectors themselves.  Dense
rows exist only here, built by ``_sparse_rref`` from the rows that carry a
nonzero and reduced by ``rref``; matrix arithmetic lives in
``tensors.Endomorphism``.  Everything is plain
Gauss-Jordan at desk scale; the point is exactness, not speed.  The reduced
row echelon form of a matrix is unique, so the canonical basis of a row
space or nullspace does not depend on pivoting choices.
"""
from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


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


def _sparse_rref(rows, keys: list):
    """RREF of sparse rows over the columns ``keys``, in that order: the
    nonzero reduced rows as sparse dicts, and the pivot keys."""
    position = {k: c for c, k in enumerate(keys)}
    dense = []
    for row in rows:
        if any(row.values()):
            d = [Fraction(0)] * len(keys)
            for k, x in row.items():
                d[position[k]] = x
            dense.append(d)
    red, pivots = rref(dense)
    return ([{keys[c]: x for c, x in enumerate(row) if x} for row in red[:len(pivots)]],
            [keys[c] for c in pivots])


def nullspace(columns: dict) -> list:
    """Canonical (RREF) basis of the kernel of a linear map, as sparse
    ``{unknown: value}`` dicts.

    ``columns`` maps each unknown, in echelon order, to its image as a sparse
    ``{row key: value}`` dict; the row keys must sort, and the rows are
    eliminated in sorted order.  The vector of each free unknown ``f`` (1 at
    ``f``, minus the pivot rows' entries at ``f``) spans the kernel, and one
    more reduction puts these vectors in echelon form.
    """
    unknowns = list(columns)
    rows = {}
    for u, image in columns.items():
        for r, x in image.items():
            rows.setdefault(r, {})[u] = x
    red, pivots = _sparse_rref([rows[r] for r in sorted(rows)], unknowns)
    pivot_set = set(pivots)
    kernel = []
    for f in unknowns:
        if f not in pivot_set:
            v = {f: _ONE}
            for row, p in zip(red, pivots):
                if f in row:
                    v[p] = -row[f]
            kernel.append(v)
    return _sparse_rref(kernel, unknowns)[0]


def rref_span(vectors) -> list:
    """Canonical (RREF) basis of the span of sparse ``{key: value}`` vectors,
    with the columns in sorted key order (monomial tuples sort
    lexicographically)."""
    keys = sorted({k for v in vectors for k in v})
    return _sparse_rref(vectors, keys)[0]
