"""Exact elimination over the rationals.

The solvers hand in sparse vectors: ``{key: Fraction}`` dicts that name only
their nonzero entries.  ``nullspace`` takes the image of each unknown as one
such column and ``rref_span`` takes the spanning vectors themselves; each
reduces once in ``_sparse_rref``, a sparse fraction-free elimination, and matrix
arithmetic lives in ``tensors.Endomorphism``.  The reduced row echelon form
of a matrix is unique, so the canonical basis of a row space or nullspace
depends neither on how it is eliminated nor on the choice of pivot rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _primitive(row: dict) -> dict:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(r: dict, p: dict, c: int) -> dict:
    """``a r - b p`` for the pivot row ``p`` with ``a = p[c]`` and ``b = r[c]``
    made coprime: column ``c`` of ``r`` cleared, content divided out."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    out = {j: a * x for j, x in r.items()} if a != 1 else dict(r)
    for j, y in p.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _sparse_rref(rows, keys: list):
    """RREF of sparse rows over the columns ``keys``, in that order: the
    nonzero reduced rows as sparse dicts, and the pivot keys.

    Fraction-free, in the spirit of Bareiss (Math. Comp. 22, 1968): each row
    is cleared of denominators once and kept as a sparse ``{column: int}``
    dict, and rows are combined by integer cross-multiplication with their
    content divided out.  Forward elimination takes the columns in order,
    pivots on the sparsest active row that carries the column and clears it
    from the other active rows, so every active row starts past the columns
    done.  Back-substitution runs from the last pivot up and clears each
    pivot row at the later pivot columns with the rows already reduced.
    Only then does each row become ``Fraction``s, divided by its pivot.
    """
    position = {k: c for c, k in enumerate(keys)}
    active = []
    for row in rows:
        if any(row.values()):
            scale = lcm(*(x.denominator for x in row.values()))
            active.append(_primitive({position[k]: x.numerator * (scale // x.denominator)
                                      for k, x in row.items() if x}))
    pivots, reduced = [], {}
    for c in range(len(keys)):
        if not active:
            break
        hits = [r for r in active if c in r]
        if not hits:
            continue
        p = min(hits, key=len)
        active = [r for r in active if c not in r]
        active.extend(row for row in (_eliminate(r, p, c) for r in hits if r is not p) if row)
        pivots.append(c)
        reduced[c] = p
    # a pivot row starts at its own column, so its other pivot columns are later ones
    for c in reversed(pivots):
        p = reduced[c]
        for j in sorted(j for j in p if j in reduced and j != c):
            p = _eliminate(p, reduced[j], j)
        reduced[c] = p
    out = []
    for c in pivots:
        row = reduced.pop(c)
        lead = row[c]
        out.append({keys[j]: Fraction(v, lead) for j, v in sorted(row.items())})
    return out, [keys[c] for c in pivots]


def nullspace(columns: dict) -> list:
    """Canonical (RREF) basis of the kernel of a linear map, as sparse
    ``{unknown: value}`` dicts, in one elimination.

    ``columns`` maps each unknown, in echelon order, to its image as a sparse
    ``{row key: value}`` dict.  The rows are reduced with the unknowns in
    reverse order, so a reduced row holds, beside its pivot, only free
    unknowns that come before the pivot.  The vector of a free unknown ``f``
    (1 at ``f``, minus the pivot rows' entries at ``f``) thus leads at ``f``
    and is 0 at every other free unknown: these vectors, in the order of
    their free unknowns, are already the RREF basis of the kernel.
    """
    unknowns = list(columns)
    rows = {}
    for u, image in columns.items():
        for r, x in image.items():
            rows.setdefault(r, {})[u] = x
    red, pivots = _sparse_rref(list(rows.values()), unknowns[::-1])
    pivot_set = set(pivots)
    kernel = []
    for f in unknowns:
        if f not in pivot_set:
            v = {f: _ONE}
            for p, row in zip(reversed(pivots), reversed(red)):  # in echelon order
                if f in row:
                    v[p] = -row[f]
            kernel.append(v)
    return kernel


def rref_span(vectors) -> list:
    """Canonical (RREF) basis of the span of sparse ``{key: value}`` vectors,
    with the columns in sorted key order (monomial tuples sort
    lexicographically)."""
    keys = sorted({k for v in vectors for k in v})
    return _sparse_rref(vectors, keys)[0]
