"""Exact elimination over the rationals.

The exact solvers work on integers from their equations to their kernels.
They hand ``integer_kernel`` sparse integer rows, ``{unknown: int}`` dicts
keyed by unknown position that name only their nonzero entries (the Killing
solvers build them with ``tensors.replace_factor_rows``), and get back the
kernel as primitive integer vectors: content 1, positive at the free
unknown they lead at.  A vector divided by its lead is the reduced row
echelon form (RREF) basis vector, and that division, into ``Fraction``s, is
the first one made: ``nullspace``, which takes the image of each unknown as
a column of ``Fraction``s or ints keyed by any row key, is that view, and
the brute-force solver divides its vectors once as it keys them by
monomial.  ``rref_span`` takes spanning vectors, ints or ``Fraction``s, and
returns the RREF basis of their span as ``Fraction``s.

All of them eliminate once, forward, in ``_echelon``, which first drops the
forced unknowns (rows of one entry) without arithmetic and then runs a
sparse fraction-free elimination on integer rows.  ``rref_span`` then
back-substitutes to the RREF, its output; the kernel needs no RREF: it is
``[]`` when every column is a pivot or forced, and otherwise each free
unknown's vector is solved from the echelon rows.  Matrix arithmetic lives
in ``tensors.Endomorphism``.  The RREF of a matrix is unique, and so is the
RREF basis of a kernel, so the canonical basis of a row space or nullspace
depends neither on how it is eliminated nor on the choice of pivot rows.
"""
from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    """Coerce x (Fraction, int, 'p/q' string, float) to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def basis_vec(n: int, i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def _primitive(row: dict) -> dict:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(r: dict, p: dict, c: int) -> dict:
    """``a r - b p`` for the pivot row ``p`` with ``a = p[c]`` and ``b = r[c]``
    made coprime: column ``c`` of ``r`` cleared, content divided out."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    out = {j: a * x for j, x in r.items()} if a != 1 else r.copy()
    for j, y in p.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _integer_row(row: dict) -> dict:
    """A nonzero ``{column: value}`` row of ints and ``Fraction``s as a
    primitive integer row: an int row as it is, any other cleared of
    denominators; content divided out.  ``gcd`` takes ints only, so its
    refusal is what finds a ``Fraction``: an int row is not scanned."""
    try:
        g = gcd(*row.values())
    except TypeError:
        scale = lcm(*(x.denominator for x in row.values()))
        return _primitive({j: x.numerator * (scale // x.denominator) for j, x in row.items()})
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _echelon(rows, n: int):
    """The forward phase on the nonzero primitive rows ``rows`` over the
    columns ``0 .. n-1``, taken from the last one down: ``(forced,
    echelon)``, the set of forced columns and the echelon rows ``{pivot
    column: row}`` in pivot order, each row led by its pivot, its largest
    column.  No echelon row holds a forced column.  The kernel's RREF leads
    at the first unknowns it can, so its pivots are the last ones; the span
    numbers its columns from the last key down for the same reason.

    First the forced unknowns, as in the structured Gaussian elimination of
    LaMacchia and Odlyzko (CRYPTO 1990), before any row is combined: a row
    of one entry, at column ``c``, says that ``e_c`` is in the row space,
    and ``c`` is deleted from every other row with no arithmetic, each
    changed row divided by its new content.  The rows left with one entry
    are forced in the next pass, the emptied ones dropped.

    Then fraction-free elimination, in the spirit of Bareiss (Math. Comp.
    22, 1968): rows are sparse ``{column: int}`` dicts combined by integer
    cross-multiplication with their content divided out.  The rows wait in
    buckets keyed by their leading column; the columns are taken in that
    order, each pivots on the sparsest row of the column's bucket and clears the
    column from the bucket's other rows, whose new leads are later columns.
    """
    forced = set()
    while new := {c for row in rows if len(row) == 1 for c in row}:
        forced |= new
        rows = [row if row.keys().isdisjoint(new)
                else _primitive({j: v for j, v in row.items() if j not in new})
                for row in rows if len(row) > 1]
        rows = [row for row in rows if row]
    buckets = {}
    for row in rows:
        buckets.setdefault(max(row), []).append(row)
    echelon = {}
    for c in reversed(range(n)):
        if not buckets:
            break
        hits = buckets.pop(c, None)
        if hits is None:
            continue
        p = min(hits, key=len)
        for r in hits:
            if r is not p:
                r = _eliminate(r, p, c)
                if r:
                    buckets.setdefault(max(r), []).append(r)
        echelon[c] = p
    return forced, echelon


def _back_substitute(echelon: dict) -> dict:
    """The back phase: the echelon rows reduced, from the last pivot up,
    each cleared at the later pivot columns with the rows already reduced,
    so that every row is 0 at every other pivot column."""
    # a pivot row leads at its own column, so its other pivot columns are later ones
    for c in reversed(echelon):
        p = echelon[c]
        for j in [j for j in p if j in echelon and j != c]:
            p = _eliminate(p, echelon[j], j)
        echelon[c] = p
    return echelon


def integer_kernel(rows, n: int) -> list:
    """Canonical basis of the kernel of the nonzero integer rows ``rows``,
    ``{unknown: int}`` dicts over the unknowns ``0 .. n-1``, as primitive
    integer vectors, from one forward elimination.

    A free unknown is neither a pivot nor forced; with none, the rank is
    ``n`` and the kernel ``{0}``.  The vector of a free unknown ``f`` is
    ``d`` at ``f`` (``d > 0``), 0 at the other free and the forced unknowns,
    and solved from the echelon rows for the pivots after ``f``, from the
    first one on: a pivot before ``f`` sees only zeros.  So the vector leads
    at ``f`` and is 0 at every other free unknown: divided by ``d``, these
    vectors, in the order of their free unknowns, are the RREF basis of the
    kernel, which is unique.  ``d`` starts at 1 and grows, rescaling the
    entries already solved, only when a lead ``a`` does not divide the sum
    ``s`` that solves a pivot: by ``a / g`` for ``g = gcd(s, a)``, and the
    new entry ``-s / g`` is coprime to that factor.  So each vector stays
    primitive, the primitive multiple of its RREF vector.
    """
    forced, echelon = _echelon([_primitive(row) for row in rows], n)
    free = [f for f in range(n) if f not in echelon and f not in forced]
    if not free:
        return []
    pivots = sorted(echelon)
    kernel = []
    for f in free:
        v = {f: 1}
        for c in pivots[bisect(pivots, f):]:
            p = echelon[c]
            s = sum(x * v[j] for j, x in p.items() if j in v)
            if s:
                a = p[c]
                if a < 0:
                    a, s = -a, -s
                g = gcd(s, a)
                if g != a:
                    m = a // g
                    v = {j: x * m for j, x in v.items()}
                v[c] = -s // g
        kernel.append(v)
    return kernel


def nullspace(columns: dict) -> list:
    """Canonical (RREF) basis of the kernel of a linear map, as sparse
    ``{unknown: Fraction}`` dicts: ``integer_kernel`` of the equations,
    each vector divided by its lead.

    ``columns`` maps each unknown, in echelon order, to its image as a sparse
    ``{row key: value}`` dict of ints or ``Fraction``s; the equations are its
    rows, cleared of denominators.  Each vector leads at its unknown, and
    its other unknowns follow in echelon order."""
    unknowns = list(columns)
    rows = {}
    for u, image in enumerate(columns.values()):
        for r, x in image.items():
            if x:
                rows.setdefault(r, {})[u] = x
    out = []
    for v in integer_kernel([_integer_row(row) for row in rows.values()], len(unknowns)):
        lead = v[min(v)]
        out.append({unknowns[j]: Fraction(x, lead) for j, x in v.items()})
    return out


def rref_span(vectors) -> list:
    """Canonical (RREF) basis of the span of sparse ``{key: value}`` vectors,
    with the columns in sorted key order (monomial tuples sort
    lexicographically): both phases of the elimination, each reduced row
    divided by its pivot.  The elimination takes the last column first, so
    the first key is the last column."""
    keys = sorted({k for v in vectors for k in v}, reverse=True)
    position = {k: c for c, k in enumerate(keys)}
    rows = [_integer_row({position[k]: x for k, x in v.items() if x})
            for v in vectors if any(v.values())]
    forced, echelon = _echelon(rows, len(keys))
    reduced = _back_substitute(echelon) | {c: {c: 1} for c in forced}
    out = []
    for c in sorted(reduced, reverse=True):
        row = reduced[c]
        lead = row[c]
        out.append({keys[j]: Fraction(v, lead) for j, v in sorted(row.items(), reverse=True)})
    return out
