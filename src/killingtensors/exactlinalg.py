"""Exact elimination over the rationals.

The solvers hand in sparse vectors: ``{key: value}`` dicts of ``Fraction``s
or ints that name only their nonzero entries.  ``nullspace`` takes the image
of each unknown as one such column (the Killing solvers key it by monomial
position, ``tensors.replace_factor_columns``) and ``rref_span`` takes the
spanning vectors themselves; each reduces once in ``_reduce``, which first
drops the forced unknowns (rows of one entry) without arithmetic and then
runs a sparse fraction-free elimination on integer rows.  Matrix arithmetic
lives in ``tensors.Endomorphism``.  The reduced row echelon form of a matrix
is unique, so the canonical basis of a row space or nullspace depends
neither on how it is eliminated nor on the choice of pivot rows.
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
    denominators; content divided out."""
    if any(type(x) is not int for x in row.values()):
        scale = lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
    return _primitive(row)


def _reduce(rows, n: int) -> dict:
    """Reduced integer rows of the nonzero primitive rows ``rows`` over the
    columns ``0 .. n-1``: ``{pivot column: row}`` in pivot order, each row
    led by its pivot and 0 at every other pivot column.

    First the forced unknowns, as in the structured Gaussian elimination of
    LaMacchia and Odlyzko (CRYPTO 1990), before any row is combined: a row
    of one entry, at column ``c``, becomes the pivot row ``{c: 1}``, and
    ``c`` is deleted from every other row with no arithmetic, each changed
    row divided by its new content.  The rows left with one entry are forced
    in the next pass, the emptied ones dropped.  No remaining row holds a
    forced column, so the elimination below never meets one.

    Then fraction-free elimination, in the spirit of Bareiss (Math. Comp.
    22, 1968): rows are sparse ``{column: int}`` dicts combined by integer
    cross-multiplication with their content divided out.  The rows wait in
    buckets keyed by their leading column; forward elimination takes the
    columns in order, pivots on the sparsest row of the column's bucket and
    clears the column from the bucket's other rows, whose new leads are
    later columns.  Back-substitution runs from the last pivot up and clears
    each pivot row at the later pivot columns with the rows already reduced.
    """
    forced = {}
    while new := {c for row in rows if len(row) == 1 for c in row}:
        forced.update({c: {c: 1} for c in new})
        rows = [row if row.keys().isdisjoint(new)
                else _primitive({j: v for j, v in row.items() if j not in new})
                for row in rows if len(row) > 1]
        rows = [row for row in rows if row]
    buckets = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    reduced = {}
    for c in range(n):
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
                    buckets.setdefault(min(r), []).append(r)
        reduced[c] = p
    # a pivot row starts at its own column, so its other pivot columns are later ones
    for c in reversed(reduced):
        p = reduced[c]
        for j in [j for j in p if j in reduced and j != c]:
            p = _eliminate(p, reduced[j], j)
        reduced[c] = p
    return dict(sorted({**forced, **reduced}.items())) if forced else reduced


def nullspace(columns: dict) -> list:
    """Canonical (RREF) basis of the kernel of a linear map, as sparse
    ``{unknown: value}`` dicts, in one elimination.

    ``columns`` maps each unknown, in echelon order, to its image as a sparse
    ``{row key: value}`` dict.  The equations are reduced with the unknowns
    in reverse order, unknown ``i`` of ``n`` at column ``n-1-i``, so a
    reduced row holds, beside its pivot, only free unknowns that come before
    the pivot.  The vector of a free unknown ``f`` (1 at ``f``, minus the
    pivot rows' entries at ``f`` over their leads) thus leads at ``f`` and is
    0 at every other free unknown: these vectors, in the order of their free
    unknowns, are already the RREF basis of the kernel.  Only their entries
    become ``Fraction``s.
    """
    n = len(columns)
    unknowns = list(columns)[::-1]  # the unknown of each column
    rows = {}
    for c, image in zip(reversed(range(n)), columns.values()):
        for r, x in image.items():
            if x:
                rows.setdefault(r, {})[c] = x
    reduced = _reduce([_integer_row(row) for row in rows.values()], n)
    kernel = {c: {unknowns[c]: _ONE} for c in reversed(range(n)) if c not in reduced}
    for c in reversed(reduced):  # in echelon order
        p = reduced[c]
        lead, u = p[c], unknowns[c]
        for j, x in p.items():
            if j != c:
                kernel[j][u] = Fraction(-x, lead)
    return list(kernel.values())


def rref_span(vectors) -> list:
    """Canonical (RREF) basis of the span of sparse ``{key: value}`` vectors,
    with the columns in sorted key order (monomial tuples sort
    lexicographically)."""
    keys = sorted({k for v in vectors for k in v})
    position = {k: c for c, k in enumerate(keys)}
    rows = [_integer_row({position[k]: x for k, x in v.items() if x})
            for v in vectors if any(v.values())]
    out = []
    for c, row in _reduce(rows, len(keys)).items():
        lead = row[c]
        out.append({keys[j]: Fraction(v, lead) for j, v in sorted(row.items())})
    return out
