"""Exact elimination over the rationals.

The solvers hand in sparse vectors: ``{key: value}`` dicts of ``Fraction``s
or ints that name only their nonzero entries.  ``nullspace`` takes the image
of each unknown as one such column (the Killing solvers key it by monomial
position, ``tensors.replace_factor_columns``) and ``rref_span`` takes the
spanning vectors themselves.  Both eliminate once, forward, in ``_echelon``,
which first drops the forced unknowns (rows of one entry) without
arithmetic and then runs a sparse fraction-free elimination on integer
rows.  ``rref_span`` then back-substitutes to the reduced row echelon form
(RREF), its output; ``nullspace`` needs no RREF: it returns ``[]`` when every
column is a pivot or forced, and otherwise solves each free unknown's vector
from the echelon rows.  Matrix arithmetic lives in ``tensors.Endomorphism``.
The RREF of a matrix is unique, and so is the RREF basis of a kernel, so the
canonical basis of a row space or nullspace depends neither on how it is
eliminated nor on the choice of pivot rows.
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
    columns ``0 .. n-1``: ``(forced, echelon)``, the set of forced columns
    and the echelon rows ``{pivot column: row}`` in pivot order, each row
    led by its pivot.  No echelon row holds a forced column.

    First the forced unknowns, as in the structured Gaussian elimination of
    LaMacchia and Odlyzko (CRYPTO 1990), before any row is combined: a row
    of one entry, at column ``c``, says that ``e_c`` is in the row space,
    and ``c`` is deleted from every other row with no arithmetic, each
    changed row divided by its new content.  The rows left with one entry
    are forced in the next pass, the emptied ones dropped.

    Then fraction-free elimination, in the spirit of Bareiss (Math. Comp.
    22, 1968): rows are sparse ``{column: int}`` dicts combined by integer
    cross-multiplication with their content divided out.  The rows wait in
    buckets keyed by their leading column; the columns are taken in order,
    each pivots on the sparsest row of the column's bucket and clears the
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
        buckets.setdefault(min(row), []).append(row)
    echelon = {}
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
        echelon[c] = p
    return forced, echelon


def _back_substitute(echelon: dict) -> dict:
    """The back phase: the echelon rows reduced, from the last pivot up,
    each cleared at the later pivot columns with the rows already reduced,
    so that every row is 0 at every other pivot column."""
    # a pivot row starts at its own column, so its other pivot columns are later ones
    for c in reversed(echelon):
        p = echelon[c]
        for j in [j for j in p if j in echelon and j != c]:
            p = _eliminate(p, echelon[j], j)
        echelon[c] = p
    return echelon


def nullspace(columns: dict) -> list:
    """Canonical (RREF) basis of the kernel of a linear map, as sparse
    ``{unknown: value}`` dicts, from one forward elimination.

    ``columns`` maps each unknown, in echelon order, to its image as a sparse
    ``{row key: value}`` dict.  The equations are eliminated with the
    unknowns in reverse order, unknown ``i`` of ``n`` at column ``n-1-i``.
    A free column is neither a pivot nor forced; with none, the rank is
    ``n`` and the kernel ``{0}``.  The vector of a free column ``f`` is 1 at
    ``f``, 0 at the other free and the forced columns, and solved from the
    echelon rows for the pivots, from the last one up.  A pivot after ``f``
    sees only zeros, so the vector leads at ``f``'s unknown and is 0 at every
    other free unknown: these vectors, in the order of their free unknowns,
    are the RREF basis of the kernel, which is unique.  A vector is solved on
    ints over one common denominator, which grows, and rescales the entries
    already solved, only when a lead does not divide; only the finished
    entries become ``Fraction``s.
    """
    n = len(columns)
    rows = {}
    for c, image in zip(reversed(range(n)), columns.values()):
        for r, x in image.items():
            if x:
                rows.setdefault(r, {})[c] = x
    forced, echelon = _echelon([_integer_row(row) for row in rows.values()], n)
    free = [c for c in reversed(range(n)) if c not in echelon and c not in forced]
    if not free:
        return []
    unknowns = list(columns)[::-1]  # the unknown of each column
    pivots = list(echelon)
    kernel = []
    for f in free:  # in echelon order
        v, d = {f: 1}, 1  # the vector is v / d
        for c in reversed(pivots[:bisect(pivots, f)]):
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
                    d *= m
                v[c] = -s // g
        kernel.append({unknowns[j]: Fraction(x, d) for j, x in v.items()})
    return kernel


def rref_span(vectors) -> list:
    """Canonical (RREF) basis of the span of sparse ``{key: value}`` vectors,
    with the columns in sorted key order (monomial tuples sort
    lexicographically): both phases of the elimination, each reduced row
    divided by its pivot."""
    keys = sorted({k for v in vectors for k in v})
    position = {k: c for c, k in enumerate(keys)}
    rows = [_integer_row({position[k]: x for k, x in v.items() if x})
            for v in vectors if any(v.values())]
    forced, echelon = _echelon(rows, len(keys))
    reduced = _back_substitute(echelon) | {c: {c: 1} for c in forced}
    out = []
    for c in sorted(reduced):
        row = reduced[c]
        lead = row[c]
        out.append({keys[j]: Fraction(v, lead) for j, v in sorted(row.items())})
    return out
