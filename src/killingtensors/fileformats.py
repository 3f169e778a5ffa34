"""JSON file formats for algebras, tensors, certificates and reports.

Rationals travel as "p/q" strings end to end so nothing is ever rounded;
parse errors carry the JSON path of the offending entry.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .almostabelian import AlmostAbelianAlgebra
from .killingfields import (
    Certificate,
    CertificateCheck,
    DerivationField,
    LeftInvariant,
    Metric,
    RightInvariant,
    SkewDerivation,
    generator_degree,
)
from .liealgebra import KillingSpace, MetricLieAlgebra
from .tensors import Endomorphism, SymTensor

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParseError(ValueError):
    pass


def parse_rational(value, where="value") -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL.match(value.strip()):
        raise ParseError(f"{where}: expected a rational 'p/q' string, got {value!r}")
    s = value.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ParseError(f"{where}: zero denominator in {value!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def _object(doc, where) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object")
    return doc


def _list(value, where) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a JSON list")
    return value


def _rational_matrix(rows, n, where):
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"{where}: expected {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}[{i}]: expected {n} entries")
        out.append(tuple(parse_rational(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(out)


def _rational_vector(entries, n, where):
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"{where}: expected {n} entries")
    return tuple(parse_rational(x, f"{where}[{i}]") for i, x in enumerate(entries))


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def algebra_from_dict(doc) -> MetricLieAlgebra:
    """Almost abelian form {"n": ..., "D": ...} or general structure-constant
    form {"dim": ..., "structure": [[i, j, k, "p/q"], ...]} (missing entries
    filled by antisymmetry)."""
    _object(doc, "algebra file")
    if "D" in doc or "n" in doc:
        n = doc.get("n")
        if not isinstance(n, int) or n < 0:
            raise ParseError("n: expected a nonnegative integer")
        return AlmostAbelianAlgebra(Endomorphism(_rational_matrix(doc.get("D"), n, "D")))
    if "structure" in doc or "dim" in doc:
        dim = doc.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise ParseError("dim: expected a positive integer")
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for t, entry in enumerate(_list(doc.get("structure", []), "structure")):
            where = f"structure[{t}]"
            if not isinstance(entry, list) or len(entry) != 4:
                raise ParseError(f"{where}: expected [i, j, k, 'p/q']")
            i, j, k = entry[0], entry[1], entry[2]
            if not all(isinstance(x, int) and 0 <= x < dim for x in (i, j, k)):
                raise ParseError(f"{where}: indices out of range for dim {dim}")
            val = parse_rational(entry[3], f"{where}[3]")
            if (i, j, k) in seen:
                raise ParseError(f"{where}: duplicate entry ({i},{j},{k})")
            seen.add((i, j, k))
            if (j, i, k) in seen:
                if c[j][i][k] != -val:
                    raise ParseError(f"{where}: conflicts with antisymmetry of ({j},{i},{k})")
            else:
                c[j][i][k] = -val
            c[i][j][k] = val
        try:
            return MetricLieAlgebra(c)
        except ValueError as exc:
            raise ParseError(f"structure: {exc}") from exc
    raise ParseError("algebra file: expected keys 'n'/'D' or 'dim'/'structure'")


def algebra_to_dict(alg: MetricLieAlgebra) -> dict:
    if isinstance(alg, AlmostAbelianAlgebra):
        return {
            "n": alg.ideal_dim,
            "D": [[format_rational(x) for x in row] for row in alg.derivation.entries],
        }
    entries = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                if alg.structure[i][j][k] != 0:
                    entries.append([i, j, k, format_rational(alg.structure[i][j][k])])
    return {"dim": alg.dim, "structure": entries}


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def tensor_from_dict(doc, dim, where="tensor") -> SymTensor:
    _object(doc, where)
    degree = doc.get("degree")
    if not isinstance(degree, int) or degree < 0:
        raise ParseError(f"{where}.degree: expected a nonnegative integer")
    terms = {}
    for t, item in enumerate(_list(doc.get("terms", []), f"{where}.terms")):
        w = f"{where}.terms[{t}]"
        mono = _object(item, w).get("monomial")
        if (not isinstance(mono, list) or len(mono) != degree
                or any(not isinstance(i, int) for i in mono)):
            raise ParseError(f"{w}.monomial: expected {degree} integer indices")
        if any(not (0 <= i < dim) for i in mono):
            raise ParseError(f"{w}.monomial: index out of range for dimension {dim}")
        if sorted(mono) != mono:
            raise ParseError(f"{w}.monomial: indices must be sorted")
        key = tuple(mono)
        if key in terms:
            raise ParseError(f"{w}.monomial: duplicate monomial")
        coeff = parse_rational(item.get("coeff"), f"{w}.coeff")
        if coeff != 0:
            terms[key] = coeff
    return SymTensor(dim, degree, terms)


def tensor_to_dict(t: SymTensor) -> dict:
    return {
        "degree": t.degree,
        "terms": [
            {"monomial": list(mono), "coeff": format_rational(t.terms[mono])}
            for mono in sorted(t.terms)
        ],
    }


def numeric_tensor_to_dict(t: SymTensor) -> dict:
    """Same layout with float coefficients, for sampled values."""
    return {
        "degree": t.degree,
        "terms": [
            {"monomial": list(mono), "coeff": float(t.terms[mono])}
            for mono in sorted(t.terms)
        ],
    }


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _generator_to_dict(gen) -> dict:
    if isinstance(gen, Metric):
        return {"kind": "metric"}
    if isinstance(gen, LeftInvariant):
        return {"kind": "left", "vector": [format_rational(x) for x in gen.vector]}
    if isinstance(gen, RightInvariant):
        return {"kind": "right", "vector": [format_rational(x) for x in gen.vector]}
    if isinstance(gen, DerivationField):
        t = gen.derivation
        return {
            "kind": "deriv",
            "b_image": [format_rational(x) for x in t.b_image],
            "ideal_block": [[format_rational(x) for x in row] for row in t.ideal_part.entries],
        }
    raise TypeError(f"unknown generator {gen!r}")


def _generator_from_dict(doc, dim, where) -> object:
    kind = _object(doc, where).get("kind")
    if kind == "metric":
        return Metric()
    if kind in ("left", "right"):
        v = _rational_vector(doc.get("vector"), dim, f"{where}.vector")
        return LeftInvariant(v) if kind == "left" else RightInvariant(v)
    if kind == "deriv":
        n = dim - 1
        v = _rational_vector(doc.get("b_image"), n, f"{where}.b_image")
        block = Endomorphism(_rational_matrix(doc.get("ideal_block"), n, f"{where}.ideal_block"))
        return DerivationField(SkewDerivation(v, block))
    raise ParseError(f"{where}.kind: expected metric|left|right|deriv, got {kind!r}")


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "target": tensor_to_dict(cert.target),
        "terms": [
            {"coeff": format_rational(c), "factors": [_generator_to_dict(g) for g in fs]}
            for c, fs in cert.terms
        ],
    }


def certificate_from_dict(doc, dim, where="certificate") -> Certificate:
    _object(doc, where)
    target = tensor_from_dict(doc.get("target"), dim, f"{where}.target")
    terms = []
    for t, item in enumerate(_list(doc.get("terms", []), f"{where}.terms")):
        w = f"{where}.terms[{t}]"
        coeff = parse_rational(_object(item, w).get("coeff"), f"{w}.coeff")
        factors = tuple(
            _generator_from_dict(f, dim, f"{w}.factors[{s}]")
            for s, f in enumerate(_list(item.get("factors", []), f"{w}.factors"))
        )
        degree = sum(generator_degree(g) for g in factors)
        if degree != target.degree:
            raise ParseError(f"{w}.factors: term has degree {degree} (metric 2, fields 1), "
                             f"the target has degree {target.degree}")
        terms.append((coeff, factors))
    return Certificate(target=target, terms=tuple(terms))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def killing_space_to_dict(space: KillingSpace) -> dict:
    return {
        "degree": space.degree,
        "dimension": space.dimension,
        "basis": [tensor_to_dict(t) for t in space.basis],
    }


def check_to_dict(check: CertificateCheck) -> dict:
    return {
        "passed": check.passed,
        "exact_at_zero": check.exact_at_zero,
        "max_deviation": check.max_deviation,
        "samples": check.samples,
        "tol": check.tol,
        "seed": check.seed,
        "order_floor": check.order_floor,
        "precision_digits": check.precision_digits,
    }
