"""JSON file formats for algebras, tensors, certificates and reports.

Rationals travel as "p/q" strings end to end so nothing is ever rounded;
parse errors carry the JSON path of the offending entry.
"""
from __future__ import annotations

import dataclasses
import math
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
from .limits import LimitError
from .tensors import Endomorphism, SymTensor

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParseError(ValueError):
    pass


# a parse error shows at most this many characters of the offending value
_SHOWN = 40


def shown(value) -> str:
    """``repr`` of an offending value for a parse error: past ``_SHOWN``
    characters (of a string, else of its ``repr``), the first ``_SHOWN``
    and ``...``, so one error line stays short whatever the input."""
    if isinstance(value, str):
        return repr(value) if len(value) <= _SHOWN else f"{value[:_SHOWN]!r}..."
    text = repr(value)
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}..."


def parse_rational(value, where="value") -> Fraction:
    if type(value) is int:  # a JSON integer; true and false read as the subclass bool
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL.match(value.strip()):
        raise ParseError(f"{where}: expected a rational 'p/q' string, got {shown(value)}")
    num, _, den = value.strip().partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # past the interpreter's limit on int-string conversion
        raise ParseError(f"{where}: {shown(value)} has more digits than int-string "
                         "conversion allows") from None
    if den == 0:
        raise ParseError(f"{where}: zero denominator in {shown(value)}")
    return Fraction(num, den)


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
        if type(n) is not int or n < 0:
            raise ParseError("n: expected a nonnegative integer")
        return AlmostAbelianAlgebra(Endomorphism(_rational_matrix(doc.get("D"), n, "D")))
    if "structure" in doc or "dim" in doc:
        dim = doc.get("dim")
        if type(dim) is not int or dim < 1:
            raise ParseError("dim: expected a positive integer")
        c = {}
        seen = set()
        for t, entry in enumerate(_list(doc.get("structure", []), "structure")):
            where = f"structure[{t}]"
            if not isinstance(entry, list) or len(entry) != 4:
                raise ParseError(f"{where}: expected [i, j, k, 'p/q']")
            i, j, k = entry[0], entry[1], entry[2]
            bad = [x for x in (i, j, k) if type(x) is not int]
            if bad:
                raise ParseError(f"{where}: expected integer indices, got {shown(bad[0])}")
            if not all(0 <= x < dim for x in (i, j, k)):
                raise ParseError(f"{where}: indices out of range for dim {dim}")
            val = parse_rational(entry[3], f"{where}[3]")
            if (i, j, k) in seen:
                raise ParseError(f"{where}: duplicate entry ({i},{j},{k})")
            seen.add((i, j, k))
            if (j, i, k) in seen:
                if c.get((j, i, k), 0) != -val:
                    raise ParseError(f"{where}: conflicts with antisymmetry of ({j},{i},{k})")
            else:
                c[j, i, k] = -val
            c[i, j, k] = val
        try:
            return MetricLieAlgebra(dim, c)
        except LimitError:
            raise
        except ValueError as exc:
            raise ParseError(f"structure: {exc}") from exc
    raise ParseError("algebra file: expected keys 'n'/'D' or 'dim'/'structure'")


def algebra_to_dict(alg: MetricLieAlgebra) -> dict:
    if isinstance(alg, AlmostAbelianAlgebra):
        return {
            "n": alg.ideal_dim,
            "D": [[format_rational(x) for x in row] for row in alg.derivation.entries],
        }
    entries = sorted([i, j, k, format_rational(Fraction(x, alg.denominator))]
                     for j, pairs in enumerate(alg.int_structure) for (i, k), x in pairs if i < j)
    return {"dim": alg.dim, "structure": entries}


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def tensor_from_dict(doc, dim, where="tensor") -> SymTensor:
    _object(doc, where)
    degree = doc.get("degree")
    if type(degree) is not int or degree < 0:
        raise ParseError(f"{where}.degree: expected a nonnegative integer")
    terms = {}
    seen = set()  # ``terms`` keeps no zero coefficient, so it cannot tell
    for t, item in enumerate(_list(doc.get("terms", []), f"{where}.terms")):
        w = f"{where}.terms[{t}]"
        mono = _object(item, w).get("monomial")
        if (not isinstance(mono, list) or len(mono) != degree
                or any(type(i) is not int for i in mono)):
            raise ParseError(f"{w}.monomial: expected {degree} integer indices")
        if any(not (0 <= i < dim) for i in mono):
            raise ParseError(f"{w}.monomial: index out of range for dimension {dim}")
        if sorted(mono) != mono:
            raise ParseError(f"{w}.monomial: indices must be sorted")
        key = tuple(mono)
        if key in seen:
            raise ParseError(f"{w}.monomial: duplicate monomial")
        seen.add(key)
        coeff = parse_rational(item.get("coeff"), f"{w}.coeff")
        if coeff != 0:
            terms[key] = coeff
    return SymTensor(dim, degree, terms)


def _tensor_dict(t: SymTensor, coeff) -> dict:
    """The layout of a tensor, with each coefficient written by ``coeff``."""
    return {
        "degree": t.degree,
        "terms": [
            {"monomial": list(mono), "coeff": coeff(t.terms[mono])}
            for mono in sorted(t.terms)
        ],
    }


def tensor_to_dict(t: SymTensor) -> dict:
    return _tensor_dict(t, format_rational)


def _json_float(x):
    """``float(x)``, or the string ``"inf"`` / ``"-inf"`` for a value past
    the float range: strict JSON has no infinities."""
    try:
        f = float(x)
    except OverflowError:  # a Fraction past the float range
        f = math.inf if x > 0 else -math.inf
    return ("inf" if f > 0 else "-inf") if math.isinf(f) else f


def numeric_tensor_to_dict(t: SymTensor) -> dict:
    """Same layout with float coefficients, for sampled values."""
    return _tensor_dict(t, _json_float)


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
        return {"kind": "deriv", **skew_derivation_to_dict(gen.derivation)}
    raise TypeError(f"unknown generator {gen!r}")


def skew_derivation_to_dict(t: SkewDerivation) -> dict:
    """The split pieces of a skew derivation, as in a ``deriv`` generator
    and in the ``derivations`` report."""
    return {
        "b_image": [format_rational(x) for x in t.b_image],
        "ideal_block": [[format_rational(x) for x in row] for row in t.ideal_part.entries],
    }


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
    raise ParseError(f"{where}.kind: expected metric|left|right|deriv, got {shown(kind)}")


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "target": tensor_to_dict(cert.target),
        "terms": [
            {"coeff": format_rational(c), "factors": [_generator_to_dict(g) for g in fs]}
            for c, fs in cert.terms
        ],
    }


def _document_key(doc):
    """A key of a JSON document that keeps the types of its values
    (``[true]`` is not ``[1]``, nor ``1.0`` ``1``): its ``repr``, or None
    for an int past the int-string conversion limit, which the JSON reader
    never makes and only a caller in Python can pass."""
    try:
        return repr(doc)
    except ValueError:
        return None


def certificate_from_dict(doc, dim, where="certificate") -> Certificate:
    """A certificate document read into one object per distinct generator
    document: each is parsed once, at its first factor, keyed by
    ``_document_key``."""
    _object(doc, where)
    target = tensor_from_dict(doc.get("target"), dim, f"{where}.target")
    terms = []
    parsed = {}
    for t, item in enumerate(_list(doc.get("terms", []), f"{where}.terms")):
        w = f"{where}.terms[{t}]"
        coeff = parse_rational(_object(item, w).get("coeff"), f"{w}.coeff")
        factors = []
        for s, f in enumerate(_list(item.get("factors", []), f"{w}.factors")):
            gen = parsed.get(key := _document_key(f))
            if gen is None:
                gen = _generator_from_dict(f, dim, f"{w}.factors[{s}]")
                if key is not None:
                    parsed[key] = gen
            factors.append(gen)
        factors = tuple(factors)
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
    return {**dataclasses.asdict(check), "max_deviation": _json_float(check.max_deviation)}
