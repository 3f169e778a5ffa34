"""Batch command-line front end.

Each run prints one JSON report to stdout containing the input file hashes,
the effective parameters and the results; identical inputs and parameters
produce byte-identical reports.  Exit codes: 0 success, 2 parse/validation
error or a request past the brute-force solver's size limits or the series
term cap, 3 method or algebra-kind mismatch, 4 tensor not Killing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache
from pathlib import Path

from mpmath import mp

from . import fileformats as ff
from .almostabelian import AlmostAbelianAlgebra
from .curvature import classify, flat_metric_certificate, left_invariant_killing_vectors, \
    metric_obstruction
from .exactlinalg import basis_vec
from .killingfields import (
    DEFAULT_ORDER_FLOOR,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DerivationCapError,
    DerivationField,
    GeneratorError,
    LeftInvariant,
    Metric,
    NotKillingError,
    RightInvariant,
    SeriesCapError,
    SkewDerivation,
    _mp_vec,
    omega_generator,
    skew_derivation_basis,
    skew_derivations,
    decompose,
    verify_certificate,
)
from .liealgebra import SolverCapError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_KIND = 3
EXIT_NOT_KILLING = 4


class WrongAlgebraKind(ValueError):
    pass


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ff.ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ff.ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                            f"{exc.msg}") from exc


def _load_algebra(path: str):
    return ff.algebra_from_dict(_load_json(path))


def _require_almost_abelian(alg, what: str) -> AlmostAbelianAlgebra:
    if not isinstance(alg, AlmostAbelianAlgebra):
        raise WrongAlgebraKind(f"{what} requires an almost abelian algebra file")
    return alg


def _params(args) -> dict:
    return {
        "seed": args.seed,
        "tol": args.tol,
        "samples": args.samples,
        "order_floor": args.order_floor,
    }


def _report(args, command: str, inputs: dict, result) -> dict:
    return {
        "command": command,
        "inputs": {name: {"path": path, "sha256": _sha256(path)}
                   for name, path in inputs.items()},
        "parameters": _params(args),
        "result": result,
    }


def _emit(args, report: dict) -> int:
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_killing_basis(args) -> int:
    alg = _load_algebra(args.algebra)
    almost = isinstance(alg, AlmostAbelianAlgebra)
    method = args.method or ("both" if almost else "brute")
    if method in ("structured", "both") and not almost:
        raise WrongAlgebraKind("structured method requires an almost abelian algebra file")
    result = {"degree": args.degree, "method": method}
    if method in ("brute", "both"):
        brute = alg.killing_space_bruteforce(args.degree)
        result["dimension"] = brute.dimension
        result["basis"] = ff.killing_space_to_dict(brute)["basis"]
    if method in ("structured", "both"):
        structured = alg.killing_space_structured(args.degree)
        result["dimension"] = structured.dimension
        result["basis"] = ff.killing_space_to_dict(structured)["basis"]
    if method == "both":
        result["agree"] = structured.basis == brute.basis
    return _emit(args, _report(args, "killing-basis", {"algebra": args.algebra}, result))


def cmd_decompose(args) -> int:
    alg = _require_almost_abelian(_load_algebra(args.algebra), "decompose")
    tensor = ff.tensor_from_dict(_load_json(args.tensor), alg.dim)
    cert = decompose(alg, tensor)
    check = verify_certificate(alg, cert, samples=args.samples, tol=args.tol,
                               seed=args.seed, order_floor=args.order_floor)
    cert_doc = ff.certificate_to_dict(cert)
    out_path = args.certificate_out or (str(Path(args.tensor).with_suffix("")) + ".cert.json")
    Path(out_path).write_text(json.dumps(cert_doc, sort_keys=True, indent=2) + "\n")
    result = {
        "certificate": cert_doc,
        "certificate_path": out_path,
        "verification": ff.check_to_dict(check),
    }
    return _emit(args, _report(args, "decompose",
                               {"algebra": args.algebra, "tensor": args.tensor}, result))


def cmd_verify(args) -> int:
    alg = _load_algebra(args.algebra)
    cert = ff.certificate_from_dict(_load_json(args.certificate), alg.dim)
    check = verify_certificate(alg, cert, samples=args.samples, tol=args.tol,
                               seed=args.seed, order_floor=args.order_floor)
    result = {"verification": ff.check_to_dict(check), "passed": check.passed}
    return _emit(args, _report(args, "verify",
                               {"algebra": args.algebra, "certificate": args.certificate},
                               result))


def cmd_curvature(args) -> int:
    alg = _require_almost_abelian(_load_algebra(args.algebra), "curvature")
    cls = classify(alg)
    if cls.kind == "flat":
        cert = flat_metric_certificate(alg)
        check = verify_certificate(alg, cert, samples=args.samples, tol=args.tol,
                                   seed=args.seed, order_floor=args.order_floor)
        result = {
            "class": "flat",
            "certificate": ff.certificate_to_dict(cert),
            "verification": ff.check_to_dict(check),
        }
    elif cls.kind == "constant_negative":
        report = metric_obstruction(alg)
        vectors = left_invariant_killing_vectors(alg)
        result = {
            "class": "constant_negative",
            "lambda": ff.format_rational(cls.curvature_scale),
            "D_Lh_eigen": ff.format_rational(report.eigen_scalar),
            "left_invariant_killing_dimension": vectors.dimension,
            "obstruction": {
                "derivative_of_ideal_squares": ff.tensor_to_dict(
                    report.derivative_of_ideal_squares),
                "residual": [
                    {"monomial": list(m), "coeff": c}
                    for m, c in sorted(report.residual_coefficients.items())
                ],
                "residual_max": report.residual_max,
                "obstructed": report.obstructed,
            },
        }
    else:
        result = {"class": "not_constant"}
    return _emit(args, _report(args, "curvature", {"algebra": args.algebra}, result))


def cmd_derivations(args) -> int:
    alg = _load_algebra(args.algebra)
    if isinstance(alg, AlmostAbelianAlgebra):
        basis = skew_derivations(alg)
        items = [
            {
                "b_image": [ff.format_rational(x) for x in t.b_image],
                "ideal_block": [[ff.format_rational(x) for x in row]
                                for row in t.ideal_part.entries],
            }
            for t in basis
        ]
    else:
        items = [
            {"matrix": [[ff.format_rational(x) for x in row] for row in m.entries]}
            for m in skew_derivation_basis(alg)
        ]
    result = {"dimension": len(items), "basis": items}
    return _emit(args, _report(args, "derivations", {"algebra": args.algebra}, result))


def _parse_point(text: str, dim: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise ff.ParseError(f"--at: expected {dim} comma-separated entries, got {len(parts)}")
    out = []
    for i, p in enumerate(parts):
        try:
            value = ff.parse_rational(p, f"--at[{i}]")
            float(value)  # the report shows the point as floats: overflows past their range
        except (ff.ParseError, OverflowError):
            try:
                value = float(p)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ff.ParseError(f"--at[{i}]: cannot parse {p!r} as a finite rational or float")
        out.append(value)
    return tuple(out)


def _generator_index(text: str, count: int, what: str) -> int:
    try:
        i = int(text)
    except ValueError:
        raise ff.ParseError(f"--generator: {what} must be an integer, got {text!r}") from None
    if not 0 <= i < count:
        raise ff.ParseError(f"--generator: {what} {i} out of range ({count} available)")
    return i


def cmd_omega_sample(args) -> int:
    alg = _load_algebra(args.algebra)
    w = _parse_point(args.at, alg.dim)
    spec = args.generator.strip()
    kind, _, index = spec.partition(":")
    with mp.workdps(60):
        if spec == "metric":
            gen = Metric()
        elif kind in ("left", "right"):
            i = _generator_index(index, alg.dim, "basis index")
            vec = basis_vec(alg.dim, i)
            gen = LeftInvariant(vec) if kind == "left" else RightInvariant(vec)
        elif kind == "deriv":
            basis = skew_derivation_basis(alg)
            i = _generator_index(index, len(basis), "derivation index")
            gen = DerivationField(SkewDerivation.from_matrix(basis[i]))
        else:
            raise ff.ParseError("--generator: expected metric | left:I | right:I | deriv:I")
        value = omega_generator(alg, gen, _mp_vec(w), order=args.order)
        doc = ff.numeric_tensor_to_dict(value)
    result = {"generator": spec, "at": [float(x) for x in w], "value": doc}
    return _emit(args, _report(args, "omega-sample", {"algebra": args.algebra}, result))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: ``parse_args``
    does not change it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    common.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES)
    common.add_argument("--order-floor", type=_int_at_least(0), default=DEFAULT_ORDER_FLOOR,
                        dest="order_floor")
    common.add_argument("--json", action="store_true",
                        help="compact JSON report (default)")
    common.add_argument("--pretty", action="store_true", help="indented JSON report")

    parser = argparse.ArgumentParser(
        prog="killingtensors",
        description="Left-invariant symmetric Killing tensors on metric Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("killing-basis", parents=[common],
                       help="basis of the Killing space of one degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--degree", type=_int_at_least(0), required=True)
    p.add_argument("--method", choices=["structured", "brute", "both"])
    p.set_defaults(func=cmd_killing_basis)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a Killing tensor into a certificate")
    p.add_argument("--algebra", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--certificate-out", dest="certificate_out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="verify a certificate file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curvature", parents=[common],
                       help="constant-curvature classification and consequences")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("derivations", parents=[common],
                       help="basis of the skew-symmetric derivations")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("omega-sample", parents=[common],
                       help="evaluate one generator's pullback value at a point")
    p.add_argument("--algebra", required=True)
    p.add_argument("--generator", required=True,
                   help="metric | left:I | right:I | deriv:I")
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.add_argument("--order", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_omega_sample)
    return parser


def _fail(code: int, kind: str, detail: str, diagnosis=None) -> int:
    doc = {"error": kind, "detail": detail}
    if diagnosis is not None:
        doc["diagnosis"] = list(diagnosis)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ff.ParseError, GeneratorError) as exc:
        return _fail(EXIT_PARSE, "parse error", str(exc))
    except (SolverCapError, SeriesCapError, DerivationCapError) as exc:
        return _fail(EXIT_PARSE, "limit exceeded", exc.limits)
    except WrongAlgebraKind as exc:
        return _fail(EXIT_KIND, "method/algebra mismatch", str(exc))
    except NotKillingError as exc:
        failures = exc.diagnosis.failures if exc.diagnosis is not None else (str(exc),)
        return _fail(EXIT_NOT_KILLING, "not a Killing tensor", str(exc), failures)


if __name__ == "__main__":
    sys.exit(main())
