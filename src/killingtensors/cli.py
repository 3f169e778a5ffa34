"""Batch command-line front end.

Each run prints one JSON report to stdout containing the input file hashes,
the effective parameters and the results; identical inputs and parameters
produce byte-identical reports.  Exit codes: 0 success, 2 parse/validation
error or a request past a size limit (any ``limits.LimitError``: the algebra
dimension, the brute-force and structured solvers, the series term cap, the
skew-derivation solve, the certificate size and depth, the sample count
and coordinates, the sampled work over the trie levels and over the
working digits, and the working digits), 3 method or algebra-kind
mismatch, 4 tensor not Killing, 141 stdout closed before the whole report was
written (128 + SIGPIPE, the status a shell shows for a writer that a closed
pipe ends; nothing is printed).  An input file is read once, as UTF-8.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from functools import cache
from pathlib import Path

from . import fileformats as ff
from .almostabelian import AlmostAbelianAlgebra
from .curvature import classify, flat_metric_certificate, left_invariant_killing_vectors, \
    metric_obstruction
from .killingfields import (
    DEFAULT_ORDER_FLOOR,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DerivationField,
    GeneratorError,
    NotKillingError,
    REPORT_PREC,
    SkewDerivation,
    basis_fields,
    omega_generator,
    skew_derivations,
    decompose,
    verify_certificate,
)
from .liealgebra import skew_derivation_basis
from .limits import LimitError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_KIND = 3
EXIT_NOT_KILLING = 4
EXIT_CLOSED_STDOUT = 141


class WrongAlgebraKind(ValueError):
    pass


def _load_json(args, name: str):
    """The document of the input file ``args.<name>``, read once and decoded
    as UTF-8; the sha256 of those bytes goes to ``args.sha256`` for the
    report."""
    path = getattr(args, name)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ff.ParseError(f"{path}: {exc.strerror}") from exc
    args.sha256[name] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ff.ParseError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    try:
        return json.loads(text, parse_int=_int_or_digits)
    except json.JSONDecodeError as exc:
        raise ff.ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                            f"{exc.msg}") from exc


def _int_or_digits(text: str):
    """``parse_int`` hook: an int, or the literal's digits where it is too
    long to convert, which the reader then rejects with its JSON path."""
    try:
        return int(text)
    except ValueError:
        return text


def _load_algebra(args):
    return ff.algebra_from_dict(_load_json(args, "algebra"))


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


def _emit(args, result) -> int:
    """Print the one report of a command's ``result``: its input files are
    those it read, each with the sha256 of the bytes it parsed."""
    report = {
        "command": args.command,
        "inputs": {name: {"path": getattr(args, name), "sha256": digest}
                   for name, digest in args.sha256.items()},
        "parameters": _params(args),
        "result": result,
    }
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the recipe of the signal module's docs: point stdout at devnull, so
        # that the flush at exit writes the rest of the buffer there
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_killing_basis(args) -> dict:
    alg = _load_algebra(args)
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
    return result


def cmd_decompose(args) -> dict:
    alg = _require_almost_abelian(_load_algebra(args), "decompose")
    tensor = ff.tensor_from_dict(_load_json(args, "tensor"), alg.dim)
    cert = decompose(alg, tensor)
    check = verify_certificate(alg, cert, **_params(args))
    cert_doc = ff.certificate_to_dict(cert)
    out_path = args.certificate_out or (str(Path(args.tensor).with_suffix("")) + ".cert.json")
    try:
        Path(out_path).write_text(json.dumps(cert_doc, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise ff.ParseError(f"cannot write the certificate to {out_path}: {exc.strerror}") from exc
    result = {
        "certificate": cert_doc,
        "certificate_path": out_path,
        "verification": ff.check_to_dict(check),
    }
    return result


def cmd_verify(args) -> dict:
    alg = _load_algebra(args)
    cert = ff.certificate_from_dict(_load_json(args, "certificate"), alg.dim)
    check = verify_certificate(alg, cert, **_params(args))
    result = {"verification": ff.check_to_dict(check), "passed": check.passed}
    return result


def cmd_curvature(args) -> dict:
    alg = _require_almost_abelian(_load_algebra(args), "curvature")
    cls = classify(alg)
    if cls.kind == "flat":
        cert = flat_metric_certificate(alg)
        check = verify_certificate(alg, cert, **_params(args))
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
    return result


def cmd_derivations(args) -> dict:
    alg = _load_algebra(args)
    if isinstance(alg, AlmostAbelianAlgebra):
        items = [ff.skew_derivation_to_dict(t) for t in skew_derivations(alg)]
    else:
        items = [
            {"matrix": [[ff.format_rational(x) for x in row] for row in m.entries]}
            for m in skew_derivation_basis(alg)
        ]
    result = {"dimension": len(items), "basis": items}
    return result


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
                raise ff.ParseError(f"--at[{i}]: cannot parse {ff.shown(p)} as a finite rational "
                                    "or float")
        out.append(value)
    return tuple(out)


def _generator_index(text: str, count: int, what: str) -> int:
    try:
        i = int(text)
    except ValueError:
        raise ff.ParseError(
            f"--generator: {what} must be an integer, got {ff.shown(text)}") from None
    if not 0 <= i < count:
        raise ff.ParseError(f"--generator: {what} {i} out of range ({count} available)")
    return i


def cmd_omega_sample(args) -> dict:
    alg = _load_algebra(args)
    w = _parse_point(args.at, alg.dim)
    spec = args.generator.strip()
    kind, _, index = spec.partition(":")
    fields = basis_fields(alg)
    if spec == "metric":
        gen = fields.metric
    elif kind in ("left", "right"):
        i = _generator_index(index, alg.dim, "basis index")
        gen = (fields.left if kind == "left" else fields.right)[i]
    elif kind == "deriv":
        basis = skew_derivation_basis(alg)
        i = _generator_index(index, len(basis), "derivation index")
        gen = DerivationField(SkewDerivation.from_matrix(basis[i]))
    else:
        raise ff.ParseError("--generator: expected metric | left:I | right:I | deriv:I")
    value = omega_generator(alg, gen, w, order=args.order, prec=REPORT_PREC)
    doc = ff.numeric_tensor_to_dict(value)
    result = {"generator": spec, "at": [float(x) for x in w], "value": doc}
    return result


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _typed(convert, accept, expected: str):
    """An argparse ``type``: ``convert(text)`` where ``accept`` takes it,
    else an error that shows the value through ``ff.shown``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {ff.shown(text)}")
        return value

    return parse


def _int_at_least(low: int):
    return _typed(int, lambda value: value >= low, f"an integer >= {low}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: ``parse_args``
    does not change it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", required=True)
    common.add_argument("--seed", type=_typed(int, lambda value: True, "an integer"),
                        default=DEFAULT_SEED)
    common.add_argument("--tol", default=DEFAULT_TOL, type=_typed(
        float, lambda value: math.isfinite(value) and value > 0, "a finite number > 0"))
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
    p.add_argument("--degree", type=_int_at_least(0), required=True)
    p.add_argument("--method", choices=["structured", "brute", "both"])

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a Killing tensor into a certificate")
    p.add_argument("--tensor", required=True)
    p.add_argument("--certificate-out", dest="certificate_out")

    p = sub.add_parser("verify", parents=[common], help="verify a certificate file")
    p.add_argument("--certificate", required=True)

    sub.add_parser("curvature", parents=[common],
                   help="constant-curvature classification and consequences")

    sub.add_parser("derivations", parents=[common],
                   help="basis of the skew-symmetric derivations")

    p = sub.add_parser("omega-sample", parents=[common],
                       help="evaluate one generator's pullback value at a point")
    p.add_argument("--generator", required=True,
                   help="metric | left:I | right:I | deriv:I")
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.add_argument("--order", type=_int_at_least(0), default=None)
    return parser


def _fail(code: int, kind: str, detail: str, diagnosis=None) -> int:
    doc = {"error": kind, "detail": detail}
    if diagnosis is not None:
        doc["diagnosis"] = list(diagnosis)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.sha256 = {}
    # read at each call, not kept in the cached parser, so a wrapper put on
    # a ``cmd_*`` function later (perfbench's tracer) is what runs
    command = {"killing-basis": cmd_killing_basis, "decompose": cmd_decompose,
               "verify": cmd_verify, "curvature": cmd_curvature,
               "derivations": cmd_derivations, "omega-sample": cmd_omega_sample}[args.command]
    try:
        return _emit(args, command(args))
    except (ff.ParseError, GeneratorError) as exc:
        return _fail(EXIT_PARSE, "parse error", str(exc))
    except LimitError as exc:
        return _fail(EXIT_PARSE, "limit exceeded", exc.limits)
    except WrongAlgebraKind as exc:
        return _fail(EXIT_KIND, "method/algebra mismatch", str(exc))
    except NotKillingError as exc:
        failures = exc.diagnosis.failures if exc.diagnosis is not None else (str(exc),)
        return _fail(EXIT_NOT_KILLING, "not a Killing tensor", str(exc), failures)


if __name__ == "__main__":
    sys.exit(main())
