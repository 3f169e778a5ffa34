#!/usr/bin/env python3
"""End-to-end demo: build an algebra, solve its Killing space at one degree,
decompose every basis tensor into Killing-field generators and verify the
certificates by sampled pullback constancy.  Exits 1 if a certificate fails.

Usage: python scripts/decompose_demo.py [--degree P] [--samples N]
"""
import argparse
import json
import sys

from killingtensors import (
    AlmostAbelianAlgebra,
    Endomorphism,
    decompose,
    verify_certificate,
)
from killingtensors.fileformats import certificate_to_dict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=3)
    parser.add_argument("--samples", type=int, default=20)
    args = parser.parse_args()

    # oscillator-type algebra: rotation acting on a 2d abelian ideal
    alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, -1], [1, 0]]))
    space = alg.killing_space_structured(args.degree)
    print(f"Killing space at degree {args.degree}: dimension {space.dimension}")

    failed = 0
    for i, tensor in enumerate(space.basis):
        cert = decompose(alg, tensor)
        check = verify_certificate(alg, cert, samples=args.samples)
        failed += not check.passed
        print(f"\n[{i}] target: {tensor}")
        print(json.dumps(certificate_to_dict(cert)["terms"], indent=2))
        print(f"    verified: {check.passed}, max sampled deviation {check.max_deviation:.3e} "
              f"({check.samples} points, {check.precision_digits} digits)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
