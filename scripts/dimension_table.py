#!/usr/bin/env python3
"""Print Killing-space dimensions for a gallery of almost abelian algebras,
cross-checked against the brute-force solver.  Exits 1 on a mismatch.

Usage: python scripts/dimension_table.py [--max-degree P]
"""
import argparse
import sys

from killingtensors import AlmostAbelianAlgebra, Endomorphism

GALLERY = [
    ("abelian R^3", Endomorphism.zero(2)),
    ("rotation", Endomorphism.from_rows([[0, -1], [1, 0]])),
    ("stretch diag(1,-1)", Endomorphism.diagonal([1, -1])),
    ("shear [[0,1],[0,0]]", Endomorphism.from_rows([[0, 1], [0, 0]])),
    ("hyperbolic (identity)", Endomorphism.identity(2)),
    ("identity + rotation", Endomorphism.identity(2) + Endomorphism.from_rows([[0, -1], [1, 0]])),
    ("3d rotation block", Endomorphism.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]])),
    ("3d mixed diag(2,-1,-1)", Endomorphism.diagonal([2, -1, -1])),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=4)
    args = parser.parse_args()
    degrees = list(range(args.max_degree + 1))

    header = f"{'algebra':28s}" + "".join(f"  p={p}" for p in degrees) + "  oracle"
    print(header)
    print("-" * len(header))
    mismatches = 0
    for name, deriv in GALLERY:
        alg = AlmostAbelianAlgebra(deriv)
        dims = [alg.killing_dimension(p) for p in degrees]
        agree = all(
            alg.killing_space_structured(p).basis == alg.killing_space_bruteforce(p).basis
            for p in degrees
        )
        row = f"{name:28s}" + "".join(f"  {d:3d}" for d in dims)
        print(row + ("   ok" if agree else "   MISMATCH"))
        mismatches += not agree
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
