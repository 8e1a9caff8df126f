"""Ricci operators of rank-one solvable extensions.

Builds the 3-dimensional Heisenberg algebra, extends it by a diagonal
derivation, and compares the block assembly of the extension's Ricci
operator with the direct curvature oracle.  Ends with the abelian
closed form Ric = -n * Id for the identity derivation.
"""

import numpy as np

from rnlie import corpus, extension_bracket, koszul_oracle, ricci_extension


def main():
    h3 = corpus("heisenberg", 3).bracket
    print("bracket:", h3)

    D = np.diag([1.0, 1.0, 2.0])
    block = ricci_extension(D, h3.to_float())
    print("\nextension by diag(1, 1, 2):")
    print("  generator-generator block:", block.ff)
    print("  nilpotent block:\n", block.nn)
    print("  mixed row:", block.fn_row)
    print("  spectrum:", np.sort(block.eigenvalues()))

    oracle = koszul_oracle(extension_bracket(D, h3.to_float()))
    sym = 0.5 * (oracle.ricci + oracle.ricci.T)
    print("  oracle agreement:", np.abs(block.assembled() - sym).max())

    print("\nabelian sanity check (identity derivation):")
    for n in (2, 4, 6):
        ab = corpus("abelian", n).bracket.to_float()
        assembled = ricci_extension(np.eye(n), ab).assembled()
        print(f"  n={n}: Ric = -n*I holds:", np.allclose(assembled, -n * np.eye(n + 1)))


if __name__ == "__main__":
    main()
