"""Cusp contributions in closed form, and the lattice L-function of the
cusp torus against classical values.

Run:  python3 demos/cusp_terms.py
"""

import math

from cuspedzeta.cli import mero_to_json
from cuspedzeta.cuspterms import (Lattice2D, LatticeCharacter,
                                  TrivialRestriction, epstein,
                                  epstein_residue_and_constant,
                                  identity_lprime, threshold_lprime,
                                  unipotent_lprime)


def main():
    vol = 2.029883212819307
    m0, m1 = identity_lprime(vol)
    print("identity contributions (polynomials in z):")
    print("  M0:", mero_to_json(m0)["polyPart"])
    print("  M1:", mero_to_json(m1)["polyPart"])

    print("\nthreshold term -1/(2z), as a pole at 0:",
          mero_to_json(threshold_lprime())["poles"])

    u0s, u1, comb = unipotent_lprime(TrivialRestriction())
    print("unipotent three-term combination vanishes structurally:",
          comb.is_zero())

    square = Lattice2D(1.0 + 0j, 1j)
    trivial = LatticeCharacter(1.0 + 0j, 1.0 + 0j)
    sign = LatticeCharacter(-1.0 + 0j, 1.0 + 0j)

    got = epstein(square, trivial, 1.0)
    print(f"\nsum' (m^2+n^2)^-2 = {got.real:.12f}  "
          f"(classical 4 zeta(2) beta(2) = 6.026812...)")

    res, _ = epstein_residue_and_constant(square, trivial)
    print(f"residue of s L(s) at s=0: {res:.8f}  (pi = {math.pi:.8f})")

    _, const = epstein_residue_and_constant(square, sign)
    print(f"sign-character value at s=0: {float(const):.12f}  "
          f"(-(pi/2) ln 2 = {-(math.pi / 2) * math.log(2):.12f})")


if __name__ == "__main__":
    main()
