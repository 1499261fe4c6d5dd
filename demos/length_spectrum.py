"""Enumerate the figure-eight geodesic spectrum and test the
factorization identity of the Ruelle function on it.

Run:  python3 demos/length_spectrum.py
"""

import math

from cuspedzeta.ruelle import euler_product, fried_residual
from cuspedzeta.spectrum import enumerate_classes, figure_eight_generators

FIG8_VOLUME = 2.029883212819307


def main():
    spectrum = enumerate_classes(
        figure_eight_generators(), [1.0, 1.0],
        max_word_len=8, cutoff_length=3.0,
        covolume=2 * math.sqrt(3), volume=FIG8_VOLUME)

    print(f"{len(list(spectrum.primitives()))} primitive oriented classes "
          f"up to length {spectrum.cutoff_length}")
    print(f"{'length':>12}  {'holonomy':>10}  word")
    for c in spectrum.primitives():
        print(f"{c.length:12.9f}  {c.holonomy:10.6f}  "
              f"{''.join('abAB'[g + 2 * (e < 0)] for g, e in c.word)}")

    z = 5.0
    rep = euler_product(spectrum, z)
    print(f"\nR(z={z}) truncated: {rep.value.real:.15f} "
          f"({rep.terms_used} primitive factors), tail bound {rep.tail_bound:.2e}")
    print(f"factorization residual at z={z}: {fried_residual(spectrum, z).value:.2e}")


if __name__ == "__main__":
    main()
