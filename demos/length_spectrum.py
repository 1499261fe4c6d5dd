"""Enumerate the figure-eight geodesic spectrum, evaluate the truncated
Ruelle function on it, and check that its rows hold every power of
every primitive class under the cutoff.

Run:  python3 demos/length_spectrum.py
"""

import cmath
import math

from cuspedzeta.ruelle import euler_product, power_closure
from cuspedzeta.spectrum import enumerate_classes

# the standard parabolic generator pair of the figure-eight knot group
# in PSL(2, C), each matrix (a b; c d) as the tuple (a, b, c, d)
OMEGA = cmath.exp(2j * math.pi / 3)
FIG8_GENERATORS = [(1, 1, 0, 1), (1, 0, -OMEGA, 1)]


def main():
    spectrum = enumerate_classes(FIG8_GENERATORS, [1.0, 1.0],
                                 max_word_len=8, cutoff_length=3.0)

    print(f"{len(list(spectrum.primitives()))} primitive oriented classes "
          f"up to length {spectrum.cutoff_length}")
    print(f"{'length':>12}  {'holonomy':>10}  word")
    for c in spectrum.primitives():
        print(f"{c.length:12.9f}  {c.holonomy:10.6f}  {c.word}")

    z = 5.0
    rep = euler_product(spectrum, z)
    print(f"\nR(z={z}) truncated: {rep.value.real:.15f} "
          f"({rep.terms_used} primitive factors), tail bound {rep.tail_bound:.2e}")
    residual, bound, closed = power_closure(spectrum, z)
    print(f"power-closure residual at z={z}: {residual:.2e} "
          f"(rounding bound {bound:.2e})")
    print(f"closed under powers: {str(closed).lower()}")


if __name__ == "__main__":
    main()
