"""From a knot-group presentation to its twisted Alexander data.

Walks the exact-arithmetic half of the package: parse a presentation,
take Fox derivatives through a unit character and the height map, read
off the characteristic polynomials and the order at t = 1, and compare
orders where the cover's degree-zero cohomology vanishes.

Run:  python3 demos/alexander_walkthrough.py
"""

import pathlib

from cuspedzeta.alexander import alexander_invariant
from cuspedzeta.laurent import format_poly
from cuspedzeta.presentation import fox_row, parse_presentation
from cuspedzeta.verdict import main_conjecture_report

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def show(name):
    print(f"=== {name} " + "=" * (60 - len(name)))
    p, eps, rho = parse_presentation((FIXTURES / name).read_text())
    print("generators:", " ".join(p.generator_names))

    # the Fox matrix row of the single relator
    for g, d in zip(p.generator_names, fox_row(p.relators[0], rho, eps)):
        print(f"  d(relator)/d{g} -> {format_poly(d)}")

    data = alexander_invariant(p, rho, eps)
    print("char0:", format_poly(data.char0))
    print("char1:", format_poly(data.char1))
    print("char2:", format_poly(data.char2))
    print(f"ord at t=1: {data.ord_at_one}   h0={data.h0} h1={data.h1} "
          f"semisimple={data.semisimple_at_one}")
    if data.h0_infinity_vanishes:
        report, _ = main_conjecture_report(p, rho, eps)
        print(f"order comparison: predicted Ruelle order "
              f"{report['predictedRuelleOrder']}, inequality holds: "
              f"{report['inequalityHolds']}, equality expected: "
              f"{report['equalityExpected']}")
    else:
        print("degree-zero cohomology of the cover is nonzero; "
              "order comparison is informational only")
    print()


if __name__ == "__main__":
    for name in ("trefoil.pres", "fig8.pres", "fig8_zeta5.pres"):
        show(name)
