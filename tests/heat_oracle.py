"""Closed forms that only the tests evaluate, kept as oracles for the
transforms in the package.

`closed_value` evaluates one heat atom's transform, including the
higher-order poles at 0 that `lprime_closed` cannot represent;
`hyperbolic_heat` is the truncated heat trace of a length spectrum,
whose quadrature transform must match `ruelle.y_series`.
"""

import math
from fractions import Fraction

from cuspedzeta.errors import UnsupportedAtom
from cuspedzeta.laplace import HeatAtom, _gamma, evaluate, lprime_closed
from cuspedzeta.ruelle import weights
from cuspedzeta.spectrum import Spectrum


def closed_value(atom: HeatAtom, z: complex) -> complex:
    """The closed-form transform of one atom evaluated at z.

    Unlike lprime_closed this also covers power atoms whose transform
    2 Gamma(1+nu) z^{-(1+2nu)} is a higher-order pole at 0 (nu >= 1),
    which has no simple-pole MeroSum representation.
    """
    if atom.kind == "power":
        nu = Fraction(atom.param)
        if nu + 1 <= 0 and (nu + 1).denominator == 1:
            raise UnsupportedAtom(f"Gamma pole at 1 + nu = {nu + 1}")
        e = -(1 + 2 * nu)
        return 2 * _gamma(nu + 1) * atom.coefficient * complex(z) ** int(e)
    return evaluate(lprime_closed(atom), z)


def hyperbolic_heat(s: Spectrum, j: int, t: float) -> complex:
    """Truncated heat-trace contribution of the length spectrum:
    H0(t) = sum a0(g) (4 pi t)^{-1/2} exp(-(l^2/4t + t + l)),
    H1(t) the a1-weighted variant without the e^{-t} factor."""
    if t <= 0:
        raise ValueError("t must be positive")
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    pref = 1 / math.sqrt(4 * math.pi * t)
    total = 0j
    for c in s.classes:
        w = weights(c)
        a = w.a0 if j == 0 else w.a1
        ex = c.length ** 2 / (4 * t) + c.length + (t if j == 0 else 0.0)
        total += a * pref * math.exp(-ex)
    return total
