"""The scipy quadrature routes, kept as independent oracles for the
closed forms and the pure-Python rules in the package.

`quadrature_lprime` and `_lower_gamma` are the adaptive QUADPACK
transform (with the Gamma-regularized `power_part` for singularities
worse than t^{-1/2}); `tail_shape_theta` is the Epstein tail integral
taken over the angle in eight octants.
"""

from __future__ import annotations

import cmath
import math

from scipy.integrate import quad
from scipy.special import gammainc

from cuspedzeta.errors import QuadratureFailure, UnsupportedAtom


def _lower_gamma(a: float, x: complex) -> complex:
    """gamma(a, x), continued to negative non-integer a by the downward
    recursion gamma(a, x) = (gamma(a+1, x) + x^a e^{-x}) / a."""
    if a > 0:
        if x.imag == 0:
            return math.gamma(a) * gammainc(a, x.real)
        # complex argument: series around the real point is overkill;
        # recurse upward from a quadrature-free continued fraction
        from mpmath import gammainc as mpginc
        return complex(mpginc(a, 0, x))
    if a == int(a):
        raise UnsupportedAtom(f"lower incomplete gamma pole at a = {a}")
    return (_lower_gamma(a + 1, x) + x ** a * cmath.exp(-x)) / a


def quadrature_lprime(f, z: complex, tol: float = 1e-10,
                      power_part=()) -> complex:
    """2z Integral_0^oo e^{-t z^2} f(t) dt by adaptive quadrature,
    split at t = 1 with a square-root substitution near 0.

    Power-type singularities worse than t^{-1/2} are not integrable;
    list them in power_part as (coefficient, exponent) pairs and they
    are removed from f on (0, 1] and replaced by the Gamma-regularized
    closed form there (the continuation the transform is defined by).
    """
    z = complex(z)
    if z.real <= 0:
        raise QuadratureFailure("kernel requires Re z > 0")
    z2 = z * z

    def smooth(t):
        v = f(t)
        for c, nu in power_part:
            v -= c * t ** float(nu)
        return v

    def integrand(t):
        return cmath.exp(-t * z2) * smooth(t)

    def cquad(g, a, b):
        re, ere = quad(lambda x: g(x).real, a, b, limit=500,
                       epsabs=1e-13, epsrel=1e-13)
        im, eim = quad(lambda x: g(x).imag, a, b, limit=500,
                       epsabs=1e-13, epsrel=1e-13)
        return complex(re, im), ere + eim

    # t = u^2 tames integrable power singularities at 0
    near, e1 = cquad(lambda u: integrand(u * u) * 2 * u, 0, 1)
    far, e2 = cquad(lambda t: cmath.exp(-t * z2) * f(t), 1, math.inf)
    if e1 + e2 > tol:
        raise QuadratureFailure(
            f"error estimate {e1 + e2:.3e} above target {tol:.1e}")
    total = near + far
    for c, nu in power_part:
        # regularized Integral_0^1 t^nu e^{-t z^2} dt
        total += c * z2 ** (-(float(nu) + 1)) * _lower_gamma(float(nu) + 1, z2)
    return 2 * z * total


def tail_shape_theta(lat, s: complex) -> complex:
    """T(s) = Integral_0^{2pi} q(th)^{-1-s} m(th)^{2s} dth with
    q(th) = |cos(th) b1 + sin(th) b2|^2 and m = max(|cos|, |sin|), by
    QUADPACK on each octant."""
    def f(th):
        q = abs(math.cos(th) * complex(lat.b1) + math.sin(th) * complex(lat.b2)) ** 2
        m = max(abs(math.cos(th)), abs(math.sin(th)))
        return q ** (-1 - s) * m ** (2 * s)

    corners = [math.pi / 4 * i for i in range(9)]
    re = sum(quad(lambda th: f(th).real, a, b, limit=200,
                  epsabs=1e-13, epsrel=1e-13)[0]
             for a, b in zip(corners, corners[1:]))
    im = sum(quad(lambda th: f(th).imag, a, b, limit=200,
                  epsabs=1e-13, epsrel=1e-13)[0]
             for a, b in zip(corners, corners[1:]))
    return complex(re, im)
