"""Special functions and meromorphic bookkeeping for the cusp terms.

Transforms f(t) |-> 2z Integral_0^oo e^{-t z^2} f(t) dt of heat kernels
are held as MeroSum values: a polynomial plus simple poles plus digamma
and decaying-exponential terms, with structural equality (`cli` writes
their JSON form).  Euler's constant, log-gamma, the periodic zeta sum
and K-Bessel serve the cusp terms and the lattice L-function in
`cuspterms`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CuspedZetaError

# Euler's constant gamma = -psi(1), rounded to the nearest double
EULER_GAMMA = 0.5772156649015329

# ---------------------------------------------------------------------------
# log-gamma, periodic zeta and K-Bessel for the lattice L-function

_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510)]
# the coefficients B_2k/(2k (2k - 1)) of Stirling's series
_STIRLING = [float(b) / (2 * k * (2 * k - 1))
             for k, b in enumerate(_BERNOULLI, start=1)]


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z) for Re z > 0 (callers exponentiate, so the
    branch is free), by upward recurrence into Re z >= 10 and Stirling's
    series; math.lgamma on the real axis."""
    z = complex(z)
    if not z.imag:
        return math.lgamma(z.real)
    shift = 1
    while z.real < 10:
        shift *= z
        z += 1
    s = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi)
    term, inv2 = 1 / z, 1 / (z * z)
    for coefficient in _STIRLING:
        s += coefficient * term
        term *= inv2
    return s - cmath.log(shift)


def _dirichlet_terms(z: complex, d: float) -> int:
    """N for `_cosine_zeta` at a distance d > 0 of a from the integers
    (d = 0 for an integer a): each term of its expansion in t/N is then
    at most (|z| + j)/(100 + 4|z|) of the one before."""
    return math.ceil((100 + 4 * abs(z)) / (2 * math.pi * (d or 1)))


def _cosine_zeta(z: complex, a: float) -> complex:
    """sum_{m != 0} e^{2 pi i a m} |m|^{-z} = 2 sum_{m >= 1} cos(2 pi a m) m^{-z},
    the sum of the periodic zeta values Li_z(w) + Li_z(1/w), w = e^{2 pi i a},
    for real a: Re z > 1, or Re z > 0 when a is not an integer.  The terms
    m < N are summed directly and the rest by the Euler-Boole expansion
    sum_{m >= N} w^m m^{-z} = w^N sum_j g_j (-1)^j (z)_j N^{-z-j},
    g_j = [t^j] 1/(1 - w e^t), whose terms for w and 1/w are conjugate
    but for the factor (z)_j N^{-z-j}; for w = 1 this is Euler-Maclaurin,
    with 1/(1 - e^t) + 1/t in place of g and N^{1-z}/(z - 1) added.
    At z = 1 it is -2 ln|2 sin(pi a)|."""
    z, a = complex(z), a % 1.0
    w = cmath.exp(2j * math.pi * a)
    if z == 1 and a:
        return -2 * math.log(abs(1 - w))
    n = _dirichlet_terms(z, min(a, 1 - a))
    total = 2 * sum(math.cos(2 * math.pi * (a * m % 1)) * cmath.exp(-z * math.log(m))
                    for m in range(1, n))
    # g(t/N) = 1/den(t) with den = 1 - w e^{t/N}; for w = 1,
    # g(t/N) = -N sum_j q_{j+1} t^j with 1/q = den = (e^{t/N} - 1)/(t/N)
    den, c = [1 - w if a else 1.0], 1.0
    for k in range(1, 60):
        c /= k * n
        den.append(-w * c if a else c / (k + 1))
    shift, scale = (0, 1) if a else (1, -n)
    rate = 2 * math.pi * n * (min(a, 1 - a) if a else 1)
    inv, series, rising, bound = [], 0j, 1 + 0j, 1.0
    wn = cmath.exp(2j * math.pi * (a * n % 1))
    for j in range(len(den) - 1):
        while len(inv) <= j + shift:
            k = len(inv)
            inv.append((int(k == 0) - sum(inv[i] * den[k - i] for i in range(k)))
                       / den[0])
        series += 2 * (scale * wn * inv[j + shift]).real * rising
        bound *= abs(z + j) / rate
        if bound < 1e-17:
            break
        rising *= -(z + j)
    else:
        raise CuspedZetaError(f"zeta expansion at z = {z} did not converge")
    tail = cmath.exp(-z * math.log(n)) * series
    if not a:
        tail += 2 * n ** (1 - z) / (z - 1)
    return total + tail


def _besselk(nu: complex, x: float) -> complex:
    """K_nu(x) for x > 0 and complex order: (1/2) Integral of
    exp(nu t - x cosh t) over the line Im t = theta, by the trapezoid
    rule.  theta is the height of the saddle point, sinh t = nu/x, kept
    delta = min(pi/2, 2/|Im nu|) below pi/2: on that line the integrand
    has the e^{-pi |Im nu|/2} size of K, which on the real line comes
    only out of cancellation, and the loss is bounded by e^2.  The step
    keeps the discretisation error below about e^-44 of the result,
    both against the strip width D = pi/2 - |theta| and against the
    curvature |x cosh t| at the saddle."""
    nu = complex(nu)
    if nu == 0.5:
        return math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    beta = abs(nu.imag)
    delta = min(math.pi / 2, 2 / beta) if beta else math.pi / 2
    saddle = cmath.asinh(nu / x)
    theta = max(-(math.pi / 2 - delta), min(math.pi / 2 - delta, saddle.imag))
    width = math.pi / 2 - abs(theta)
    h = min(math.pi * width / (44 + beta * width / 2),
            math.pi / math.sqrt(22 * abs(x * cmath.cosh(saddle))))
    # |integrand| = e^{Re(nu) u - Im(nu) theta - x cos(theta) cosh u}
    # peaks at sinh u = Re(nu)/(x cos theta)
    peak = math.asinh(nu.real / (x * math.cos(theta)))

    def node(u):
        t = complex(u, theta)
        return cmath.exp(nu * t - x * cmath.cosh(t))

    total = node(peak)
    top = abs(total)
    if not top:
        return 0j  # below the floating-point range
    for step in (h, -h):
        u = peak + step
        while True:
            v = node(u)
            total += v
            if abs(v) < 1e-19 * top:
                break
            u += step
    return 0.5 * h * total


# ---------------------------------------------------------------------------
# meromorphic sums

def _clean(pairs):
    merged = {}
    order = []
    for loc, val in pairs:
        key = complex(loc)
        if key not in merged:
            merged[key] = val
            order.append(key)
        else:
            merged[key] = merged[key] + val
    return tuple((k, merged[k]) for k in order if merged[k] != 0)


@dataclass(frozen=True)
class MeroSum:
    """polyPart[k] z^k + sum res/(z - pole) + sum c psi(z + shift)
    + sum c e^{-rate z}."""
    poly_part: tuple = ()
    poles: tuple = ()           # ((location, residue), ...)
    digamma_atoms: tuple = ()   # ((coefficient, shift), ...)
    exp_atoms: tuple = ()       # ((coefficient, rate), ...)

    @classmethod
    def build(cls, poly=(), poles=(), digamma_atoms=(), exp_atoms=()):
        poly = list(poly)
        while poly and poly[-1] == 0:
            poly.pop()
        return cls(tuple(poly), _clean(poles),
                   tuple((c, s) for s, c in _clean(
                       (s, c) for c, s in digamma_atoms)),
                   tuple((c, r) for r, c in _clean(
                       (r, c) for c, r in exp_atoms)))

    def __add__(self, other):
        n = max(len(self.poly_part), len(other.poly_part))
        poly = [0] * n
        for src in (self.poly_part, other.poly_part):
            for i, c in enumerate(src):
                poly[i] += c
        return MeroSum.build(poly, self.poles + other.poles,
                             self.digamma_atoms + other.digamma_atoms,
                             self.exp_atoms + other.exp_atoms)

    def scale(self, c):
        if c == 0:
            return MeroSum()
        return MeroSum.build([c * p for p in self.poly_part],
                             [(l, c * r) for l, r in self.poles],
                             [(c * a, s) for a, s in self.digamma_atoms],
                             [(c * a, r) for a, r in self.exp_atoms])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def shifted(self, h):
        """The sum as a function of z - h, i.e. (shifted m)(z) = m(z - h)."""
        n = len(self.poly_part)
        poly = [0] * n
        for k, c in enumerate(self.poly_part):
            # c (z - h)^k expanded in powers of z
            for i in range(k + 1):
                poly[i] += c * math.comb(k, i) * (-h) ** (k - i)
        return MeroSum.build(poly,
                             [(l + h, r) for l, r in self.poles],
                             [(c, s - h) for c, s in self.digamma_atoms],
                             [(c * cmath.exp(r * h), r) for c, r in self.exp_atoms])

    def is_zero(self):
        return not (self.poly_part or self.poles or self.digamma_atoms
                    or self.exp_atoms)
