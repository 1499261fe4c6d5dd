"""Non-hyperbolic trace-formula terms.

Identity terms (pure polynomials in z), the Epstein lattice L-function
with its residue/constant extraction, unipotent digamma terms with
their vanishing three-term combinations, the threshold pole, and the
partial-fraction bookkeeping for user-supplied scattering poles.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import CuspedZetaError, InputError
from .laplace import (EULER_GAMMA, MeroSum, _besselk, _cosine_zeta,
                      _dirichlet_terms, _log_gamma)

# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Lattice2D:
    b1: complex
    b2: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.b1) and cmath.isfinite(self.b2)):
            raise InputError("lattice basis vectors must be finite")
        (x1, d1), (y1, e1), (x2, d2), (y2, e2) = (
            t.as_integer_ratio() for t in (self.b1.real, self.b1.imag,
                                           self.b2.real, self.b2.imag))
        if x1 * y2 * e1 * d2 == y1 * x2 * d1 * e2:
            raise InputError("lattice basis is linearly dependent over the reals")

    @property
    def covolume(self) -> float:
        return abs((self.b1.conjugate() * self.b2).imag)


@dataclass(frozen=True)
class LatticeCharacter:
    v1: complex
    v2: complex

    def __post_init__(self):
        if not (abs(abs(self.v1) - 1) <= 1e-12 and abs(abs(self.v2) - 1) <= 1e-12):
            raise InputError("lattice character values must lie on the unit circle")

    @property
    def phases(self) -> tuple:
        """(a1, a2) in [0, 1) with v_i = e^{2 pi i a_i}, exact on the
        float phases."""
        return tuple(Fraction(cmath.phase(v) / (2 * math.pi)) % 1
                     for v in (self.v1, self.v2))

    @property
    def is_trivial(self) -> bool:
        return self.phases == (0, 0)


@dataclass(frozen=True)
class ScatteringPoles:
    poles_sigma0: tuple
    poles_sigma1: tuple
    c0: float = 0.0
    c1: float = 0.0

    def __post_init__(self):
        for p in tuple(self.poles_sigma0) + tuple(self.poles_sigma1):
            if complex(p).real == 0:
                raise InputError(f"scattering pole {p} lies on the imaginary axis")


# ---------------------------------------------------------------------------
# identity contribution

def identity_lprime(vol: float):
    """-pi vol z^2 and -2 pi vol (z^2 - 1), as polynomial sums."""
    if vol <= 0:
        raise ValueError("volume must be positive")
    m0 = MeroSum.build(poly=[0, 0, -math.pi * vol])
    m1 = MeroSum.build(poly=[2 * math.pi * vol, 0, -2 * math.pi * vol])
    return m0, m1


# ---------------------------------------------------------------------------
# Epstein L-function

# the most work one value may take, in Dirichlet terms; a character too
# close to the trivial one along both reduced basis vectors, or a too
# large |Im s|, is refused
_WORK_CAP = 200_000
# a phase within 1e-9 of an integer, but not on it, is refused by `_work`
_NEAR = (1e-9).as_integer_ratio()


def _reduced(lat: Lattice2D, chi: LatticeCharacter):
    """The Gauss-reduced basis, |b1| <= |b2| and |Re(b2/b1)| <= 1/2, as
    ((b1, a1), (b2, a2)) with chi(b_i) = e^{2 pi i a_i}, 0 <= a_i < 1.
    The steps run exactly on the float inputs, so a phase that is an
    integer stays exactly 0.  Each coordinate and phase is an integer over
    a power of two, so the steps run on integers over one common
    denominator: the dot products, swaps and comparisons do not depend on
    that scale, mu is the nearest integer with ties to even, and int/int
    division, being correctly rounded, gives the floats of the exact
    rationals.  A lattice whose covolume, |b1|^2 or y = Im(b2/b1) is not
    a normal float is refused: the expansion divides by each of them."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    a1, a2 = chi.phases
    ratios = [t.as_integer_ratio() for t in (lat.b1.real, lat.b1.imag, a1,
                                             lat.b2.real, lat.b2.imag, a2)]
    den = math.lcm(*(d for _, d in ratios))
    scaled = [n * (den // d) for n, d in ratios]
    p, q = scaled[:3], scaled[3:]
    pp, qq = dot(p, p), dot(q, q)
    if pp > qq:
        p, q, pp, qq = q, p, qq, pp
    while True:
        mu, rest = divmod(dot(p, q), pp)
        if 2 * rest > pp or 2 * rest == pp and mu % 2:
            mu += 1
        q = [qi - mu * pi for qi, pi in zip(q, p)]
        qq = dot(q, q)
        if qq >= pp:
            break
        p, q, pp, qq = q, p, qq, pp
    basis = tuple((complex(x / den, y / den), Fraction(a % den, den))
                  for x, y, a in (p, q))
    b1 = basis[0][0]
    norm = b1.real * b1.real + b1.imag * b1.imag
    for name, value in (("covolume", lat.covolume),
                        ("|b1|^2 of the reduced basis", norm),
                        ("y = Im(b2/b1) of the reduced basis",
                         lat.covolume / norm if norm else math.inf)):
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise CuspedZetaError(f"lattice b1 = {lat.b1}, b2 = {lat.b2}: {name} "
                                  f"is {value:.3g}, outside the normal float range")
    return basis


def _cutoff(sigma: complex) -> float:
    """Bessel argument beyond which the row terms fall below e^-46 of
    the n = 0 row: K_nu(X) <= K_{Re nu}(X) ~ e^-X, and 1/Gamma(sigma)
    grows like e^{pi |Im sigma|/2}."""
    return 46 + math.pi / 2 * abs(sigma.imag) + 4 * sigma.real


def _work(b1: complex, cov: float, a: Fraction, c: Fraction,
          sigma: complex) -> float:
    """A priori work of the expansion with Poisson summation along b1:
    the Dirichlet terms of the zeta values, and a Bessel term for
    each xi = k - a, n >= 1 with 2 pi |xi| n y < cutoff, which counts
    1 + |Im sigma| because the step of `_besselk` shrinks like 1/|Im nu|.
    With a = p/q, |xi| is |k q - p|/q, and a phase's distance from the
    integers is min(p, q - p)/q, compared with 1e-9 exactly."""
    def dirichlet(z, f):
        q = f.denominator
        d = min(f.numerator, q - f.numerator)
        if d == 0 or d * _NEAR[1] > _NEAR[0] * q:
            return _dirichlet_terms(z, d / q)
        return math.inf

    span = _cutoff(sigma) / (2 * math.pi * cov / abs(b1) ** 2)
    if span > _WORK_CAP:
        return math.inf
    # a phase within 1e-9 of an integer makes the total infinite, and
    # one far closer would overflow the Bessel count
    head = dirichlet(2 * sigma, a)
    if head == math.inf:
        return math.inf
    p, q = a.numerator, a.denominator
    bessel = sum(math.ceil(span / (abs(k * q - p) / q))
                 for k in range(math.floor(p / q - span), math.ceil(p / q + span) + 1)
                 if k * q != p)
    return (bessel * (1 + abs(sigma.imag)) + head
            + (dirichlet(2 * sigma - 1, c) if p == 0 else 0))


def _bessel_terms(b1: complex, b2: complex, a: Fraction, c: Fraction,
                  sigma: complex):
    """The terms of the rows n != 0, scaled by |b1|^{2 sigma}: Poisson
    summation over m turns the pair of rows +-n into
    2 cos(2 pi n (c + xi x)) 2 pi^sigma/Gamma(sigma) |xi/(n y)|^{sigma-1/2}
    K_{sigma-1/2}(2 pi |xi| n y) for xi = k - a, k in Z, with
    tau = b2/b1 = x +- i y."""
    tau = b2 / b1
    x, y = tau.real, abs(tau.imag)
    nu = sigma - 0.5
    pref = 2 * cmath.exp(sigma * math.log(math.pi) - _log_gamma(sigma))
    span = _cutoff(sigma) / (2 * math.pi * y)
    fa, fc = float(a), float(c)
    bessel = {}
    for k in range(math.floor(fa - span), math.ceil(fa + span) + 1):
        xi = k - fa
        if not k and not a:  # k == a: a in [0, 1) is an integer only at 0
            continue
        for n in range(1, math.ceil(span / abs(xi))):
            key = abs(xi) * n
            if key not in bessel:
                bessel[key] = _besselk(nu, 2 * math.pi * y * key)
            yield (2 * math.cos(2 * math.pi * (n * (fc + xi * x) % 1)) * pref
                   * cmath.exp(nu * math.log(abs(xi) / (n * y))) * bessel[key])


def _chowla_selberg(lat: Lattice2D, chi: LatticeCharacter, s: complex):
    """(value, terms, largest term) of the lattice L-function at
    s = sigma - 1 by the Chowla-Selberg expansion, with Poisson
    summation along the reduced basis vector that needs fewer terms:
    |b1|^{-2 sigma} [C(2 sigma, a) + rows n != 0], plus, when a is an
    integer, the zero mode
    sqrt(pi) Gamma(sigma - 1/2)/Gamma(sigma) y^{1 - 2 sigma} C(2 sigma - 1, c),
    where C(z, a) = sum_{m != 0} e^{2 pi i a m} |m|^{-z}."""
    (u, au), (v, av) = _reduced(lat, chi)
    cov, sigma = lat.covolume, 1 + s
    work, b1, b2, a, c = min(
        (_work(u, cov, au, av, sigma), u, v, au, av),
        (_work(v, cov, av, au, sigma), v, u, av, au), key=lambda p: p[0])
    if work > _WORK_CAP:
        raise CuspedZetaError(
            f"epstein at s = {s}: the expansion needs {work:.3g} term "
            f"evaluations, above {_WORK_CAP} (character phases {float(au)!r}, "
            f"{float(av)!r} on the reduced basis)")
    try:
        terms = [_cosine_zeta(2 * sigma, float(a))]
        if a == 0:
            y = cov / abs(b1) ** 2
            terms.append(math.sqrt(math.pi) * y ** (1 - 2 * sigma)
                         * cmath.exp(_log_gamma(sigma - 0.5) - _log_gamma(sigma))
                         * _cosine_zeta(2 * sigma - 1, float(c)))
        terms += _bessel_terms(b1, b2, a, c, sigma)
        scale = abs(b1) ** (-2 * sigma)
    except (OverflowError, ZeroDivisionError) as exc:
        raise CuspedZetaError(f"epstein at s = {s}: {exc}") from None
    return (scale * math.fsum(t.real for t in terms)
            + 1j * scale * math.fsum(t.imag for t in terms),
            len(terms), abs(scale) * max(map(abs, terms)))


def epstein(lat: Lattice2D, chi: LatticeCharacter, s: complex) -> complex:
    """Sum of chi(m,n) ||m b1 + n b2||^{-2(1+s)} over nonzero lattice
    points, by the Chowla-Selberg expansion (see `_chowla_selberg`).
    A value whose rounding estimate, largest term x 2^-52 x (terms +
    |1 + s|/|s|), is above 1e-6 of it is refused: the terms grow with
    |Im s| and, like (1 + x^2/y^2)^Re(s) on a reduced basis, with Re s,
    and forming sigma = 1 + s rounds s, on which the pole term 1/s rests."""
    s = complex(s)
    if s.real <= 0:
        raise CuspedZetaError(
            f"Re s = {s.real} is outside the summation region Re s > 0")
    value, count, largest = _chowla_selberg(lat, chi, s)
    rounding = largest * 2 ** -52 * (count + abs(1 + s) / abs(s))
    if not rounding <= 1e-6 * abs(value):
        raise CuspedZetaError(
            f"epstein at s = {s}: rounding estimate {rounding:.3e} is above "
            f"1e-6 of the value {abs(value):.3e}")
    return value


def epstein_residue_and_constant(lat: Lattice2D, chi: LatticeCharacter):
    """(R, C) with R the residue of the lattice L-function at s = 0 and
    C its constant term, read off the Chowla-Selberg expansion at
    sigma = 1.  A non-trivial character gives R = 0 and C the expansion's
    value (its zero mode with C(1, c) = -2 ln|2 sin pi c|).
    The trivial character gives R = pi/covolume and Kronecker's first
    limit formula C = |b1|^-2 [2 zeta(2) + (pi/y)(2 gamma - 2 ln 2 - 2 ln y
    - 2 ln|b1|) + rows n != 0 at sigma = 1]; C is real because the
    terms of w and -w are conjugate."""
    if not chi.is_trivial:
        return 0.0, _chowla_selberg(lat, chi, 0j)[0].real
    (b1, _), (b2, _) = _reduced(lat, chi)
    y = lat.covolume / abs(b1) ** 2
    rows = sum(_bessel_terms(b1, b2, Fraction(0), Fraction(0), 1 + 0j)).real
    laurent = math.pi / y * 2 * (EULER_GAMMA - math.log(2) - math.log(y)
                                 - math.log(abs(b1)))
    return math.pi / lat.covolume, (math.pi ** 2 / 3 + laurent + rows) / abs(b1) ** 2


# ---------------------------------------------------------------------------
# unipotent contribution


@dataclass(frozen=True)
class NontrivialRestriction:
    covolume: float
    c_rho: float


@dataclass(frozen=True)
class TrivialRestriction:
    pass


def j1_zero_lprime() -> MeroSum:
    """2(psi(1) - psi(z+1))."""
    return MeroSum.build(poly=[-2 * EULER_GAMMA],
                         digamma_atoms=[(-2, 1)])


def j1_pm_lprime() -> MeroSum:
    """2 psi(1) - psi(z) - psi(z+2), the value for either sign."""
    return MeroSum.build(poly=[-2 * EULER_GAMMA],
                         digamma_atoms=[(-1, 0), (-1, 2)])


def unipotent_lprime(case):
    """(U0 shifted by one, U1, three-term combination).

    The combination U0(z-1) - U1(z) + U0(z+1) built from the unshifted
    transforms vanishes identically in both branches; it is returned as
    a structural MeroSum so the cancellation is exact.
    """
    if isinstance(case, NontrivialRestriction):
        const = case.covolume * case.c_rho / math.pi
        u0 = MeroSum.build(poly=[const])
        u1 = MeroSum.build(poly=[2 * const])
    elif isinstance(case, TrivialRestriction):
        # 2 |L| R_rho T'(k) = 2 pi T'(k) and T' carries a 1/pi, so the
        # principal-value-free digamma terms enter with net factor 2
        u0 = j1_zero_lprime().scale(2)
        u1 = j1_pm_lprime().scale(4)  # both signs
    else:
        raise TypeError("case must be NontrivialRestriction or TrivialRestriction")
    combination = u0.shifted(1) + u0.shifted(-1) - u1
    return u0.shifted(1), u1, combination


# ---------------------------------------------------------------------------
# threshold and scattering

def threshold_lprime() -> MeroSum:
    """-1/(2z): the transform of the threshold term -(1/4)e^{-t} after
    the e^t shift."""
    return MeroSum.build(poles=[(0, -0.5)])


def _partial_fractions(poles, constant, weight):
    terms = []
    for a in poles:
        a = complex(a)
        sgn = 1 if a.real > 0 else -1
        terms.append((-sgn * a, -weight))
        terms.append((-sgn * a.conjugate(), weight))
    return MeroSum.build(poly=[weight * constant], poles=terms)


def scattering_sigma0_lprime(p: ScatteringPoles) -> MeroSum:
    """(1/2){c0 - sum_k (1/(z + sgn(Re a) a) - 1/(z + sgn(Re a) a-bar))},
    before the unit shift."""
    return _partial_fractions(p.poles_sigma0, p.c0, 0.5)


def scattering_sigma1_lprime(p: ScatteringPoles) -> MeroSum:
    return _partial_fractions(p.poles_sigma1, p.c1, 1.0)


def scattering_lprime(p: ScatteringPoles):
    """(S0 shifted with its threshold term, S1)."""
    s0 = scattering_sigma0_lprime(p).shifted(1) + threshold_lprime().shifted(1)
    return s0, scattering_sigma1_lprime(p)
