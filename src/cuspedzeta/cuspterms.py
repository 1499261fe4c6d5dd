"""Non-hyperbolic trace-formula terms.

Identity terms (pure polynomials in z), the Epstein lattice L-function
with its residue/constant extraction, unipotent digamma terms with
their vanishing three-term combinations, the threshold pole, and the
partial-fraction bookkeeping for user-supplied scattering poles.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (ConvergenceRegionError, ExtrapolationUnstable,
                     PoleOnAxis, QuadratureFailure, ValidationError)
from .laplace import MeroSum, digamma

# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Lattice2D:
    b1: complex
    b2: complex

    def __post_init__(self):
        if self.covolume <= 0:
            raise ValidationError("lattice basis is linearly dependent over the reals")

    @property
    def covolume(self) -> float:
        return abs((self.b1.conjugate() * self.b2).imag)


@dataclass(frozen=True)
class LatticeCharacter:
    v1: complex
    v2: complex

    def __post_init__(self):
        if abs(abs(self.v1) - 1) > 1e-12 or abs(abs(self.v2) - 1) > 1e-12:
            raise ValidationError("lattice character values must lie on the unit circle")

    @property
    def is_trivial(self) -> bool:
        return self.v1 == 1 and self.v2 == 1

    def value(self, m: int, n: int) -> complex:
        return self.v1 ** m * self.v2 ** n


@dataclass(frozen=True)
class ScatteringPoles:
    poles_sigma0: tuple
    poles_sigma1: tuple
    c0: float = 0.0
    c1: float = 0.0

    def __post_init__(self):
        for p in tuple(self.poles_sigma0) + tuple(self.poles_sigma1):
            if complex(p).real == 0:
                raise PoleOnAxis(f"scattering pole {p} lies on the imaginary axis")


# ---------------------------------------------------------------------------
# identity contribution

def identity_lprime(vol: float):
    """-pi vol z^2 and -2 pi vol (z^2 - 1), as polynomial sums."""
    if vol <= 0:
        raise ValueError("volume must be positive")
    m0 = MeroSum.build(poly=[0, 0, -math.pi * vol])
    m1 = MeroSum.build(poly=[2 * math.pi * vol, 0, -2 * math.pi * vol])
    return m0, m1


def identity_heat(vol: float, t: float, j: int) -> float:
    """Plancherel heat contributions of the identity:
    I0 = vol (sqrt(pi)/4) t^{-3/2} e^{-t},
    I1 = 2 vol (sqrt(pi)/2)(t^{-1/2} + t^{-3/2}/2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if j == 0:
        return vol * math.sqrt(math.pi) / 4 * t ** -1.5 * math.exp(-t)
    if j == 1:
        return 2 * vol * math.sqrt(math.pi) / 2 * (t ** -0.5 + t ** -1.5 / 2)
    raise ValueError("j must be 0 or 1")


def plancherel_trace(j: int, t: float) -> float:
    """The sigma-integrated unipotent kernel traces:
    j=0: (e^{-t}/4 pi^2) sqrt(pi/t);  j=1: adds (1/2 pi^2) sqrt(pi/t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    g = math.sqrt(math.pi / t)
    zero = math.exp(-t) / (4 * math.pi ** 2) * g
    if j == 0:
        return zero
    if j == 1:
        return g / (2 * math.pi ** 2) + zero
    raise ValueError("j must be 0 or 1")


# ---------------------------------------------------------------------------
# Epstein L-function

# rounding level of a block sum relative to its size: up to 2.5e5
# terms, and the terms of an oscillating character cancel
AITKEN_NOISE = 1e-12


def _epstein_block(lat: Lattice2D, chi: LatticeCharacter, s: complex, k: int,
                   grid_cache: dict) -> complex:
    """Character-weighted sum over 0 < max(|m|,|n|) <= k, vectorized."""
    import numpy as np
    if k not in grid_cache:
        rng = np.arange(-k, k + 1)
        m, n = np.meshgrid(rng, rng, indexing="ij")
        mask = (m != 0) | (n != 0)
        grid_cache[k] = (m[mask], n[mask])
    m, n = grid_cache[k]
    w = m * complex(lat.b1) + n * complex(lat.b2)
    norm2 = np.abs(w) ** 2
    phase = m * cmath.phase(complex(chi.v1)) + n * cmath.phase(complex(chi.v2))
    weights = np.exp(1j * phase)
    return complex(np.sum(weights * norm2 ** (-(1 + s))))


@functools.cache
def _legendre():
    """The 16-point Gauss-Legendre nodes and weights on [-1, 1]."""
    import numpy as np
    return np.polynomial.legendre.leggauss(16)


def _panels(f, a: float, b: float) -> complex:
    """Integral_a^b f by adaptive Gauss-Legendre: a panel is bisected
    until its rule and the sum of its halves' rules agree to 1e-14 of
    Integral |f| over it.  f maps an array of points to values."""
    import numpy as np
    x, w = _legendre()

    def rule(lo, hi):
        half = (hi - lo) / 2
        v = f(lo + half * (x + 1))
        return half * np.dot(w, v), half * np.dot(w, np.abs(v))

    total, todo = 0j, [(a, b, rule(a, b)[0])]
    for _ in range(2000):
        lo, hi, whole = todo.pop()
        mid = (lo + hi) / 2
        (left, size_l), (right, size_r) = rule(lo, mid), rule(mid, hi)
        if abs(left + right - whole) <= 1e-14 * (size_l + size_r):
            total += left + right
        else:
            todo += [(mid, hi, right), (lo, mid, left)]
        if not todo:
            return complex(total)
    raise QuadratureFailure(f"integral on [{a}, {b}] unresolved after 2000 bisections")


def _tail_shape(lat: Lattice2D, s: complex) -> complex:
    """T(s) = Integral_0^{2pi} q(th)^{-1-s} m(th)^{2s} dth with
    q(th) = |cos(th) b1 + sin(th) b2|^2 and m = max(|cos|, |sin|); the
    lattice-coordinate tail over ||u||_inf > a is then a^{-2s} T/(2s).
    With t = tan(th) on each octant, T = 2 Integral_{-1}^{1} Q(1,t)^{-1-s}
    + Q(t,1)^{-1-s} dt for Q(x,y) = |x b1 + y b2|^2, and the form
    Q(1,t) = R (t + B/R)^2 + covolume^2/R, R = |b2|^2 (|b1|^2 for Q(t,1)),
    B = Re(b1 conj b2), loses no digits on a skewed basis."""
    b = (lat.b1 * lat.b2.conjugate()).real
    c2 = lat.covolume ** 2
    return 2 * sum(_panels(lambda t, r=abs(v) ** 2:
                           (r * (t + b / r) ** 2 + c2 / r) ** (-1 - s), -1.0, 1.0)
                   for v in (lat.b2, lat.b1))


def epstein(lat: Lattice2D, chi: LatticeCharacter, s: complex,
            base_shells: int = 60) -> complex:
    """Sum of chi(m,n) ||m b1 + n b2||^{-2(1+s)} over nonzero lattice
    points, by expanding square annuli with an exact integral tail for
    the trivial character and Aitken extrapolation over the cutoff."""
    if complex(s).real <= 0:
        raise ConvergenceRegionError(
            f"Re s = {complex(s).real} is outside the summation region Re s > 0")
    s = complex(s)
    cache = {}
    shape = _tail_shape(lat, s) if chi.is_trivial else 0.0

    def value_at(k):
        if chi.is_trivial:
            return _epstein_block(lat, chi, s, k, cache) \
                + (k + 0.5) ** (-2 * s) * shape / (2 * s)
        # oscillating characters: binomial averaging of consecutive
        # block sums damps the shell oscillation (Euler transform)
        n = 8
        return sum(math.comb(n, i) * _epstein_block(lat, chi, s, k + i, cache)
                   for i in range(n + 1)) / 2 ** n

    f1, f2, f3 = (value_at(k) for k in
                  (base_shells, 2 * base_shells, 4 * base_shells))
    denom = (f3 - f2) - (f2 - f1)
    # a denominator within the rounding of the block sums carries no
    # convergence information; this happens for a real character at
    # real s, where the three sums agree to rounding
    if abs(denom) <= AITKEN_NOISE * (abs(f1) + abs(f2) + abs(f3)):
        return f3
    return f3 - (f3 - f2) ** 2 / denom


def epstein_residue_and_constant(lat: Lattice2D, chi: LatticeCharacter,
                                 target: float = 1e-6):
    """(R, C) with R the residue of the lattice L-function at s = 0 and
    C its constant term: R = pi/covolume for the trivial character and
    0 otherwise; C by Richardson extrapolation of s -> 0."""
    if chi.is_trivial:
        res = math.pi / lat.covolume
    else:
        res = 0.0

    def g(s):
        v = epstein(lat, chi, s)
        return v - res / s

    nodes = [0.1 / 2 ** k for k in range(6)]
    rows = [[g(s)] for s in nodes]
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - j):
            num = rows[i + 1][j - 1] * nodes[i] - rows[i][j - 1] * nodes[i + j]
            rows[i].append(num / (nodes[i] - nodes[i + j]))
    best, prev = rows[0][-1], rows[0][-2]
    if abs(best - prev) > target:
        raise ExtrapolationUnstable(
            f"constant-term extrapolation moved by {abs(best - prev):.3e}")
    return res, best.real if abs(best.imag) < target else best


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
    return MeroSum.build(poly=[2 * digamma(1).real],
                         digamma_atoms=[(-2, 1)])


def j1_pm_lprime() -> MeroSum:
    """2 psi(1) - psi(z) - psi(z+2), the value for either sign."""
    return MeroSum.build(poly=[2 * digamma(1).real],
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
