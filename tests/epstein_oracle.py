"""Oracles for the Epstein lattice L-function of the package.

The shell-sum route, the package's earlier method and independent of
the Chowla-Selberg expansion the package now uses: `epstein` sums the character over expanding square annuli with numpy,
adds an exact edge-integral tail (`_tail_shape`, by the adaptive
Gauss-Legendre rule `_panels`) for the trivial character, and
extrapolates over the cutoff by an Aitken step;
`epstein_residue_and_constant` takes the constant term at s = 0 from a
Richardson table over s -> 0.  Both are good to about 1e-8, worse for
an irrational character near Re s = 0.

`epstein_mpmath` is the Chowla-Selberg expansion at 40 digits, with
mpmath's zeta, polylog, gamma and besselk.

`fraction_reduced`, `fraction_work` and `fraction_dependent` are the
package's basis reduction, work estimate and dependence check as they
were before they ran on integers: the same exact arithmetic on
`fractions.Fraction` values.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction

import mpmath as mp

from cuspedzeta.cuspterms import _WORK_CAP, Lattice2D, LatticeCharacter, _cutoff
from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.laplace import _dirichlet_terms


class ExtrapolationUnstable(CuspedZetaError):
    pass


def fraction_dependent(b1: complex, b2: complex) -> bool:
    """Are b1 and b2 linearly dependent over the reals, exactly?"""
    return Fraction(b1.real) * Fraction(b2.imag) == Fraction(b1.imag) * Fraction(b2.real)


def fraction_reduced(lat: Lattice2D, chi: LatticeCharacter):
    """The Gauss-reduced basis as ((b1, a1), (b2, a2)), by exact
    Fraction arithmetic on the float inputs; refuses a lattice whose
    covolume, |b1|^2 or y = Im(b2/b1) is not a normal float."""
    def vec(b, a):
        return (Fraction(b.real), Fraction(b.imag), a)

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    a1, a2 = chi.phases
    p, q = vec(lat.b1, a1), vec(lat.b2, a2)
    if dot(p, p) > dot(q, q):
        p, q = q, p
    while True:
        mu = round(dot(p, q) / dot(p, p))
        q = tuple(qi - mu * pi for qi, pi in zip(q, p))
        if dot(q, q) >= dot(p, p):
            break
        p, q = q, p
    basis = tuple((complex(float(x), float(y)), a % 1) for x, y, a in (p, q))
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


def fraction_work(b1: complex, cov: float, a: Fraction, c: Fraction,
                  sigma: complex) -> float:
    """The a priori work of the expansion along b1, on Fractions."""
    def dirichlet(z, f):
        d = min(f, 1 - f)
        return _dirichlet_terms(z, float(d)) if d == 0 or d > 1e-9 else math.inf

    span = _cutoff(sigma) / (2 * math.pi * cov / abs(b1) ** 2)
    if span > _WORK_CAP:
        return math.inf
    head = dirichlet(2 * sigma, a)
    if head == math.inf:
        return math.inf
    bessel = sum(math.ceil(span / abs(k - a))
                 for k in range(math.floor(a - span), math.ceil(a + span) + 1)
                 if k != a)
    return (bessel * (1 + abs(sigma.imag)) + head
            + (dirichlet(2 * sigma - 1, c) if a == 0 else 0))


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
    raise CuspedZetaError(f"integral on [{a}, {b}] unresolved after 2000 bisections")


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
        raise CuspedZetaError(
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


def epstein_mpmath(b1: complex, b2: complex, a, c, s: complex, dps: int = 40) -> complex:
    """sum' e^{2 pi i (a m + c n)} |m b1 + n b2|^{-2(1+s)} by the
    Chowla-Selberg expansion at `dps` digits, with Poisson summation
    along b1, or along b2 when only c is an integer.  Meant for reduced
    bases: the Bessel terms run to 2 pi |k - a| n Im(b2/b1) < cutoff."""
    if a % 1 and not c % 1:
        b1, b2, a, c = b2, b1, c, a
    with mp.workdps(dps):
        sig = 1 + mp.mpc(s)
        tau = mp.mpc(b2) / mp.mpc(b1)
        x, y = tau.real, abs(tau.imag)
        a, c = (mp.mpf(Fraction(t).numerator) / Fraction(t).denominator % 1
                for t in (a, c))

        def periodic_zeta(z, t):
            return mp.zeta(z) if t == 0 else mp.polylog(z, mp.expjpi(2 * t))

        total = periodic_zeta(2 * sig, a) + periodic_zeta(2 * sig, -a % 1)
        if a == 0:
            total += (mp.sqrt(mp.pi) * mp.gamma(sig - 0.5) / mp.gamma(sig)
                      * y ** (1 - 2 * sig) * (periodic_zeta(2 * sig - 1, c)
                                              + periodic_zeta(2 * sig - 1, -c % 1)))
        pref = 2 * mp.pi ** sig / mp.gamma(sig)
        cut = 1.5 * dps + math.pi / 2 * abs(float(sig.imag)) + 4 * float(sig.real)
        kmax = int(cut / (2 * math.pi * float(y))) + 2
        for k in range(-kmax, kmax + 1):
            xi = k - a
            n = 1
            while xi and 2 * math.pi * float(abs(xi)) * n * float(y) < cut:
                total += (2 * mp.cos(2 * mp.pi * n * (c + xi * x)) * pref
                          * (abs(xi) / (n * y)) ** (sig - 0.5)
                          * mp.besselk(sig - 0.5, 2 * mp.pi * abs(xi) * n * y))
                n += 1
        return complex(total * abs(mp.mpc(b1)) ** (-2 * sig))


def kronecker_constant(b1: complex, b2: complex) -> float:
    """Constant term at s = 0 of sum' |m b1 + n b2|^{-2-2s} by Kronecker's
    first limit formula, with eta(tau) = q^{1/24} prod (1 - q^n) from
    mpmath's q-Pochhammer symbol."""
    with mp.workdps(40):
        tau = mp.mpc(b2) / mp.mpc(b1)
        if tau.imag < 0:
            tau = mp.conj(tau)
        y = tau.imag
        q = mp.expjpi(2 * tau)
        log_eta = mp.re(mp.pi * 1j * tau / 12) + mp.log(abs(mp.qp(q)))
        area = abs(mp.mpc(b1)) ** 2 * y
        k = 2 * mp.pi * (mp.euler - mp.log(2) - mp.log(y) / 2 - 2 * log_eta)
        return float((k - mp.pi * mp.log(area)) / area)
