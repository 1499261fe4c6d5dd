"""Reference values for the benchmark, computed without cuspedzeta.

Every check the benchmark makes against a program output comes from
here.  Nothing in this module imports the package under test: the exact
side uses integer polynomial arithmetic written out below, the numeric
side uses classical closed forms with hard-coded constants, numpy
products and mpmath special functions.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Classical constants, hard-coded so that no library routine of the
# program under test can leak into its own reference values.
CATALAN = 0.915965594177219015054603514932
L2_CHI_M3 = 0.781302412896486296867187429624   # L(2, chi_{-3})
EULER_GAMMA = 0.577215664901532860606512090082
GAMMA_QUARTER = 3.62560990822190831193068515587  # Gamma(1/4)
ZETA2 = math.pi ** 2 / 6

# Relative errors below this are not resolved by the double-precision
# references; oracle_max_err reports them at this floor so the metric
# is never 0 and does not wander with rounding noise from seed to seed.
ERR_FLOOR = 1e-12


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# exact side: torus-knot Alexander polynomials over Q(zeta_n)

def _pdivmod_monic(a, b):
    """Quotient and remainder of integer polynomials (low degree first),
    b monic."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    r = a[:len(b) - 1]
    return q, r


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Phi_n with integer coefficients, low degree first."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, _ = _pdivmod_monic(num, cyclotomic_poly(d))  # exact
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def zeta_power(n: int, m: int) -> tuple:
    """zeta_n^m on the power basis 1, zeta, ..., zeta^(phi(n)-1)."""
    phi = cyclotomic_poly(n)
    x = [0] * (m % n) + [1]
    if len(x) < len(phi):
        r = x
    else:
        _, r = _pdivmod_monic(x, phi)
    r = list(r) + [0] * (len(phi) - 1 - len(r))
    return tuple(Fraction(c) for c in r)


def torus_alexander(k: int, n: int, e: int) -> dict:
    """Delta_k(zeta^e t), Delta_k = (t^k + 1)/(t + 1) for odd k, made
    monic with lowest exponent 0: {exponent: power-basis coefficients}.
    The coefficient of t^j is (-1)^j zeta^(e(j - k + 1))."""
    out = {}
    for j in range(k):
        c = zeta_power(n, e * (j - k + 1))
        out[j] = tuple(-x for x in c) if j % 2 else c
    return out


def parse_poly(text: str) -> tuple[int, dict]:
    """Read the program's '[q0,q1,...]@n*t^k + ...' polynomial text
    into (n, {exponent: coefficients}), dropping zero terms."""
    n = None
    out = {}
    for term in text.split(" + "):
        coeffs, rest = term.split("]@", 1)
        mod, exp = rest.split("*t^")
        n = int(mod)
        cs = tuple(Fraction(c) for c in coeffs.lstrip("[").split(","))
        if any(cs):
            out[int(exp)] = cs
    return n, out


# ---------------------------------------------------------------------------
# numeric side: complex lengths of words

def word_complex_length(gens, word: str) -> tuple[float, float]:
    """(length, holonomy in (-pi, pi]) of the product of 2x2 matrices
    along `word` (lowercase letter i = generator i, uppercase = its
    inverse), from tr = +-2 cosh((l + i theta)/2)."""
    m = ((1, 0), (0, 1))
    for ch in word:
        a, b, c, d = gens[ord(ch.lower()) - ord("a")]
        if ch.isupper():
            a, b, c, d = d, -b, -c, a
        m = ((m[0][0] * a + m[0][1] * c, m[0][0] * b + m[0][1] * d),
             (m[1][0] * a + m[1][1] * c, m[1][0] * b + m[1][1] * d))
    tr = m[0][0] + m[1][1]
    disc = cmath.sqrt(tr * tr - 4)
    lam = (tr + disc) / 2
    if abs(lam) < 1:
        lam = (tr - disc) / 2
    return 2 * math.log(abs(lam)), angle_diff(2 * cmath.phase(lam), 0.0)


def angle_diff(x: float, y: float) -> float:
    """x - y reduced into (-pi, pi]."""
    t = math.remainder(x - y, 2 * math.pi)
    return math.pi if t == -math.pi else t


# ---------------------------------------------------------------------------
# numeric side: Euler products

def euler_product(lengths, chars, mults, z: complex) -> complex:
    """prod over primitive rows (multiplicity 1) of 1 - chi e^{-z l}."""
    prim = np.asarray(mults) == 1
    terms = 1 - np.asarray(chars)[prim] * np.exp(-z * np.asarray(lengths)[prim])
    return complex(np.prod(terms))


# ---------------------------------------------------------------------------
# numeric side: lattice L-functions

def square_epstein_s1() -> float:
    """sum' (m^2 + n^2)^{-2} = 4 zeta(2) beta(2) = 4 zeta(2) G."""
    return 4 * ZETA2 * CATALAN


def hexagonal_epstein_s1() -> float:
    """sum' (m^2 + mn + n^2)^{-2} = 6 zeta(2) L(2, chi_{-3})."""
    return 6 * ZETA2 * L2_CHI_M3


def sign_character_constant() -> float:
    """Constant term at s = 0 of sum' (-1)^m (m^2 + n^2)^{-1-s}."""
    return -math.pi / 2 * math.log(2)


def square_trivial_constant() -> float:
    """Kronecker's first limit formula on the square lattice:
    2 pi (gamma - ln 2 - 2 ln|eta(i)|), |eta(i)| = Gamma(1/4)/(2 pi^(3/4))."""
    eta_i = GAMMA_QUARTER / (2 * math.pi ** 0.75)
    return 2 * math.pi * (EULER_GAMMA - math.log(2) - 2 * math.log(eta_i))


def trivial_residue(b1: complex, b2: complex) -> float:
    return math.pi / abs((b1.conjugate() * b2).imag)


def trivial_constant(b1: complex, b2: complex) -> float:
    """Constant term at s = 0 of sum' |m b1 + n b2|^{-2-2s}, from
    Kronecker's first limit formula with a q-series for eta."""
    tau = b2 / b1
    if tau.imag < 0:
        tau = tau.conjugate()
    y = tau.imag
    q = cmath.exp(2j * math.pi * tau)
    log_eta = (2j * math.pi * tau / 24).real
    qn = q
    while abs(qn) > 1e-18:
        log_eta += math.log(abs(1 - qn))
        qn *= q
    k = 2 * math.pi * (EULER_GAMMA - math.log(2) - 0.5 * math.log(y) - 2 * log_eta)
    area = abs(b1) ** 2 * y
    return (k - math.pi * math.log(area)) / area


def _periodic_zeta(mp, z, a: Fraction):
    """sum_{m >= 1} e^{2 pi i a m} m^{-z} for rational a, by Hurwitz zeta."""
    q = a.denominator
    if q == 1:
        return mp.zeta(z)
    total = 0
    for r in range(1, q + 1):
        total += mp.expjpi(2 * a.numerator * r / mp.mpf(q)) * mp.zeta(z, mp.mpf(r) / q)
    return total * mp.power(q, -z)


def epstein(b1: complex, b2: complex, a: Fraction, c: Fraction, s: complex) -> complex:
    """sum over (m, n) != 0 of e^{2 pi i (a m + c n)} |m b1 + n b2|^{-2(1+s)},
    by the Chowla-Selberg expansion: the n = 0 row is a periodic zeta
    value, each row n != 0 is summed over m by Poisson summation into
    K-Bessel terms, which decay like exp(-2 pi |k - a| n Im(tau))."""
    import mpmath as mp
    mp.mp.dps = 25
    sig = 1 + mp.mpc(s)
    tau = complex(b2) / complex(b1)
    x, y = mp.mpf(tau.real), mp.mpf(abs(tau.imag))
    a, c = Fraction(a) % 1, Fraction(c) % 1
    total = _periodic_zeta(mp, 2 * sig, a) + _periodic_zeta(mp, 2 * sig, -a % 1)
    pref = 2 * mp.power(mp.pi, sig) / mp.gamma(sig)
    if a == 0:
        zero_mode = mp.sqrt(mp.pi) * mp.gamma(sig - 0.5) / mp.gamma(sig) * mp.power(y, 1 - 2 * sig)
        total += zero_mode * (_periodic_zeta(mp, 2 * sig - 1, c)
                              + _periodic_zeta(mp, 2 * sig - 1, -c % 1))
    cutoff = 46  # exp(-46) ~ 1e-20
    kmax = int(cutoff / (2 * math.pi * float(y))) + 2
    for k in range(-kmax, kmax + 1):
        xi = k - mp.mpf(a.numerator) / a.denominator
        if xi == 0:
            continue
        axi = abs(xi)
        n = 1
        while 2 * math.pi * float(axi) * n * float(y) < cutoff:
            big_y = n * y
            bessel = mp.besselk(sig - 0.5, 2 * mp.pi * axi * big_y)
            term = pref * mp.power(axi / big_y, sig - 0.5) * bessel
            phase = 2 * mp.pi * n * (mp.mpf(c.numerator) / c.denominator + xi * x)
            total += 2 * mp.cos(phase) * term
            n += 1
    return complex(total * mp.power(abs(complex(b1)), -2 * sig))


# ---------------------------------------------------------------------------
# trace-formula terms, evaluated from their classical formulas

def digamma(z: complex) -> complex:
    import mpmath as mp
    return complex(mp.digamma(z))


def mero_eval(d: dict, z: complex) -> complex:
    """Evaluate the program's MeroSum JSON at z."""
    total = 0j
    for k, (re, im) in enumerate(d["polyPart"]):
        total += complex(re, im) * z ** k
    for (lr, li), (rr, ri) in d["poles"]:
        total += complex(rr, ri) / (z - complex(lr, li))
    for (cr, ci), (sr, si) in d["digammaAtoms"]:
        total += complex(cr, ci) * digamma(z + complex(sr, si))
    for (cr, ci), rate in d["expAtoms"]:
        total += complex(cr, ci) * cmath.exp(-rate * z)
    return total


def identity_terms(vol: float, z: complex) -> dict:
    return {"M0": -math.pi * vol * z * z,
            "M1": 2 * math.pi * vol * (1 - z * z)}


def unipotent_terms(z: complex, covolume=None, c_rho=None) -> dict:
    """U0 shifted by one and U1; the trivial restriction gives digamma
    terms, the nontrivial one constants covolume * c_rho / pi."""
    if covolume is None:
        g = digamma(1)
        return {"U0shifted": 4 * g - 4 * digamma(z),
                "U1": 4 * (2 * g - digamma(z) - digamma(z + 2))}
    const = covolume * c_rho / math.pi
    return {"U0shifted": const, "U1": 2 * const}


def threshold_term(z: complex) -> complex:
    return -1 / (2 * z)


def scattering_terms(poles: dict, z: complex) -> dict:
    """S1(z) = c1 - sum_a (1/(z + sgn a) - 1/(z + sgn conj a)) with
    sgn = sign(Re a), S0 = (1/2)(c0 - same over poles0), shifted by one
    together with the threshold term."""
    def partial(ps, c, w, x):
        total = w * c
        for re, im in ps:
            a = complex(re, im)
            sg = 1 if a.real > 0 else -1
            total -= w * (1 / (x + sg * a) - 1 / (x + sg * a.conjugate()))
        return total
    return {"S0shifted": partial(poles["poles0"], poles["c0"], 0.5, z - 1)
            + threshold_term(z - 1),
            "S1": partial(poles["poles1"], poles["c1"], 1.0, z)}
