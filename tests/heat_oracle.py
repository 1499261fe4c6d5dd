"""Heat atoms with their closed transforms, spectral transforms and the
Y-series of a length spectrum, kept as oracles for the transforms in
the package; `evaluate` reads a MeroSum at a point, with `digamma` for
its digamma atoms.

`closed_value` also covers the higher-order poles at 0 that
`lprime_closed` cannot represent; `hyperbolic_heat` is the truncated
heat trace of a length spectrum, whose quadrature transform must match
`y_series`.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.laplace import _BERNOULLI, MeroSum
from cuspedzeta.ruelle import TruncationReport, _tail_bound
from cuspedzeta.spectrum import Spectrum

from spectrum_oracle import log_euler_product, weights


class UnsupportedAtom(Exception):
    """An atom, or an atom's transform, outside the closed forms here."""


class PoleEvaluation(CuspedZetaError):
    """A MeroSum or psi read at one of its poles."""


def digamma(z: complex) -> complex:
    """psi(z) by upward recurrence into Re z > 10 followed by the
    asymptotic series; accurate to about 1e-12."""
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise PoleEvaluation(f"digamma pole at {z}")
    acc = 0j
    while z.real <= 10:
        acc -= 1 / z
        z += 1
    inv2 = 1 / (z * z)
    s = cmath.log(z) - 1 / (2 * z)
    term = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        s -= float(b) / (2 * k) * term
        term *= inv2
    return acc + s


# ---------------------------------------------------------------------------
# atoms

_KINDS = ("exp", "power", "theta", "digamma")


@dataclass(frozen=True)
class HeatAtom:
    """One term of a heat function.

    exp:      coefficient * e^{-t lam},           param = lam >= 0
    power:    coefficient * t^nu,                 param = nu (half-integer)
    theta:    coefficient * e^{-l^2/4t}/sqrt(4 pi t), param = l > 0
    digamma:  the kernel whose transform is 2 pi psi(z + alpha), param = alpha >= 0
    """
    kind: str
    param: float | Fraction
    coefficient: complex = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedAtom(f"unknown atom kind {self.kind!r}")
        if self.kind == "exp" and self.param < 0:
            raise UnsupportedAtom("exp atom requires a nonnegative rate")
        if self.kind == "power" and Fraction(self.param) * 2 != int(Fraction(self.param) * 2):
            raise UnsupportedAtom("power atom requires a half-integer exponent")
        if self.kind == "theta" and self.param <= 0:
            raise UnsupportedAtom("theta atom requires a positive length")
        if self.kind == "digamma" and self.param < 0:
            raise UnsupportedAtom("digamma atom requires a nonnegative shift")


# ---------------------------------------------------------------------------
# reading a MeroSum

def evaluate(m: MeroSum, z: complex) -> complex:
    z = complex(z)
    total = 0j
    for k, c in enumerate(m.poly_part):
        total += c * z ** k
    for loc, res in m.poles:
        if z == complex(loc):
            raise PoleEvaluation(f"evaluation at stored pole {loc}")
        total += res / (z - loc)
    for c, s in m.digamma_atoms:
        total += c * digamma(z + s)
    for c, r in m.exp_atoms:
        total += c * cmath.exp(-r * z)
    return total


def residue_at(m: MeroSum, z0: complex, tol: float = 1e-9) -> complex:
    z0 = complex(z0)
    total = 0
    for loc, res in m.poles:
        if abs(z0 - loc) <= tol:
            total += res
    for c, s in m.digamma_atoms:
        w = z0 + s
        if abs(w.imag) <= tol and w.real <= tol and \
                abs(w.real - round(w.real)) <= tol:
            total += -c  # psi has residue -1 at each nonpositive integer
    return total


# ---------------------------------------------------------------------------
# the transform in closed form

def _gamma(x: Fraction):
    """Gamma at a half-integer, exactly when possible."""
    if x == int(x):
        if x <= 0:
            raise UnsupportedAtom(f"Gamma pole at {x}")
        return math.factorial(int(x) - 1)
    # x = m + 1/2: Gamma(1/2) = sqrt(pi), recursed up or down
    v = math.sqrt(math.pi)
    y = Fraction(1, 2)
    while y < x:
        v *= float(y)
        y += 1
    while y > x:
        y -= 1
        v /= float(y)
    return v


def lprime_closed(atom: HeatAtom) -> MeroSum:
    c = atom.coefficient
    if atom.kind == "exp":
        lam = atom.param
        if lam == 0:
            return MeroSum.build(poles=[(0, 2 * c)])
        s = math.sqrt(lam)
        return MeroSum.build(poles=[(1j * s, c), (-1j * s, c)])
    if atom.kind == "power":
        nu = Fraction(atom.param)
        g = _gamma(nu + 1)
        e = -(1 + 2 * nu)  # exponent of z, always an integer
        if e >= 0:
            return MeroSum.build(poly=[0] * int(e) + [2 * g * c])
        if e == -1:
            return MeroSum.build(poles=[(0, 2 * g * c)])
        raise UnsupportedAtom(
            f"t^{nu} transforms to a pole of order {-int(e)} at 0")
    if atom.kind == "theta":
        return MeroSum.build(exp_atoms=[(c, atom.param)])
    # digamma kernel
    return MeroSum.build(digamma_atoms=[(2 * math.pi * c, atom.param)])


def atom_function(atom: HeatAtom):
    """The atom as a plain callable of t, for quadrature cross-checks."""
    c, p, kind = atom.coefficient, atom.param, atom.kind
    if kind == "exp":
        return lambda t: c * math.exp(-p * t)
    if kind == "power":
        return lambda t: c * t ** float(p)
    if kind == "theta":
        return lambda t: c * math.exp(-p * p / (4 * t)) / math.sqrt(4 * math.pi * t)
    raise UnsupportedAtom("the digamma kernel has no closed-form integrand here")


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


# ---------------------------------------------------------------------------
# synthetic spectral transforms

def spectral_lprime(eigen0, eigen1):
    """Transforms of the two heat traces of finite eigenvalue lists.

    L1 collects exp atoms of eigen1 minus eigen0 directly.  L0 is the
    transform of e^t times the eigen0 trace, written in z - 1: each
    eigenvalue b contributes simple poles at 1 +- sqrt(1-b) (b <= 1) or
    1 +- i sqrt(b-1) (b > 1), residue 1, with the two poles merging to
    residue 2 at z = 1 when b = 1.
    """
    poles1 = []
    for lam, sign in [(l, 1) for l in eigen1] + [(l, -1) for l in eigen0]:
        if lam == 0:
            poles1.append((0, 2 * sign))
        else:
            s = math.sqrt(lam)
            poles1.append((1j * s, sign))
            poles1.append((-1j * s, sign))
    l1 = MeroSum.build(poles=poles1)

    poles0 = []
    for b in eigen0:
        if b <= 1:
            s = math.sqrt(1 - b)
            if s == 0:
                poles0.append((1, 2))
                continue
        else:
            s = 1j * math.sqrt(b - 1)
        poles0.append((1 + s, 1))
        poles0.append((1 - s, 1))
    l0 = MeroSum.build(poles=poles0)
    return l0, l1


# ---------------------------------------------------------------------------
# heat traces of a length spectrum

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


def y_series(s: Spectrum, j: int, z: complex) -> TruncationReport:
    """Y_j(z) = sum over all classes of a_j(g) e^{-z l(g)}."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    tail = _tail_bound(s, z)
    total = 0j
    for c in s.classes:
        w = weights(c)
        total += (w.a0 if j == 0 else w.a1) * cmath.exp(-z * c.length)
    return TruncationReport(value=total, tail_bound=tail,
                            terms_used=len(s.classes))


def log_derivative(s: Spectrum, z: complex, step: float = 1e-4) -> complex:
    """d/dz log R_rho(z) by Richardson-extrapolated central differences."""
    def d(h):
        return (log_euler_product(s, z + h).value
                - log_euler_product(s, z - h).value) / (2 * h)
    d1, d2 = d(step), d(step / 2)
    return (4 * d2 - d1) / 3


def log_derivative_series(s: Spectrum, z: complex) -> complex:
    """The closed-form side of the same derivative:
    Y0(z) - Y1(z+1) + Y0(z+2)."""
    return (y_series(s, 0, z).value - y_series(s, 1, z + 1).value
            + y_series(s, 0, z + 2).value)
