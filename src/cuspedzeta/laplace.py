"""Closed-form transform algebra for heat kernels.

The transform is f(t) |-> 2z Integral_0^oo e^{-t z^2} f(t) dt, applied
to a small atom vocabulary (exponentials, half-integer powers, Gaussian
theta kernels, digamma-producing kernels).  Images live in MeroSum: a
polynomial plus simple poles plus digamma and decaying-exponential
atoms, with structural equality and residue queries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PoleEvaluation, QuadratureFailure, UnsupportedAtom

# ---------------------------------------------------------------------------
# digamma

_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510)]


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


def euler_gamma() -> float:
    return -digamma(1).real


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


def quadrature_lprime(f, z: complex) -> complex:
    """2z Integral_0^oo e^{-t z^2} f(t) dt by the exp-sinh rule: with
    t = exp((pi/2) sinh u), the trapezoid sum in u (step 1/32, |u| <= 4.5)
    converges geometrically for f with an integrable power singularity
    at 0.  The sum at twice the step is the error estimate; a kernel that
    oscillates faster than the step (large Im z^2) fails it."""
    z = complex(z)
    if not abs(z.imag) < z.real:
        raise QuadratureFailure("kernel requires |Im z| < Re z")
    z2 = z * z
    h = 1 / 32
    try:
        terms = []
        for k in range(-144, 145):
            t = math.exp(math.pi / 2 * math.sinh(k * h))
            terms.append(cmath.exp(-t * z2) * f(t) * t * math.pi / 2 * math.cosh(k * h))
    except OverflowError as exc:
        raise QuadratureFailure(f"integrand not finite on the nodes: {exc}")
    fine = h * sum(terms)
    err = abs(fine - 2 * h * sum(terms[::2]))
    if not err <= 1e-10:
        raise QuadratureFailure(f"error estimate {err:.3e} above target 1e-10")
    return 2 * z * fine


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
# JSON form

def _cx(v):
    v = complex(v)
    return [v.real, v.imag]


def mero_to_json(m: MeroSum) -> dict:
    return {
        "polyPart": [_cx(c) for c in m.poly_part],
        "poles": [[_cx(l), _cx(r)] for l, r in m.poles],
        "digammaAtoms": [[_cx(c), _cx(s)] for c, s in m.digamma_atoms],
        "expAtoms": [[_cx(c), complex(r).real] for c, r in m.exp_atoms],
    }


def mero_from_json(d: dict) -> MeroSum:
    un = lambda p: complex(p[0], p[1])
    return MeroSum.build(
        poly=[un(c) for c in d.get("polyPart", [])],
        poles=[(un(l), un(r)) for l, r in d.get("poles", [])],
        digamma_atoms=[(un(c), un(s)) for c, s in d.get("digammaAtoms", [])],
        exp_atoms=[(un(c), r) for c, r in d.get("expAtoms", [])],
    )
