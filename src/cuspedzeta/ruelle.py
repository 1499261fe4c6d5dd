"""Ruelle zeta evaluation from a truncated geodesic spectrum.

Everything here is a finite sum or product over a Spectrum, together
with a heuristic tail bound from the exponential counting estimate
N(L) <= C e^{2L}.  Every spectrum is a truncation, whether enumerated,
loaded or synthetic: each evaluation reports the tail bound, and a
point outside the region Re z > 2, where the Euler product converges,
raises CuspedZetaError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import CuspedZetaError
from .spectrum import GeodesicClass, Spectrum, _canonical_angle


@dataclass(frozen=True)
class TruncationReport:
    value: complex
    tail_bound: float
    terms_used: int


def counting_constant(s: Spectrum) -> float:
    """Least-squares C in the heuristic counting bound N(L) <= C e^{2L},
    fitted on the spectrum's own cumulative counts."""
    if not s.classes:
        return 1.0
    num = 0.0
    den = 0.0
    try:
        for i, c in enumerate(s.classes, start=1):
            w = math.exp(2 * c.length)
            num += i * w
            den += w * w
    except OverflowError:
        raise _overflow("e^(2 l) in the counting constant", c.length) from None
    return max(num / den, 1e-300)


def _overflow(term: str, length: float) -> OverflowError:
    """A float overflow located at the term and the length of the class
    that raised it."""
    return OverflowError(f"{term} overflows at the class of length {length!r}")


def _tail_bound(s: Spectrum, z: complex) -> float:
    """Heuristic truncation tail for geometric sums over the spectrum at
    z, monotone decreasing in both Re z and the cutoff; a z with
    Re z <= 2 raises CuspedZetaError."""
    x = z.real
    if x <= 2:
        raise CuspedZetaError(
            f"Re z = {x} is not in the convergence region Re z > 2")
    try:
        c = counting_constant(s)
    except OverflowError as exc:
        raise OverflowError(f"tail bound at z = {z}: {exc}") from None
    # a product, not ** 2, so a huge Re z saturates to inf and the tail to 0
    return 4 * c * math.exp(-(x - 2) * s.cutoff_length) / ((x - 2) * (x - 2))


def euler_product(s: Spectrum, z: complex) -> TruncationReport:
    """R_rho(z) truncated to the spectrum: product of
    1 - rho(g0) e^{-z l(g0)} over primitive classes.  An exponent z l
    whose imaginary part leaves the float range (cmath.exp raises
    ValueError; with Re z > 2 the real part can only underflow), or a
    product past the float range, raises a located OverflowError."""
    tail = _tail_bound(s, z)
    rows = s.primitives()
    exp, nz = cmath.exp, -z
    value = 1 + 0j
    try:
        for length, _, char, _, _, _ in rows:
            value *= 1 - char * exp(nz * length)
    except ValueError:
        raise _overflow(f"e^(-z l) at z = {z}", length) from None
    if not cmath.isfinite(value):
        # complex multiplication overflows without raising: find the
        # first factor that takes the product out of the float range
        value = 1 + 0j
        for length, _, char, _, _, _ in rows:
            value *= 1 - char * exp(nz * length)
            if not cmath.isfinite(value):
                raise _overflow(f"e^(-z l) at z = {z}", length)
    return TruncationReport(value=value, tail_bound=tail, terms_used=len(rows))


def fried_residual(s: Spectrum, z: complex) -> TruncationReport:
    """Defect of the factorization R(z) = S0(z) S0(z+2) / S1(z+1) on the
    truncated class set, with log S_j(w) = -sum a_j(g) e^{-w l(g)} / l(g);
    zero up to the tail for a power-closed set.  One pass over the
    classes feeds all four sums, with the per-class weights
    a0 = rho(g) l0 / Delta, Delta = det(I - A^s) = 1 - 2 e^{-l} cos(theta)
    + e^{-2l}, and a1 = a0 * 2 cos(theta).  An exponent whose imaginary
    part leaves the float range raises a located OverflowError, as in
    `euler_product`."""
    tail = _tail_bound(s, z)
    exp, rexp, cos = cmath.exp, math.exp, math.cos
    nz, nz1, nz2 = -z, -(z + 1), -(z + 2)
    log_r = s0 = s0_shift = s1 = 0j
    try:
        for length, holonomy, char, prim, _, _ in s.classes:
            el = rexp(-length)
            cos_t = cos(holonomy)
            a0 = char * prim / (1 - 2 * el * cos_t + el * el)
            e = exp(nz * length)
            log_r -= char * e * prim / length
            s0 -= a0 * e / length
            s0_shift -= a0 * exp(nz2 * length) / length
            s1 -= a0 * 2 * cos_t * exp(nz1 * length) / length
    except ValueError:
        raise _overflow(f"e^(-z l) in the Fried sums at z = {z}", length) from None
    return TruncationReport(value=abs(log_r - (s0 + s0_shift - s1)),
                            tail_bound=tail, terms_used=len(s.classes))


def single_orbit_spectrum(length: float, holonomy: float, char_value: complex,
                          powers: int) -> Spectrum:
    """Synthetic spectrum of one primitive class and its powers
    1..powers, truncated at the cutoff powers * length like any other
    spectrum."""
    classes = []
    for k in range(1, powers + 1):
        classes.append(GeodesicClass(
            length=k * length, holonomy=_canonical_angle(holonomy * k),
            char_value=char_value ** k,
            primitive_length=length, multiplicity=k, word="a" * k))
    return Spectrum(classes=classes, cutoff_length=powers * length).validate()
