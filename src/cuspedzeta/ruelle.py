"""Ruelle zeta evaluation from a truncated geodesic spectrum.

Everything here is a finite sum or product over a Spectrum.  Every
spectrum is a truncation, whether enumerated or loaded: `euler_product`
reports a heuristic tail bound from the exponential counting estimate
N(L) <= C e^{2L}, `power_closure` checks that the rows hold every power
of every primitive row under the cutoff, and a point outside the region
Re z > 2, where the Euler product converges, raises CuspedZetaError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import CuspedZetaError
from .spectrum import CUTOFF_SLACK, Spectrum


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


def _check_region(z: complex):
    """Raise CuspedZetaError unless Re z > 2."""
    if z.real <= 2:
        raise CuspedZetaError(
            f"Re z = {z.real} is not in the convergence region Re z > 2")


def _tail_bound(s: Spectrum, z: complex) -> float:
    """Heuristic truncation tail for geometric sums over the spectrum at
    z, monotone decreasing in both Re z and the cutoff; a z with
    Re z <= 2 raises CuspedZetaError."""
    _check_region(z)
    x = z.real
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


def power_closure(s: Spectrum, z: complex) -> tuple[float, float, bool]:
    """(residual, bound, closed): whether the rows hold every power of
    every primitive row under the cutoff, read at z.

    Each row g = g0^k adds rho(g) e^{-z l} l0 / l to `got`, and each
    primitive row p adds x_p^k / k, x_p = rho(p) e^{-z l_p}, to `want`
    for each of its K_p powers k l_p under the cutoff: on rows that are
    exactly the powers of their primitives the two agree term by term.
    A power within the loader's CUTOFF_SLACK of the cutoff is left out of
    both, whether it is a row or not.  `closed` needs |got - want| <=
    bound and sum K_p equal to the rows compared; the power loops take at
    most as many steps as there are rows.

    The bound, with u = 2^-53, n the rows compared, S the sum of their
    terms' moduli and L the cutoff: the two sums of n terms round by
    2 sqrt(2) n u S; the products of a term, sqrt(5) u each, k - 1 more
    for x_p^k and as many taken to be in the row's rho(g) = rho(p)^k,
    by (4.5 n + 14) u S; the rounded exponent z l, on each side and in
    the row's l = k l_p, by 4 u |z| L S.  So bound = (8 n + 16
    + 4 |z| L) u S, capped at 2 S, where the exponent's rounding can
    spoil every term.  An exponent whose imaginary part leaves the float
    range raises a located OverflowError, as in `euler_product`."""
    _check_region(z)
    edge = s.cutoff_length - CUTOFF_SLACK
    budget = len(s.classes)
    exp, nz = cmath.exp, -z
    got = want = 0j
    size = 0.0
    rows = powers = steps = 0
    try:
        for length, _, char, prim, mult, _ in s.classes:
            if mult > 1 and mult * prim > edge:
                continue
            x = char * exp(nz * length)
            term = x * prim / length
            got += term
            size += abs(term)
            rows += 1
            if mult == 1:
                want += x
                k, xk = 1, x
                # past `budget` steps, sum K_p exceeds the row count
                while (k + 1) * length <= edge and steps < budget:
                    k += 1
                    xk *= x
                    want += xk / k
                    steps += 1
                powers += k
    except ValueError:
        raise _overflow(f"e^(-z l) in the power sums at z = {z}", length) from None
    residual = abs(got - want)
    slack = 8 * rows + 16 + 4 * (abs(z.real) + abs(z.imag)) * s.cutoff_length
    bound = min(slack * 2.0 ** -53, 2.0) * size
    return residual, bound, residual <= bound and powers == rows
