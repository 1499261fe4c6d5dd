"""Integer arithmetic in Z[x]/Phi_n, on which Q(zeta_n) is built.

The functions take and return bare integer lists on the power basis
1, zeta, ..., zeta^(phi(n)-1), and `invert` also a denominator.  How an
element of Q(zeta_n) is stored (such numerators over one positive
denominator, in lowest terms) is decided in `laurent` alone.  Phi_n is
monic over Z, so reduction runs in integers; the inverse of a root of
unity +-zeta^j is +-zeta^(n-j), reduced by one division, and any other
inverse is the product of the other Galois conjugates over the rational
norm.  Nothing here ever rounds.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def _divmod_monic(a, b):
    """Quotient and remainder of integer polynomials (ascending degree)
    by a monic b; the remainder has at most len(b) - 1 terms."""
    a = list(a)
    m = len(b) - 1
    q = [0] * max(len(a) - m, 0)
    for k in range(len(a) - m - 1, -1, -1):
        c = q[k] = a[k + m]
        if c:
            for i in range(m):
                a[k + i] -= c * b[i]
    return q, a[:m]


def _mulmod(a, b, phi):
    """a * b mod phi for integer polynomials of len(phi) - 1 terms."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _divmod_monic(out, phi)[1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided in turn by Phi_d for each proper divisor d of n
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, r = _divmod_monic(p, cyclotomic_polynomial(d))
            assert not any(r), "cyclotomic division must be exact"
    return tuple(p)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def invert(n: int, num, den: int) -> tuple[tuple[int, ...], int]:
    """The inverse of num / den, an element of Q(zeta_n) on the power
    basis, as (numerators, denominator) in lowest terms with the
    denominator positive.

    x^-1 = p / N(x): p is the product of the conjugates zeta -> zeta^k,
    k a unit mod n other than 1, and x p is the rational norm N(x).
    On the numerators a over d: (a / d)^-1 = d p(a) / N(a).  A root of
    unity +-zeta^j skips the norm: its inverse is +-zeta^(n-j) reduced
    mod Phi_n, whose integer coefficients have gcd 1 as it is a unit
    of Z[zeta]."""
    if not any(num):
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    phi = cyclotomic_polynomial(n)
    terms = [j for j, c in enumerate(num) if c]
    if len(terms) == 1 and abs(num[terms[0]]) == den:
        j = terms[0]
        power = [0] * (n + 1)
        power[n - j] = num[j] // den
        return tuple(_divmod_monic(power, phi)[1]), 1
    p = [1] + [0] * (len(num) - 1)
    for k in range(2, n):
        if gcd(k, n) == 1:
            conj = [0] * n
            for j, c in enumerate(num):
                conj[j * k % n] += c
            p = _mulmod(p, _divmod_monic(conj, phi)[1], phi)
    norm, *rest = _mulmod(num, p, phi)
    assert not any(rest), "the norm must be rational"
    p = [c * den for c in p]
    g = gcd(norm, *p) if norm > 0 else -gcd(norm, *p)
    return tuple(c // g for c in p), norm // g
