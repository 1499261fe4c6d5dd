"""Exact arithmetic in Q(zeta_n) on rational coefficients, an oracle for
`cuspedzeta.cyclotomic`.

Elements are stored as phi(n) `Fraction`s on the power basis, reduced
by division over Q[x] against Phi_n, and inverted by the extended
Euclidean algorithm over Q[x].  The library stores integer numerators
over one denominator, reduces by one monic division in integers and
inverts by the norm; the two routes share no code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Exact division with remainder over Q; b must be nonzero."""
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = _ONE / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        _poly_trim(a)
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]
    den = [_ONE]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


class CyclotomicNumber:
    """An element of Q(zeta_n) on the power basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        deg = euler_phi(n)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = self._reduce(n, cs)
        cs += [_ZERO] * (deg - len(cs))
        self.n = n
        self.coeffs = tuple(cs)

    @staticmethod
    def _reduce(n, cs):
        phi = list(cyclotomic_polynomial(n))
        _, r = _poly_divmod(list(cs), phi)
        return r

    # constructors ----------------------------------------------------
    @classmethod
    def from_rational(cls, n, q):
        return cls(n, [Fraction(q)])

    @classmethod
    def zeta_power(cls, n, k):
        """zeta_n^k."""
        k %= n
        return cls(n, [_ZERO] * k + [_ONE])

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    @classmethod
    def one(cls, n):
        return cls(n, [_ONE])

    # predicates ------------------------------------------------------
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    # arithmetic ------------------------------------------------------
    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(self.n, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mixed cyclotomic moduli {self.n} and {other.n}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        return CyclotomicNumber(self.n, prod)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_n over Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # extended gcd of self (as poly) and Phi_n
        a = _poly_trim(list(self.coeffs))
        b = list(cyclotomic_polynomial(self.n))
        s0, s1 = [_ONE], []
        while b:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # a is now a nonzero constant gcd (Phi_n irreducible)
        assert len(a) == 1, "Phi_n must be coprime to any nonzero element"
        inv_c = _ONE / a[0]
        return CyclotomicNumber(self.n, [c * inv_c for c in s0])

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def conjugate(self):
        """Complex conjugation zeta -> zeta^(n-1)."""
        out = CyclotomicNumber.zero(self.n)
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + CyclotomicNumber.zeta_power(self.n, -k) * c
        return out

    # comparisons -----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(self.n, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"[{','.join(str(c) for c in self.coeffs)}]@{self.n}"
