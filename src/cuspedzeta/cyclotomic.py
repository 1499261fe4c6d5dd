"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(n)-1)
as integer numerators over one positive denominator, in lowest terms,
so equal elements are stored alike.  Phi_n is monic over Z, so
reduction runs in integers; the inverse is the product of the other
Galois conjugates over the rational norm.  Nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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


class CyclotomicNumber:
    """An element num / den of Q(zeta_n) on the power basis."""

    __slots__ = ("n", "num", "den")

    def __new__(cls, n: int, coeffs, den: int = 1):
        """sum coeffs[k] zeta^k / den; rational input is cleared here, once."""
        cs = list(coeffs)
        if any(type(c) is not int for c in cs):
            qs = [Fraction(c) / den for c in cs]
            den = lcm(*(q.denominator for q in qs))
            cs = [q.numerator * (den // q.denominator) for q in qs]
        deg = euler_phi(n)
        if len(cs) > deg:
            cs = _divmod_monic(cs, cyclotomic_polynomial(n))[1]
        return cls._make(n, cs + [0] * (deg - len(cs)), den)

    @staticmethod
    def _make(n, num, den):
        """num / den from phi(n) integers, stored in lowest terms, den > 0."""
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        x = object.__new__(CyclotomicNumber)
        x.n, x.num, x.den = n, tuple(c // g for c in num), den // g
        return x

    # constructors ----------------------------------------------------
    @classmethod
    def zeta_power(cls, n, k):
        """zeta_n^k."""
        return cls(n, [0] * (k % n) + [1])

    # predicates ------------------------------------------------------
    def is_zero(self):
        return not any(self.num)

    # arithmetic ------------------------------------------------------
    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber(self.n, [other])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mixed cyclotomic moduli {self.n} and {other.n}")
        return other

    def _plus(self, other, sign):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        num = [a * db + sign * b * da for a, b in zip(self.num, other.num)]
        return CyclotomicNumber._make(self.n, num, da * db)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return CyclotomicNumber._make(self.n, [-a for a in self.num], self.den)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        prod = _mulmod(self.num, other.num, cyclotomic_polynomial(self.n))
        return CyclotomicNumber._make(self.n, prod, self.den * other.den)

    def inverse(self):
        """x^-1 = p / N(x): p is the product of the conjugates zeta -> zeta^k,
        k a unit mod n other than 1, and x p is the rational norm N(x).
        On the numerators a over d: (a / d)^-1 = d p(a) / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, a = self.n, self.num
        phi = cyclotomic_polynomial(n)
        p = [1] + [0] * (len(a) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = [0] * n
                for j, c in enumerate(a):
                    conj[j * k % n] += c
                p = _mulmod(p, _divmod_monic(conj, phi)[1], phi)
        norm, *rest = _mulmod(a, p, phi)
        assert not any(rest), "the norm must be rational"
        return CyclotomicNumber._make(n, [c * self.den for c in p], norm)

    # comparisons -----------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        return f"[{','.join(str(Fraction(c, self.den)) for c in self.num)}]@{self.n}"
