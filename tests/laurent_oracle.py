"""Laurent polynomials over Q(zeta_n) with one cyclotomic number per
power of t, and the Smith form over them: an oracle for
`cuspedzeta.laurent`.

This is the module ``laurent`` was before it stored a polynomial as one
integer table over one denominator, with the bodies unchanged.  Its
coefficients come from `cyclotomic_oracle`, which works on `Fraction`s,
so neither the polynomial arithmetic nor the field arithmetic shares
code with the library.  `from_library` converts a library polynomial,
and `to_library` converts back, so tests build their inputs here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

import cuspedzeta.laurent
from cuspedzeta.errors import CuspedZetaError

from cyclotomic_oracle import CyclotomicNumber


class LaurentPoly:
    """Immutable Laurent polynomial; ``coeffs[i]`` multiplies
    ``t**(low+i)`` and both end coefficients are nonzero unless the
    polynomial is zero (empty coeffs)."""

    __slots__ = ("n", "low", "coeffs")

    def __init__(self, n, low, coeffs):
        cs = list(coeffs)
        # trim zero ends, keeping low in sync
        while cs and cs[-1].is_zero():
            cs.pop()
        while cs and cs[0].is_zero():
            cs.pop(0)
            low += 1
        if not cs:
            low = 0
        self.n = n
        self.low = low
        self.coeffs = tuple(cs)

    # constructors ----------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n, 0, [])

    @classmethod
    def one(cls, n):
        return cls(n, 0, [CyclotomicNumber.one(n)])

    @classmethod
    def from_int_coeffs(cls, n, coeffs, low=0):
        return cls(n, low, [CyclotomicNumber.from_rational(n, c) for c in coeffs])

    @classmethod
    def t_minus_one(cls, n):
        return cls.from_int_coeffs(n, [-1, 1])

    # predicates ------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def is_unit(self):
        """Units of the Laurent ring are c * t^k with c != 0."""
        return len(self.coeffs) == 1

    @property
    def span(self):
        """Euclidean size: degree after clearing the power of t."""
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def high(self):
        return self.low + self.span

    # arithmetic ------------------------------------------------------
    def _coerce(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed cyclotomic moduli")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        zero = CyclotomicNumber.zero(self.n)
        cs = [zero] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            cs[self.low - low + i] = cs[self.low - low + i] + c
        for i, c in enumerate(other.coeffs):
            cs[other.low - low + i] = cs[other.low - low + i] + c
        return LaurentPoly(self.n, low, cs)

    def __neg__(self):
        return LaurentPoly(self.n, self.low, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero(self.n)
        zero = CyclotomicNumber.zero(self.n)
        cs = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] = cs[i + j] + a * b
        return LaurentPoly(self.n, self.low + other.low, cs)

    def divmod(self, other):
        """a = q*b + r with span(r) < span(b)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = self
        quo = LaurentPoly.zero(self.n)
        inv_lead = other.coeffs[-1].inverse() if other.coeffs else None
        while not rem.is_zero() and rem.span >= other.span:
            c = rem.coeffs[-1] * inv_lead
            k = rem.high - other.high
            term = LaurentPoly(self.n, k, [c])
            quo = quo + term
            rem = rem - term * other
        return quo, rem

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other):
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def normalize(self):
        """Canonical unit representative: monic with lowest exponent 0."""
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return LaurentPoly(self.n, 0, [c * inv for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.normalize() if not a.is_zero() else a

    # evaluation ------------------------------------------------------
    def at_one(self) -> CyclotomicNumber:
        total = CyclotomicNumber.zero(self.n)
        for c in self.coeffs:
            total = total + c
        return total

    # comparisons -----------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.low, self.coeffs))

    def __repr__(self):
        return format_poly(self)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form ``(c)*t^k + ...`` with cyclotomic
    coefficients printed as ``[q0,q1,...]@n``."""
    if p.is_zero():
        return f"[0]@{p.n}*t^0"
    terms = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        terms.append(f"{c!r}*t^{p.low + i}")
    return " + ".join(terms)


def ord_at_one(f: LaurentPoly) -> int:
    """Largest k with (t-1)^k dividing f, by exact repeated division."""
    if f.is_zero():
        raise CuspedZetaError("ord at t=1 of the zero polynomial")
    tm1 = LaurentPoly.t_minus_one(f.n)
    k = 0
    while f.at_one().is_zero():
        f = f.exact_div(tm1)
        k += 1
    return k


def smith_form(matrix: list[list[LaurentPoly]]) -> list[LaurentPoly]:
    """Elementary divisors d1 | d2 | ... of the cokernel presented by a
    matrix, given as its list of rows: diagonalize, then gcd/lcm repair.

    Row and column elimination with smallest-span pivots leaves a
    diagonal matrix; one pass over pairs i < j then replaces
    (d_i, d_j) by (gcd, lcm), as diag(a, b) is equivalent to
    diag(gcd, lcm), which makes each divisor divide the next.

    Returns min(rows, cols) normalized divisors; trailing zeros signal a
    non-torsion quotient (rank deficiency).
    """
    e = [row[:] for row in matrix]
    rows, cols = len(e), len(e[0]) if e else 0
    size = min(rows, cols)

    def find_pivot(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                p = e[i][j]
                if not p.is_zero() and (best is None or p.span < e[best[0]][best[1]].span):
                    best = (i, j)
        return best

    k = 0
    while k < size:
        piv = find_pivot(k)
        if piv is None:
            break
        i0, j0 = piv
        e[k], e[i0] = e[i0], e[k]
        for row in e:
            row[k], row[j0] = row[j0], row[k]
        while True:
            dirty = False
            for i in range(k + 1, rows):
                if e[i][k].is_zero():
                    continue
                q, r = e[i][k].divmod(e[k][k])
                e[i] = [a - q * b for a, b in zip(e[i], e[k])]
                if not r.is_zero():
                    e[k], e[i] = e[i], e[k]
                    dirty = True
            for j in range(k + 1, cols):
                if e[k][j].is_zero():
                    continue
                q, r = e[k][j].divmod(e[k][k])
                for i in range(rows):
                    e[i][j] = e[i][j] - q * e[i][k]
                if not r.is_zero():
                    for i in range(rows):
                        e[i][k], e[i][j] = e[i][j], e[i][k]
                    dirty = True
            if dirty:
                continue
            if all(e[i][k].is_zero() for i in range(k + 1, rows)) and \
               all(e[k][j].is_zero() for j in range(k + 1, cols)):
                break
        k += 1

    diag = [e[i][i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = diag[i], diag[j]
            if a.is_unit() or a.divides(b):
                continue
            g = a.gcd(b)
            diag[i], diag[j] = g, a.exact_div(g) * b
    # no pivot was left, so the diagonal from k on is zero
    return [d.normalize() for d in diag] + [e[i][i] for i in range(k, size)]


def determinant(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix by cofactor expansion along its
    first row."""
    if len(m) == 1:
        return m[0][0]
    total = LaurentPoly.zero(m[0][0].n)
    for j, a in enumerate(m[0]):
        if a.is_zero():
            continue
        term = a * determinant([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def determinantal_divisor(matrix: list[list[LaurentPoly]], k: int) -> LaurentPoly:
    """The k-th determinantal divisor: the normalized gcd of every k x k
    minor, zero when they all vanish.  The first is the gcd of the
    entries, and the k-th is the product of the first k elementary
    divisors."""
    g = LaurentPoly.zero(matrix[0][0].n)
    for rows in combinations(matrix, k):
        for cols in combinations(range(len(matrix[0])), k):
            g = g.gcd(determinant([[row[j] for j in cols] for row in rows]))
    return g


def from_library(p) -> LaurentPoly:
    """The oracle polynomial equal to a `cuspedzeta.laurent.LaurentPoly`."""
    return LaurentPoly(p.n, p.low, [CyclotomicNumber(p.n, [Fraction(c, p.den) for c in row])
                                    for row in p.rows])


def to_library(p: LaurentPoly) -> cuspedzeta.laurent.LaurentPoly:
    """The `cuspedzeta.laurent.LaurentPoly` equal to an oracle polynomial:
    its coefficients cleared to one denominator, as integer rows."""
    den = lcm(*(q.denominator for c in p.coeffs for q in c.coeffs))
    return cuspedzeta.laurent.LaurentPoly.from_rows(
        p.n, p.low, [[q.numerator * (den // q.denominator) for q in c.coeffs]
                     for c in p.coeffs], den)
