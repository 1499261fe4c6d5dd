"""Laurent polynomials in t over a cyclotomic field and the
elementary divisors (Smith form) of a matrix of them, given as a list
of rows.

A polynomial is one integer table over one denominator: ``rows[i]``
holds the phi(n) power-basis numerators of the coefficient of
t^(low+i), all over one positive ``den`` and in lowest terms across
every entry, so equal polynomials are stored alike.  This is the one
place that knows how an element of Q(zeta_n) is stored: a scalar is a
polynomial with one row, and `cyclotomic` supplies only integer
arithmetic mod Phi_n and the inverse on bare numerators.  `dot`, the
one convolution loop, gathers unreduced zeta-products into a table
with one row per power of t and reduces each row once by Phi_n: a
product, a sum of products and the Smith row update a - q b each fill
one such table and build one polynomial, and so do a + b, a - b and
-a, as products by 1.  Division by a unit c t^k is one product by
c^-1, and any other division runs on integer rows after one inverse of
the leading coefficient, which each polynomial computes at most once.

The ring Q(zeta_n)[t, t^-1] is a localization of a Euclidean domain;
division works on the span (top exponent minus bottom exponent) after
clearing powers of t, which are units.  Only `smith_form` divides; the
order at t = 1 is read from Taylor sums of the integer rows, and
`rank_at_one` takes the rank of a matrix at t = 1 by elimination on
integer rows mod Phi_n, with no inverse by the norm.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, inf, lcm

from .cyclotomic import cyclotomic_polynomial, divmod_monic, euler_phi, invert, mulmod


class LaurentPoly:
    """Immutable Laurent polynomial rows / den; ``rows[i]`` is the
    coefficient of ``t**(low+i)`` and both end rows are nonzero unless
    the polynomial is zero (no rows, low 0, den 1).  `from_rows` builds
    every instance; the class itself takes no arguments.  ``_inv``, the
    inverse of the top coefficient, is filled in by the first call of
    `_lead_inverse`."""

    __slots__ = ("n", "low", "rows", "den", "_inv")

    # constructors ----------------------------------------------------
    @staticmethod
    def from_rows(n, low, rows, den=1):
        """rows / den t^low from rows of phi(n) integers, with the zero
        end rows trimmed, stored in lowest terms with den > 0.  Every
        polynomial is built here."""
        end = len(rows)
        while end and not any(rows[end - 1]):
            end -= 1
        start = 0
        while start < end and not any(rows[start]):
            start += 1
        p = object.__new__(LaurentPoly)
        p.n = n
        if start == end:
            p.low, p.rows, p.den = 0, (), 1
            return p
        rows = rows[start:end]
        g = 1 if den == 1 else gcd(den, *chain.from_iterable(rows))
        if den < 0:
            g = -g
        if g == 1:
            rows = tuple(map(tuple, rows))
        else:
            rows = tuple(tuple(x // g for x in r) for r in rows)
        p.low, p.rows, p.den = low + start, rows, den // g
        return p

    @classmethod
    def zero(cls, n):
        return cls.from_rows(n, 0, ())

    @classmethod
    def one(cls, n):
        return cls.from_int_coeffs(n, [1])

    @classmethod
    def from_int_coeffs(cls, n, coeffs, low=0):
        pad = (0,) * (euler_phi(n) - 1)
        return cls.from_rows(n, low, [(c,) + pad for c in coeffs])

    @classmethod
    def from_zeta_counts(cls, n, counts):
        """sum c_hr zeta_n^r t^h from counts, a dict that maps each height
        h to the n integers c_h0, ..., c_h(n-1)."""
        if not counts:
            return cls.zero(n)
        low, phi, zero = min(counts), cyclotomic_polynomial(n), [0] * n
        return cls.from_rows(n, low, [divmod_monic(counts.get(h, zero), phi)[1]
                                      for h in range(low, max(counts) + 1)])

    # predicates ------------------------------------------------------
    def is_zero(self):
        return not self.rows

    def is_unit(self):
        """Units of the Laurent ring are c * t^k with c != 0."""
        return len(self.rows) == 1

    @property
    def span(self):
        """Euclidean size: degree after clearing the power of t."""
        return len(self.rows) - 1

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
        return other if other is NotImplemented else \
            dot(self.n, (other,), (LaurentPoly.one(self.n),), self)

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else \
            dot(self.n, (other,), (LaurentPoly.one(self.n),), self, -1)

    def __neg__(self):
        return dot(self.n, (self,), (LaurentPoly.one(self.n),), None, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return dot(self.n, (self,), (other,))

    def _lead_inverse(self):
        """Integer numerators and denominator of the inverse of the top
        coefficient: one inverse in Q(zeta_n), or (None, 1) when the top
        coefficient is 1.  Computed on the first call and kept."""
        try:
            return self._inv
        except AttributeError:
            pass
        top = self.rows[-1]
        if top[0] == self.den and not any(top[1:]):
            self._inv = None, 1
        else:
            self._inv = invert(self.n, top, self.den)
        return self._inv

    def divmod(self, other):
        """a = q*b + r with span(r) < span(b)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        span = other.span
        if self.span < span:
            return LaurentPoly.zero(self.n), self
        inum, iden = other._lead_inverse()
        if not span:
            # b = c t^k is a unit: q = a c^-1 t^-k and r = 0
            return (LaurentPoly.from_rows(self.n, self.low - other.low,
                                          _times(self.n, inum, self.rows), self.den * iden),
                    LaurentPoly.zero(self.n))
        phi = cyclotomic_polynomial(self.n)
        # other over its top coefficient is b / d, and b's top row is (d, 0, ...)
        b, d = _times(self.n, inum, other.rows), other.den * iden
        # rem and quo are integer rows over one denominator den
        rem, den = list(self.rows), self.den
        quo = [None] * (len(rem) - span)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + span]
            if not any(c):
                quo[k] = c
                continue
            g = gcd(d, *c)
            if g != d:
                # scale everything by s so that c * s is a multiple of d
                s = d // g
                rem = [tuple(s * x for x in r) for r in rem]
                quo[k + 1:] = [tuple(s * x for x in r) for r in quo[k + 1:]]
                den *= s
            c = tuple(x // g for x in c)
            quo[k] = tuple(x * d for x in c)
            for i in range(span):
                r = mulmod(c, b[i], phi)
                rem[k + i] = tuple(x - y for x, y in zip(rem[k + i], r))
        q = LaurentPoly.from_rows(self.n, self.low - other.low, _times(self.n, inum, quo),
                                  den * iden)
        return q, LaurentPoly.from_rows(self.n, self.low, rem[:span], den)

    def __mod__(self, other):
        if other.is_unit():
            return LaurentPoly.zero(self.n)
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
        """Canonical unit representative: monic with lowest exponent 0,
        so 1 for a unit, which needs no inverse."""
        if self.is_zero():
            return self
        if self.is_unit():
            return LaurentPoly.one(self.n)
        inum, iden = self._lead_inverse()
        return LaurentPoly.from_rows(self.n, 0, _times(self.n, inum, self.rows),
                                     self.den * iden)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.normalize() if not a.is_zero() else a

    # comparisons -----------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.low == other.low and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.low, self.rows, self.den))

    def __repr__(self):
        return format_poly(self)


def dot(n, xs, ys, start=None, sign=1):
    """start + sign * sum x * y over the pairs of xs and ys, polynomials
    of modulus n, with start zero when None.  The rows of start and the
    unreduced zeta-products of every pair go into one integer table over
    the lcm of the denominators, one row per power of t, and each row is
    reduced once by Phi_n, with one `from_rows`.  This is the one
    convolution loop of the module."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x.rows and y.rows]
    if start is None:
        start = LaurentPoly.zero(n)
    if not pairs:
        return start
    x, y = pairs[0]
    den, low, high = start.den, x.low + y.low, x.high + y.high
    if start.rows:
        low, high = min(low, start.low), max(high, start.high)
    for x, y in pairs:
        den = lcm(den, x.den * y.den)
        low, high = min(low, x.low + y.low), max(high, x.high + y.high)
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    acc = [[0] * (2 * m - 1) for _ in range(high - low + 1)]
    f = den // start.den
    for i, r in enumerate(start.rows, start.low - low):
        acc[i][:m] = r if f == 1 else [f * c for c in r]
    for x, y in pairs:
        f = sign * den // (x.den * y.den)
        # the nonzero numerators of each nonzero row of y, times f
        theirs = [(j, [(q, f * c) for q, c in enumerate(b) if c])
                  for j, b in enumerate(y.rows, x.low + y.low - low) if any(b)]
        for i, a in enumerate(x.rows):
            for j, b in theirs:
                out = acc[i + j]
                for p, c in enumerate(a):
                    if c:
                        for q, d in b:
                            out[p + q] += c * d
    rows = [divmod_monic(r, phi)[1] if any(r[m:]) else r[:m] for r in acc]
    return LaurentPoly.from_rows(n, low, rows, den)


def _times(n, num, rows):
    """Each integer row times the integer numerators num, mod Phi_n;
    num None stands for 1."""
    if num is None:
        return rows
    phi = cyclotomic_polynomial(n)
    return [mulmod(r, num, phi) for r in rows]


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form ``(c)*t^k + ...`` with cyclotomic
    coefficients printed as ``[q0,q1,...]@n``."""
    if p.is_zero():
        return f"[0]@{p.n}*t^0"

    def coeff(row):
        return f"[{','.join(str(Fraction(c, p.den)) for c in row)}]@{p.n}"
    return " + ".join(f"{coeff(r)}*t^{p.low + i}" for i, r in enumerate(p.rows) if any(r))


def ord_at_one(f: LaurentPoly) -> int | float:
    """Largest k with (t-1)^k dividing f: the first k whose Taylor
    coefficient at t = 1 of t^-low f, the sum of binom(i, k) rows[i],
    is nonzero.  The zero polynomial has order math.inf."""
    rows = f.rows
    for k in range(len(rows)):
        if any(sum(comb(i, k) * r[q] for i, r in enumerate(rows[k:], k))
               for q in range(len(rows[k]))):
            return k
    return inf


def smith_form(matrix: list[list[LaurentPoly]]) -> list[LaurentPoly]:
    """Elementary divisors d1 | d2 | ... of the cokernel presented by a
    matrix, given as its list of rows: diagonalize, then gcd/lcm repair.

    Row and column elimination with smallest-span pivots leaves a
    diagonal matrix.  The row pass reduces the pivot column below the
    pivot, and a remainder that is not zero becomes the pivot.  Once a
    row pass ends with no such swap, that column is zero below the
    pivot, so a column operation changes the pivot row alone: each
    entry right of the pivot is replaced by its remainder, which is zero
    for a unit pivot, and a remainder that is not zero becomes the pivot
    and the row pass starts again.  One pass over pairs i < j then replaces
    (d_i, d_j) by (gcd, lcm), as diag(a, b) is equivalent to
    diag(gcd, lcm), which makes each divisor divide the next.

    Returns min(rows, cols) normalized divisors; trailing zeros signal a
    non-torsion quotient (rank deficiency).
    """
    e = [row[:] for row in matrix]
    rows, cols = len(e), len(e[0]) if e else 0
    size = min(rows, cols)

    def find_pivot(k):
        """The first entry of least span in row-major order: the first
        unit, as soon as one is met."""
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                p = e[i][j]
                if not p.is_zero() and (best is None or p.span < e[best[0]][best[1]].span):
                    if p.is_unit():
                        return i, j
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
        swapped = True
        while swapped:
            swapped = False
            for i in range(k + 1, rows):
                if e[i][k].is_zero():
                    continue
                q, r = e[i][k].divmod(e[k][k])
                # a - q b in one pass; a zero entry of the pivot row leaves
                # its column as it is
                q = (q,)
                e[i] = [a if b.is_zero() else dot(a.n, q, (b,), a, -1)
                        for a, b in zip(e[i], e[k])]
                if not r.is_zero():
                    e[k], e[i] = e[i], e[k]
                    swapped = True
            if swapped:
                continue
            for j in range(k + 1, cols):
                if e[k][j].is_zero():
                    continue
                r = e[k][j] = e[k][j] % e[k][k]
                if not r.is_zero():
                    for row in e:
                        row[k], row[j] = row[j], row[k]
                    swapped = True
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


def rank_at_one(n: int, d1: list[list[LaurentPoly]]) -> int:
    """Rank over Q(zeta_n) of the matrix d1 at t = 1, for entries with
    integer numerators (den 1), as `fox_row` gives them.

    Each entry at t = 1 is the sum of its integer rows, and a row keeps
    its nonzero entries by column.  Each step pivots on an entry of
    least coefficient sum in absolute value.  A root of unity +-zeta^j
    (sum 1) clears its column from the rows left as r - (a z) q, with z
    = +-zeta^(n-j) its inverse from `invert`; any other pivot p as
    p r - a q, after which the row's integer content is divided out.
    Neither changes the span of the rows left, and neither forms an
    inverse by the norm.
    """
    phi = cyclotomic_polynomial(n)
    zero = [0] * (len(phi) - 1)
    rows = []
    for row in d1:
        r = {}
        for j, f in enumerate(row):
            v = [sum(c) for c in zip(*f.rows)]
            if any(v):
                r[j] = v
        if r:
            rows.append(r)
    rank = 0
    while rows:
        i, j = next(((i, j) for i, r in enumerate(rows) for j, v in r.items()
                     if sum(map(abs, v)) == 1), None) or \
            min((sum(map(abs, v)), i, j) for i, r in enumerate(rows) for j, v in r.items())[1:]
        q = rows.pop(i)
        p = q.pop(j)
        rank += 1
        unit = sum(map(abs, p)) == 1
        if unit:
            z = invert(n, p, 1)[0]
        left = []
        for r in rows:
            a = r.pop(j, None)
            if a is not None:
                if unit:
                    a = mulmod(a, z, phi)
                else:
                    r = {c: mulmod(p, v, phi) for c, v in r.items()}
                for c, v in q.items():
                    w = [x - y for x, y in zip(r.get(c, zero), mulmod(a, v, phi))]
                    if any(w):
                        r[c] = w
                    else:
                        r.pop(c, None)
                g = 1 if unit else gcd(*chain.from_iterable(r.values()))
                if g > 1:
                    r = {c: [x // g for x in v] for c, v in r.items()}
            if r:
                left.append(r)
        rows = left
    return rank
