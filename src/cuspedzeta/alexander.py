"""Twisted chain complex of a presentation 2-complex and the
alternating-product Alexander invariant.

The infinite cyclic cover is modelled by coefficients in the Laurent
ring: a generator x maps to rho(x) * t^eps(x).  Homology of the twisted
complex is computed over Q(zeta_n)[t, t^-1], a PID, via kernel bases
and Smith forms; only orders and degrees at t=1 are contract values
(characteristic polynomials carry the usual unit ambiguity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CyclotomicNumber
from .errors import ComplexConditionViolation, HypothesisNotMet, NotTorsion
from .laurent import (LaurentMatrix, LaurentPoly, char_poly_from_divisors,
                      ord_at_one, smith_form)
from .presentation import (Epsilon, GroupPresentation, GroupRingElement,
                           UnitCharacter, evaluate_twisted, fox_derivative)


@dataclass(frozen=True)
class TwistedComplex:
    """d1: relators x generators Fox matrix; d0: generators x 1 column
    with entries rho(x_j) t^eps(x_j) - 1.  d1 followed by d0 is zero."""

    d1: LaurentMatrix
    d0: LaurentMatrix


@dataclass(frozen=True)
class AlexanderData:
    char0: LaurentPoly
    char1: LaurentPoly
    char2: LaurentPoly
    ord_at_one: int
    h0: int
    h1: int
    semisimple_at_one: bool
    h0_infinity_vanishes: bool
    h1_divisors: tuple[LaurentPoly, ...] = ()


def build_complex(p: GroupPresentation, rho: UnitCharacter, eps: Epsilon) -> TwistedComplex:
    n = rho.modulus
    g = p.arity
    d1 = LaurentMatrix(n, [[evaluate_twisted(fox_derivative(r, j), rho, eps)
                            for j in range(g)]
                           for r in p.relators]) if p.relators else LaurentMatrix(n, [])
    col = []
    for j in range(g):
        word = ((j, 1),)
        col.append(LaurentPoly(n, eps.of(word), [rho.value(word)]) - 1)
    d0 = LaurentMatrix(n, [[c] for c in col])
    if p.relators and not d1.matmul(d0).is_zero():
        raise ComplexConditionViolation(
            "Fox matrix times the augmentation column is nonzero")
    return TwistedComplex(d1=d1, d0=d0)


def _column_reduce(vec):
    """Unimodular U with U @ vec = (gcd, 0, ..., 0); returns
    (gcd, U, Uinv) with the inverse maintained alongside."""
    n = vec[0].n
    g = len(vec)
    v = list(vec)
    u = LaurentMatrix.identity(n, g)
    vinv = LaurentMatrix.identity(n, g)

    def swap(i, j):
        v[i], v[j] = v[j], v[i]
        u.entries[i], u.entries[j] = u.entries[j], u.entries[i]
        for row in vinv.entries:
            row[i], row[j] = row[j], row[i]

    while True:
        support = [i for i in range(g) if not v[i].is_zero()]
        if not support:
            raise ValueError("zero column has no gcd transform")
        piv = min(support, key=lambda i: v[i].span)
        if piv != 0:
            swap(0, piv)
        done = True
        for i in range(1, g):
            if v[i].is_zero():
                continue
            q, r = v[i].divmod(v[0])
            v[i] = r
            u.entries[i] = [a - q * b for a, b in zip(u.entries[i], u.entries[0])]
            for row in vinv.entries:
                row[0] = row[0] + q * row[i]
            if not r.is_zero():
                done = False
        if done and all(v[i].is_zero() for i in range(1, g)):
            break
    return v[0], u, vinv


def _h1_divisors(c: TwistedComplex):
    """Elementary divisors of H1 = ker d0 / im d1, padded with zeros
    when the image has deficient rank."""
    n = c.d0.n
    g = c.d0.rows
    if g == 1:
        # kernel of multiplication by a nonzero element is zero
        return ()
    _, _, vinv = _column_reduce([c.d0.entries[j][0] for j in range(g)])
    coords = []
    for row in c.d1.entries:
        crow = []
        for j in range(g):
            acc = LaurentPoly.zero(n)
            for k in range(g):
                acc = acc + row[k] * vinv.entries[k][j]
            crow.append(acc)
        if not crow[0].is_zero():
            raise ComplexConditionViolation(
                "relator image has a component outside ker d0")
        coords.append(crow[1:])
    if not coords:
        return tuple(LaurentPoly.zero(n) for _ in range(g - 1))
    pres = LaurentMatrix(n, coords)
    divisors = smith_form(pres)
    while len(divisors) < g - 1:
        divisors.append(LaurentPoly.zero(n))
    return tuple(divisors)


def _char0(c: TwistedComplex) -> LaurentPoly:
    n = c.d0.n
    acc = LaurentPoly.zero(n)
    for row in c.d0.entries:
        acc = acc.gcd(row[0]) if not acc.is_zero() else row[0]
    return acc.normalize()


def _rank_cyclotomic(rows, ncols):
    """Row rank of a matrix of CyclotomicNumber by exact elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if not mat[i][col].is_zero()), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def twisted_betti(p: GroupPresentation, rho: UnitCharacter) -> tuple[int, int]:
    """Dimensions (h0, h1) of the rho-twisted cohomology of the
    presentation complex over Q(zeta_n), with no t variable."""
    g = p.arity
    n = rho.modulus

    def char_of(e: GroupRingElement) -> CyclotomicNumber:
        acc = CyclotomicNumber.zero(n)
        for w, c in e.terms.items():
            acc = acc + rho.value(w) * c
        return acc

    h0 = 1 if all(rho.exponents[j] % n == 0 for j in range(g)) else 0
    rows = [[char_of(fox_derivative(r, j)) for j in range(g)] for r in p.relators]
    rank_a = _rank_cyclotomic(rows, g) if rows else 0
    h1 = (g - rank_a) - (1 - h0)
    return h0, h1


def alexander_invariant(p: GroupPresentation, rho: UnitCharacter, eps: Epsilon) -> AlexanderData:
    c = build_complex(p, rho, eps)
    n = rho.modulus

    char0 = _char0(c)
    if char0.is_unit():
        char0 = LaurentPoly.one(n)
    # the hypothesis that matters for the order arithmetic is vanishing
    # of the t=1 localized piece: rho factoring through eps leaves a
    # one-dimensional H0 with t acting by a nontrivial root of unity,
    # which contributes nothing at t=1
    h0_inf_vanishes = ord_at_one(char0) == 0

    divisors1 = _h1_divisors(c)
    if any(d.is_zero() for d in divisors1):
        raise NotTorsion("H1")
    char1 = char_poly_from_divisors(list(divisors1)) if divisors1 else LaurentPoly.one(n)

    # d1 d0 = 0 with d0 != 0 gives rank d1 <= g - 1, and torsion H1 gives
    # rank d1 = g - 1, so H2 = ker d1 is torsion iff relators <= g - 1
    if len(p.relators) > p.arity - 1:
        raise NotTorsion("H2")
    char2 = LaurentPoly.one(n)

    ord1 = ord_at_one(char0) + ord_at_one(char2) - ord_at_one(char1)
    semisimple = all(d.is_unit() or ord_at_one(d) <= 1 for d in divisors1)
    h0, h1 = twisted_betti(p, rho)
    return AlexanderData(char0=char0, char1=char1, char2=char2,
                         ord_at_one=ord1, h0=h0, h1=h1,
                         semisimple_at_one=semisimple,
                         h0_infinity_vanishes=h0_inf_vanishes,
                         h1_divisors=divisors1)


def theorem12_check(a: AlexanderData) -> dict:
    """Order inequality against minus the first twisted Betti number,
    with expected equality under the semisimplicity criterion."""
    if not a.h0_infinity_vanishes:
        raise HypothesisNotMet("H0 of the infinite cover is nonzero")
    return {
        "inequalityHolds": a.ord_at_one <= -a.h1,
        "equalityExpected": a.semisimple_at_one,
    }
