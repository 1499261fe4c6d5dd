"""The routes `alexander` used before it read everything off one Smith
form of the Fox matrix d1, kept as test oracles.

`_h1_divisors` changes coordinates on C1 so that the augmentation
column d0 becomes (gcd, 0, ..., 0) (`_column_reduce`), and takes the
Smith form of the relator rows in the g - 1 coordinates of ker d0.
`twisted_betti` counts h1 from the Gauss-Jordan rank over Q(zeta_n) of
the Fox matrix with t = 1 (`_rank_cyclotomic`, on the `Fraction`
numbers of `cyclotomic_oracle`).  Neither shares an
elimination with the route in `cuspedzeta.alexander` apart from
`smith_form` on a different matrix.
"""

from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.laurent import LaurentPoly, smith_form
from cuspedzeta.presentation import GroupPresentation, UnitCharacter

from cyclotomic_oracle import CyclotomicNumber
from fox_oracle import GroupRingElement, fox_derivative


def _identity(n, size):
    """The size x size identity matrix as a list of rows."""
    return [[LaurentPoly.one(n) if i == j else LaurentPoly.zero(n)
             for j in range(size)] for i in range(size)]


def _column_reduce(vec):
    """Unimodular U with U @ vec = (gcd, 0, ..., 0); returns
    (gcd, U, Uinv) with the inverse maintained alongside."""
    n = vec[0].n
    g = len(vec)
    v = list(vec)
    u = _identity(n, g)
    vinv = _identity(n, g)

    def swap(i, j):
        v[i], v[j] = v[j], v[i]
        u[i], u[j] = u[j], u[i]
        for row in vinv:
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
            u[i] = [a - q * b for a, b in zip(u[i], u[0])]
            for row in vinv:
                row[0] = row[0] + q * row[i]
            if not r.is_zero():
                done = False
        if done and all(v[i].is_zero() for i in range(1, g)):
            break
    return v[0], u, vinv


def _h1_divisors(d1, d0):
    """Elementary divisors of H1 = ker d0 / im d1, padded with zeros
    when the image has deficient rank."""
    n = d0[0].n
    g = len(d0)
    if g == 1:
        # kernel of multiplication by a nonzero element is zero
        return ()
    _, _, vinv = _column_reduce(d0)
    coords = []
    for row in d1:
        crow = []
        for j in range(g):
            acc = LaurentPoly.zero(n)
            for k in range(g):
                acc = acc + row[k] * vinv[k][j]
            crow.append(acc)
        if not crow[0].is_zero():
            raise CuspedZetaError(
                "relator image has a component outside ker d0")
        coords.append(crow[1:])
    if not coords:
        return tuple(LaurentPoly.zero(n) for _ in range(g - 1))
    divisors = smith_form(coords)
    while len(divisors) < g - 1:
        divisors.append(LaurentPoly.zero(n))
    return tuple(divisors)


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
        acc = CyclotomicNumber(n, [])
        for w, c in e.terms.items():
            acc = acc + CyclotomicNumber.zeta_power(n, rho.exponent_of(w)) * c
        return acc

    h0 = 1 if all(rho.exponents[j] % n == 0 for j in range(g)) else 0
    rows = [[char_of(fox_derivative(r, j)) for j in range(g)] for r in p.relators]
    rank_a = _rank_cyclotomic(rows, g) if rows else 0
    h1 = (g - rank_a) - (1 - h0)
    return h0, h1
