"""The per-pivot Smith form, kept as a test oracle.

This is the body ``laurent.smith_form`` had before it became
"diagonalize, then gcd/lcm repair": after each pivot's row and column
are cleared, it scans the remaining block for an entry the pivot does
not divide, adds that entry's row to the pivot row and clears again.
That costs O(r^2) polynomial divisions per pivot, and the row additions
can blow up coefficient sizes, but each pivot it keeps already divides
the rest, so it reaches the normalized elementary divisors without the
gcd/lcm pass.

It runs on the per-coefficient polynomials of `laurent_oracle`, so it
shares no arithmetic with the library; `laurent_oracle.from_library`
converts its input.
"""

from laurent_oracle import LaurentPoly


def smith_form_per_pivot(matrix: list[list[LaurentPoly]]) -> list[LaurentPoly]:
    """Elementary divisors d1 | d2 | ... of the cokernel presented by a
    matrix, given as its list of rows.

    Returns min(rows, cols) normalized divisors; trailing zeros signal a
    non-torsion quotient (rank deficiency).
    """
    e = [row[:] for row in matrix]
    rows, cols = len(e), len(e[0]) if e else 0
    size = min(rows, cols)
    divisors = []

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
        # pivot must divide the whole remaining block
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if not e[k][k].divides(e[i][j]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            e[k] = [a + b for a, b in zip(e[k], e[offender])]
            continue
        divisors.append(e[k][k].normalize())
        k += 1

    while len(divisors) < size:
        divisors.append(LaurentPoly.zero(e[0][0].n))
    return divisors
