"""Wada's twisted Alexander invariant, an exact oracle for the Smith-form
route on deficiency-one presentations (g generators, g - 1 relators).

For every generator x_k, the Fox matrix with column k deleted is square,
and its determinant W_k satisfies

    char1 * (rho(x_k) t^eps(x_k) - 1)  ==  W_k * char0   up to a unit,

so the quotient W_k / (rho(x_k) t^eps(x_k) - 1) does not depend on k.
The determinant is taken by fraction-free (Bareiss) elimination over the
Laurent ring, with exact division, and never forms an elementary divisor.
With two generators W_k is a single Fox derivative.
"""

from cuspedzeta.laurent import LaurentPoly

from fox_oracle import GroupRingElement, evaluate_twisted, fox_derivative


def unit_equal(p, q):
    """Equality in the Laurent ring up to a unit c * t^k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p.divides(q) and q.divides(p)


def bareiss_det(rows, n):
    """Determinant of a square matrix of LaurentPoly by Bareiss
    elimination: every division is exact."""
    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return LaurentPoly.one(n)
    sign = 1
    prev = LaurentPoly.one(n)
    for k in range(size - 1):
        piv = next((i for i in range(k, size) if not m[i][k].is_zero()), None)
        if piv is None:
            return LaurentPoly.zero(n)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
        prev = m[k][k]
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def wada_determinant(p, rho, eps, k):
    """det of the twisted Fox matrix with column k deleted."""
    rows = [[evaluate_twisted(fox_derivative(r, j), rho, eps)
             for j in range(p.arity) if j != k] for r in p.relators]
    return bareiss_det(rows, rho.modulus)


def wada_holds(p, rho, eps, data, columns=None):
    """The identity in the module docstring for each deleted column
    (all of them by default)."""
    assert len(p.relators) == p.arity - 1, "Wada's invariant needs deficiency one"
    one = evaluate_twisted(GroupRingElement({(): 1}), rho, eps)
    ok = True
    for k in (range(p.arity) if columns is None else columns):
        phi_k = evaluate_twisted(GroupRingElement.of_word(((k, 1),)), rho, eps) - one
        ok &= unit_equal(data.char1 * phi_k,
                         wada_determinant(p, rho, eps, k) * data.char0)
    return ok
