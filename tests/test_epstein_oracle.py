"""The integer route of the Epstein path against the Fraction route it
replaced (`epstein_oracle.fraction_*`): the reduced basis, its phases,
the work estimate and the dependence check must agree bit for bit, and a
refusal must carry the same exception and message.  Also: the lattice
types refuse non-finite values."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspedzeta.cuspterms import Lattice2D, LatticeCharacter, _reduced, _work
from cuspedzeta.errors import InputError

from epstein_oracle import fraction_dependent, fraction_reduced, fraction_work

HEXAGONAL = cmath.exp(1j * math.pi / 3)
# 2^-1000 and 2^1000 take covolume and |b1|^2 out of the normal range
SCALES = (1.0, 2.0 ** -500, 2.0 ** 500, 2.0 ** -1000, 2.0 ** 1000)
# 0, 1/2 and negative phases, phases 1e-300 off 0 and 1/2, and e^{2 pi i/3}
SPECIAL_VALUES = (1 + 0j, -1 + 0j, 1j, -1j, -1 - 1e-300j, -1 + 1e-300j,
                  1 + 1e-300j, 1 - 1e-300j, cmath.exp(2j * math.pi / 3))
# exact mu ties: half to even and half up round these differently
TIES = ((1 + 0j, 0.5 + 1j), (1 + 0j, 2.5 + 1j), (1 + 0j, -1.5 + 0.75j))
SIGMAS = (1 + 0j, 1.3 + 0j, 1.05 + 2j, 2.9 - 0.6j)

coordinate = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
vector = st.builds(complex, coordinate, coordinate)
phase = st.floats(-1, 1, allow_nan=False)
character_value = st.one_of(st.sampled_from(SPECIAL_VALUES),
                            phase.map(lambda t: cmath.exp(2j * math.pi * t)))


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the two routes must raise alike
        return type(exc), str(exc)


def _same(got, want) -> bool:
    """Equal, with floats and complexes compared by their repr, so -0.0,
    inf and the last bit count."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, (float, complex)):
        return type(got) is type(want) and repr(got) == repr(want)
    return type(got) is type(want) and got == want


@settings(max_examples=400, deadline=None)
@given(vector, vector, st.sampled_from(SCALES), character_value, character_value)
@example(*TIES[0], 1.0, 1 + 0j, 1 + 0j)
@example(*TIES[1], 1.0, -1 + 0j, 1j)
@example(*TIES[2], 1.0, 1j, -1 - 1e-300j)
@example(*TIES[0], 2.0 ** -1000, -1 - 1e-300j, 1 + 1e-300j)
@example(*TIES[1], 2.0 ** 1000, 1 + 0j, 1 + 0j)
@example(1 + 0j, HEXAGONAL, 2.0 ** 500, -1 - 1e-300j, 1 - 1e-300j)
@example(1 + 0j, 0.999999 + 1e-6j, 1.0, -1 + 0j, 1 + 0j)
def test_reduced_matches_fraction_route(b1, b2, scale, v1, v2):
    try:
        lat = Lattice2D(b1 * scale, b2 * scale)
    except InputError:
        assert fraction_dependent(b1 * scale, b2 * scale)
        return
    chi = LatticeCharacter(v1, v2)
    want = _outcome(fraction_reduced, lat, chi)
    got = _outcome(_reduced, lat, chi)
    assert _same(got, want)
    if isinstance(want[0], type):
        return
    (u, au), (v, av) = want
    for sigma in SIGMAS:
        # along the shorter vector; the longer one's span is checked below
        assert _same(_outcome(_work, u, lat.covolume, au, av, sigma),
                     _outcome(fraction_work, u, lat.covolume, au, av, sigma))


# phases at the 1e-9 limit of `_work`; a reduced phase is an integer
# combination of float phases, so it can sit closer to 1e-9 than a float
ABOVE_LIMIT = Fraction(1e-9) + Fraction(1, 2 ** 120)
near_integer_phase = st.sampled_from([
    Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1e-9),
    Fraction(math.nextafter(1e-9, 1)), Fraction(math.nextafter(1e-9, 0)),
    ABOVE_LIMIT, 1 - ABOVE_LIMIT, 1 - Fraction(1e-9),
    1 - Fraction(math.nextafter(1e-9, 1)), Fraction(1e-300), 1 - Fraction(2.0 ** -60)])
dyadic_phase = st.floats(0, 1, exclude_max=True).map(Fraction)


@settings(max_examples=300, deadline=None)
@given(vector.filter(lambda b: abs(b) > 0.1),
       st.floats(0.005, 10), st.one_of(near_integer_phase, dyadic_phase),
       st.one_of(near_integer_phase, dyadic_phase),
       st.builds(complex, st.floats(1, 3, exclude_min=True), st.floats(-5, 5)))
@example(1 + 0j, 1e-9, Fraction(1, 2), Fraction(0), 1.3 + 0j)  # past the cap
@example(1 + 0j, 5e-4, Fraction(1, 3), Fraction(0), 1.3 + 0j)  # span 16,000
@example(1 + 0j, 0.8, Fraction(1e-9), Fraction(0), 1.3 + 0j)
@example(1 + 0j, 0.8, Fraction(0), 1 - Fraction(1e-9), 1.3 + 0j)
@example(1 + 0j, 0.8, Fraction(0), Fraction(math.nextafter(1e-9, 1)), 1.3 + 0j)
@example(1 + 0j, 0.8, ABOVE_LIMIT, Fraction(0), 1.3 + 0j)
@example(1 + 0j, 0.8, Fraction(0), 1 - ABOVE_LIMIT, 1.3 + 0j)
def test_work_matches_fraction_route(b1, y, a, c, sigma):
    # y = Im(b2/b1) from 0.005 keeps the span, and the oracle's time, small
    cov = y * abs(b1) ** 2
    assert _same(_outcome(_work, b1, cov, a, c, sigma),
                 _outcome(fraction_work, b1, cov, a, c, sigma))


@settings(max_examples=300, deadline=None)
@given(vector, st.one_of(st.sampled_from([3.0, 2.0 ** -60, -1.0, 0.1]),
                         st.floats(-8, 8, allow_nan=False)),
       st.booleans(), vector)
@example(0.1 + 0.3j, 3.0, False, 0j)
@example(0.1 + 0.3j, 2.0 ** -60, False, 0j)
@example(1 + 0j, 0.0, False, 0j)
def test_dependence_check_matches_fraction_route(b1, factor, free, b2):
    # b2 = factor * b1 rounded, or drawn freely
    b2 = b2 if free else b1 * factor
    try:
        Lattice2D(b1, b2)
        refused = False
    except InputError as exc:
        assert str(exc) == "lattice basis is linearly dependent over the reals"
        refused = True
    assert refused == fraction_dependent(b1, b2)


def test_exactly_dependent_bases_are_refused():
    # b1 times each factor is exact
    for b1 in (1 + 0j, 0.25 - 0.75j, complex(2.0 ** -900, -3 * 2.0 ** -901)):
        for factor in (3.0, 2.0 ** -60, -1.0):
            with pytest.raises(InputError, match="linearly dependent"):
                Lattice2D(b1, b1 * factor)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
@pytest.mark.parametrize("field", range(4))
def test_lattice_refuses_non_finite_coordinates(field, bad):
    coords = [1.0, 0.0, 0.0, 1.0]
    coords[field] = bad
    with pytest.raises(InputError, match="must be finite"):
        Lattice2D(complex(*coords[:2]), complex(*coords[2:]))


@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
@pytest.mark.parametrize("field", range(4))
def test_character_refuses_non_finite_values(field, bad):
    coords = [1.0, 0.0, -1.0, 0.0]
    coords[field] = bad
    with pytest.raises(InputError, match="unit circle"):
        LatticeCharacter(complex(*coords[:2]), complex(*coords[2:]))
