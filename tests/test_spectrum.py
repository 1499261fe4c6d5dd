"""Loxodromic classification and geodesic-spectrum enumeration."""

import cmath
import dataclasses
import hashlib
import json
import math
import operator
import random
import re
import warnings
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspedzeta import cli, spectrum
from cuspedzeta.errors import InputError
from cuspedzeta.presentation import parse_letters, parse_presentation
from cuspedzeta.spectrum import (TRACE_TOL, GeodesicClass, Spectrum,
                                 _complex_length, _merge_conjugates, _power_root,
                                 enumerate_classes, format_spectrum,
                                 load_spectrum, necklace_walk)

from conftest import FIXTURES, fig8_generators, fig8_matrices_file, read_fixture
from enumerate_oracle import (DiscretenessSuspect, MoebiusMatrix,
                              canonical_conjugacy_form, classify)
from enumerate_oracle import enumerate_classes as reference_enumeration
from enumerate_oracle import _power_root as linear_power_root
from enumerate_oracle import inverse, matmul
from enumerate_oracle import merge_conjugates as linear_merge

# frozen first length values of the figure-eight spectrum (oracle:
# tr = 2 cosh((l + i theta)/2) inverted on the shortest loxodromic traces)
FIG8_SYSTOLE = 1.0870701449957394
FIG8_LENGTHS = (1.0870701449957394, 1.6628858910586211, 1.7251092553241218)


def _random_loxodromic(rng):
    lam = cmath.rect(math.exp(rng.uniform(0.2, 1.2)), rng.uniform(-3, 3))
    a = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    m = MoebiusMatrix(lam, 0, a, 1 / lam)
    return m


def _entries(m: MoebiusMatrix) -> tuple:
    return m.a, m.b, m.c, m.d


def _long_word_product() -> tuple:
    """The product of the figure-eight word AAbbaababaab: |a d| + |b c|
    is about 6.5e3, and a d - b c rounds to 1 + 1.4e-12 after
    normalization."""
    a, b = (MoebiusMatrix(*g) for g in fig8_generators())
    mats = {(0, 1): a, (0, -1): inverse(a), (1, 1): b, (1, -1): inverse(b)}
    m = mats[(0, -1)]
    for l in parse_letters("Abbaababaab", "ab"):
        m = matmul(m, mats[l])
    return _entries(m)


ROT = cmath.exp(0.3j)


def test_classification_basics():
    assert _complex_length(1, 1, 0, 1) is None  # parabolic
    assert _complex_length(1, 0, 0, 1) is None  # identity
    assert _complex_length(ROT, 0, 0, ROT.conjugate()) is None  # elliptic
    length, holonomy = _complex_length(2, 0, 0, 0.5)
    assert abs(length - 2 * math.log(2)) < 1e-12
    assert abs(holonomy) < 1e-12


def test_classification_of_long_word_products():
    assert _complex_length(*_long_word_product()) is not None


def test_length_and_holonomy_from_eigenvalue():
    rng = random.Random(3)
    for _ in range(25):
        m = _random_loxodromic(rng)
        length, holonomy = _complex_length(*_entries(m))
        lam = m.a
        assert abs(length - 2 * math.log(abs(lam))) < 1e-10
        assert abs(cmath.exp(1j * holonomy) - (lam / abs(lam)) ** 2) < 1e-10


def test_classification_is_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(25):
        m = _random_loxodromic(rng)
        g = MoebiusMatrix(1, rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2), 0, 1)
        conj = matmul(matmul(g, m), inverse(g))
        a, b = _complex_length(*_entries(m)), _complex_length(*_entries(conj))
        assert abs(a[0] - b[0]) < 1e-9
        assert abs(a[1] - b[1]) < 1e-9


def test_inverse_has_same_length_and_holonomy():
    rng = random.Random(9)
    for _ in range(25):
        m = _random_loxodromic(rng)
        a, b = _complex_length(*_entries(m)), _complex_length(*_entries(inverse(m)))
        assert abs(a[0] - b[0]) < 1e-10
        assert abs(a[1] - b[1]) < 1e-10


# --- enumeration -----------------------------------------------------------

@pytest.fixture(scope="module")
def fig8():
    return enumerate_classes(fig8_generators(), [1.0, 1.0], max_word_len=8,
                             cutoff_length=3.0)


def test_fig8_systole_and_lengths(fig8):
    prim = sorted({round(c.length, 10) for c in fig8.primitives()})
    assert abs(prim[0] - FIG8_SYSTOLE) < 1e-9
    for got, want in zip(prim, FIG8_LENGTHS):
        assert abs(got - want) < 1e-9


def test_fig8_oriented_multiplicity(fig8):
    # amphichirality: 4 oriented primitive classes at the systole
    at_systole = [c for c in fig8.primitives()
                  if abs(c.length - FIG8_SYSTOLE) < 1e-9]
    assert len(at_systole) == 4
    holos = sorted(c.holonomy for c in at_systole)
    assert abs(holos[0] + holos[3]) < 1e-9   # conjugate pair of traces


def test_fig8_classes_close_under_inverse(fig8):
    keys = {(round(c.length, 9), round(c.holonomy, 9)): 0
            for c in fig8.classes}
    for c in fig8.classes:
        keys[(round(c.length, 9), round(c.holonomy, 9))] += 1
    assert all(v % 2 == 0 for v in keys.values())


def test_fig8_powers_match_primitives(fig8):
    prim_lengths = sorted(c.length for c in fig8.primitives())
    for c in fig8.classes:
        if c.multiplicity == 1:
            continue
        k = round(c.length / c.primitive_length)
        assert k >= 2
        assert abs(c.length - k * c.primitive_length) < 1e-9
        assert any(abs(c.primitive_length - l0) < 1e-9 for l0 in prim_lengths)


def test_enumeration_is_deterministic():
    gens = fig8_generators()
    a = enumerate_classes(gens, [1.0, 1.0], max_word_len=6, cutoff_length=2.5)
    b = enumerate_classes(gens, [1.0, 1.0], max_word_len=6, cutoff_length=2.5)
    assert [(c.word, c.length, c.char_value) for c in a.classes] == \
           [(c.word, c.length, c.char_value) for c in b.classes]


def test_max_word_len_below_one_rejected():
    def mul(x, y):
        raise AssertionError("a word was walked")

    for n in (0, -1):
        with pytest.raises(ValueError):
            enumerate_classes(fig8_generators(), [1.0, 1.0],
                              max_word_len=n, cutoff_length=3.0)
        with pytest.raises(ValueError):
            next(necklace_walk(range(4), n, mul))


@pytest.mark.parametrize("rho, where", [
    ((2.0, 1.0), "rho[0]"),
    ((1.0, 1.0000001), "rho[1]"),
    ((cmath.exp(0.3j) * (1 + 1e-11), 1.0), "rho[0]"),
])
def test_character_value_off_the_unit_circle_is_refused(rho, where):
    # refused by name before any word is walked
    with pytest.raises(InputError, match=re.escape(where)):
        enumerate_classes(fig8_generators(), list(rho), 8, 3.0)


def test_character_weights_are_unit_modulus(fig8):
    for c in fig8.classes:
        assert abs(abs(c.char_value) - 1) < 1e-12


# --- necklace walk ---------------------------------------------------------

def _necklace_count(n):
    """Free conjugacy classes of cyclically reduced length n in F_2, by
    Burnside over the n rotations: the cyclically reduced words of
    length d number tr(A^d) = 3^d + 1 + (1 + (-1)^d), A the 4x4
    letter-may-follow-letter matrix, of eigenvalues 3, 1, 1, -1."""
    def phi(k):
        return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
    total = sum(phi(n // d) * (3 ** d + 1 + (1 + (-1) ** d))
                for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def test_necklace_counts_match_closed_form():
    want = [4, 8, 12, 26, 52, 132, 316, 836, 2196, 5936]
    assert [_necklace_count(n) for n in range(1, 11)] == want
    # only the words are counted; the values and their product are a stand-in
    got = Counter(len(idx) for idx, _ in necklace_walk(range(4), 10, max))
    assert [got[n] for n in range(1, 11)] == want


def test_necklaces_are_the_canonical_forms_of_reduced_words():
    letters = sorted((g, e) for g in range(2) for e in (-1, 1))
    level, canon = [()], set()
    for _ in range(7):
        level = [w + (l,) for w in level for l in letters
                 if not w or w[-1] != (l[0], -l[1])]
        canon |= {canonical_conjugacy_form(w) for w in level}
    canon.discard(())
    # the product of 1-tuples under + is the word itself
    walked = list(necklace_walk([(l,) for l in letters], 7, operator.add))
    classes = [word for _, word in walked]
    assert len(classes) == len(set(classes))
    assert set(classes) == canon
    assert all(word == tuple(letters[i] for i in idx) for idx, word in walked)


def _reduced_word_walk(values, max_len, mul):
    """The word search the necklace walk replaced: every freely reduced
    word, depth first, canonicalized one by one, with its product."""
    letters = sorted((g, e) for g in range(len(values) // 2) for e in (-1, 1))

    def extend(idx, m):
        word = tuple(letters[i] for i in idx)
        if canonical_conjugacy_form(word) == word:
            yield idx, m
        if len(word) < max_len:
            for j, (g, e) in enumerate(letters):
                if word[-1] != (g, -e):
                    yield from extend(idx + (j,), mul(m, values[j]))

    for i in range(len(letters)):
        yield from extend((i,), values[i])


@pytest.mark.parametrize("rho", [
    (cmath.exp(0.4j * math.pi), cmath.exp(0.4j * math.pi)),
    (cmath.exp(0.8j * math.pi), cmath.exp(2j * math.pi / 3)),
    (1j, -1.0 + 0j),
    (cmath.exp(0.7j), cmath.exp(-2.1j)),
])
def test_enumeration_matches_reduced_word_search(rho, monkeypatch):
    gens = fig8_generators()

    def run(max_word_len, cutoff):
        return enumerate_classes(gens, list(rho), max_word_len, cutoff)

    cases = [(3, 4.0), (6, 3.0), (8, 3.5)]
    fast = [run(*c) for c in cases]
    assert any(sp.suspects for sp in fast)
    monkeypatch.setattr(spectrum, "necklace_walk", _reduced_word_walk)
    assert [run(*c) for c in cases] == fast


# --- bisected lookups ------------------------------------------------------

def _nudged(draw, x: float) -> float:
    """x moved by up to three ulps either way."""
    for _ in range(abs(steps := draw(st.integers(-3, 3)))):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def power_root_cases(draw):
    """(length, holonomy, char, primitives): primitives ascending in
    length, with repeated lengths and sometimes one shorter than 2e-6,
    and a class at k p +- 1e-6, at k p, or a few ulps either side of
    either, for a primitive p and k >= 2, with p's holonomy and
    character to the k-th power or a nearby or unrelated one."""
    pool = draw(st.lists(st.floats(0.3, 2.0), min_size=1, max_size=4))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    if draw(st.booleans()):
        lengths.append(draw(st.floats(1e-9, 2e-6)))
    lengths.sort()
    angles = st.sampled_from([0.0, 0.5, -1.25, math.pi, 3.0])
    units = st.sampled_from([1 + 0j, -1 + 0j, 1j, cmath.exp(0.4j * math.pi)])
    primitives = [GeodesicClass(l, draw(angles), draw(units), l, 1, "a")
                  for l in lengths]
    p = draw(st.sampled_from(primitives))
    k = draw(st.integers(2, 9))
    length = _nudged(draw, k * p.length
                     + draw(st.sampled_from([-1e-6, 0.0, 1e-6])))
    theta = draw(st.sampled_from([k * p.holonomy, k * p.holonomy + 2e-6,
                                  draw(angles)]))
    char = draw(st.sampled_from([p.char_value ** k, draw(units)]))
    return length, theta, char, primitives


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError:  # l / p past the float range, in either route
        return OverflowError


@settings(max_examples=500, deadline=None)
@example((1.0, 0.0, 1 + 0j, [GeodesicClass(l, 0.0, 1 + 0j, l, 1, "a")
                             for l in (1e-7, 0.5, 0.5, 0.5)]))
@example((5.0, 0.0, 1 + 0j, [GeodesicClass(l, 0.0, 1 + 0j, l, 1, "a")
                             for l in (5e-324, 2.5)]))
@given(power_root_cases())
def test_bisected_power_root_is_the_first_match_in_order(case):
    length, theta, char, primitives = case
    want = _outcome(linear_power_root, (length, theta, char), primitives)
    assert _outcome(_power_root, length, theta, char, primitives,
                    [p.length for p in primitives]) == want


# the class words of length <= 4 on two generators, as letter indices;
# letter i is LETTERS2[i], spelled TEXTS2[i]
LETTERS2 = sorted((g, e) for g in range(2) for e in (-1, 1))
TEXTS2 = "AaBb"
CLASS_WORDS = [idx for idx, _ in necklace_walk(range(4), 4, max)]


@st.composite
def trace_clusters(draw):
    """`found` tuples, sorted by (word length, word), whose trace keys
    sit on a grid of step between TRACE_TOL and 2 TRACE_TOL or at its
    half steps, each moved by up to three ulps in each part, so that a
    key is often within TRACE_TOL of two cluster keys and its real
    part often within 2 TRACE_TOL of a key it does not join."""
    step = draw(st.floats(TRACE_TOL, 2 * TRACE_TOL))
    origin = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    words = sorted(draw(st.sets(st.sampled_from(CLASS_WORDS), min_size=1,
                                max_size=30)), key=lambda w: (len(w), w))
    units = st.sampled_from([1 + 0j, -1 + 0j, 1j, cmath.exp(0.4j * math.pi)])
    found = []
    for word in words:
        grid = origin + complex(draw(st.integers(0, 8)) * step / 2,
                                draw(st.integers(0, 2)) * step)
        key = complex(_nudged(draw, grid.real), _nudged(draw, grid.imag))
        found.append((word, key, 1.0, 0.0, draw(units)))
    return found


SUSPECT = "near-equal traces with incompatible character values: word "


def _warned(oracle, *args):
    """oracle(*args), and the words of the DiscretenessSuspect warnings
    it raises, in order: the oracle's form of the package's suspects."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = oracle(*args)
    assert all(w.category is DiscretenessSuspect for w in caught)
    return result, [str(w.message).removeprefix(SUSPECT) for w in caught]


def _as_pairs(found):
    """``found`` with each index word spelled in (generator, exponent)
    letters, as the oracle keeps words."""
    return [(tuple(LETTERS2[i] for i in word), *rest) for word, *rest in found]


@settings(max_examples=500, deadline=None)
@given(trace_clusters())
def test_bisected_trace_clusters_are_the_first_within_tolerance(found):
    kept, suspects = _merge_conjugates(list(found), TEXTS2)
    assert (_as_pairs(kept), suspects) == _warned(linear_merge, _as_pairs(found))


# --- trace prefilter -------------------------------------------------------

CHARACTERS = [
    (1.0 + 0j, 1.0 + 0j),
    (cmath.exp(0.4j * math.pi), cmath.exp(0.4j * math.pi)),
    (cmath.exp(0.8j * math.pi), cmath.exp(2j * math.pi / 3)),
    (1j, -1.0 + 0j),
    (cmath.exp(0.7j), cmath.exp(-2.1j)),
]


def _fixture_lengths():
    rows = (FIXTURES / "fig8_spectrum.csv").read_text().splitlines()
    return sorted({float(r.split(",")[0]) for r in rows if not r.startswith("#")})


@pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
def test_prefilter_keeps_classes_on_the_cutoff(offset):
    # cutoffs at the fixture's class lengths: a class exactly on the
    # cutoff, or 1e-12 inside it, must survive the trace bound
    gens = fig8_generators()
    lengths = _fixture_lengths()
    assert len(lengths) > 5
    for length in lengths:
        args = (gens, [1.0, 1.0], 8, length + offset)
        fast = enumerate_classes(*args)
        assert fast == reference_enumeration(*args)
        assert (length in {c.length for c in fast.classes}) == (offset >= 0)


@pytest.mark.parametrize("rho", CHARACTERS)
def test_prefilter_matches_the_unfiltered_enumeration(rho):
    gens = fig8_generators()
    # a cutoff past 700 turns the trace bound off
    for max_word_len in range(1, 9):
        for cutoff in (0.5, 2.0, 3.0, 3.5, 1500.0):
            args = (gens, list(rho), max_word_len, cutoff)
            want, suspects = _warned(reference_enumeration, *args)
            assert enumerate_classes(*args) == \
                dataclasses.replace(want, suspects=tuple(suspects))


def _conjugated(draw, core: MoebiusMatrix) -> MoebiusMatrix:
    """g core g^-1 for g of determinant 1 with entries of modulus about 2
    or less."""
    x = st.floats(-2.0, 2.0)
    a, b, c = (complex(draw(x), draw(x)) for _ in range(3))
    if abs(a) < 0.1:
        a += 1
    g = MoebiusMatrix(a, b, c, (1 + b * c) / a)
    return matmul(matmul(g, core), inverse(g))


@st.composite
def loxodromic(draw):
    """g diag(lambda, 1/lambda) g^-1 with 0.05 <= log|lambda| <= 5."""
    lam = cmath.rect(math.exp(draw(st.floats(0.05, 5.0))),
                     draw(st.floats(-math.pi, math.pi)))
    return _conjugated(draw, MoebiusMatrix(lam, 0, 0, 1 / lam))


@st.composite
def elements(draw):
    """(kind, (a, b, c, d)): a conjugate of +-I, of +-(1 x; 0 1), of a
    rotation diag(e^{i phi}, e^{-i phi}) or of a loxodromic diagonal,
    times a scalar, so that its determinant is not 1."""
    kind = draw(st.sampled_from(["identity", "parabolic", "elliptic", "loxodromic"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "loxodromic":
        m = draw(loxodromic())
    elif kind == "elliptic":
        rot = cmath.exp(1j * draw(st.floats(0.01, math.pi - 0.01)))
        m = _conjugated(draw, MoebiusMatrix(rot, 0, 0, 1 / rot))
    elif kind == "parabolic":
        x = complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)))
        m = _conjugated(draw, MoebiusMatrix(sign, sign * x, 0, sign))
    else:
        m = MoebiusMatrix(sign, 0, 0, sign)
    scale = cmath.rect(draw(st.floats(0.5, 2.0)), draw(st.floats(-math.pi, math.pi)))
    return kind, tuple(scale * v for v in _entries(m))


@settings(max_examples=300, deadline=None)
@example(("parabolic", (1, 1, 0, 1)))
@example(("identity", (1, 0, 0, 1)))
@example(("elliptic", (ROT, 0, 0, ROT.conjugate())))
@example(("loxodromic", (2, 0, 0, 0.5)))
@example(("loxodromic", _long_word_product()))
# the larger eigenvalue's angle is subnormal
@example(("loxodromic", (3 + 5e-324j, 0, 0, 1 / (3 + 5e-324j))))
@given(elements())
def test_complex_length_is_the_oracle_classification(element):
    # the same float operations as classify(MoebiusMatrix.normalized(...)):
    # the same bits when loxodromic, and None for the other three kinds
    kind, m = element
    et = classify(MoebiusMatrix.normalized(*m))
    assert et.kind == kind
    got = _complex_length(*m)
    if kind == "loxodromic":
        assert [x.hex() for x in got] == [et.length.hex(), et.holonomy.hex()]
    else:
        assert got is None


@settings(max_examples=300, deadline=None)
@given(loxodromic())
def test_length_is_at_least_the_trace_bound(m):
    # |tr| = |lambda + 1/lambda| <= 2 cosh(l/2) once normalized: the
    # bound the enumeration uses, as |tr|^2 against |det|, to skip words
    # above the cutoff unclassified
    length, _ = _complex_length(*_entries(m))
    tr = abs(m.trace) / math.sqrt(abs(m.det))
    assert length >= 2 * math.acosh(max(1.0, tr / 2)) - 1e-12


# --- the two figure-eight fixtures -----------------------------------------
# fig8_matrices.json must be a representation of the group of fig8.pres
# into SL(2, Z[omega]), omega = e^{2 pi i/3}: an element a + b omega of
# Z[omega] is the pair (a, b), and omega^2 = -1 - omega

OMEGA = cmath.exp(2j * math.pi / 3)
IDENTITY = ((1, 0), (0, 0), (0, 0), (1, 0))


def _in_z_omega(z: complex):
    """The pair (a, b) with |z - (a + b omega)| <= 1e-12, or None."""
    b = round(2 * z.imag / math.sqrt(3))
    a = round(z.real + b / 2)
    return (a, b) if abs(z - (a + b * OMEGA)) <= 1e-12 else None


def _z_omega_matmul(m, n):
    """The product of two 2 x 2 matrices over Z[omega], exactly."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1],
                x[0] * y[1] + x[1] * y[0] - x[1] * y[1])

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    a, b, c, d = m
    e, f, g, h = n
    return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
            add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))


def _z_omega_word(word, mats):
    """The product over Z[omega] of the matrices of a (generator,
    exponent) word, each generator of determinant 1."""
    out = IDENTITY
    for g, e in word:
        a, b, c, d = mats[g]
        if e == -1:
            a, b, c, d = d, (-b[0], -b[1]), (-c[0], -c[1]), a
        out = _z_omega_matmul(out, (a, b, c, d))
    return out


def _represents(gens, pres) -> bool:
    """Whether every generator entry lies in Z[omega] and every relator
    of `pres` evaluates to +I there."""
    mats = [tuple(map(_in_z_omega, g)) for g in gens]
    if any(None in m for m in mats):
        return False
    return all(_z_omega_word(r, mats) == IDENTITY for r in pres.relators)


def test_fig8_fixtures_present_one_group(tmp_path):
    gens, _ = cli._load_matrices(str(FIXTURES / "fig8_matrices.json"))
    pres, _, _ = parse_presentation(read_fixture("fig8.pres"))
    assert _represents(gens, pres)
    mats = [tuple(map(_in_z_omega, g)) for g in gens]
    longitude = parse_letters("bABaaBAb", pres.generator_names)
    assert longitude in pres.peripheral_words
    lam = _z_omega_word(longitude, mats)
    assert lam == ((-1, 0), (-2, -4), (0, 0), (-1, 0))  # (-1, -2 - 4 omega; 0, -1)
    assert _z_omega_matmul(lam, mats[0]) == _z_omega_matmul(mats[0], lam)
    # the check can fail: one changed entry breaks the relator
    matrices = json.loads(read_fixture("fig8_matrices.json"))
    matrices["generators"][1][2] = [1.0, 0.0]
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(matrices), encoding="utf-8")
    assert not _represents(cli._load_matrices(str(path))[0], pres)


# --- persistence -----------------------------------------------------------

def test_round_trip_is_byte_identical(fig8, tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    p1.write_text(format_spectrum(fig8), encoding="utf-8")
    p2.write_text(format_spectrum(load_spectrum(p1)), encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()


def test_frozen_fixture_matches_enumeration(fig8, tmp_path):
    p = tmp_path / "fresh.csv"
    p.write_text(format_spectrum(fig8), encoding="utf-8")
    assert p.read_bytes() == (FIXTURES / "fig8_spectrum.csv").read_bytes()


def _enumerate_output(capsys, path, max_word_len, cutoff):
    """stdout and stderr of `spectrum enumerate` on the matrices file
    `path`."""
    code = cli.run(["spectrum", "enumerate", str(path), "--max-word-len",
                    str(max_word_len), "--cutoff", str(cutoff)])
    assert code == 0
    return tuple(capsys.readouterr())


def _enumerated(capsys, tmp_path, rho, max_word_len, cutoff) -> str:
    """stdout of `spectrum enumerate` on the figure-eight matrices with
    the character value rho on both generators."""
    return _enumerate_output(capsys, fig8_matrices_file(tmp_path, rho),
                             max_word_len, cutoff)[0]


ZETA5 = cmath.exp(0.4j * math.pi)


def test_enumerate_breaks_ties_by_the_tuple_word(capsys, tmp_path):
    # rows of equal (length, holonomy) follow the order of the tuple
    # words, (generator, exponent) pairs, as the oracle sorts them; the
    # letter text orders 11 of the 143 adjacent ties here the other way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DiscretenessSuspect)
        want = reference_enumeration(fig8_generators(), [ZETA5, ZETA5], 10, 4.0)
    assert _enumerated(capsys, tmp_path, ZETA5, 10, 4) == format_spectrum(want)
    ties = [(a.word, b.word) for a, b in zip(want.classes, want.classes[1:])
            if (a.length, a.holonomy) == (b.length, b.holonomy)]
    assert sum(a > b for a, b in ties) >= 5


# the fixture, written at word length 8, round-trips in
# test_round_trip_is_byte_identical
@pytest.mark.parametrize("rho", [cmath.exp(2j * math.pi / 3), ZETA5],
                         ids=["zeta3", "zeta5"])
def test_enumerated_file_round_trips_byte_for_byte(capsys, tmp_path, rho):
    text = _enumerated(capsys, tmp_path, rho, 10, 4)
    path = tmp_path / "spectrum.csv"
    path.write_text(text, encoding="utf-8")
    assert format_spectrum(load_spectrum(path)) == text


# sha256 of stdout and of stderr, the warning lines, of `spectrum
# enumerate` on the figure-eight matrices, taken when the trace clusters
# and the power roots were matched by linear scans: (character on both
# generators, --max-word-len, --cutoff) -> (stdout, stderr)
ENUMERATE_OUTPUT_SHA256 = {
    ("fixture", 8, 3): (
        "6b7af8f7adcdacf282f32cc5b3582febb97bddec44a4245c4a6c1236132e4a5a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fixture", 10, 4): (
        "2957721738d4ae48b92359f1c3c6a43a0fbfa40e18b098e8c7a2a2539f6711fc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fixture", 12, 4): (
        "1f07311e5429c0a91c649ca8bbcd60519c4b962c398c95ca8719e47b7a92fb68",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # 162 and 782 warning lines
    ("zeta3", 10, 4): (
        "4bd095115793614b249a13ced09f1b04d3ef35dd5f7bc5eec4eda23c1a57eae5",
        "937d55cd9bc9b33e58c1f3da7f20e1e9253822caf608c562bc7e9b5e790cfdad"),
    ("zeta5", 10, 4): (
        "f24f373213a086268734e9b03c8569218cdafc12a5501ab241572c130b666ac6",
        "52fccc2f7b716b26f64460612c145788f30126bc6b043fdea6b9192dfd2c3ce2"),
}


def test_enumerate_output_bytes_are_pinned(capsys, tmp_path):
    chars = {"zeta3": cmath.exp(2j * math.pi / 3), "zeta5": ZETA5}
    got = {}
    for name, max_word_len, cutoff in ENUMERATE_OUTPUT_SHA256:
        path = (FIXTURES / "fig8_matrices.json" if name == "fixture"
                else fig8_matrices_file(tmp_path, chars[name]))
        got[name, max_word_len, cutoff] = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in _enumerate_output(capsys, path, max_word_len, cutoff))
    assert got == ENUMERATE_OUTPUT_SHA256


def test_load_rejects_malformed_rows(tmp_path):
    good = (FIXTURES / "fig8_spectrum.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(good[:2] + ["1.0,nope,1,0,1.0,1,ab"]) + "\n")
    with pytest.raises(InputError) as exc:
        load_spectrum(bad)
    assert "line 3" in str(exc.value)


def test_validate_rejects_inconsistent_class():
    c = GeodesicClass(word="a", length=1.0, holonomy=0.0,
                      char_value=1.0 + 0j, primitive_length=0.3,
                      multiplicity=1)
    s = Spectrum(classes=(c,), cutoff_length=2.0)
    with pytest.raises(InputError):
        s.validate()


@pytest.mark.parametrize("primitive_length", [math.nan, math.inf, -math.inf])
def test_validate_refuses_a_non_finite_primitive_length(primitive_length):
    # abs(1 - nan) > tolerance is False, so the multiplicity rule alone
    # let a nan through
    c = GeodesicClass(1.0, 0.0, 1 + 0j, primitive_length, 1, "a")
    with pytest.raises(InputError, match=re.escape(
            f"primitive length {primitive_length} is not finite")):
        c.validate()


@pytest.mark.parametrize("length,primitive_length,ok", [
    (1e-320, 1e-9, False), (1e-320, 1e-320, True), (1e-3, 1e-3 + 2e-12, False),
    (1e-3, 1e-3 + 5e-13, True), (10.0, 10.0 + 5e-10, True), (10.0, 10.0 + 2e-9, False)])
def test_validate_multiplicity_rule_is_relative_below_length_1(length, primitive_length, ok):
    c = GeodesicClass(length, 0.0, 1 + 0j, primitive_length, 1, "a")
    if ok:
        assert c.validate() is c
    else:
        with pytest.raises(InputError, match="is not multiplicity x primitive length"):
            c.validate()


@pytest.mark.parametrize("length", [1e-4, 1.0])
def test_validate_refuses_a_nan_holonomy_at_any_length(length):
    c = GeodesicClass(length, math.nan, 1 + 0j, length, 1, "a")
    with pytest.raises(InputError, match=re.escape("holonomy nan is not finite")):
        c.validate()
