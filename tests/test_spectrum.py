"""Loxodromic classification and geodesic-spectrum enumeration."""

import cmath
import json
import math
import random
import re
import warnings
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspedzeta import cli
from cuspedzeta import words as W
from cuspedzeta.errors import DiscretenessSuspect, InputError
from cuspedzeta.spectrum import (GeodesicClass, Spectrum, _complex_length,
                                 enumerate_classes, format_spectrum,
                                 load_spectrum)

from conftest import FIXTURES, fig8_generators, read_fixture
from enumerate_oracle import MoebiusMatrix, classify
from enumerate_oracle import enumerate_classes as reference_enumeration
from enumerate_oracle import inverse, matmul

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
    for l in W.parse_letters("Abbaababaab", 2):
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
    for n in (0, -1):
        with pytest.raises(ValueError):
            enumerate_classes(fig8_generators(), [1.0, 1.0],
                              max_word_len=n, cutoff_length=3.0)


@pytest.mark.parametrize("rho, where", [
    ((2.0, 1.0), "rho[0]"),
    ((1.0, 1.0000001), "rho[1]"),
    ((cmath.exp(0.3j) * (1 + 1e-11), 1.0), "rho[0]"),
])
def test_character_value_off_the_unit_circle_is_refused(rho, where):
    # refused by name before any word is walked, so no warning comes first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match=re.escape(where)):
            enumerate_classes(fig8_generators(), list(rho), 8, 3.0)
    assert caught == []


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
    got = Counter(len(w) for w, is_class in W.necklace_walk(2, 10) if is_class)
    assert [got[n] for n in range(1, 11)] == want


def test_necklaces_are_the_canonical_forms_of_reduced_words():
    letters = sorted((g, e) for g in range(2) for e in (-1, 1))
    level, canon = [()], set()
    for _ in range(7):
        level = [w + (l,) for w in level for l in letters
                 if not w or w[-1] != (l[0], -l[1])]
        canon |= {W.canonical_conjugacy_form(w) for w in level}
    canon.discard(())
    classes = [w for w, is_class in W.necklace_walk(2, 7) if is_class]
    assert len(classes) == len(set(classes))
    assert set(classes) == canon


def _reduced_word_walk(n_generators, max_len):
    """The word search the necklace walk replaced: every freely reduced
    word, depth first, canonicalized one by one."""
    letters = sorted((g, e) for g in range(n_generators) for e in (-1, 1))

    def extend(word):
        yield word, W.canonical_conjugacy_form(word) == word
        if len(word) < max_len:
            for l in letters:
                if word[-1] != (l[0], -l[1]):
                    yield from extend(word + (l,))

    for l in letters:
        yield from extend((l,))


@pytest.mark.parametrize("rho", [
    (cmath.exp(0.4j * math.pi), cmath.exp(0.4j * math.pi)),
    (cmath.exp(0.8j * math.pi), cmath.exp(2j * math.pi / 3)),
    (1j, -1.0 + 0j),
    (cmath.exp(0.7j), cmath.exp(-2.1j)),
])
def test_enumeration_matches_reduced_word_search(rho, monkeypatch):
    gens = fig8_generators()

    def run(max_word_len, cutoff):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp = enumerate_classes(gens, list(rho), max_word_len, cutoff)
        return sp, [str(w.message) for w in caught]

    cases = [(3, 4.0), (6, 3.0), (8, 3.5)]
    fast = [run(*c) for c in cases]
    monkeypatch.setattr(W, "necklace_walk", _reduced_word_walk)
    assert [run(*c) for c in cases] == fast


# --- trace prefilter -------------------------------------------------------

CHARACTERS = [
    (1.0 + 0j, 1.0 + 0j),
    (cmath.exp(0.4j * math.pi), cmath.exp(0.4j * math.pi)),
    (cmath.exp(0.8j * math.pi), cmath.exp(2j * math.pi / 3)),
    (1j, -1.0 + 0j),
    (cmath.exp(0.7j), cmath.exp(-2.1j)),
]


def _with_warnings(enumerate_fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sp = enumerate_fn(*args)
    return sp, [(w.category, str(w.message)) for w in caught]


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
            assert _with_warnings(enumerate_classes, *args) == \
                _with_warnings(reference_enumeration, *args)


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


def _enumerated(capsys, tmp_path, rho, max_word_len, cutoff) -> str:
    """stdout of `spectrum enumerate` on the figure-eight matrices with
    the character value rho on both generators."""
    matrices = json.loads(read_fixture("fig8_matrices.json"))
    matrices["rho"] = [[rho.real, rho.imag]] * 2
    path = tmp_path / "matrices.json"
    path.write_text(json.dumps(matrices), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DiscretenessSuspect)
        code = cli.run(["spectrum", "enumerate", str(path), "--max-word-len",
                        str(max_word_len), "--cutoff", str(cutoff)])
    out, _ = capsys.readouterr()
    assert code == 0
    return out


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


@pytest.mark.parametrize("length", [1e-4, 1.0])
def test_validate_refuses_a_nan_holonomy_at_any_length(length):
    # the Delta rule, skipped for finite holonomy at l >= 1e-3, still
    # sees a holonomy that is not finite
    c = GeodesicClass(length, math.nan, 1 + 0j, length, 1, "a")
    with pytest.raises(InputError, match=re.escape("det(1 - P) = 0")):
        c.validate()
