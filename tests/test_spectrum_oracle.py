"""The one-pass spectrum loader and factorization check against the
routes they replaced (`spectrum_oracle`): equal spectra, and residuals
and tail bounds equal bit for bit."""

import cmath
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta import ruelle
from cuspedzeta.errors import CuspedZetaError, InputError
from cuspedzeta.spectrum import (GeodesicClass, Spectrum, format_spectrum,
                                 load_spectrum)

import spectrum_oracle as oracle
from conftest import FIXTURES

# points inside the convergence region Re z > 2, and outside it
Z_CONVERGENT = (2.05 + 0j, 2.5 + 1.25j, 3.7 - 4.2j, 5 + 0j, 4.4 + 11j)
Z_OUTSIDE = (2.0 + 0j, 1.5 - 0.5j, 0.25 + 3j)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _angle(theta: float) -> float:
    t = math.remainder(theta, 2 * math.pi)
    return t + 2 * math.pi if t <= -math.pi else t


def power_closed_spectrum(seed: int, n_primitive: int) -> Spectrum:
    """Primitive classes with lengths in [0.6, 3.5], each with all its
    powers up to the cutoff 7, random holonomies and characters of
    order up to 6 (so many rows are powers)."""
    rng = random.Random(seed)
    cutoff = 7.0
    classes = []
    for _ in range(n_primitive):
        length = rng.uniform(0.6, 3.5)
        theta = rng.uniform(-math.pi, math.pi)
        q = rng.randint(1, 6)
        p = rng.randrange(q)
        word = tuple((rng.randrange(26), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 6)))
        for k in range(1, int(cutoff // length) + 1):
            classes.append(GeodesicClass(
                length=k * length, holonomy=_angle(k * theta),
                char_value=cmath.exp(2j * math.pi * (k * p % q) / q),
                primitive_length=length, multiplicity=k, word=word * k))
    classes.sort(key=lambda c: (c.length, c.holonomy))
    return Spectrum(classes=classes, cutoff_length=cutoff)


# spellings of the characters 1 and -1: `load_spectrum` checks each
# distinct (re, im) text once, so equal values must load equal whatever
# the text
ONE = (("1", "0"), ("1.0", "0"), ("1e0", "-0"), ("1", "-0"), ("1.0", "0.0"))
MINUS_ONE = (("-1", "1.2246467991473532e-16"), ("-1.0", "0"), ("-1e0", "-0"))


def scan_spectrum_text(seed: int, n_primitive: int) -> str:
    """CSV text as the scan benchmark writes it: primitive counting
    ~ e^{2L} on [1, 7], characters of order up to 6, 17 significant
    digits, rows sorted by (length, holonomy).  Unlike the benchmark's
    files it has 40 short primitives with their powers (so the
    primitive-length text differs from the length text on many rows),
    the characters 1 and -1 spelled several ways, and blank lines in
    the body."""
    rng = random.Random(seed)
    cutoff = 7.0
    lo, hi = math.exp(2.0), math.exp(2 * cutoff)
    prims = [0.5 * math.log(lo + rng.random() * (hi - lo))
             for _ in range(n_primitive)]
    prims += [rng.uniform(0.4, 2.0) for _ in range(40)]
    rows = []
    for length in prims:
        theta = rng.uniform(-math.pi, math.pi)
        q = rng.randint(1, 6)
        p = rng.randrange(q)
        word = "".join(rng.choice("abAB") for _ in range(rng.randint(1, 5)))
        for k in range(1, int(cutoff // length) + 1):
            num = k * p % q
            if num == 0:
                char = rng.choice(ONE)
            elif 2 * num == q:
                char = rng.choice(MINUS_ONE)
            else:
                ang = 2 * math.pi * num / q
                char = (_fmt(math.cos(ang)), _fmt(math.sin(ang)))
            rows.append((k * length, _angle(k * theta), char, length, k,
                         word * k))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [f"# cutoff={_fmt(cutoff)} covolume=1 volume=1",
             "# max_word_len=-1 complete=0"]
    for length, theta, (re_c, im_c), prim, k, word in rows:
        lines.append(",".join((_fmt(length), _fmt(theta), re_c, im_c,
                               _fmt(prim), str(k), word)))
        if rng.random() < 0.01:
            lines.append(rng.choice(("", " ", "\t ")))
    return "\n".join(lines) + "\n"


def _written(tmp_path, name: str, sp: Spectrum):
    path = tmp_path / name
    path.write_text(format_spectrum(sp), encoding="utf-8")
    return path


def _cases(tmp_path):
    """(name, CSV path) for every input."""
    cases = [("fixture", FIXTURES / "fig8_spectrum.csv")]
    for length, holonomy, char, powers in ((1.0, 0.7, cmath.exp(0.4j), 50),
                                           (0.3, -2.9, -1 + 0j, 40),
                                           (2.2, 0.0, 1j, 3)):
        sp = ruelle.single_orbit_spectrum(length, holonomy, char, powers)
        name = f"orbit-{length}"
        cases.append((name, _written(tmp_path, name, sp)))
    for seed in (1, 2, 3):
        name = f"synthetic-{seed}"
        cases.append((name, _written(tmp_path, name,
                                     power_closed_spectrum(seed, 100))))
    path = tmp_path / "scan-like"
    path.write_text(scan_spectrum_text(4, 3000), encoding="utf-8")
    cases.append(("scan-like", path))
    return cases


def test_synthetic_spectra_are_power_closed_and_a_few_hundred_rows():
    for seed in (1, 2, 3):
        sp = power_closed_spectrum(seed, 100)
        assert 200 <= len(sp.classes) <= 600
        assert sum(c.multiplicity > 1 for c in sp.classes) >= 150


def test_scan_like_spectrum_has_the_cases_it_claims(tmp_path):
    text = scan_spectrum_text(4, 3000)
    rows = [line.split(",") for line in text.splitlines()[2:] if line.strip()]
    assert 3000 <= len(rows) <= 4000
    assert sum(r[4] != r[0] for r in rows) >= 100
    assert "" in text.splitlines()
    chars = {(r[2], r[3]) for r in rows}
    assert set(ONE) <= chars and set(MINUS_ONE) <= chars


def test_loader_matches_oracle(tmp_path):
    for name, path in _cases(tmp_path):
        assert load_spectrum(path) == oracle.load_spectrum(path), name


def test_fried_check_matches_oracle_bit_for_bit(tmp_path):
    for name, path in _cases(tmp_path):
        sp = load_spectrum(path)
        for z in Z_CONVERGENT:
            rep = ruelle.fried_residual(sp, z)
            residual, tail = oracle.fried_check(sp, z)
            assert repr(rep.value) == repr(residual), (name, z)
            assert repr(rep.tail_bound) == repr(tail), (name, z)
            assert rep.terms_used == len(sp.classes)


def test_fried_check_keeps_the_convergence_region(tmp_path):
    for name, path in _cases(tmp_path):
        sp = load_spectrum(path)
        for z in Z_OUTSIDE:
            with pytest.raises(CuspedZetaError) as new:
                ruelle.fried_residual(sp, z)
            with pytest.raises(CuspedZetaError) as old:
                oracle.fried_check(sp, z)
            assert str(new.value) == str(old.value), (name, z)


# ---------------------------------------------------------------------------
# rows at the edge of each rule that `load_spectrum` checks inline

EDGE_CUTOFF = 3.0
NON_FINITE = ("nan", "inf", "-inf", "NaN", "Infinity")


def _nudged(draw, x: float) -> float:
    """x moved a few ulps up or down."""
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


@st.composite
def edge_rows(draw):
    """Spectrum body lines with rows at the edge of each rule: |c| near
    1 +- 1e-12, length - mult * prim near 1e-9, Delta near 0, a length
    1e-12 below the last one or near cutoff + 1e-9, nan or inf in one
    field, and blank lines.  Character texts repeat across rows, so a
    text can appear on a good row and then on a bad one or the other
    way round."""
    texts = list(ONE[:3]) + [("0", "1"), ("-0.5", "0.8660254037844386")]
    lines = []
    last = draw(st.floats(0.5, 1.0))
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["plain", "char", "multiple", "delta",
                                     "order", "cutoff", "non-finite", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " \t "])))
            continue
        length = last + draw(st.floats(0.0, 0.3))
        theta = draw(st.sampled_from([0.0, 0.5, -2.0, math.pi]))
        char = draw(st.sampled_from(texts))
        mult = 1
        prim = _fmt(length)
        if kind == "char":
            r = _nudged(draw, 1 + draw(st.sampled_from([1e-12, -1e-12])))
            phi = draw(st.sampled_from([0.0, 0.3, math.pi / 2, 2.0]))
            char = (_fmt(r * math.cos(phi)), _fmt(r * math.sin(phi)))
            texts.append(char)
        elif kind == "multiple":
            mult = draw(st.integers(2, 4))
            p = length / mult
            gap = _nudged(draw, draw(st.sampled_from([1e-9, -1e-9])))
            length, prim = mult * p + gap, _fmt(p)
        elif kind == "delta":
            length = draw(st.sampled_from([5e-324, 1e-320, 1e-300, 1e-17,
                                           1.1e-16, 2.2e-16, 1e-8]))
            theta = draw(st.sampled_from([0.0, 1e-9, -1e-8, 1e-4]))
            prim = _fmt(length)
        elif kind == "order":
            length = _nudged(draw, last - 1e-12)
            prim = _fmt(length)
        elif kind == "cutoff":
            length = _nudged(draw, EDGE_CUTOFF + 1e-9)
            prim = _fmt(length)
        fields = [_fmt(length), _fmt(theta), *char, prim, str(mult),
                  "ab" * mult]
        if kind == "non-finite":
            fields[draw(st.integers(0, 4))] = draw(st.sampled_from(NON_FINITE))
        lines.append(",".join(fields))
        last = max(last, length)
    return lines


def _loaded(path):
    """The spectrum at `path`, or the message and line of its
    InputError."""
    try:
        return load_spectrum(path)
    except InputError as exc:
        return str(exc), exc.line


def _oracle_loaded(path, head: str, body: list[str]):
    """What `load_spectrum` must give, from the oracle: the outcome of
    the shortest prefix of `body` that the oracle refuses, else the
    whole spectrum.  The oracle finds a cutoff or order error after
    reading every row and names no line; the one-pass loader names the
    row, the last one of that prefix."""
    for k in range(1, len(body) + 1):
        path.write_text(head + "".join(line + "\n" for line in body[:k]),
                        encoding="utf-8")
        try:
            oracle.load_spectrum(path)
        except InputError as exc:
            if exc.line is not None:
                return str(exc), exc.line
            return f"{exc} (line {k + 1})", k + 1
    return oracle.load_spectrum(path)


@settings(max_examples=300, deadline=None)
@given(edge_rows())
def test_edge_rows_load_as_the_oracle_loads_them(body):
    head = f"# cutoff={_fmt(EDGE_CUTOFF)} covolume=1 volume=1\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edge.csv"
        want = _oracle_loaded(path, head, body)
        path.write_text(head + "".join(line + "\n" for line in body),
                        encoding="utf-8")
        assert _loaded(path) == want
