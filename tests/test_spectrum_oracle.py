"""The one-pass spectrum loader against the route it replaced
(`spectrum_oracle`), equal spectra, and the power-closure check against
a slow reference that matches rows, the same verdict."""

import cmath
import hashlib
import json
import math
import random
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta import cli, ruelle
from cuspedzeta.errors import CuspedZetaError, InputError
from cuspedzeta.presentation import format_letters
from cuspedzeta.spectrum import (GeodesicClass, Spectrum, enumerate_classes,
                                 format_spectrum, load_spectrum)

import spectrum_oracle as oracle
from conftest import FIXTURES, fig8_generators, read_fixture

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
        word = format_letters(tuple((rng.randrange(26), rng.choice((1, -1)))
                                    for _ in range(rng.randint(1, 6))),
                              string.ascii_lowercase)
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


# sha256 of the stdout of `ruelle eval`, taken before the loader kept
# words as letter text and the sums bound their functions to locals, and
# of `fried check`, taken when it became the power-closure check:
# reordering any float operation of the loader or of the sums changes a
# digest
SCAN_OUTPUT_SHA256 = {
    ("fixture", "ruelle", "2.5+1.25j"):
        "2f2db67c65a12a7c665b99cddd1f47af44de884e2b56ca7df324ec45f222fd80",
    ("fixture", "ruelle", "3.7-4.2j"):
        "3179ebacbbe999b0072158d119c372a5857ff3d310853cab29a1a0fc246062d0",
    ("fixture", "ruelle", "4.4+11j"):
        "54f1b5c0bf6d8647fc65406e38a108ae094566f1a187da1fba0eb030be40e289",
    ("fixture", "fried", "2.5+1.25j"):
        "906818b876d19b9125ac76bdec77d2e72aa0ef2585f17e77a4e38438ea455a68",
    ("fixture", "fried", "3.7-4.2j"):
        "1b5c7130b7440050f0151cdc0e766897da262b7ac42e03db8075136e97d6c8db",
    ("fixture", "fried", "4.4+11j"):
        "dfab3cefb0b438b024bd72878866c1c6126d9d452e62824ee29533e84f1e27a1",
    ("scan-5", "ruelle", "2.5+1.25j"):
        "0cb0eb09d92e5b50c8c23e97dbb85fc76958fb63aaf6859dad28cabf748a40d1",
    ("scan-5", "ruelle", "3.7-4.2j"):
        "eae8482992bbb622560516624d6881dd1ecd2c2968a652e034168e84be7fae67",
    ("scan-5", "ruelle", "4.4+11j"):
        "781c930f1a1b7960824de6c1836d8e1122e064caa7a731a1ad640ec2cfad7f28",
    ("scan-5", "fried", "2.5+1.25j"):
        "c4630f30f0dd3912d8b8143cef0d3b8f88f76d1da61e68f3304d4df438b609da",
    ("scan-5", "fried", "3.7-4.2j"):
        "ae0ed36489c1fbdaa43afeefc598fe9581ae7cc47327a5910fe969e368931e00",
    ("scan-5", "fried", "4.4+11j"):
        "2e75a040a8ffdbda59d0b3d99c587def42dec0756b47ae78f30eec8f963f39eb",
    ("scan-6", "ruelle", "2.5+1.25j"):
        "3ff8fbba9ecdff66eed3e9563cd2f2c31df6ee3384edc278b08baa8a96988680",
    ("scan-6", "ruelle", "3.7-4.2j"):
        "1cd390944a78963edd5167715aa51040c6e977802edd0b26d106447cc60ef5ef",
    ("scan-6", "ruelle", "4.4+11j"):
        "1bcdecfcb1229404775eea46e3889afdf991edec460605258ca87b2be5d5098e",
    ("scan-6", "fried", "2.5+1.25j"):
        "03d0fb0ad3dce85ebee6ea30b342a214fe9e1d3f79c5735955c7761955aaf34f",
    ("scan-6", "fried", "3.7-4.2j"):
        "e977407613f0ee360cf1d32b50ada3cdf313e54a20a3e98ff7b8a5f87b893885",
    ("scan-6", "fried", "4.4+11j"):
        "b410cb57098e6c5f6f3c9975cf8bc2bafab220a6ce0af148cad44452b1e2943e",
}


def test_scan_output_bytes_are_pinned(capsys, tmp_path):
    files = {"fixture": FIXTURES / "fig8_spectrum.csv"}
    for seed in (5, 6):
        path = files[f"scan-{seed}"] = tmp_path / f"scan-{seed}.csv"
        path.write_text(scan_spectrum_text(seed, 2000), encoding="utf-8")
    commands = {"ruelle": ["ruelle", "eval"], "fried": ["fried", "check"]}
    got = {}
    for name, cmd, z in SCAN_OUTPUT_SHA256:
        assert cli.run([*commands[cmd], str(files[name]), "--z", z]) == 0
        got[name, cmd, z] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == SCAN_OUTPUT_SHA256


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
        sp = oracle.single_orbit_spectrum(length, holonomy, char, powers)
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


def _open_cases(tmp_path):
    """(name, CSV path) for spectra that are not closed under powers."""
    rows = read_fixture("fig8_spectrum.csv").splitlines(keepends=True)
    cases = []
    for word in ("AbAb", "aBaB", "AAAb", "aaaB"):
        path = tmp_path / f"without-{word}"
        path.write_text("".join(r for r in rows if not r.endswith(f",{word}\n")))
        cases.append((f"without-{word}", path))
    # AbAb as a primitive row: its primitive length is its own length
    path = tmp_path / "AbAb-primitive"
    path.write_text("".join(rows).replace(
        "1.0870701449957394,2,AbAb", "2.1741402899914783,1,AbAb"))
    cases.append(("AbAb-primitive", path))
    # a primitive so short that its powers under the cutoff outnumber the
    # rows past any integer
    path = tmp_path / "subnormal"
    path.write_text("# cutoff=3\n1e-320,1,1,0,1e-320,1,a\n")
    cases.append(("subnormal", path))
    # zeta3 on both generators: the four primitives of length 1.087 have
    # four squares, and eight rows are matched as squares
    z3 = cmath.exp(2j * math.pi / 3)
    sp = enumerate_classes(fig8_generators(), [z3, z3], max_word_len=8,
                           cutoff_length=3.0)
    cases.append(("zeta3", _written(tmp_path, "zeta3", sp)))
    return cases


def test_fried_check_fails_on_rows_that_are_not_power_closed(capsys, tmp_path):
    for name, path in _open_cases(tmp_path):
        for z in ("3", "5"):
            assert cli.run(["fried", "check", str(path), "--z", z]) == 0
            assert json.loads(capsys.readouterr().out)["withinBound"] is False, \
                (name, z)


def test_fried_check_agrees_with_the_matching_oracle(tmp_path):
    cases = [(name, path, True) for name, path in _cases(tmp_path)]
    for word_len, cutoff in ((10, 3.5), (12, 4.0)):
        name = f"enumerated-{word_len}-{cutoff}"
        sp = enumerate_classes(fig8_generators(), [1, 1], max_word_len=word_len,
                               cutoff_length=cutoff)
        cases.append((name, _written(tmp_path, name, sp), True))
    cases += [(name, path, False) for name, path in _open_cases(tmp_path)]
    for name, path, closed in cases:
        sp = load_spectrum(path)
        assert oracle.power_closed(sp) is closed, name
        for z in Z_CONVERGENT:
            residual, bound, within = ruelle.power_closure(sp, z)
            assert within is closed, (name, z)
            assert math.isfinite(residual) and bound >= 0, (name, z)


def test_fried_check_keeps_the_convergence_region(tmp_path):
    for name, path in _cases(tmp_path):
        sp = load_spectrum(path)
        for z in Z_OUTSIDE:
            with pytest.raises(CuspedZetaError) as new:
                ruelle.power_closure(sp, z)
            with pytest.raises(CuspedZetaError) as old:
                oracle.fried_residual(sp, z)
            assert str(new.value) == str(old.value), (name, z)


def test_old_fried_residual_vanishes_on_rows_that_form_no_spectrum():
    # each row's Fried terms cancel exactly, so the residual of the sums
    # that `fried check` once printed is rounding on any rows at all:
    # here 500 rows of random lengths, holonomies, characters and
    # multiplicities, no spectrum and not closed under powers
    rng = random.Random(29)
    classes = []
    for _ in range(500):
        mult = rng.randint(1, 4)
        prim = rng.uniform(0.05, 2.0)
        classes.append(GeodesicClass(
            mult * prim, rng.uniform(-math.pi, math.pi),
            cmath.exp(1j * rng.uniform(-math.pi, math.pi)), prim, mult, "a"))
    classes.sort()
    sp = Spectrum(classes=classes, cutoff_length=8.0).validate()
    assert not oracle.power_closed(sp)
    for z in (2.1 + 0j, 3 + 0j, 5 + 2j):
        assert oracle.fried_residual(sp, z) < 1e-12
        assert ruelle.power_closure(sp, z)[2] is False


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
    1 +- 1e-12, length - mult * prim near 1e-9, a length near 0, a length
    1e-12 below the last one or near cutoff + 1e-9, nan or inf in one
    field, blank lines, and multiplicity-1 rows that the loader's
    primitive-row test does not take (the multiplicity spelled other
    than ``1``, the primitive length spelled other than the length, or
    off it by a gap near 1e-9).  Character texts repeat across rows, so
    a text can appear on a good row and then on a bad one or the other
    way round."""
    texts = list(ONE[:3]) + [("0", "1"), ("-0.5", "0.8660254037844386")]
    lines = []
    last = draw(st.floats(0.5, 1.0))
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["plain", "char", "multiple", "short",
                                     "order", "cutoff", "non-finite", "blank",
                                     "spelling"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " \t "])))
            continue
        length = last + draw(st.floats(0.0, 0.3))
        theta = draw(st.sampled_from([0.0, 0.5, -2.0, math.pi]))
        char = draw(st.sampled_from(texts))
        mult = 1
        mult_text = "1"
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
            mult_text = str(mult)
        elif kind == "short":
            length = draw(st.sampled_from([
                5e-324, 1e-320, 1e-300, 1e-17, 1.1e-16, 2.2e-16, 1e-8, 1e-3]))
            theta = draw(st.sampled_from([0.0, 1e-9, -1e-8, 1e-4]))
            prim = _fmt(length)
        elif kind == "order":
            length = _nudged(draw, last - 1e-12)
            prim = _fmt(length)
        elif kind == "cutoff":
            length = _nudged(draw, EDGE_CUTOFF + 1e-9)
            prim = _fmt(length)
        elif kind == "spelling":
            how = draw(st.sampled_from(["mult", "prim", "gap"]))
            if how == "mult":
                mult_text = draw(st.sampled_from(["01", "+1", " 1", "1 "]))
            elif how == "prim":
                prim = draw(st.sampled_from([
                    repr(length), "+" + prim, format(length, ".17e"),
                    format(length, ".25f")]))
            else:
                gap = _nudged(draw, draw(st.sampled_from([1e-9, -1e-9])))
                length += gap
        fields = [_fmt(length), _fmt(theta), *char, prim, mult_text,
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
