"""Command-line interface: exit codes, subcommands, and deterministic
byte-level output."""

import argparse
import cmath
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta import cli
from cuspedzeta.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, run
from cuspedzeta.errors import InputError
from cuspedzeta.spectrum import (Spectrum, enumerate_classes, format_spectrum,
                                 load_spectrum)

import spectrum_oracle
from conftest import FIXTURES, fig8_generators, fig8_matrices_file, read_fixture
from epstein_oracle import epstein_mpmath


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ------------------------------------------------------------

def test_usage_errors_exit_64(capsys):
    assert invoke(capsys)[0] == EX_USAGE
    assert invoke(capsys, "bogus-command")[0] == EX_USAGE
    assert invoke(capsys, "spectrum")[0] == EX_USAGE
    assert invoke(capsys, "spectrum", "enumerate", "x.json")[0] == EX_USAGE
    for n in ("0", "-1"):
        code, _, err = invoke(capsys, "spectrum", "enumerate",
                              str(FIXTURES / "fig8_matrices.json"),
                              "--max-word-len", n, "--cutoff", "3")
        assert code == EX_USAGE
        assert "--max-word-len: must be at least 1" in err


def test_invalid_input_exits_65(capsys):
    code, _, err = invoke(capsys, "verify", str(FIXTURES / "bad_rho.pres"))
    assert code == EX_DATAERR
    assert "invalid input" in err
    code, _, _ = invoke(capsys, "alexander", str(FIXTURES / "missing.pres"))
    assert code == EX_DATAERR
    code, _, _ = invoke(capsys, "terms", "scattering")
    assert code == EX_DATAERR


def test_computation_errors_exit_70(capsys):
    # a spectrum queried outside the convergence region
    code, _, err = invoke(capsys, "ruelle", "eval",
                          str(FIXTURES / "fig8_spectrum.csv"), "--z", "1.5")
    assert code == EX_SOFTWARE
    assert "computation failed" in err


# command lines that end in argparse: help, or a usage error
PARSER_EXITS = {
    "top-help": ["-h"], "top-none": [], "top-unknown": ["bogus"],
    "top-prefix": ["alex"], "unrecognized": ["terms", "threshold", "--bogus"],
    "spectrum": ["spectrum"], "ruelle": ["ruelle"], "fried": ["fried"],
}
# a leaf command's -h, a missing positional (an extra argument for
# selftest, which takes none) and a bad option value
for leaf, missing, bad in (
        ("alexander", [], ["x.pres", "-o"]), ("betti", [], ["x.pres", "-o"]),
        ("verify", [], ["x.pres", "-o"]), ("selftest", ["x"], ["-o"]),
        ("spectrum enumerate", [], ["m.json", "--max-word-len", "0", "--cutoff", "3"]),
        ("ruelle eval", [], ["s.csv", "--z", "abc"]),
        ("fried check", [], ["s.csv", "--z", "nan"]),
        ("terms", [], ["identity", "--vol", "-1"]),
        ("epstein", [], ["l.json", "--s", "abc"])):
    words = leaf.split()
    PARSER_EXITS[f"{leaf}-help"] = words + ["-h"]
    PARSER_EXITS[f"{leaf}-missing"] = words + missing
    PARSER_EXITS[f"{leaf}-bad-value"] = words + bad


@pytest.mark.parametrize("argv", PARSER_EXITS.values(), ids=PARSER_EXITS)
def test_run_parses_as_the_parser_with_every_branch(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        cli._build_parser([]).parse_args(argv)
    assert (code, out, err) == (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv, parsers", [
    (["terms", "threshold"], 2),
    (["ruelle", "eval", str(FIXTURES / "fig8_spectrum.csv"), "--z", "5"], 3),
    ([], 13),
], ids=["terms", "ruelle-eval", "no-command"])
def test_run_builds_only_the_named_branch(capsys, monkeypatch, argv, parsers):
    """The first call builds the named branch only; a second identical
    call reuses it and builds none."""
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._parser.cache_clear()
    try:
        invoke(capsys, *argv)
        assert len(built) == parsers, built
        invoke(capsys, *argv)
        assert len(built) == parsers, built
    finally:
        # no Counting parser outlives the test
        cli._parser.cache_clear()


# one call of each command on a fixture that succeeds; the trivial
# character of fig8_matrices.json prints no warning
FIXTURE_CALLS = {
    "alexander": ["alexander", str(FIXTURES / "fig8_zeta5.pres")],
    "betti": ["betti", str(FIXTURES / "fig8.pres")],
    "verify": ["verify", str(FIXTURES / "fig8_zeta5.pres")],
    "spectrum": ["spectrum", "enumerate", str(FIXTURES / "fig8_matrices.json"),
                 "--max-word-len", "4", "--cutoff", "3"],
    "ruelle": ["ruelle", "eval", str(FIXTURES / "fig8_spectrum.csv"), "--z", "5"],
    "fried": ["fried", "check", str(FIXTURES / "fig8_spectrum.csv"), "--z", "5"],
    "terms": ["terms", "identity", "--vol", "2.0"],
    "epstein": ["epstein", str(FIXTURES / "square_lattice.json")],
    "selftest": ["selftest"],
}


def fresh(capsys, *argv):
    """`invoke` with a parser built for this call alone."""
    cli._parser.cache_clear()
    return invoke(capsys, *argv)


def test_reused_parsers_give_the_bytes_of_new_ones(capsys):
    calls = [*PARSER_EXITS.values(), *FIXTURE_CALLS.values()]
    # each call runs twice with every other call in between, then alone
    # after the parsers are dropped
    first = [fresh(capsys, *calls[0])] + [invoke(capsys, *a) for a in calls[1:]]
    second = [invoke(capsys, *argv) for argv in calls]
    alone = [fresh(capsys, *argv) for argv in calls]
    assert first == second == alone
    assert {code for code, _, _ in first} == {0, EX_USAGE}


@pytest.mark.parametrize("before, after", [
    (FIXTURE_CALLS["epstein"], [*FIXTURE_CALLS["epstein"], "--s", "abc"]),
    ([*FIXTURE_CALLS["epstein"], "--s", "abc"], FIXTURE_CALLS["epstein"]),
    ([*FIXTURE_CALLS["epstein"], "--s", "0.3"], FIXTURE_CALLS["epstein"]),
    ([*FIXTURE_CALLS["terms"], "-o", "{out}"], FIXTURE_CALLS["terms"]),
    ([*FIXTURE_CALLS["spectrum"], "-o", "{out}"], FIXTURE_CALLS["spectrum"]),
], ids=["bad-s-after-default", "default-after-bad-s", "default-after-s",
        "stdout-after-file", "enumerate-stdout-after-file"])
def test_a_call_leaves_no_trace_for_the_next(capsys, tmp_path, before, after):
    out = str(tmp_path / "out.txt")
    invoke(capsys, *[out if a == "{out}" else a for a in before])
    reused = invoke(capsys, *after)
    assert reused == fresh(capsys, *after)
    assert reused[0] in (0, EX_USAGE) and (reused[1] or reused[2])


def test_reused_help_reads_the_width_when_printed(capsys, monkeypatch):
    helps = {}
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        reused = invoke(capsys, "epstein", "-h")
        assert reused == fresh(capsys, "epstein", "-h")
        helps.setdefault(columns, reused)
        assert helps[columns] == reused
    assert helps["40"] != helps["200"]


@pytest.mark.parametrize("argv, want", [
    (["alexander", str(FIXTURES / "missing.pres")], EX_DATAERR),
    (["terms", "identity", "--vol", "1e308"], EX_SOFTWARE),
], ids=["missing-input", "inf-in-output"])
def test_failed_command_leaves_the_output_file(capsys, tmp_path, argv, want):
    keep = tmp_path / "keep.json"
    keep.write_text("earlier content\n")
    assert invoke(capsys, *argv, "-o", str(keep))[0] == want
    assert keep.read_text() == "earlier content\n"


def test_verdict_exit_code_still_writes_the_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    argv = ["verify", str(FIXTURES / "fig8.pres")]
    code, out, _ = invoke(capsys, *argv)
    assert code == 2
    assert invoke(capsys, *argv, "-o", str(path)) == (2, "", "")
    assert path.read_text() == out


FIG8 = json.loads((FIXTURES / "fig8_matrices.json").read_text())
SQUARE = json.loads((FIXTURES / "square_lattice.json").read_text())
ENUM = ["spectrum", "enumerate", "{in}", "--max-word-len", "3", "--cutoff", "3"]
RUELLE = ["ruelle", "eval", str(FIXTURES / "fig8_spectrum.csv")]
FRIED = ["fried", "check", str(FIXTURES / "fig8_spectrum.csv")]
EPSTEIN = ["epstein", str(FIXTURES / "square_lattice.json")]
CSV_HEAD = "# cutoff=3 covolume=1 volume=1\n"
RUELLE_IN = ["ruelle", "eval", "{in}", "--z", "5"]
FRIED_IN = ["fried", "check", "{in}", "--z", "5"]
# a row whose z l has a finite real part and an imaginary part past the
# float range, so e^(-z l) in the power sums overflows
CSV_OVERFLOW_FRIED = "# cutoff=1e308 covolume=1 volume=1\n1e307,0,1,0,1e307,1,a\n"
FRIED_OVERFLOW = ["fried", "check", "{in}", "--z", "3+100j"]
PRES_SPAN = "gens a b\nrel abAB\nperi ab\neps 10000000 1\nrho n=1: 0 0\n"

# (case, input file content or None, argv with "{in}" for that file,
#  exit code, text the message must hold)
BAD_INPUTS = [
    ("det-not-one", dict(FIG8, generators=[[[1, 0], [2, 0], [1, 0], [1, 0]],
                                           FIG8["generators"][1]]),
     ENUM, EX_DATAERR, "generators[0]"),
    ("rho-length", dict(FIG8, rho=[[1, 0]] * 3), ENUM, EX_DATAERR, "rho"),
    ("missing-generators", {"rho": FIG8["rho"]}, ENUM, EX_DATAERR,
     "'generators'"),
    ("unknown-matrix-key", dict(FIG8, gens=[]), ENUM, EX_DATAERR, "'gens'"),
    ("short-matrix", dict(FIG8, generators=[FIG8["generators"][0],
                                            FIG8["generators"][1][:3]]),
     ENUM, EX_DATAERR, "generators[1]"),
    ("nan-entry", dict(FIG8, generators=[[[float("nan"), 0]] + FIG8["generators"][0][1:],
                                         FIG8["generators"][1]]),
     ENUM, EX_DATAERR, "generators[0][0][0]"),
    # the cusp numbers left the matrices file: a covolume key is unknown
    ("covolume-key", dict(FIG8, covolume=3.4641016151377544), ENUM, EX_DATAERR,
     "unknown key 'covolume'"),
    # a character value off the unit circle is refused before the walk
    ("rho-off-circle", dict(FIG8, rho=[[2, 0], [1, 0]]), ENUM, EX_DATAERR,
     "rho[0]: character value (2+0j) is off the unit circle"),
    ("rho-just-off-circle", dict(FIG8, rho=[[1.0000001, 0], [1, 0]]), ENUM,
     EX_DATAERR, "rho[0]: character value (1.0000001+0j) is off the unit circle"),
    ("missing-b2", {"b1": [1, 0]}, ["epstein", "{in}"], EX_DATAERR, "'b2'"),
    ("chi-length", dict(SQUARE, chi=[[1, 0]] * 3), ["epstein", "{in}"],
     EX_DATAERR, "chi"),
    ("dependent-basis", dict(SQUARE, b2=[2, 0]), ["epstein", "{in}"],
     EX_DATAERR, "linearly dependent"),
    ("chi-off-circle", dict(SQUARE, chi=[[2, 0], [1, 0]]), ["epstein", "{in}"],
     EX_DATAERR, "unit circle"),
    ("lattice-as-poles", SQUARE, ["terms", "scattering", "{in}"], EX_DATAERR,
     "unknown key 'b1'"),
    ("infinite-pole", {"poles0": [[float("inf"), 1]]},
     ["terms", "scattering", "{in}"], EX_DATAERR, "poles0[0][0]"),
    ("not-an-object", [1, 2], ["epstein", "{in}"], EX_DATAERR,
     "input: expected a JSON object"),
    ("not-json", "{b1: 1}", ["epstein", "{in}"], EX_DATAERR,
     "input: Expecting property name"),
    ("not-utf8", b"\xff{}", ["epstein", "{in}"], EX_DATAERR,
     "not UTF-8: byte 0xff, invalid start byte (line 1)"),
    ("lattice-not-utf8", b'{"b1": [1, 0],\n\xe9"b2": [0, 1]}\n', ["epstein", "{in}"],
     EX_DATAERR, "invalid input: not UTF-8: byte 0xe9, invalid continuation byte (line 2)"),
    ("pres-not-utf8", b"gens a b\n\xe9rel abaBAB\n", ["alexander", "{in}"],
     EX_DATAERR, "invalid input: not UTF-8: byte 0xe9, invalid continuation byte (line 2)"),
    # a second 'gens' line would leave the relator naming a generator
    # that is gone
    ("pres-repeated-gens", "gens a b\nrel aB\ngens c\neps 1\nrho n=1: 0\n",
     ["alexander", "{in}"], EX_DATAERR,
     "invalid input: repeated 'gens' line, first given on line 1 (line 3)"),
    # one row per power of t would be built for each Fox derivative
    *[(f"pres-eps-span-{cmd}", PRES_SPAN, [cmd, "{in}"], EX_DATAERR,
       "invalid input: relator 1 (abAB) spans 10000002 powers of t, above the "
       "limit 10000") for cmd in ("alexander", "verify")],
    ("directory", None, ["epstein", str(FIXTURES)], EX_DATAERR,
     "Is a directory"),
    ("csv-header-token", "# cutoff=3 covolume=1 volume\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR,
     "bad header: token 'volume' is not key=value (line 1)"),
    ("csv-header-repeated-key", "# cutoff=7 cutoff=1\n", RUELLE_IN, EX_DATAERR,
     "bad header: token 'cutoff=1' repeats key 'cutoff' (line 1)"),
    ("csv-word-length", "# cutoff=3 covolume=1 volume=1\n"
                        "# max_word_len=x complete=1\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 2)"),
    ("csv-word-length-token", "# cutoff=3\n# max_word_len=3 complete\n",
     FRIED_IN, EX_DATAERR, "bad header: token 'complete' is not key=value (line 2)"),
    ("csv-word-length-repeated-key", "# cutoff=3\n# max_word_len=3 max_word_len=9\n",
     FRIED_IN, EX_DATAERR,
     "bad header: token 'max_word_len=9' repeats key 'max_word_len' (line 2)"),
    ("csv-nan-row", "# cutoff=3 covolume=1 volume=1\nnan,nan,1,0,nan,1,ab\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 2)"),
    ("csv-nan-cutoff", "# cutoff=nan covolume=1 volume=1\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 1)"),
    ("csv-zero-length", CSV_HEAD + "0,0,1,0,0,1,a\n", FRIED_IN, EX_DATAERR,
     "length 0.0 is not positive (line 2)"),
    ("csv-negative-length", CSV_HEAD + "-1,0,1,0,-1,1,a\n", RUELLE_IN,
     EX_DATAERR, "length -1.0 is not positive (line 2)"),
    ("csv-negative-multiplicity", CSV_HEAD + "1,0,1,0,-1,-1,a\n", RUELLE_IN,
     EX_DATAERR, "multiplicity -1 is below 1 (line 2)"),
    ("csv-empty-word", CSV_HEAD + "1,0,1,0,1,1,\n", RUELLE_IN, EX_DATAERR,
     "empty word (line 2)"),
    ("csv-beyond-cutoff", CSV_HEAD + "4,0,1,0,4,1,a\n", RUELLE_IN, EX_DATAERR,
     "class length 4.0 beyond cutoff (line 2)"),
    # l0 / l would be inf: the multiplicity rule is relative below length 1
    ("csv-tiny-class-multiplicity", CSV_HEAD + "1e-320,0,1,0,1e-9,1,a\n", FRIED_IN,
     EX_DATAERR, "length 1e-320 is not multiplicity x primitive length (line 2)"),
    ("csv-unsorted", CSV_HEAD + "2,0,1,0,2,1,a\n1,0,1,0,1,1,b\n", FRIED_IN,
     EX_DATAERR, "classes are not sorted by length (line 3)"),
    ("csv-bad-letter", CSV_HEAD + "1,0,1,0,1,1,a1\n", RUELLE_IN, EX_DATAERR,
     "bad row: unknown generator letter '1' (line 2)"),
    ("csv-non-ascii-letter", (CSV_HEAD + "1,0,1,0,1,1,a\u00e9\n").encode(), RUELLE_IN,
     EX_DATAERR, "bad row: unknown generator letter '\u00e9' (line 2)"),
    ("csv-off-circle-char-repeated", CSV_HEAD + "1,0,2,0,1,1,a\n1.5,0,2,0,1.5,1,b\n",
     RUELLE_IN, EX_DATAERR, "character value (2+0j) is off the unit circle (line 2)"),
    ("csv-bad-row-after-cached-char",
     CSV_HEAD + "1,0,0.6,0.8,1,1,a\n1.5,nan,0.6,0.8,1.5,1,b\n", FRIED_IN,
     EX_DATAERR, "bad row: non-finite number 'nan' (line 3)"),
    ("csv-not-utf8", CSV_HEAD.encode() + b"1,0,1,0,1,1,a\xe9\n", RUELLE_IN,
     EX_DATAERR, "not UTF-8: byte 0xe9, invalid continuation byte (line 2)"),
    ("csv-overflow-eval", "# cutoff=1000 covolume=1 volume=1\n400,0,1,0,400,1,a\n",
     ["ruelle", "eval", "{in}", "--z", "3"], EX_SOFTWARE, "computation failed"),
    ("csv-overflow-fried", CSV_OVERFLOW_FRIED, FRIED_OVERFLOW, EX_SOFTWARE,
     "computation failed"),
    ("z-overflow", None, RUELLE + ["--z", "-1000"], EX_SOFTWARE,
     "computation failed"),
    ("epstein-overflow", {"b1": [1e300, 0], "b2": [0, 1e300]}, ["epstein", "{in}"],
     EX_SOFTWARE, "computation failed"),
    ("enumerate-overflow", {"generators": [[[1e200, 0], [0, 0], [0, 0], [1e-200, 0]],
                                           [[1, 0], [1, 0], [0, 0], [1, 0]]]},
     ["spectrum", "enumerate", "{in}", "--max-word-len", "4", "--cutoff", "3"],
     EX_SOFTWARE, "word AA is not finite"),
    ("inf-in-output", None, ["terms", "identity", "--vol", "1e308"],
     EX_SOFTWARE, "non-finite number"),
    ("z-not-a-number", None, RUELLE + ["--z", "abc"], EX_USAGE, "--z"),
    ("z-nan", None, FRIED + ["--z", "nan"], EX_USAGE, "--z"),
    ("s-not-a-number", None, EPSTEIN + ["--s", "abc"], EX_USAGE, "--s"),
    ("s-nan", None, EPSTEIN + ["--s", "nan"], EX_USAGE, "--s"),
    ("cutoff-inf", FIG8, ENUM[:-1] + ["inf"], EX_USAGE, "--cutoff"),
    ("cutoff-nan", FIG8, ENUM[:-1] + ["nan"], EX_USAGE, "--cutoff"),
    ("vol-nan", None, ["terms", "identity", "--vol", "nan"], EX_USAGE,
     "--vol"),
    ("vol-negative", None, ["terms", "identity", "--vol=-1"], EX_USAGE,
     "--vol"),
    # a cusp covolume is an area
    ("covolume-zero", None, ["terms", "unipotent", "--covolume", "0",
                             "--c-rho", "1"], EX_USAGE, "--covolume: must be positive"),
    ("covolume-negative", None, ["terms", "unipotent", "--covolume=-1",
                                 "--c-rho", "1"], EX_USAGE, "--covolume: must be positive"),
    ("covolume-inf", None, ["terms", "unipotent", "--covolume", "inf",
                            "--c-rho", "1"], EX_USAGE, "--covolume"),
    ("c-rho-nan", None, ["terms", "unipotent", "--covolume", "1",
                         "--c-rho", "nan"], EX_USAGE, "--c-rho"),
    ("unipotent-no-case", None, ["terms", "unipotent"], EX_DATAERR,
     "--trivial"),
    ("scattering-no-file", None, ["terms", "scattering"], EX_DATAERR,
     "poles JSON"),
    ("epstein-near-trivial", dict(SQUARE, chi=[[1, 1e-7], [1, 1e-7]]),
     ["epstein", "{in}", "--s", "0.5"], EX_SOFTWARE, "term evaluations"),
    ("epstein-large-im-s", None, EPSTEIN + ["--s", "0.5+2000j"], EX_SOFTWARE,
     "epstein at s = (0.5+2000j)"),
    ("epstein-large-re-s", dict(SQUARE, b2=[0.5, 0.8660254037844386]),
     ["epstein", "{in}", "--s", "100"], EX_SOFTWARE, "rounding estimate"),
    ("epstein-tiny-s", None, EPSTEIN + ["--s", "1e-300"], EX_SOFTWARE,
     "epstein at s = (1e-300+0j)"),
    ("pres-vol-inf", "gens a b\nrel abaBAB\nperi ab\neps 1 1\nrho n=1: 0 0\n"
                     "vol inf\n", ["verify", "{in}"], EX_DATAERR,
     "volume must be finite (line 6)"),
    ("pres-vol-overflow", "gens a b\nrel abaBAB\nperi ab\neps 1 1\n"
                          "rho n=1: 0 0\nvol 1e400\n", ["verify", "{in}"],
     EX_DATAERR, "volume must be finite (line 6)"),
    ("pres-word-inside-keyword", "gens a b\nrel rel\neps 1 1\nrho n=1: 0 0\n",
     ["alexander", "{in}"], EX_DATAERR, "(line 2, col 5)"),
    # 'ß'.upper() is 'SS', so the name could not survive serialize and parse
    ("pres-non-ascii-name", "gens a \u00df\nrel a\u1e9e\n".encode(), ["alexander", "{in}"],
     EX_DATAERR, "generator name '\u00df' must be a single letter a-z (line 1)"),
    ("h1-not-torsion", "gens a b\neps 1 1\nrho n=1: 0 0\n",
     ["alexander", "{in}"], EX_SOFTWARE, "module H1 is not torsion"),
    ("h2-not-torsion", "gens a b\nrel abaBAB\nrel abaBAB\neps 1 1\nrho n=1: 0 0\n",
     ["alexander", "{in}"], EX_SOFTWARE, "module H2 is not torsion"),
    ("verify-no-peripheral-words", read_fixture("fig8.pres").replace("peri ", "# "),
     ["verify", "{in}"], EX_DATAERR,
     "invalid input: presentation carries no peripheral words"),
    ("betti-no-peripheral-words", read_fixture("fig8.pres").replace("peri ", "# "),
     ["betti", "{in}"], EX_DATAERR,
     "invalid input: presentation carries no peripheral words"),
    ("enumerate-complete-option", FIG8, ENUM + ["--complete"], EX_USAGE,
     "unrecognized arguments: --complete"),
    ("h2-not-torsion-zeta5",
     "gens a b\nrel abaBAB\nrel abaBAB\neps 1 1\nrho n=5: 1 1\n",
     ["alexander", "{in}"], EX_SOFTWARE, "module H2 is not torsion"),
    ("csv-overflow-eval-located", "# cutoff=1000 covolume=1 volume=1\n400,0,1,0,400,1,a\n",
     ["ruelle", "eval", "{in}", "--z", "3"], EX_SOFTWARE,
     "tail bound at z = (3+0j): e^(2 l) in the counting constant overflows at the "
     "class of length 400.0"),
    ("csv-overflow-fried-located", CSV_OVERFLOW_FRIED, FRIED_OVERFLOW, EX_SOFTWARE,
     "e^(-z l) in the power sums at z = (3+100j) overflows at the class of length "
     "1e+307"),
    # every spectrum is a truncation, so a point outside Re z > 2 is
    # refused before anything is summed
    ("fixture-eval-outside-region", None, RUELLE + ["--z", "0.01"], EX_SOFTWARE,
     "computation failed: Re z = 0.01 is not in the convergence region Re z > 2"),
    ("fixture-fried-outside-region", None, FRIED + ["--z", "1.5"], EX_SOFTWARE,
     "computation failed: Re z = 1.5 is not in the convergence region Re z > 2"),
    # every factor 1 + e^{-z l} is finite and near 2, but the product
    # leaves the float range at the 1034th, and complex multiplication
    # overflows to inf without raising
    ("z-product-overflow-eval-located",
     "# cutoff=1 covolume=1 volume=1\n"
     + "".join(f"{k}e-05,0,-1,0,{k}e-05,1,a\n" for k in range(1, 1101)),
     ["ruelle", "eval", "{in}", "--z", "2.5"], EX_SOFTWARE,
     "e^(-z l) at z = (2.5+0j) overflows at the class of length 0.01034\n"),
    # |Im z| l past the float range: cmath.exp raises ValueError, not
    # OverflowError
    ("z-imag-overflow-eval-located", None, RUELLE + ["--z", "3+1e308j"], EX_SOFTWARE,
     "e^(-z l) at z = (3+1e+308j) overflows at the class of length 2.4161132869099617"),
    ("z-imag-overflow-fried-located", None, FRIED + ["--z", "3+1e308j"], EX_SOFTWARE,
     "e^(-z l) in the power sums at z = (3+1e+308j) overflows at the class of length "
     "2.1741402899914783"),
    ("enumerate-det-rounds-to-0",
     {"generators": [[[1, 0], [1, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [1e200, 0], [1, 0]]]},
     ["spectrum", "enumerate", "{in}", "--max-word-len", "4", "--cutoff", "3"],
     EX_SOFTWARE, "has determinant 0 to rounding"),
    ("enumerate-det-nan",
     {"generators": [[[1e160, 0]] * 4, [[1, 0], [1, 0], [0, 0], [1, 0]]]},
     ["spectrum", "enumerate", "{in}", "--max-word-len", "4", "--cutoff", "3"],
     EX_DATAERR, "generators[0]: determinant (nan+0j) is not 1"),
    # generator 27 has no letter in the spectrum file
    ("enumerate-27-generators",
     {"generators": [[[2, 0.1], [0, 0], [0, 0],
                      [(1 / (2 + 0.1j)).real, (1 / (2 + 0.1j)).imag]]] * 27},
     ["spectrum", "enumerate", "{in}", "--max-word-len", "1", "--cutoff", "3"],
     EX_DATAERR, "generators: 27 given, at most 26 allowed"),
    # past the largest word length: the walk's tables are sized by it
    ("enumerate-word-len-2^61",
     None, ["spectrum", "enumerate", str(FIXTURES / "fig8_matrices.json"),
            "--max-word-len", "2305843009213693952", "--cutoff", "3"],
     EX_USAGE, "--max-word-len: must be at most 20, got 2305843009213693952"),
    ("enumerate-word-len-past-index",
     None, ["spectrum", "enumerate", str(FIXTURES / "fig8_matrices.json"),
            "--max-word-len", "99999999999999999999", "--cutoff", "3"],
     EX_USAGE, "--max-word-len: must be at most 20, got 99999999999999999999"),
    # past the longest walk that finishes in practice
    ("enumerate-word-len-21",
     None, ["spectrum", "enumerate", str(FIXTURES / "fig8_matrices.json"),
            "--max-word-len", "21", "--cutoff", "3"],
     EX_USAGE, "--max-word-len: must be at most 20, got 21"),
]

# lattices on which the covolume, |b1|^2 or y = Im(b2/b1) of the reduced
# basis is not a normal float: (case, lattice, what the message names)
FLOAT_RANGE_LATTICES = [
    ("lattice-long-short", {"b1": [1e200, 0], "b2": [0, 1e-200]},
     "lattice b1 = (1e+200+0j), b2 = 1e-200j: |b1|^2 of the reduced basis is 0,"),
    ("lattice-short-long", {"b1": [1e-200, 0], "b2": [0, 1e200]},
     "lattice b1 = (1e-200+0j), b2 = 1e+200j: |b1|^2 of the reduced basis is 0,"),
    ("lattice-tiny-b2", {"b1": [1, 0], "b2": [1e-300, 1e-300]},
     "|b1|^2 of the reduced basis is 0, outside the normal float range"),
    ("lattice-subnormal-b1", {"b1": [5e-324, 0], "b2": [0, 1]},
     "covolume is 4.94e-324, outside the normal float range"),
    ("lattice-covolume-overflow", {"b1": [1e160, 0], "b2": [0, 1e160]},
     "covolume is inf, outside the normal float range"),
    ("lattice-covolume-underflow", {"b1": [1e-170, 0], "b2": [0, 1e-170]},
     "covolume is 0, outside the normal float range"),
]
BAD_INPUTS += [(name + flag, lattice, ["epstein", "{in}"] + ([flag] if flag else []),
                EX_SOFTWARE, needle)
               for name, lattice, needle in FLOAT_RANGE_LATTICES
               for flag in ("", "--residue")]


@pytest.mark.parametrize("content,argv,want,needle",
                         [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_gives_located_error(capsys, tmp_path, content, argv, want,
                                       needle):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    # an exception escaping run() is a traceback on the command line;
    # here it fails the test
    code, out, err = invoke(capsys, *(a.replace("{in}", str(path)) for a in argv))
    assert code == want
    assert out == ""
    assert "Traceback" not in err
    assert needle in err
    assert "['" not in err  # messages are plain strings, not lists


# (case, input file content, argv with "{in}" for that file, the keys
# the JSON output must hold or None for a spectrum): valid input at the
# edge of the float range, which must exit 0
GOOD_EDGE_INPUTS = [
    # the larger eigenvalue of generator a, 3 + 5e-324j, has a subnormal
    # angle, on which cmath.phase raises
    ("enumerate-subnormal-angle",
     {"generators": [[[3, 5e-324], [0, 0], [0, 0], [1 / 3, 0]],
                     [[2, 0], [0, 0], [0, 0], [0.5, 0]]]},
     ["spectrum", "enumerate", "{in}", "--max-word-len", "2", "--cutoff", "3"],
     None),
    # a class so short that its factor 1 - e^{-z l} rounds to 0, and
    # whose powers under the cutoff outnumber the rows
    ("csv-delta-zero-eval", CSV_HEAD + "1e-320,0,1,0,1e-320,1,a\n", RUELLE_IN,
     {"termsUsed": 1, "value": [0, 0]}),
    ("csv-delta-zero-fried", CSV_HEAD + "1e-320,0,1,0,1e-320,1,a\n", FRIED_IN,
     {"withinBound": False}),
    # e^{2 l} of the counting constant overflows, but `fried check` reads
    # no tail; the square at length 800 is missing
    ("csv-tail-overflow-fried", "# cutoff=1000 covolume=1 volume=1\n400,0,1,0,400,1,a\n",
     ["fried", "check", "{in}", "--z", "3"],
     {"bound": 0, "residual": 0, "withinBound": False}),
]


@pytest.mark.parametrize("content,argv,want", [case[1:] for case in GOOD_EDGE_INPUTS],
                         ids=[case[0] for case in GOOD_EDGE_INPUTS])
def test_edge_input_exits_0(capsys, tmp_path, content, argv, want):
    path = tmp_path / "input"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = invoke(capsys, *(a.replace("{in}", str(path)) for a in argv))
    assert (code, err) == (0, "")
    if want is None:
        assert out.startswith("# cutoff=3\n")
    else:
        d = json.loads(out)
        assert {key: d[key] for key in want} == want


PRES_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.pres"))
# letters, digits and separators of the grammar, plus a few it lacks
MUTATION_ALPHABET = "abcABC xyz0129=:-#.\té"


@st.composite
def mutated_presentation(draw):
    """A `.pres` fixture with one to three lines or letters dropped,
    duplicated or changed."""
    lines = read_fixture(draw(st.sampled_from(PRES_FIXTURES))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop-line", "dup-line", "drop", "dup",
                                     "change"]))
        if kind == "drop-line":
            del lines[i]
        elif kind == "dup-line":
            lines.insert(i, lines[i])
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if kind == "change":
                new = draw(st.sampled_from(MUTATION_ALPHABET))
            else:
                new = "" if kind == "drop" else lines[i][j] * 2
            lines[i] = lines[i][:j] + new + lines[i][j + 1:]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_presentation(), st.sampled_from(["alexander", "betti", "verify"]))
def test_mutated_presentations_keep_the_exit_code_contract(text, command):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.pres")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # an exception escaping run() is a traceback on the command line;
        # here it fails the test
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, path])
    assert code in (0, 2, 3, EX_USAGE, EX_DATAERR, EX_SOFTWARE)
    assert "Traceback" not in err.getvalue()


# digits, number syntax and letters of the CSV grammar, plus a few it
# lacks; the form feed splits a row in two (`str.splitlines`)
CSV_ALPHABET = "0123456789.-+e,abABxz #=é\x0c"
# padding, a sign and an underscore are accepted by `float` and `int`
CSV_TOKENS = ("nan", "0", "-1", "", "inf", "1e-320", " 1.0", "+1", "1_0")


@st.composite
def mutated_spectrum(draw):
    """`fig8_spectrum.csv` with one to three lines, fields or characters
    dropped, duplicated or changed, a field replaced by one of
    `CSV_TOKENS` (the empty string makes an empty word), or a
    whitespace-only line inserted."""
    lines = read_fixture("fig8_spectrum.csv").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop-line", "dup-line", "drop-field",
                                     "dup-field", "token", "change", "blank"]))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        if kind == "drop-line":
            del lines[i]
        elif kind == "dup-line":
            lines.insert(i, lines[i])
        elif kind == "drop-field":
            lines[i] = ",".join(fields[:j] + fields[j + 1:])
        elif kind == "dup-field":
            lines[i] = ",".join(fields[:j + 1] + fields[j:])
        elif kind == "token":
            fields[j] = draw(st.sampled_from(CSV_TOKENS))
            lines[i] = ",".join(fields)
        elif kind == "blank":
            lines.insert(i, " \t ")
        elif lines[i]:
            k = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:k] + draw(st.sampled_from(CSV_ALPHABET)) \
                + lines[i][k + 1:]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_spectrum(), st.sampled_from([["ruelle", "eval"],
                                            ["fried", "check"]]),
       st.sampled_from(["5", "2.5+1j", "1.5-2j", "0.01", "3+1e308j", "1e200"]))
def test_mutated_spectra_keep_the_exit_code_contract(text, command, z):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # an exception escaping run() is a traceback on the command line;
        # here it fails the test
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*command, path, "--z", z])
    assert code in (0, EX_USAGE, EX_DATAERR, EX_SOFTWARE)
    assert "Traceback" not in err.getvalue()


def _load_both(text: str):
    """The spectra that `load_spectrum` and the loader it replaced
    (`spectrum_oracle`) read from `text`; None where one raises
    InputError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = []
        for load in (load_spectrum, spectrum_oracle.load_spectrum):
            try:
                out.append(load(path))
            except InputError:
                out.append(None)
    return out


@settings(max_examples=300, deadline=None)
@given(mutated_spectrum())
def test_mutated_spectra_load_as_the_oracle_loads_them(text):
    got, want = _load_both(text)
    assert got == want


# rows on which a split-and-unpack loop could part from a field-by-field
# parse: padding, signs and underscores that `float` and `int` accept, a
# whitespace-only line, a form feed, 6 and 8 fields, a multiplicity
# `int` refuses, non-finite numbers, and a sum of fields past the float
# range
DRIFT_ROWS = [" 1.0,0,1,0, 1.0,1,a", "1,0,+1,-0,1,+1,a", "1_0,0,1,0,1_0,1,a",
              "1,0,1,0,1,1_0,a", "1,0,1,0,1,1, a", " \t ", "1,0,1,0\x0c1,1,a",
              "1,0,1,0,1,1", "1,0,1,0,1,1,a,a", "1,0,1,0,1,1,a\x0c",
              "1,0,1,0,1,01,a", "1,0,1,0,1,1.0,a", "1,0,1,0,1,1,a1",
              "1,0,nan,0,1,1,a", "1,0,1,1e308,1,1,a", "1e308,0,1,0,1e308,1,a"]


@pytest.mark.parametrize("row", DRIFT_ROWS)
def test_drift_rows_load_as_the_oracle_loads_them(row):
    got, want = _load_both("# cutoff=1e308 covolume=1 volume=1\n" + row + "\n")
    assert got == want


@pytest.mark.parametrize("command", [["ruelle", "eval"], ["fried", "check"]])
@pytest.mark.parametrize("z", ["1e200", "1e308", "1e308+5j"])
def test_huge_real_z_gives_the_limit_value(capsys, tmp_path, command, z):
    # the tail bound 4 C e^{-(x - 2) L} / (x - 2)^2 tends to 0 and every
    # factor e^{-z l} underflows to 0; the rows hold the square of the
    # primitive, and its cube, at the cutoff itself, counts as a row or not
    path = tmp_path / "incomplete.csv"
    path.write_text(CSV_HEAD + "1,0,1,0,1,1,a\n2,0,1,0,1,2,aa\n")
    code, out, err = invoke(capsys, *command, str(path), "--z", z)
    assert (code, err) == (0, "")
    if command[0] == "ruelle":
        assert json.loads(out) == {"tailBound": 0, "termsUsed": 1, "value": [1, 0]}
    else:
        assert json.loads(out) == {"bound": 0, "residual": 0,
                                   "withinBound": True}


# (fixture, command) pairs of the JSON inputs; `{in}` is the mutated file
JSON_CASES = (
    ("square_lattice.json", ["epstein", "{in}"]),
    ("square_lattice.json", ["epstein", "{in}", "--residue"]),
    ("square_lattice_signchi.json", ["epstein", "{in}"]),
    ("square_lattice_signchi.json", ["epstein", "{in}", "--residue"]),
    ("fig8_matrices.json", ENUM[:2] + ["{in}", "--max-word-len", "4", "--cutoff", "3"]),
    ("scattering_example.json", ["terms", "scattering", "{in}"]),
)
JSON_TOKENS = ("0", "-0.0", "1e200", "1e-200", "5e-324", "1e308", "true", "[]", '"x"')


class _Members(list):
    """A JSON object as a list of [key, value] members, so that a key
    can be dropped or written twice."""


def _json_tree(v):
    if isinstance(v, dict):
        return _Members([k, _json_tree(x)] for k, x in v.items())
    if isinstance(v, list):
        return [_json_tree(x) for x in v]
    return json.dumps(v)


def _json_text(t) -> str:
    if isinstance(t, _Members):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(x)}" for k, x in t) + "}"
    if isinstance(t, list):
        return "[" + ", ".join(_json_text(x) for x in t) + "]"
    return t


def _json_slots(tree):
    """(container, index) of every object member and array item."""
    slots, stack = [], [tree]
    while stack:
        node = stack.pop()
        for i, x in enumerate(node):
            slots.append((node, i))
            child = x[1] if isinstance(node, _Members) else x
            if isinstance(child, list):
                stack.append(child)
    return slots


@st.composite
def mutated_json(draw):
    """A JSON fixture with one to three keys or items dropped or written
    twice, or numbers replaced by one of `JSON_TOKENS`; with the argv
    that reads it."""
    name, argv = draw(st.sampled_from(JSON_CASES))
    tree = _json_tree(json.loads(read_fixture(name)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _json_slots(tree)
        if not slots:
            break
        node, i = draw(st.sampled_from(slots))
        kind = draw(st.sampled_from(["drop", "dup", "token"]))
        if kind == "drop":
            del node[i]
        elif kind == "dup":
            node.insert(i, copy.deepcopy(node[i]))
        elif isinstance(node, _Members) and isinstance(node[i][1], str):
            node[i] = [node[i][0], draw(st.sampled_from(JSON_TOKENS))]
        elif isinstance(node[i], str):
            node[i] = draw(st.sampled_from(JSON_TOKENS))
    return _json_text(tree), argv


@settings(max_examples=300, deadline=None)
@given(mutated_json())
def test_mutated_json_keeps_the_exit_code_contract(case):
    text, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # an exception escaping run() is a traceback on the command line;
        # here it fails the test
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([a.replace("{in}", path) for a in argv])
    assert code in (0, EX_USAGE, EX_DATAERR, EX_SOFTWARE)
    assert "Traceback" not in err.getvalue()


# --- subcommand output -----------------------------------------------------

GOLDEN = FIXTURES.parent / "perfbench" / "golden"


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_exact_side_output_matches_golden_bytes(capsys, golden):
    """`alexander`, `betti` and `verify` print the recorded bytes on the
    fixtures; the file ``<command>_<fixture>.json`` holds the output."""
    command, fixture = golden[:-len(".json")].split("_", 1)
    code, out, _ = invoke(capsys, command, str(FIXTURES / f"{fixture}.pres"))
    assert code in (0, 2)
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# sha256 of `verify` on fig8_zeta5.pres with only n= changed, as the
# norm-route inverse of every leading coefficient printed it
LARGE_MODULUS_VERIFY = {
    455: "dc959184fbb28694a4300387dc971cf762e937350c982162579db66e808a8dea",
    499: "10bb90073d4500000eaa2b575369db93d77ea9cecc7bd88f585f97c0cc0b7f10",
}


@pytest.mark.parametrize("n", sorted(LARGE_MODULUS_VERIFY))
def test_verify_at_a_large_modulus_keeps_its_bytes_within_2_s(capsys, tmp_path, n):
    """455 = 5 * 7 * 13 is the slowest admitted modulus and 499 the
    largest prime; each took 0.4-1 s with every root of unity inverted
    by the norm, and the dense Smith-form tests allow 2 s."""
    path = tmp_path / f"fig8_n{n}.pres"
    path.write_text(read_fixture("fig8_zeta5.pres").replace("n=5:", f"n={n}:"))

    def expire(signum, frame):
        raise TimeoutError(f"verify at n={n} took longer than 2 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code, out, _ = invoke(capsys, "verify", str(path))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_MODULUS_VERIFY[n]


# sha256 of `betti` on the same inputs, as the Smith form of the Fox
# matrix at t = 1 printed it
LARGE_MODULUS_BETTI = dict.fromkeys(
    (97, 211, 455, 499), "b422a92518874d04635d43f6656bcba00f2c667ff0f3ae505b0ec815836e9cff")


@pytest.mark.parametrize("n", sorted(LARGE_MODULUS_BETTI))
def test_betti_at_a_large_modulus_keeps_its_bytes_within_2_s(capsys, tmp_path, n):
    """betti took 1.3 s at n = 211, 7.6 s at 455 and 25.7 s at 499 while
    its Smith form inverted the one unit divisor by the norm to
    normalize it; the rank at t = 1 inverts nothing."""
    path = tmp_path / f"fig8_n{n}.pres"
    path.write_text(read_fixture("fig8_zeta5.pres").replace("n=5:", f"n={n}:"))

    def expire(signum, frame):
        raise TimeoutError(f"betti at n={n} took longer than 2 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code, out, _ = invoke(capsys, "betti", str(path))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_MODULUS_BETTI[n]


def test_alexander_json(capsys):
    code, out, _ = invoke(capsys, "alexander", str(FIXTURES / "trefoil.pres"))
    assert code == 0
    d = json.loads(out)
    assert d["ordAtOne"] == 1 and d["h1"] == 1
    assert list(d.keys()) == sorted(d.keys())


def test_betti_json(capsys):
    code, out, _ = invoke(capsys, "betti", str(FIXTURES / "fig8_zeta5.pres"))
    assert code == 0
    assert json.loads(out) == {"deltaRho": False, "h0": 0, "h1": 0}


def test_ruelle_and_fried(capsys):
    spec = str(FIXTURES / "fig8_spectrum.csv")
    code, out, _ = invoke(capsys, "ruelle", "eval", spec, "--z", "5")
    assert code == 0
    d = json.loads(out)
    assert abs(d["value"][0] - 0.98097367527794854) < 1e-12
    code, out, _ = invoke(capsys, "fried", "check", spec, "--z", "5")
    assert code == 0
    assert json.loads(out)["withinBound"] is True


def test_complete_token_in_an_old_header_means_nothing(capsys, tmp_path):
    # files written with a `complete=` token, or with the `covolume=` and
    # `volume=` tokens of the first line, still load, and no token lifts
    # the tail bound or the convergence check
    rows = read_fixture("fig8_spectrum.csv").splitlines()
    runs = []
    for head in (f"{rows[0]}\n# max_word_len=8 complete=1",
                 f"{rows[0]}\n# max_word_len=8 complete=0",
                 f"{rows[0]} covolume=1 volume=1\n{rows[1]}"):
        path = tmp_path / "old.csv"
        path.write_text("\n".join([head, *rows[2:]]) + "\n")
        runs.append(invoke(capsys, "ruelle", "eval", str(path), "--z", "5"))
    assert runs[0] == runs[1] == runs[2]
    code, out, err = runs[0]
    assert (code, err) == (0, "")
    assert json.loads(out)["tailBound"] > 0


def test_terms_outputs(capsys):
    for args in (("terms", "identity", "--vol", "2.0"),
                 ("terms", "threshold"),
                 ("terms", "unipotent", "--trivial"),
                 ("terms", "unipotent", "--covolume", "2.0", "--c-rho", "1.5"),
                 ("terms", "scattering",
                  str(FIXTURES / "scattering_example.json"))):
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        json.loads(out)
    code, out, _ = invoke(capsys, "terms", "unipotent", "--trivial")
    assert json.loads(out)["combinationIsZero"] is True


def test_epstein_output(capsys):
    code, out, _ = invoke(capsys, "epstein",
                          str(FIXTURES / "square_lattice.json"), "--s", "1.0")
    assert code == 0
    assert abs(json.loads(out)["value"][0] - 6.0268120396919827) < 1e-8
    code, out, _ = invoke(capsys, "epstein",
                          str(FIXTURES / "square_lattice_signchi.json"),
                          "--residue")
    assert code == 0
    d = json.loads(out)
    assert d["residue"] == 0
    # -(pi/2) ln 2 in closed form (perfbench/oracle.py, sign_character_constant)
    assert abs(d["constant"] + math.pi / 2 * math.log(2)) < 1e-13


def test_epstein_on_a_skewed_basis(capsys, tmp_path):
    # covolume 1e-6; the basis is reduced before the expansion
    p = tmp_path / "skewed.json"
    p.write_text(json.dumps({"b1": [1, 0], "b2": [0.999999, 1e-6]}))
    code, out, err = invoke(capsys, "epstein", str(p), "--s", "1")
    assert (code, err) == (0, "")
    value = complex(*json.loads(out)["value"])
    want = epstein_mpmath(complex(0.999999 - 1, 1e-6), 1, 0, 0, 1)
    assert abs(value - want) <= 1e-13 * abs(want)


def test_verify_exit_codes(capsys):
    code, out, _ = invoke(capsys, "verify", str(FIXTURES / "fig8_zeta5.pres"))
    assert code == 0
    d = json.loads(out)
    assert d["inequalityHolds"] is True
    code, out, _ = invoke(capsys, "verify", str(FIXTURES / "fig8.pres"))
    assert code == 2
    d = json.loads(out)
    assert d["predictedRuelleOrder"] == 4
    assert d["corollaryBranch"] == "hypothesisNotMet"


def test_selftest_passes(capsys):
    # a PASS line per check, then the failure count: the output the
    # benchmark's selftest task is checked against
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    assert out.splitlines() == [
        "PASS unipotent combinations vanish structurally",
        "0 failure(s)"]


# --- determinism -----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("alexander", "fig8_zeta5.pres"),
    ("verify", "fig8_zeta5.pres"),
    ("terms", "scattering", "scattering_example.json"),
    ("epstein", "square_lattice.json", "--s", "0.5"),
])
def test_output_is_byte_identical_across_runs(capsys, argv):
    argv = [str(FIXTURES / a) if (FIXTURES / a).exists() else a for a in argv]
    runs = {invoke(capsys, *argv)[1] for _ in range(3)}
    assert len(runs) == 1


def test_spectrum_enumerate_matches_fixture(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    code, _, _ = invoke(capsys, "spectrum", "enumerate",
                        str(FIXTURES / "fig8_matrices.json"),
                        "--max-word-len", "8", "--cutoff", "3",
                        "-o", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (FIXTURES / "fig8_spectrum.csv").read_bytes()


def test_spectrum_enumerate_word_length_12(capsys):
    # long word products round a.d - b.c beyond an absolute 1e-12
    code, out, _ = invoke(capsys, "spectrum", "enumerate",
                          str(FIXTURES / "fig8_matrices.json"),
                          "--max-word-len", "12", "--cutoff", "4")
    assert code == 0
    assert out.startswith("# cutoff=4\n")


def _python(code, *argv):
    """Run `code` in a fresh interpreter that finds the package in src/."""
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("case", [c for c in BAD_INPUTS
                                  if c[0] in ("rho-off-circle", "rho-just-off-circle")],
                         ids=lambda c: c[0])
def test_off_circle_rho_prints_no_warning(tmp_path, case):
    # the message is the only stderr line: no word is walked, so no
    # suspect word is found first
    _, content, argv, want, needle = case
    path = tmp_path / "matrices.json"
    path.write_text(json.dumps(content))
    r = _python("from cuspedzeta.cli import main; main()",
                *(a.replace("{in}", str(path)) for a in argv))
    assert r.returncode == want
    assert r.stderr == f"cuspedzeta: invalid input: {needle}\n"


def test_discreteness_warnings_print_one_line_each(capsys, tmp_path):
    # rho = zeta5 on both figure-eight generators splits trace clusters
    # by character value, which leaves suspect words
    z = cmath.exp(2j * math.pi / 5)
    path = fig8_matrices_file(tmp_path, z)
    argv = ["spectrum", "enumerate", str(path), "--max-word-len", "8",
            "--cutoff", "3"]
    suspects = enumerate_classes(fig8_generators(), [z, z], 8, 3.0).suspects
    assert run(argv + ["-o", str(tmp_path / "out.csv")]) == 0
    err = capsys.readouterr().err
    r = _python("from cuspedzeta.cli import main; main()", *argv)
    assert r.returncode == 0
    assert len(suspects) > 1
    assert err == r.stderr
    assert r.stderr.splitlines() == [
        "cuspedzeta: warning: near-equal traces with incompatible character "
        f"values: word {w}" for w in suspects]


def test_enumerate_writes_the_same_bytes_on_every_call(capsys, tmp_path):
    # a repeated in-process run prints its warning lines again, and both
    # runs print what a fresh process prints
    path = fig8_matrices_file(tmp_path, cmath.exp(2j * math.pi / 3))
    argv = ["spectrum", "enumerate", str(path), "--max-word-len", "8",
            "--cutoff", "3"]
    calls = [invoke(capsys, *argv) for _ in range(2)]
    r = _python("from cuspedzeta.cli import main; main()", *argv)
    assert calls[0] == calls[1] == (r.returncode, r.stdout, r.stderr)
    assert r.stderr.count("cuspedzeta: warning: ") == 42


def test_cli_import_leaves_scipy_unloaded():
    # the runtime needs neither
    r = _python("import sys, cuspedzeta.cli; "
                "print('scipy' in sys.modules, 'numpy' in sys.modules)")
    assert r.returncode == 0
    assert r.stdout.strip() == "False False"


_EXACT = {"alexander", "cli", "cyclotomic", "errors", "laurent",
          "presentation"}
_RUELLE = {"cli", "errors", "ruelle", "spectrum"}
_CUSP = {"cli", "errors", "cuspterms"}


@pytest.mark.parametrize("argv, modules", [
    ((), {"cli", "errors"}),
    (RUELLE + ["--z", "3"], _RUELLE),
    (FRIED + ["--z", "3"], _RUELLE),
    (EPSTEIN + ["--s", "1"], _CUSP),
    (("terms", "identity"), _CUSP),
    (("alexander", str(FIXTURES / "fig8.pres")), _EXACT),
    (("betti", str(FIXTURES / "fig8.pres")), _EXACT),
    (("verify", str(FIXTURES / "fig8.pres")), _EXACT | {"verdict"}),
    (("spectrum", "enumerate", str(FIXTURES / "fig8_matrices.json"),
      "--max-word-len", "4", "--cutoff", "3"), {"cli", "errors", "spectrum"}),
], ids=["import", "ruelle-eval", "fried-check", "epstein", "terms",
        "alexander", "betti", "verify", "spectrum-enumerate"])
def test_each_command_loads_only_its_modules(argv, modules):
    # a bare import runs no command; the rest run one in a fresh process
    r = _python("import contextlib, io, sys; from cuspedzeta import cli\n"
                "if sys.argv[1:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        cli.run(sys.argv[1:])\n"
                "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules\n"
                "                      if m.startswith('cuspedzeta.'))))",
                *argv)
    assert r.returncode == 0, r.stderr
    assert set(r.stdout.split()) == modules


@pytest.mark.parametrize("argv", [
    ("selftest",),
    ("epstein", str(FIXTURES / "square_lattice.json"), "--s", "1"),
    ("epstein", str(FIXTURES / "square_lattice.json"), "--residue"),
    ("epstein", str(FIXTURES / "square_lattice_signchi.json"), "--s", "0.3+1j"),
    ("epstein", str(FIXTURES / "square_lattice_signchi.json"), "--residue"),
], ids=["selftest", "epstein-value", "epstein-residue", "epstein-character-value",
        "epstein-character-residue"])
def test_runs_without_scipy_or_mpmath(capsys, argv):
    # a None entry in sys.modules makes any import of it fail
    r = _python("import sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; "
                "sys.modules['numpy'] = None; "
                "from cuspedzeta.cli import run; sys.exit(run(sys.argv[1:]))",
                *argv)
    code, out, _ = invoke(capsys, *argv)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == out and code == 0


# --- README ----------------------------------------------------------------

def _readme_command_lines() -> list[list[str]]:
    """The words of each `cuspedzeta ...` line in README's command block."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1]
    return [line.split() for line in block.split("```", 1)[0].splitlines()
            if line.startswith("cuspedzeta ")]


def _subcommands(parser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def test_readme_lists_every_command():
    assert {words[1] for words in _readme_command_lines()} == set(cli._COMMANDS)


@pytest.mark.parametrize("words", _readme_command_lines(),
                         ids=lambda words: words[1])
def test_readme_options_are_accepted_by_the_parser(words):
    # the parser of the deepest (sub)command the line names
    parser = cli._build_parser(words[1:2])
    for word in words[1:]:
        if word not in _subcommands(parser):
            break
        parser = _subcommands(parser)[word]
    accepted = {s for action in parser._actions for s in action.option_strings}
    named = set(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
    assert named <= accepted, named - accepted


def _readme_paragraph(start: str, end: str) -> str:
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    return text.split(start, 1)[1].split(end, 1)[0]


def test_readme_matrix_keys_are_the_loader_keys(monkeypatch):
    # the keys are the backticked names of two or more letters, digits
    # or underscores in the paragraph (file paths and `a`-`z` are not)
    para = _readme_paragraph("**Matrix files**", "**Spectrum CSV**")
    named = set(re.findall(r"`([a-z][a-z0-9_]+)`", para))
    accepted = []
    json_object = cli._json_object

    def record(path, required, optional):
        accepted.extend(required + optional)
        return json_object(path, required, optional)

    monkeypatch.setattr(cli, "_json_object", record)
    cli._load_matrices(str(FIXTURES / "fig8_matrices.json"))
    assert named == set(accepted)


def test_readme_spectrum_header_is_the_written_header():
    para = _readme_paragraph("**Spectrum CSV**", "**Lattice files**")
    headers = re.findall(r"`(# cutoff=[^`]*)`", para)
    written = format_spectrum(Spectrum(classes=[], cutoff_length=3.0)).splitlines()[0]
    assert headers
    for head in headers:
        assert re.findall(r"(\w+)=", head) == re.findall(r"(\w+)=", written)
