"""Command-line interface: exit codes, subcommands, and deterministic
byte-level output."""

import json
import os
import subprocess
import sys

import pytest

from cuspedzeta.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, run

from conftest import FIXTURES


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


def test_computation_errors_exit_70(capsys, tmp_path):
    # incomplete spectrum queried outside the convergence region
    src = (FIXTURES / "fig8_spectrum.csv").read_text().splitlines()
    src[1] = "# max_word_len=8 complete=0"
    p = tmp_path / "incomplete.csv"
    p.write_text("\n".join(src) + "\n")
    code, _, err = invoke(capsys, "ruelle", "eval", str(p), "--z", "1.5")
    assert code == EX_SOFTWARE
    assert "computation failed" in err


FIG8 = json.loads((FIXTURES / "fig8_matrices.json").read_text())
SQUARE = json.loads((FIXTURES / "square_lattice.json").read_text())
ENUM = ["spectrum", "enumerate", "{in}", "--max-word-len", "3", "--cutoff", "3"]
RUELLE = ["ruelle", "eval", str(FIXTURES / "fig8_spectrum.csv")]
FRIED = ["fried", "check", str(FIXTURES / "fig8_spectrum.csv")]
EPSTEIN = ["epstein", str(FIXTURES / "square_lattice.json")]

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
    ("string-covolume", dict(FIG8, covolume="3.46"), ENUM, EX_DATAERR,
     "covolume"),
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
    ("not-utf8", b"\xff{}", ["epstein", "{in}"], EX_DATAERR, "utf-8"),
    ("directory", None, ["epstein", str(FIXTURES)], EX_DATAERR,
     "Is a directory"),
    ("csv-header-token", "# cutoff=3 covolume=1 volume\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 1)"),
    ("csv-word-length", "# cutoff=3 covolume=1 volume=1\n"
                        "# max_word_len=x complete=1\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 2)"),
    ("csv-nan-row", "# cutoff=3 covolume=1 volume=1\nnan,nan,1,0,nan,1,ab\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 2)"),
    ("csv-nan-cutoff", "# cutoff=nan covolume=1 volume=1\n",
     ["ruelle", "eval", "{in}", "--z", "5"], EX_DATAERR, "(line 1)"),
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
    ("covolume-inf", None, ["terms", "unipotent", "--covolume", "inf",
                            "--c-rho", "1"], EX_USAGE, "--covolume"),
    ("c-rho-nan", None, ["terms", "unipotent", "--covolume", "1",
                         "--c-rho", "nan"], EX_USAGE, "--c-rho"),
    ("unipotent-no-case", None, ["terms", "unipotent"], EX_DATAERR,
     "--trivial"),
    ("scattering-no-file", None, ["terms", "scattering"], EX_DATAERR,
     "poles JSON"),
]


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


# --- subcommand output -----------------------------------------------------

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
    assert abs(d["constant"] + 1.0887930451518402) < 1e-6


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
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out


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
                        "--complete", "-o", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (FIXTURES / "fig8_spectrum.csv").read_bytes()


def test_spectrum_enumerate_word_length_12(capsys):
    # long word products round a.d - b.c beyond an absolute 1e-12
    code, out, _ = invoke(capsys, "spectrum", "enumerate",
                          str(FIXTURES / "fig8_matrices.json"),
                          "--max-word-len", "12", "--cutoff", "4")
    assert code == 0
    assert out.startswith("# cutoff=4 ")


def _python(code, *argv):
    """Run `code` in a fresh interpreter that finds the package in src/."""
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


def test_cli_import_leaves_scipy_unloaded():
    # numpy is needed only by the lattice sums, scipy by nothing
    r = _python("import sys, cuspedzeta.cli; "
                "print('scipy' in sys.modules, 'numpy' in sys.modules)")
    assert r.returncode == 0
    assert r.stdout.strip() == "False False"


@pytest.mark.parametrize("argv", [
    ("selftest",),
    ("epstein", str(FIXTURES / "square_lattice.json"), "--s", "1"),
    ("epstein", str(FIXTURES / "square_lattice.json"), "--residue"),
], ids=["selftest", "epstein-value", "epstein-residue"])
def test_runs_without_scipy_or_mpmath(capsys, argv):
    # a None entry in sys.modules makes any import of it fail
    r = _python("import sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; "
                "from cuspedzeta.cli import run; sys.exit(run(sys.argv[1:]))",
                *argv)
    code, out, _ = invoke(capsys, *argv)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == out and code == 0
