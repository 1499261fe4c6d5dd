"""`terms`, `selftest`, `ruelle eval`, `fried check` and `spectrum
enumerate` on fixed command lines: the exit code and the sha256 of
stdout and of stderr of each are pinned, so a change that moves one
output byte of these commands fails here.

The lines are each `terms` kind (with and without a trivial restriction
for `unipotent`), `selftest`, `ruelle eval` and `fried check` on
`fig8_spectrum.csv` at two real points and one complex point, and
`spectrum enumerate` on the figure-eight matrices with the fixture's
character and with zeta3 and zeta5 on both generators, whose stderr
holds 42 and 62 warning lines.
"""

import cmath
import hashlib
import math

import pytest

from cuspedzeta.cli import run

from conftest import FIXTURES, fig8_matrices_file

SPECTRUM = str(FIXTURES / "fig8_spectrum.csv")

CASES = {
    "terms-identity": ["terms", "identity", "--vol", "2.0"],
    "terms-threshold": ["terms", "threshold"],
    "terms-unipotent-trivial": ["terms", "unipotent", "--trivial"],
    "terms-unipotent": ["terms", "unipotent", "--covolume", "2.0", "--c-rho", "1.5"],
    "terms-scattering": ["terms", "scattering",
                         str(FIXTURES / "scattering_example.json")],
    "selftest": ["selftest"],
}
for _command in (["ruelle", "eval"], ["fried", "check"]):
    for _z in ("3", "5", "2.5+4j"):
        CASES[f"{'-'.join(_command)}-z{_z}"] = [*_command, SPECTRUM, "--z", _z]
# an argument {zetaN} stands for the figure-eight matrices with
# e^(2 pi i/N) on both generators, written to a temporary file; the
# warning lines name no path
for _name, _matrices in (("fixture", str(FIXTURES / "fig8_matrices.json")),
                        ("zeta3", "{zeta3}"), ("zeta5", "{zeta5}")):
    CASES[f"spectrum-enumerate-{_name}"] = ["spectrum", "enumerate", _matrices,
                                            "--max-word-len", "8", "--cutoff", "3"]

EMPTY = 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'

# case -> (exit code, sha256 of stdout, sha256 of stderr)
DIGESTS = {
    'terms-identity': (0, '8ae4d57c449e5fc1909da16ac87e54f19bab541d675dddf8b94531c930e6f208', EMPTY),
    'terms-threshold': (0, '607583b1d57fe77105781439a1891acdfa3cf587927888974ef16b25ddccec1a', EMPTY),
    'terms-unipotent-trivial': (0, '61739119ba7cb2b3bd739d60189bffebe69cab7b47559dac309ca8be2dc08a87',
                                EMPTY),
    'terms-unipotent': (0, 'ecab1eb87435360e06de06780d572f4618dfada456aa5409cd1ff0fb3a1d9c17', EMPTY),
    'terms-scattering': (0, 'dfe02486503df5411c4ad09d6604bc642f683b4070e6a4089dc85bc4b48436ef', EMPTY),
    'selftest': (0, '5702e6b1bdfc436a4cabcdcde8620b23fa7cb4f1d44921bf53fc25ae645a526c', EMPTY),
    'ruelle-eval-z3': (0, '016f2cd353529b031277e26d50b1a7e37368882bb9473b73cac76b3912219b9b', EMPTY),
    'ruelle-eval-z5': (0, '1219160f3c26901209beb95bac722a70b513c510f98827fd31834453a2f89779', EMPTY),
    'ruelle-eval-z2.5+4j': (0, 'f6ffc1f19b50f32d0e501a7e0e4fba2441d6c0bad7b9d84ef2f838f818a5a6a0',
                            EMPTY),
    'fried-check-z3': (0, 'ab23337d2bbee9a1fc68d04664074ee02acf4277374234784153748a8b29d13a', EMPTY),
    'fried-check-z5': (0, 'e377b8c8bdd51dd8e41df0d1b910d2f57eeb3fd315b77ad6082b665181b42622', EMPTY),
    'fried-check-z2.5+4j': (0, '4a29f75c6153e2cbc8ffbf2c41824bdba52fddb7598958fc0cd722d26def2dd9',
                            EMPTY),
    'spectrum-enumerate-fixture': (
        0, '6b7af8f7adcdacf282f32cc5b3582febb97bddec44a4245c4a6c1236132e4a5a', EMPTY),
    'spectrum-enumerate-zeta3': (
        0, 'bbd5e701d2708ce5d8a40875e22b87f67b769a4b9f4c1d368741dd5fd64fe8e7',
        '14334a616e758f691f87bf5e73afc3a607d7ceed741cfe1a218114e492ed8694'),
    'spectrum-enumerate-zeta5': (
        0, '5ff235f378df77df4f6d54d504d828a1cfa7b792a26654dfd699b2fc1c1c31fb',
        '64e26c59e3526052f6e4b470016ef0bba06ebfa949700cf4129161f7a530d407'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _argument(text: str, tmp_path) -> str:
    if not (text.startswith("{zeta") and text.endswith("}")):
        return text
    return str(fig8_matrices_file(tmp_path, cmath.exp(2j * math.pi / int(text[5:-1]))))


@pytest.mark.parametrize("case", CASES)
def test_command_outputs_are_pinned(capsys, tmp_path, case):
    code = run([_argument(a, tmp_path) for a in CASES[case]])
    captured = capsys.readouterr()
    assert (code, _sha(captured.out), _sha(captured.err)) == DIGESTS[case]


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)
