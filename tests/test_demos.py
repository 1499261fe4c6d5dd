"""The narrative scripts under demos/ run to completion against the
public API."""

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

ROOT = FIXTURES.parent


def _run(demo: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


@pytest.mark.parametrize("demo", ["alexander_walkthrough.py", "cusp_terms.py",
                                  "length_spectrum.py"])
def test_demo_runs(demo):
    r = _run(demo)
    assert r.returncode == 0, r.stderr


def test_length_spectrum_demo_finds_the_rows_closed_under_powers():
    r = _run("length_spectrum.py")
    assert r.stdout.splitlines()[-1] == "closed under powers: true"
