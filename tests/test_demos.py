"""The narrative scripts under demos/ run to completion against the
public API."""

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

ROOT = FIXTURES.parent


@pytest.mark.parametrize("demo", ["alexander_walkthrough.py", "cusp_terms.py",
                                  "length_spectrum.py"])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                       capture_output=True, text=True, env=env, cwd=ROOT,
                       timeout=120)
    assert r.returncode == 0, r.stderr
