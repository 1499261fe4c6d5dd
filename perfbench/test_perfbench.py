"""Tests of the benchmark itself: seeded inputs, oracles, tracer, names.

    python3 -m pytest perfbench
"""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

# the benchmark contract's rule for metric names
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def snapshot(workload, seed, work):
    tasks = inputs.make_round(workload, seed, str(work))
    files = {name: (work / name).read_bytes() for name in sorted(os.listdir(work))}
    return json.dumps(tasks).replace(str(work), "WORK"), files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    first = snapshot(workload, 7, tmp_path / "a")
    assert snapshot(workload, 7, tmp_path / "b") == first
    other = snapshot(workload, 8, tmp_path / "c")
    assert other[0] != first[0]
    assert other[1] != first[1]


def test_torus_knot_oracle():
    # T(2,3) with the trivial character: t^2 - t + 1
    assert oracle.torus_alexander(3, 1, 0) == {0: (1,), 1: (-1,), 2: (1,)}
    assert oracle.cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert oracle.zeta_power(5, 4) == (-1, -1, -1, -1)
    with open(os.path.join(HERE, "golden", "alexander_trefoil_zeta5.json")) as fh:
        char1 = json.load(fh)["char1"]
    assert oracle.parse_poly(char1) == (5, oracle.torus_alexander(3, 5, 1))


def test_torus_knot_presentation_is_valid():
    text = inputs.torus_knot_presentation(5, 3, 2, "vwxyz", 1)
    assert text.splitlines() == [
        "gens v w x y z", "rel vzVW", "rel wvWX", "rel xwXY", "rel yxYZ",
        "peri w", "eps 1 1 1 1 1", "rho n=3: 2 2 2 2 2"]


def test_epstein_oracles():
    square, hexagonal = inputs.SQUARE, inputs.HEXAGONAL
    zero, half = Fraction(0), Fraction(1, 2)
    assert oracle.rel_err(oracle.epstein(*square, zero, zero, 1),
                          oracle.square_epstein_s1()) < 1e-13
    assert oracle.rel_err(oracle.epstein(*hexagonal, zero, zero, 1),
                          oracle.hexagonal_epstein_s1()) < 1e-13
    # sum' (-1)^(m+n) (m^2+n^2)^-2 = -4 beta(2) eta(2) = -4 G pi^2/12
    assert oracle.rel_err(oracle.epstein(*square, half, half, 1),
                          -4 * oracle.CATALAN * math.pi ** 2 / 12) < 1e-13
    assert oracle.rel_err(oracle.trivial_constant(*square),
                          oracle.square_trivial_constant()) < 1e-13
    assert oracle.trivial_residue(*hexagonal) == pytest.approx(2 * math.pi / math.sqrt(3))


def test_numeric_oracles():
    z = 2.5 + 1j
    chi = complex(0, 1)
    want = (1 - chi * math.e ** (-z * 1.5)) * (1 - math.e ** (-z * 2.0))
    assert oracle.euler_product([1.5, 2.0, 3.0], [chi, 1, -1], [1, 1, 2], z) \
        == pytest.approx(want, rel=1e-15)
    with open(os.path.join(ROOT, "fixtures", "fig8_matrices.json")) as fh:
        gens = [[complex(*p) for p in g] for g in json.load(fh)["generators"]]
    length, theta = oracle.word_complex_length(gens, "Ab")
    assert length == pytest.approx(1.0870701449957394, abs=1e-12)
    assert theta == pytest.approx(1.7227684498700901, abs=1e-12)
    mero = {"polyPart": [[1, 0], [0, 2]], "poles": [[[1, 0], [3, 0]]],
            "digammaAtoms": [[[1, 0], [1, 0]]], "expAtoms": [[[2, 0], 0.5]]}
    want = 1 + 2j * z + 3 / (z - 1) + oracle.digamma(z + 1) + 2 * math.e ** (-0.5 * z)
    assert oracle.mero_eval(mero, z) == pytest.approx(want, rel=1e-14)
    assert oracle.digamma(1) == pytest.approx(-oracle.EULER_GAMMA, rel=1e-15)


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.units()
    assert {w["name"] for w in bench["workloads"]} == set(inputs.WORKLOADS)
    assert set(run.TAIL_PERCENTILE) == set(inputs.WORKLOADS)
    for name in [*e2e, *layers]:
        assert METRIC_NAME.fullmatch(name), name


def test_percentile():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([1, 2, 3, 4], 75) == 3.25
    assert run.percentile([7], 90) == 7


def test_tracing_leaves_outputs_unchanged(tmp_path):
    tasks = [{"argv": ["alexander", "fixtures/trefoil_zeta5.pres"]},
             {"argv": ["spectrum", "enumerate", "fixtures/fig8_matrices.json",
                       "--max-word-len", "5", "--cutoff", "3"]},
             {"argv": ["epstein", "fixtures/square_lattice.json", "--s", "1"]},
             {"argv": ["terms", "unipotent", "--trivial"]}]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    results = []
    for trace in (False, True):
        plan = {"tasks": tasks, "seconds": 0, "trace": trace, "min_rounds": 1,
                "max_rounds": 1, "src": os.path.join(ROOT, "src"),
                "spans": str(tmp_path / "spans.json")}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        out = tmp_path / f"result-{trace}.json"
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               str(tmp_path / "plan.json"), str(out)],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [b"ready", b"round"]
        results.append(json.loads(out.read_text()))
    plain, traced = results
    assert traced["rounds"][0]["sha"] == plain["rounds"][0]["sha"]
    assert traced["rounds"][0]["rc"] == [0, 0, 0, 0]
    calls = traced["trace"]["calls"]
    assert calls["cli.run"] == 4
    assert calls["alexander.alexander_invariant"] == 1
    assert calls["cuspterms.epstein"] == 1
    assert traced["trace"]["counters"]["spectrum.classes_kept"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    roots = [s for s in spans["spans"] if s[3] == -1]
    assert [spans["names"][s[0]] for s in roots] == ["cli.run"] * 4
