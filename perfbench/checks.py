"""Compare one task's output with its reference from `oracle.py`.

`check(task, rc, out)` returns (ok, err): `ok` says whether the task
passed; `err` is its relative error against a closed-form reference
(the quantities behind `oracle_max_err`), or None for exact checks and
for numerical references that vary with the seed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
from fractions import Fraction

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIG8_SPECTRUM = os.path.join("fixtures", "fig8_spectrum.csv")

# the program's own accuracy target for numerical values
FAIL_TOL = 1e-6
# test points for the trace-formula terms, away from every pole
TERM_POINTS = (0.37 + 0.21j, 1.3 - 0.7j, 2.9 + 1.1j)


def check(task: dict, rc, out: str, cache: dict) -> tuple[bool, float | None]:
    if rc != task["rc"]:
        return False, None
    c = task["check"]
    kind = c["kind"]
    if kind == "rc":
        return True, None
    if kind == "golden":
        with open(os.path.join(GOLDEN, c["file"]), encoding="utf-8") as fh:
            return out == fh.read(), None
    if kind == "torus":
        n, poly = oracle.parse_poly(json.loads(out)["char1"])
        return n == c["n"] and poly == oracle.torus_alexander(c["k"], c["n"], c["e"]), None
    if kind == "spectrum":
        return _spectrum(out, c["matrices"], Fraction(c["p"], c["q"])), None
    if kind == "ruelle":
        return _ruelle(c, json.loads(out), cache)
    if kind == "fried":
        d = json.loads(out)
        return d["withinBound"] is True and math.isfinite(d["residual"]), None
    if kind == "closed":
        err = _closed(c["quantity"], json.loads(out))
        return err <= FAIL_TOL, err
    if kind == "residue":
        d, lat = json.loads(out), c["lattice"]
        b1, b2 = complex(*lat["b1"]), complex(*lat["b2"])
        err = max(oracle.rel_err(d["residue"], oracle.trivial_residue(b1, b2)),
                  oracle.rel_err(d["constant"], oracle.trivial_constant(b1, b2)))
        return err <= FAIL_TOL, None
    if kind == "epstein":
        lat = c["lattice"]
        want = oracle.epstein(complex(*lat["b1"]), complex(*lat["b2"]),
                              Fraction(*lat["a"]), Fraction(*lat["c"]), complex(*c["s"]))
        got = complex(*json.loads(out)["value"])
        return oracle.rel_err(got, want) <= FAIL_TOL, None
    if kind == "terms":
        return _terms(c, json.loads(out))
    if kind == "selftest":
        lines = out.splitlines()
        return all(l.startswith("PASS ") for l in lines[:-1]) \
            and lines[-1] == "0 failure(s)", None
    raise ValueError(f"unknown check {kind!r}")


def _spectrum(out: str, matrices: str, chi_exp: Fraction) -> bool:
    """Classes of length <= 3 against the figure-eight fixture, made with
    the trivial character:
    - every fixture class is found under the same word, with length and
      holonomy within 1e-9;
    - every class found has the length and holonomy of its own word's
      matrix product, and the character chi(a) = chi(b) = e^{2 pi i
      chi_exp} of its word, within 1e-9;
    - under the trivial character the words and multiplicities are
      exactly the fixture's.  A nontrivial character splits trace
      clusters the trivial one merges, so it can find more classes."""
    def rows(lines):
        return {r[6]: r for r in csv.reader(l for l in lines if not l.startswith("#"))
                if float(r[0]) <= 3.0}
    with open(FIG8_SPECTRUM, encoding="utf-8") as fh:
        want = rows(fh.read().splitlines())
    got = rows(out.splitlines())
    with open(matrices, encoding="utf-8") as fh:
        gens = [[complex(*p) for p in g] for g in json.load(fh)["generators"]]
    if not set(want) <= set(got):
        return False
    if chi_exp == 0 and (set(got) != set(want)
                         or any(got[w][5] != want[w][5] for w in want)):
        return False
    for word, w in want.items():
        g = got[word]
        if abs(float(g[0]) - float(w[0])) > 1e-9 \
                or abs(oracle.angle_diff(float(g[1]), float(w[1]))) > 1e-9:
            return False
    for word, g in got.items():
        length, theta = oracle.word_complex_length(gens, word)
        degree = sum(1 if ch.islower() else -1 for ch in word)
        chi = cmath.exp(2j * math.pi * float(chi_exp * degree))
        if abs(float(g[0]) - length) > 1e-9 \
                or abs(oracle.angle_diff(float(g[1]), theta)) > 1e-9 \
                or abs(complex(float(g[2]), float(g[3])) - chi) > 1e-9:
            return False
    return True


def _ruelle(c: dict, d: dict, cache: dict):
    path = c["file"]
    if path not in cache:
        cache[path] = np.loadtxt(path, delimiter=",", comments="#", usecols=(0, 2, 3, 5))
    a = cache[path]
    z = complex(*c["z"])
    want = oracle.euler_product(a[:, 0], a[:, 1] + 1j * a[:, 2], a[:, 3], z)
    err = oracle.rel_err(complex(*d["value"]), want)
    ok = err <= FAIL_TOL and d["termsUsed"] == int(np.sum(a[:, 3] == 1)) \
        and math.isfinite(d["tailBound"])
    return ok, err


def _closed(quantity: str, d: dict) -> float:
    if quantity == "square_s1":
        return oracle.rel_err(complex(*d["value"]), oracle.square_epstein_s1())
    if quantity == "hex_s1":
        return oracle.rel_err(complex(*d["value"]), oracle.hexagonal_epstein_s1())
    if quantity == "square_residue":
        return max(oracle.rel_err(d["residue"], math.pi),
                   oracle.rel_err(d["constant"], oracle.square_trivial_constant()))
    if quantity == "sign_residue":
        if d["residue"] != 0:
            return math.inf
        return oracle.rel_err(d["constant"], oracle.sign_character_constant())
    raise ValueError(f"unknown closed form {quantity!r}")


def _terms(c: dict, d: dict):
    term = c["term"]
    err = 0.0
    for z in TERM_POINTS:
        if term == "identity":
            want = oracle.identity_terms(c["vol"], z)
        elif term == "unipotent":
            want = oracle.unipotent_terms(z, c.get("covolume"), c.get("c_rho"))
        elif term == "threshold":
            want = {None: oracle.threshold_term(z)}
        else:
            want = oracle.scattering_terms(c["poles"], z)
        for key, value in want.items():
            got = oracle.mero_eval(d if key is None else d[key], z)
            err = max(err, oracle.rel_err(got, value))
        if term == "unipotent" and (d["combinationIsZero"] is not True
                                    or oracle.mero_eval(d["combination"], z) != 0):
            return False, err
    return err <= FAIL_TOL, err
