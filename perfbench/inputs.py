"""Seeded inputs and task lists for the benchmark workloads.

A workload is one *round*: a fixed list of `cuspedzeta` command lines
whose composition (how many tasks of each kind and size) is the same for
every seed, so that run-to-run spread measures the program and not the
draw.  The seed chooses everything inside those slots: characters,
exponents, generator names, cutoffs, evaluation points, lattices and
file contents.  All inputs are written as files before the worker
starts; the program sees nothing else.

Each task is a dict with ``argv`` (relative to the checkout root),
``rc`` (the expected exit code) and ``check`` (what the oracle compares,
interpreted by ``checks.py``).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

WORKLOADS = ("exact", "enumerate", "scan", "cusp")
FIXTURES = "fixtures"
LETTERS = "abcdefghijklmnopqrstuvwxyz"

# (k, n, e) for the torus knots T(2, k) with character zeta_n^e on every
# meridian.  Every k in 3..17 and every n in {1, 3, 5, 7, 9, 11} occurs;
# large k is paired with small phi(n) so a round stays a few seconds.
# e is fixed per slot rather than drawn: which root of unity is used
# changes the cost of the Smith form by tens of percent.
TORUS_SLOTS = ((3, 1, 0), (3, 11, 7), (5, 9, 2), (5, 5, 3), (7, 7, 1), (7, 3, 2),
               (9, 5, 1), (9, 1, 0), (11, 3, 1), (13, 1, 0), (15, 3, 2), (17, 1, 0))

# word lengths of the `spectrum enumerate` tasks in one round; cost
# grows about x3 per letter
ENUM_SLOTS = (7, 7, 7, 7, 7, 8, 8, 8, 9, 9, 10)

# rows of the synthetic spectrum files read by the `scan` round; each
# file is read by one `ruelle eval` and one `fried check`
SCAN_ROWS = (8000, 8000, 8000, 8000, 16000, 16000, 32000)

# (command, fixture, expected exit code, golden output or None)
FIXTURE_TASKS = (
    ("alexander", "fig8", 0, "alexander_fig8.json"),
    ("alexander", "fig8_zeta5", 0, "alexander_fig8_zeta5.json"),
    ("alexander", "trefoil", 0, "alexander_trefoil.json"),
    ("alexander", "trefoil_zeta5", 0, "alexander_trefoil_zeta5.json"),
    ("betti", "fig8", 0, "betti_fig8.json"),
    ("betti", "fig8_zeta5", 0, "betti_fig8_zeta5.json"),
    ("verify", "fig8", 2, "verify_fig8.json"),
    ("verify", "fig8_zeta5", 0, "verify_fig8_zeta5.json"),
    ("betti", "trefoil", 65, None),
    ("betti", "trefoil_zeta5", 65, None),
    ("verify", "trefoil", 65, None),
    ("verify", "trefoil_zeta5", 65, None),
    ("alexander", "bad_rho", 65, None),
    ("betti", "bad_rho", 65, None),
    ("verify", "bad_rho", 65, None),
)


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _units(n: int):
    return [e for e in range(n) if math.gcd(e, n) == 1] if n > 1 else [0]


# ---------------------------------------------------------------------------
# exact

def torus_knot_presentation(k: int, n: int, e: int, names, peri: int) -> str:
    """Wirtinger presentation of T(2, k), the closure of the 2-braid
    sigma^k: arcs g_0..g_{k-1} with g_{i+1} = g_i g_{i-1} g_i^{-1}
    (indices mod k).  Any one of the k relations follows from the
    others; the last is left out (which one changes the cost of the
    Smith form, so it is not drawn from the seed)."""
    def inv(w):
        return w[::-1].swapcase()
    rels = []
    for i in range(k - 1):
        a, b, c = names[(i + 1) % k], names[i], names[i - 1]
        rels.append(b + c + inv(b) + inv(a))
    lines = ["gens " + " ".join(names)]
    lines += ["rel " + r for r in rels]
    lines.append("peri " + names[peri])
    lines.append("eps " + " ".join("1" for _ in names))
    lines.append(f"rho n={n}: " + " ".join(str(e) for _ in names))
    return "\n".join(lines) + "\n"


def _exact(rng, work):
    tasks = []
    for cmd, fx, rc, golden in FIXTURE_TASKS:
        check = {"kind": "golden", "file": golden} if golden else {"kind": "rc"}
        tasks.append({"argv": [cmd, f"{FIXTURES}/{fx}.pres"], "rc": rc, "check": check})
    for i, (k, n, e) in enumerate(TORUS_SLOTS):
        names = rng.sample(LETTERS, k)
        path = os.path.join(work, f"torus_{i}_k{k}_n{n}.pres")
        _write(path, torus_knot_presentation(k, n, e, names, rng.randrange(k)))
        tasks.append({"argv": ["alexander", path], "rc": 0,
                      "check": {"kind": "torus", "k": k, "n": n, "e": e}})
        tasks.append({"argv": ["betti", path], "rc": 0, "check": {"kind": "rc"}})
        tasks.append({"argv": ["verify", path], "rc": 2 if n == 1 else 0,
                      "check": {"kind": "rc"}})
    return tasks


# ---------------------------------------------------------------------------
# enumerate

def _enumerate(rng, work):
    with open(os.path.join(FIXTURES, "fig8_matrices.json"), encoding="utf-8") as fh:
        base = json.load(fh)
    tasks = []
    for i, length in enumerate(ENUM_SLOTS):
        # the cutoff sets how many classes are clustered, and so the cost:
        # the tasks of one word length draw it from disjoint strata of
        # [3, 4.5], so every round holds the same spread of costs
        group = ENUM_SLOTS.count(length)
        stratum = i - ENUM_SLOTS.index(length)
        cutoff = round(3.0 + 1.5 * (stratum + rng.random()) / group, 3)
        q = rng.randint(1, 8)
        p = rng.choice(_units(q))
        # the same value on both generators: a character of the knot
        # group, so conjugate words carry equal values
        chi = cmath.exp(2j * math.pi * p / q)
        mats = dict(base, rho=[[chi.real, chi.imag]] * 2)
        path = os.path.join(work, f"matrices_{i}.json")
        _write(path, json.dumps(mats, indent=2) + "\n")
        tasks.append({"argv": ["spectrum", "enumerate", path, "--max-word-len",
                               str(length), "--cutoff", repr(cutoff)],
                      "rc": 0, "check": {"kind": "spectrum", "matrices": path,
                                         "p": p, "q": q}})
    return tasks


# ---------------------------------------------------------------------------
# scan

def synthetic_spectrum(rows: int, rng: np.random.Generator):
    """CSV text of a power-closed spectrum: primitive counting ~ e^{2L}
    on [1, cutoff], random holonomies and root-of-unity characters."""
    cutoff = 7.0
    # with this density almost no primitive has a power below the
    # cutoff, so the row count is the primitive count to within 0.1%
    n_prim = rows
    u = rng.random(n_prim)
    lo, hi = math.exp(2.0), math.exp(2 * cutoff)
    prim_len = 0.5 * np.log(lo + u * (hi - lo))
    theta = rng.uniform(-math.pi, math.pi, n_prim)
    q = rng.integers(1, 7, n_prim)
    p = rng.integers(0, 6, n_prim) % q
    rows_out = []
    for i in range(n_prim):
        length = float(prim_len[i])
        word = np.base_repr(i + 1, 26).lower().translate(_DIGITS)
        for k in range(1, int(cutoff // length) + 1):
            th = math.remainder(k * float(theta[i]), 2 * math.pi)
            if th <= -math.pi:
                th += 2 * math.pi
            ang = 2 * math.pi * ((k * int(p[i])) % int(q[i])) / int(q[i])
            rows_out.append((k * length, th, math.cos(ang), math.sin(ang),
                             length, k, word * k))
    rows_out.sort(key=lambda r: (r[0], r[1]))
    fmt = lambda x: format(x, ".17g")
    lines = [f"# cutoff={fmt(cutoff)} covolume=1 volume=1",
             "# max_word_len=-1 complete=0"]
    lines += [",".join((fmt(r[0]), fmt(r[1]), fmt(r[2]), fmt(r[3]), fmt(r[4]),
                        str(r[5]), r[6])) for r in rows_out]
    return "\n".join(lines) + "\n"


_DIGITS = str.maketrans("0123456789", "qrstuvwxyz")


def _scan(rng, work, seed):
    tasks = []
    for i, rows in enumerate(SCAN_ROWS):
        nrng = np.random.default_rng([seed, i, 7919])
        path = os.path.join(work, f"spectrum_{i}.csv")
        _write(path, synthetic_spectrum(rows, nrng))
        for cmd in (("ruelle", "eval"), ("fried", "check")):
            z = complex(round(rng.uniform(2.05, 5.0), 6), round(rng.uniform(-6, 6), 6))
            tasks.append({"argv": [*cmd, path, "--z", _zarg(z)], "rc": 0,
                          "check": {"kind": cmd[0], "file": path,
                                    "z": [z.real, z.imag]}})
    return tasks


def _zarg(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.6f}j"


# ---------------------------------------------------------------------------
# cusp

SQUARE = (complex(1, 0), complex(0, 1))
HEXAGONAL = (complex(1, 0), cmath.exp(1j * math.pi / 3))


def _lattice_file(work, name, b1, b2, a: Fraction, c: Fraction):
    v1, v2 = cmath.exp(2j * math.pi * a), cmath.exp(2j * math.pi * c)
    if a == Fraction(1, 2):
        v1 = complex(-1, 0)
    if c == Fraction(1, 2):
        v2 = complex(-1, 0)
    path = os.path.join(work, f"lattice_{name}.json")
    _write(path, json.dumps({"b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag],
                             "chi": [[v1.real, v1.imag], [v2.real, v2.imag]]}) + "\n")
    return path


def _cusp(rng, work):
    r = rng.uniform(0.7, 1.5)
    rand = (complex(r, 0), r * complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6)))
    third = Fraction(rng.choice((1, 2)), 3)
    lat = {
        "square": (SQUARE, Fraction(0), Fraction(0)),
        "hex": (HEXAGONAL, Fraction(0), Fraction(0)),
        "rand": (rand, Fraction(0), Fraction(0)),
        "square_sign": (SQUARE, Fraction(1, 2), Fraction(0)),
        "hex_order3": (HEXAGONAL, third, Fraction(rng.choice((0, 1, 2)), 3)),
        "rand_sign": (rand, Fraction(rng.choice((0, 1)), 2), Fraction(1, 2)),
        "rand_order3": (rand, Fraction(0), third),
    }
    paths = {k: _lattice_file(work, k, *v[0], v[1], v[2]) for k, v in lat.items()}

    def spec(name):
        (b1, b2), a, c = lat[name]
        return {"b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag],
                "a": [a.numerator, a.denominator], "c": [c.numerator, c.denominator]}

    def s_value(slot):
        # Re s from the slot's own tenth of [0.2, 2] and every other slot
        # complex: the quadrature's cost depends on s, so this keeps the
        # cost of a round the same from seed to seed
        re = round(0.2 + 0.18 * (slot + rng.random()), 6)
        im = round(rng.uniform(0.5, 2.0) * rng.choice((-1, 1)), 6) if slot % 2 else 0.0
        return complex(re, im)

    tasks = [
        {"argv": ["epstein", paths["square"], "--s", "1"], "rc": 0,
         "check": {"kind": "closed", "quantity": "square_s1"}},
        {"argv": ["epstein", paths["hex"], "--s", "1"], "rc": 0,
         "check": {"kind": "closed", "quantity": "hex_s1"}},
        {"argv": ["epstein", paths["square"], "--residue"], "rc": 0,
         "check": {"kind": "closed", "quantity": "square_residue"}},
        {"argv": ["epstein", paths["square_sign"], "--residue"], "rc": 0,
         "check": {"kind": "closed", "quantity": "sign_residue"}},
        {"argv": ["epstein", paths["rand"], "--residue"], "rc": 0,
         "check": {"kind": "residue", "lattice": spec("rand")}},
    ]
    for slot, name in enumerate(("square", "hex", "rand", "square", "hex", "rand",
                                 "square_sign", "hex_order3", "rand_sign",
                                 "rand_order3")):
        s = s_value(slot)
        tasks.append({"argv": ["epstein", paths[name], "--s", _zarg(s)], "rc": 0,
                      "check": {"kind": "epstein", "lattice": spec(name),
                                "s": [s.real, s.imag]}})
    vol = round(rng.uniform(0.5, 4.0), 6)
    tasks.append({"argv": ["terms", "identity", "--vol", repr(vol)], "rc": 0,
                  "check": {"kind": "terms", "term": "identity", "vol": vol}})
    tasks.append({"argv": ["terms", "unipotent", "--trivial"], "rc": 0,
                  "check": {"kind": "terms", "term": "unipotent"}})
    cov, crho = round(rng.uniform(0.5, 4.0), 6), round(rng.uniform(-2.0, 2.0), 6)
    tasks.append({"argv": ["terms", "unipotent", "--covolume", repr(cov),
                           "--c-rho", repr(crho)], "rc": 0,
                  "check": {"kind": "terms", "term": "unipotent",
                            "covolume": cov, "c_rho": crho}})
    tasks.append({"argv": ["terms", "threshold"], "rc": 0,
                  "check": {"kind": "terms", "term": "threshold"}})
    poles = {"c0": round(rng.uniform(-1, 1), 6), "c1": round(rng.uniform(-1, 1), 6),
             "poles0": [_pole(rng) for _ in range(rng.randint(1, 4))],
             "poles1": [_pole(rng) for _ in range(rng.randint(1, 4))]}
    ppath = os.path.join(work, "scattering_poles.json")
    _write(ppath, json.dumps(poles) + "\n")
    tasks.append({"argv": ["terms", "scattering", ppath], "rc": 0,
                  "check": {"kind": "terms", "term": "scattering", "poles": poles}})
    tasks.append({"argv": ["selftest"], "rc": 0, "check": {"kind": "selftest"}})
    return tasks


def _pole(rng):
    re = round(rng.uniform(0.1, 1.5), 6) * rng.choice((-1, 1))
    return [re, round(rng.uniform(-3, 3), 6)]


def make_round(workload: str, seed: int, work: str) -> list[dict]:
    """Write the seeded inputs under `work` and return one round of
    tasks, in a seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(work, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact":
        tasks = _exact(rng, work)
    elif workload == "enumerate":
        tasks = _enumerate(rng, work)
    elif workload == "scan":
        tasks = _scan(rng, work, seed)
    else:
        tasks = _cusp(rng, work)
    rng.shuffle(tasks)
    return tasks
