"""40-digit mpmath references for the Epstein and lattice special-function
tests, kept in the committed table `mpmath_references.json`.

The tests read their expected values from the table; one case per
lattice, and one point per special function, still calls mpmath live
and also checks that the table holds what mpmath gives.  After changing
a case list, rewrite the table from the repository root with

    PYTHONPATH=src python tests/mpmath_references.py
"""

import functools
import json
import math
import pathlib
import random

import mpmath

TABLE = pathlib.Path(__file__).with_name("mpmath_references.json")
DPS = 40

# the lattice and character of `test_epstein_near_trivial_character`
NEAR_TRIVIAL = (1, 0.3 + 1.1j, 0.001, 0)
NEAR_TRIVIAL_S = (0.3, 0.05 + 2j, 1)


def lattice_special_function_points():
    """The seeded points of `test_lattice_special_functions_against_mpmath`:
    log-gamma arguments z, cosine zeta arguments (z, a), and K-Bessel
    arguments (nu, x), over the orders and arguments the lattice
    L-function's expansion meets."""
    rng = random.Random(3)
    gamma = [complex(rng.uniform(0.5, 4), rng.choice((0, rng.uniform(-25, 25))))
             for _ in range(30)]
    cosine_zeta = [(z, a) for a in (0, 0.5, 1 / 3, 0.2371, 0.61803, 0.001)
                   for z in (1.05, 2.6, 1.6 + 1.4j, 3 - 40j, 1 if a else 2)]
    besselk = []
    for _ in range(40):
        nu = complex(rng.uniform(0.5, 3), rng.choice((0, rng.uniform(-2, 2),
                                                      rng.uniform(-25, 25))))
        x = math.exp(rng.uniform(math.log(0.005), math.log(100)))
        besselk.append((nu, x))
    return gamma, cosine_zeta, besselk


def gamma_ref(z) -> complex:
    with mpmath.workdps(DPS):
        return complex(mpmath.gamma(z))


def cosine_zeta_ref(z, a) -> complex:
    """sum_n 2 cos(2 pi a n) n^-z as zeta or two polylogarithms."""
    with mpmath.workdps(DPS):
        w = mpmath.expjpi(2 * mpmath.mpf(a))
        return 2 * complex(mpmath.zeta(z)) if a == 0 else \
            complex(mpmath.polylog(z, w) + mpmath.polylog(z, 1 / w))


def besselk_ref(nu, x) -> complex:
    with mpmath.workdps(DPS):
        return complex(mpmath.besselk(nu, x))


def epstein_case_id(basis, character, s) -> str:
    return f"{basis}-{character}-{s}"


def _enc(v):
    return [v.real, v.imag] if isinstance(v, complex) else v


def _dec(v):
    return complex(*v) if isinstance(v, list) else v


@functools.cache
def load():
    """The table with every number decoded: complex numbers are stored
    as [re, im] pairs, reals and ints as themselves."""
    raw = json.loads(TABLE.read_text(encoding="utf-8"))
    return {
        "epstein": {k: _dec(v) for k, v in raw["epstein"].items()},
        "near_trivial": {k: _dec(v) for k, v in raw["near_trivial"].items()},
        "gamma": [tuple(map(_dec, row)) for row in raw["gamma"]],
        "cosine_zeta": [tuple(map(_dec, row)) for row in raw["cosine_zeta"]],
        "besselk": [tuple(map(_dec, row)) for row in raw["besselk"]],
    }


def build() -> dict:
    from epstein_oracle import epstein_mpmath
    from test_cuspterms import BASES, CHARACTERS, MPMATH_CASES

    epstein = {}
    for basis, character, s in MPMATH_CASES:
        (b1, b2), (a, c) = BASES[basis], CHARACTERS[character]
        epstein[epstein_case_id(basis, character, s)] = _enc(
            epstein_mpmath(complex(b1), complex(b2), a, c, s, dps=DPS))
    near = {str(s): _enc(epstein_mpmath(*NEAR_TRIVIAL, s, dps=DPS))
            for s in NEAR_TRIVIAL_S}
    gamma, cosine_zeta, besselk = lattice_special_function_points()
    return {
        "epstein": epstein,
        "near_trivial": near,
        "gamma": [[_enc(z), _enc(gamma_ref(z))] for z in gamma],
        "cosine_zeta": [[_enc(z), a, _enc(cosine_zeta_ref(z, a))]
                        for z, a in cosine_zeta],
        "besselk": [[_enc(nu), x, _enc(besselk_ref(nu, x))] for nu, x in besselk],
    }


if __name__ == "__main__":
    TABLE.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
