"""The one-pass spectrum loader and factorization check against the
routes they replaced (`spectrum_oracle`): equal spectra, and residuals
and tail bounds equal bit for bit."""

import cmath
import math
import random

import pytest

from cuspedzeta import ruelle
from cuspedzeta.errors import ConvergenceRegionError
from cuspedzeta.spectrum import (GeodesicClass, Spectrum, format_spectrum,
                                 load_spectrum)

import spectrum_oracle as oracle
from conftest import FIXTURES

# Re z > 2 for every spectrum; Re z <= 2 only where the spectrum is
# complete
Z_CONVERGENT = (2.05 + 0j, 2.5 + 1.25j, 3.7 - 4.2j, 5 + 0j, 4.4 + 11j)
Z_COMPLETE = (2.0 + 0j, 1.5 - 0.5j, 0.25 + 3j)


def _angle(theta: float) -> float:
    t = math.remainder(theta, 2 * math.pi)
    return t + 2 * math.pi if t <= -math.pi else t


def power_closed_spectrum(seed: int, n_primitive: int, complete: bool) -> Spectrum:
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
        word = tuple((rng.randrange(26), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 6)))
        for k in range(1, int(cutoff // length) + 1):
            classes.append(GeodesicClass(
                length=k * length, holonomy=_angle(k * theta),
                char_value=cmath.exp(2j * math.pi * (k * p % q) / q),
                primitive_length=length, multiplicity=k, word=word * k))
    classes.sort(key=lambda c: (c.length, c.holonomy))
    return Spectrum(classes=classes, cutoff_length=cutoff,
                    lattice_covolume=1.7, volume=2.5, complete=complete)


def _written(tmp_path, name: str, sp: Spectrum):
    path = tmp_path / name
    path.write_text(format_spectrum(sp), encoding="utf-8")
    return path


def _cases(tmp_path):
    """(name, CSV path, evaluation points) for every input."""
    cases = [("fixture", FIXTURES / "fig8_spectrum.csv",
              Z_CONVERGENT + Z_COMPLETE)]
    for length, holonomy, char, powers in ((1.0, 0.7, cmath.exp(0.4j), 50),
                                           (0.3, -2.9, -1 + 0j, 40),
                                           (2.2, 0.0, 1j, 3)):
        sp = ruelle.single_orbit_spectrum(length, holonomy, char, powers)
        name = f"orbit-{length}"
        cases.append((name, _written(tmp_path, name, sp),
                      Z_CONVERGENT + Z_COMPLETE))
    for seed in (1, 2, 3):
        sp = power_closed_spectrum(seed, 100, complete=seed == 3)
        name = f"synthetic-{seed}"
        zs = Z_CONVERGENT + (Z_COMPLETE if sp.complete else ())
        cases.append((name, _written(tmp_path, name, sp), zs))
    return cases


def test_synthetic_spectra_are_power_closed_and_a_few_hundred_rows():
    for seed in (1, 2, 3):
        sp = power_closed_spectrum(seed, 100, complete=False)
        assert 200 <= len(sp.classes) <= 600
        assert sum(c.multiplicity > 1 for c in sp.classes) >= 150


def test_loader_matches_oracle(tmp_path):
    for name, path, _ in _cases(tmp_path):
        assert load_spectrum(path) == oracle.load_spectrum(path), name


def test_fried_check_matches_oracle_bit_for_bit(tmp_path):
    for name, path, zs in _cases(tmp_path):
        sp = load_spectrum(path)
        for z in zs:
            rep = ruelle.fried_residual(sp, z)
            residual, tail = oracle.fried_check(sp, z)
            assert repr(rep.value) == repr(residual), (name, z)
            assert repr(rep.tail_bound) == repr(tail), (name, z)
            assert rep.terms_used == len(sp.classes)


def test_fried_check_keeps_the_convergence_region(tmp_path):
    sp = power_closed_spectrum(1, 100, complete=False)
    for z in Z_COMPLETE:
        with pytest.raises(ConvergenceRegionError) as new:
            ruelle.fried_residual(sp, z)
        with pytest.raises(ConvergenceRegionError) as old:
            oracle.fried_check(sp, z)
        assert str(new.value) == str(old.value)
