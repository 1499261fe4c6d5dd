import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def fig8_generators() -> list[tuple]:
    """The figure-eight generator pair of `fig8_matrices.json` as
    (a, b, c, d) tuples: (1 1; 0 1) and (1 0; -omega 1), omega = e^{2 pi i/3}."""
    d = json.loads(read_fixture("fig8_matrices.json"))
    return [tuple(complex(*p) for p in g) for g in d["generators"]]
