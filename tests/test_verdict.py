"""Order predictions, branch selection, and the comparison report."""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspedzeta import verdict
from cuspedzeta.alexander import alexander_invariant, twisted_betti
from cuspedzeta.cli import _jdump, run
from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.presentation import parse_presentation
from cuspedzeta.verdict import (l2_betti, main_conjecture_report,
                                ruelle_order_prediction)

import h1_oracle
from conftest import FIXTURES, read_fixture


def test_l2_betti_cases():
    assert l2_betti(1, 1, True) == (1, 0)
    assert l2_betti(0, 0, False) == (0, 0)
    assert l2_betti(0, 2, True) == (0, 1)
    # a global fixed vector forces triviality on the cusp subgroup
    with pytest.raises(CuspedZetaError, match="cannot be nontrivial on the cusp"):
        l2_betti(1, 1, False)
    with pytest.raises(CuspedZetaError, match="h0 must be 0 or 1, got 2"):
        l2_betti(2, 0, True)
    # a character trivial on the cusp keeps half of H^1 of the torus
    with pytest.raises(CuspedZetaError, match="needs h1 >= 1, got h1 = 0"):
        l2_betti(0, 0, True)


def test_order_prediction_branches():
    # trivial-restriction branch: 2(2 h0 - h1 + 1)
    assert ruelle_order_prediction(1, 1, True) == 4
    assert ruelle_order_prediction(0, 1, True) == 0
    # nontrivial-restriction branch: -2 h1
    assert ruelle_order_prediction(0, 0, False) == 0
    assert ruelle_order_prediction(0, 3, False) == -6


def test_order_prediction_coheres_with_betti_exhaustively():
    for h0 in (0, 1):
        for h1 in range(11):
            for delta in (False, True):
                if h0 == 1 and not delta:
                    continue  # a fixed vector forces triviality on the cusp
                if delta and h1 < 1:
                    # triviality on the cusp forces h1 >= 1
                    with pytest.raises(CuspedZetaError):
                        ruelle_order_prediction(h0, h1, delta)
                    continue
                b0, b1 = l2_betti(h0, h1, delta)
                assert ruelle_order_prediction(h0, h1, delta) \
                    == 2 * (2 * b0 - b1)


def _report(name):
    p, eps, rho = parse_presentation(read_fixture(name))
    return main_conjecture_report(p, rho, eps)


def report_json_text(r):
    """The report of a (report, exit code) pair as the CLI emits it."""
    buf = io.StringIO()
    _jdump(r[0], buf)
    return buf.getvalue()


def test_zeta5_report():
    r, code = _report("fig8_zeta5.pres")
    assert r["corollaryBranch"] == "nontrivialRestriction"
    assert r["deltaRho"] is False
    assert r["predictedRuelleOrder"] == 0
    assert r["alexanderOrder"] == 0
    assert r["inequalityHolds"] is True
    assert r["equalityExpected"] is True
    assert r["warnings"] == []
    assert code == 0


def test_trivial_report_is_informational():
    r, code = _report("fig8.pres")
    assert r["corollaryBranch"] == "hypothesisNotMet"
    assert r["deltaRho"] is True
    assert r["predictedRuelleOrder"] == 4
    assert r["alexanderOrder"] == 1
    assert r["warnings"]
    assert code == 2


def test_report_json_is_deterministic_and_sorted():
    r = _report("fig8_zeta5.pres")
    b1 = report_json_text(r)
    b2 = report_json_text(_report("fig8_zeta5.pres"))
    assert b1 == b2
    d = json.loads(b1)
    assert list(d.keys()) == sorted(d.keys())
    assert b1.endswith("\n")
    for key in ("alexanderOrder", "beta0", "beta1", "corollaryBranch",
                "deltaRho", "equalityExpected", "h0", "h1",
                "inequalityHolds", "inputsDigest", "predictedRuelleOrder",
                "ruelleSideProvenance", "warnings"):
        assert key in d


def test_digest_distinguishes_inputs():
    a = json.loads(report_json_text(_report("fig8.pres")))
    b = json.loads(report_json_text(_report("fig8_zeta5.pres")))
    assert a["inputsDigest"] != b["inputsDigest"]


def test_failed_inequality_exits_3(monkeypatch, capsys):
    # no presentation reaches this today: with beta1 = h1 - delta_rho the
    # inequality always holds, so the Alexander values at t = 1 are
    # replaced by ordAtOne = 1 and h0 = h1 = 0, where 2(2 beta0 - beta1)
    # = 0 < 2
    real = verdict._alexander_at_one

    def broken(p, rho, eps):
        return (1, 0, 0) + real(p, rho, eps)[3:]

    monkeypatch.setattr(verdict, "_alexander_at_one", broken)
    code = run(["verify", str(FIXTURES / "fig8_zeta5.pres")])
    out = capsys.readouterr().out
    assert code == 3
    assert '"inequalityHolds": false' in out
    assert json.loads(out)["corollaryBranch"] == "nontrivialRestriction"


def test_verify_refuses_h1_zero_on_a_character_trivial_on_the_cusp(tmp_path, capsys):
    """Z^2 under rho(a) = rho(b) = -1 has h1 = 0, yet rho(ab) = 1 on the
    peripheral word: no manifold has this, and `verify` printed
    beta1 = -1 with exit 0 for it."""
    path = tmp_path / "torus.pres"
    path.write_text("gens a b\nrel abAB\nperi ab\neps 1 -1\nrho n=2: 1 1\n")
    assert run(["betti", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"deltaRho": True, "h0": 0, "h1": 0}
    assert run(["verify", str(path)]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("cuspedzeta: computation failed: a character trivial on the "
                   "cusp needs h1 >= 1, got h1 = 0\n")


# --- rank d1(1) against the Smith form ----------------------------------------

def inverse(word):
    return word[::-1].swapcase()


@st.composite
def small_presentation(draw):
    """Presentation text on 2-4 generators with rho modulus n <= 12 and
    g - 1 relators, or one fewer or one more, so that H1 or H2 may not
    be torsion, with zero to two peripheral words.  Two kinds in three
    have eps = 1 and rho = zeta^c on every generator: the Wirtinger
    relators x_(i+1) = x_i x_(i-1) x_i^-1 of T(2, g), whose divisor
    vanishes at t = 1 for some c (T(2, 3) under n = 6, drawn often), or relators
    x_i w x_(i+1)^-1 w^-1 with w drawn.  The third draws eps and rho
    freely, and each relator is a commutator, which both kill."""
    g, kind = draw(st.integers(2, 4)), draw(st.sampled_from(("torus", "knot", "free")))
    # zeta_2g^c with c odd, c != g is a root of t^g = -1 other than -1
    n = draw(st.integers(1, 12) | st.just(2 * g) if kind == "torus" else st.integers(1, 12))
    names = "abcd"[:g]
    word = st.text(names + names.upper(), min_size=1, max_size=3)
    count = draw(st.sampled_from((g - 1,) * 4 + (g - 2, g)))
    if kind == "free":
        eps = draw(st.lists(st.integers(-2, 2), min_size=g, max_size=g).filter(
            lambda e: math.gcd(*e) == 1))
        rho = draw(st.lists(st.integers(0, n - 1), min_size=g, max_size=g))
        rels = [u + v + inverse(u) + inverse(v)
                for u, v in draw(st.lists(st.tuples(word, word), min_size=count,
                                          max_size=count))]
    else:
        eps, rho = [1] * g, [draw(st.integers(0, n - 1))] * g
        conjugators = ([names[i].upper() for i in range(count)] if kind == "torus" else
                       draw(st.lists(word | st.just(""), min_size=count, max_size=count)))
        rels = [names[i - 1 if kind == "torus" else i] + w + names[(i + 1) % g].upper()
                + inverse(w) for i, w in enumerate(conjugators)]
    return "\n".join([f"gens {' '.join(names)}"] + [f"rel {r}" for r in rels]
                     + [f"peri {w}" for w in draw(st.lists(word, max_size=2))]
                     + [f"eps {' '.join(map(str, eps))}",
                        f"rho n={n}: {' '.join(map(str, rho))}"]) + "\n"


def smith_route(p, rho, eps):
    """The values at t = 1 that `verify` read off `alexander_invariant`,
    refused where it refuses."""
    data = alexander_invariant(p, rho, eps)
    return data.ord_at_one, data.h0, data.h1, data.semisimple_at_one


def verify_bytes(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["verify", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(small_presentation())
# T(2, 3) under zeta_6: its divisor vanishes at t = 1, rank d1(1) = 1 < 2
@example("gens a b c\nrel acAB\nrel baBC\nperi a\neps 1 1 1\nrho n=6: 1 1 1\n")
# H1 not torsion, then H2 not torsion at full rank, then no peripheral word
@example("gens a b c\nrel abAB\nperi a\neps 1 0 0\nrho n=1: 0 0 0\n")
@example("gens a b\nrel abAB\nrel abAB\nperi a\neps 1 0\nrho n=3: 0 1\n")
@example("gens a b\nrel abAB\neps 1 0\nrho n=3: 0 1\n")
def test_rank_at_one_gives_the_bytes_of_the_smith_form(text):
    """`verify` prints the bytes and exits with the code of the route
    through `alexander_invariant`, refusals included, and `betti` gives
    the (h0, h1) of `h1_oracle`'s Gauss-Jordan rank."""
    p, eps, rho = parse_presentation(text)
    assert twisted_betti(p, rho) == h1_oracle.twisted_betti(p, rho)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.pres")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = verify_bytes(path)
        with mock.patch.object(verdict, "_alexander_at_one", smith_route):
            assert got == verify_bytes(path)
