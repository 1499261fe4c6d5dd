"""Order predictions, branch selection, and the comparison report."""

import dataclasses
import io
import json

import pytest

from cuspedzeta import verdict
from cuspedzeta.cli import _jdump, run
from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.presentation import parse_presentation
from cuspedzeta.verdict import (l2_betti, main_conjecture_report,
                                ruelle_order_prediction)

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


def test_order_prediction_branches():
    # trivial-restriction branch: 2(2 h0 - h1 + 1)
    assert ruelle_order_prediction(1, 1, True) == 4
    assert ruelle_order_prediction(0, 0, True) == 2
    # nontrivial-restriction branch: -2 h1
    assert ruelle_order_prediction(0, 0, False) == 0
    assert ruelle_order_prediction(0, 3, False) == -6


def test_order_prediction_coheres_with_betti_exhaustively():
    for h0 in (0, 1):
        for h1 in range(11):
            for delta in (False, True):
                if h0 == 1 and not delta:
                    continue  # a fixed vector forces triviality on the cusp
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
    # inequality always holds, so the Alexander data is replaced by data
    # with ordAtOne = 1 and h0 = h1 = 0, where 2(2 beta0 - beta1) = 0 < 2
    real = verdict.alexander_invariant

    def broken(p, rho, eps):
        return dataclasses.replace(real(p, rho, eps), ord_at_one=1, h0=0, h1=0)

    monkeypatch.setattr(verdict, "alexander_invariant", broken)
    code = run(["verify", str(FIXTURES / "fig8_zeta5.pres")])
    out = capsys.readouterr().out
    assert code == 3
    assert '"inequalityHolds": false' in out
    assert json.loads(out)["corollaryBranch"] == "nontrivialRestriction"
