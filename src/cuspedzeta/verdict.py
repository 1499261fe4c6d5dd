"""Order predictions and the main comparison report.

Combines the exact Alexander-side computation with the predicted
vanishing order of the Ruelle function at z = 0 and reports whether the
predicted order clears the bound coming from the t = 1 order of the
twisted Alexander invariant.  The Ruelle side is the closed-form
prediction from the Betti numbers, labelled as such; no analytic
continuation is attempted.

`alexander` gives h1 = h0 + #{v_i >= 1} and ordAtOne = h0 - sum v_i
over the orders v_i at t = 1 of the H1 divisors, so with
beta1 = h1 - delta_rho the inequality 2(2 beta0 - beta1) >=
2(delta_rho + ordAtOne) reduces to sum v_i >= #{v_i >= 1} in every
branch, and always holds: `verify` exits 0, or 2 when h0 = 1
(hypothesisNotMet).  Exit 3, a failed inequality, can occur only once
beta1 is computed from the cusp instead.
"""

from __future__ import annotations

import hashlib

from .alexander import alexander_invariant
from .errors import CuspedZetaError
from .presentation import (Epsilon, GroupPresentation, UnitCharacter,
                           peripheral_trivial, serialize_presentation)


def l2_betti(h0: int, h1: int, delta_rho: bool) -> tuple[int, int]:
    """Reduced L2 Betti numbers from the cohomology of the open manifold:
    beta0 = h0, beta1 = h1 - 1 when the character is trivial on the cusp
    (delta_rho) and h1 otherwise."""
    if h0 not in (0, 1):
        raise CuspedZetaError(f"h0 must be 0 or 1, got {h0}")
    if h0 == 1 and not delta_rho:
        raise CuspedZetaError(
            "a globally trivial character cannot be nontrivial on the cusp")
    return h0, (h1 - 1) if delta_rho else h1


def ruelle_order_prediction(h0: int, h1: int, delta_rho: bool) -> int:
    """Predicted order of vanishing at z = 0: 2(2 beta0 - beta1) in the
    L2 Betti numbers of `l2_betti`, which rejects inputs no manifold has."""
    beta0, beta1 = l2_betti(h0, h1, delta_rho)
    return 2 * (2 * beta0 - beta1)


def main_conjecture_report(p: GroupPresentation, rho: UnitCharacter,
                           eps: Epsilon) -> tuple[dict, int]:
    """The report that `verify` prints, keyed as printed, and its exit
    code: 3 when the inequality fails, 2 for hypothesisNotMet, else 0."""
    digest = hashlib.sha256(
        serialize_presentation(p, eps, rho).encode()).hexdigest()
    data = alexander_invariant(p, rho, eps)
    h0, h1 = data.h0, data.h1
    delta_rho = peripheral_trivial(p, rho)
    beta0, beta1 = l2_betti(h0, h1, delta_rho)
    predicted = ruelle_order_prediction(h0, h1, delta_rho)
    warnings = []
    if delta_rho:
        rhs = 2 * (1 + data.ord_at_one)
        branch = "trivialRestriction"
    else:
        rhs = 2 * data.ord_at_one
        branch = "nontrivialRestriction"
    if not data.h0_infinity_vanishes:
        warnings.append(
            "degree-zero cohomology of the infinite cyclic cover does not "
            "vanish; the comparison below is informational only")
        branch = "hypothesisNotMet"
    holds = predicted >= rhs
    return {
        "alexanderOrder": data.ord_at_one, "beta0": beta0, "beta1": beta1,
        "corollaryBranch": branch, "deltaRho": delta_rho,
        "equalityExpected": data.semisimple_at_one, "h0": h0, "h1": h1,
        "inequalityHolds": holds, "inputsDigest": digest,
        "predictedRuelleOrder": predicted,
        "ruelleSideProvenance": "predicted (order formula, not continued numerically)",
        "warnings": warnings,
    }, 3 if not holds else 2 if branch == "hypothesisNotMet" else 0
