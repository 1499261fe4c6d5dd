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

from .alexander import alexander_invariant, check_h2_torsion, twisted_betti
from .errors import CuspedZetaError
from .presentation import (Epsilon, GroupPresentation, UnitCharacter,
                           peripheral_trivial, serialize_presentation)


def l2_betti(h0: int, h1: int, delta_rho: bool) -> tuple[int, int]:
    """Reduced L2 Betti numbers from the cohomology of the open manifold:
    beta0 = h0, beta1 = h1 - 1 when the character is trivial on the cusp
    (delta_rho) and h1 otherwise.  Under delta_rho the image of H^1 in
    the two-dimensional H^1 of the torus boundary is a line (half lives,
    half dies), so h1 >= 1."""
    if h0 not in (0, 1):
        raise CuspedZetaError(f"h0 must be 0 or 1, got {h0}")
    if h0 == 1 and not delta_rho:
        raise CuspedZetaError(
            "a globally trivial character cannot be nontrivial on the cusp")
    if delta_rho and h1 < 1:
        raise CuspedZetaError(
            f"a character trivial on the cusp needs h1 >= 1, got h1 = {h1}")
    return h0, (h1 - 1) if delta_rho else h1


def ruelle_order_prediction(h0: int, h1: int, delta_rho: bool) -> int:
    """Predicted order of vanishing at z = 0: 2(2 beta0 - beta1) in the
    L2 Betti numbers of `l2_betti`, which rejects inputs no manifold has."""
    beta0, beta1 = l2_betti(h0, h1, delta_rho)
    return 2 * (2 * beta0 - beta1)


def _alexander_at_one(p: GroupPresentation, rho: UnitCharacter,
                      eps: Epsilon) -> tuple[int, int, int, bool]:
    """(ordAtOne, h0, h1, semisimpleAtOne) of `alexander_invariant`,
    refused where it refuses.  h1 - h0 of `twisted_betti`, which does
    not depend on eps, counts the H1 divisors that vanish at t = 1, so
    at h1 = h0 none does: H1 is torsion, ordAtOne = h1 = h0 and the
    order is semisimple, with no Smith form.  Above it the Smith form
    gives them."""
    h0, h1 = twisted_betti(p, rho)
    if h1 > h0:
        data = alexander_invariant(p, rho, eps)
        return data.ord_at_one, data.h0, data.h1, data.semisimple_at_one
    check_h2_torsion(p)
    return h0, h0, h0, True


def main_conjecture_report(p: GroupPresentation, rho: UnitCharacter,
                           eps: Epsilon) -> tuple[dict, int]:
    """The report that `verify` prints, keyed as printed, and its exit
    code: 3 when the inequality fails, 2 for hypothesisNotMet, else 0."""
    digest = hashlib.sha256(
        serialize_presentation(p, eps, rho).encode()).hexdigest()
    ord_at_one, h0, h1, semisimple = _alexander_at_one(p, rho, eps)
    delta_rho = peripheral_trivial(p, rho)
    beta0, beta1 = l2_betti(h0, h1, delta_rho)
    predicted = ruelle_order_prediction(h0, h1, delta_rho)
    warnings = []
    if delta_rho:
        rhs = 2 * (1 + ord_at_one)
        branch = "trivialRestriction"
    else:
        rhs = 2 * ord_at_one
        branch = "nontrivialRestriction"
    if h0:  # h0InfinityVanishes is `not h0`
        warnings.append(
            "degree-zero cohomology of the infinite cyclic cover does not "
            "vanish; the comparison below is informational only")
        branch = "hypothesisNotMet"
    holds = predicted >= rhs
    return {
        "alexanderOrder": ord_at_one, "beta0": beta0, "beta1": beta1,
        "corollaryBranch": branch, "deltaRho": delta_rho,
        "equalityExpected": semisimple, "h0": h0, "h1": h1,
        "inequalityHolds": holds, "inputsDigest": digest,
        "predictedRuelleOrder": predicted,
        "ruelleSideProvenance": "predicted (order formula, not continued numerically)",
        "warnings": warnings,
    }, 3 if not holds else 2 if branch == "hypothesisNotMet" else 0
