"""Order predictions and the main comparison report.

Combines the exact Alexander-side computation with the predicted
vanishing order of the Ruelle function at z = 0 and reports whether the
predicted order clears the bound coming from the t = 1 order of the
twisted Alexander invariant.  The Ruelle side is the closed-form
prediction from the Betti numbers, labelled as such; no analytic
continuation is attempted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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


@dataclass
class Report:
    inputs_digest: str
    h0: int
    h1: int
    delta_rho: bool
    beta0: int
    beta1: int
    predicted_ruelle_order: int
    alexander_order: int
    corollary_branch: str  # trivialRestriction | nontrivialRestriction | hypothesisNotMet
    inequality_holds: bool
    equality_expected: bool
    warnings: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "alexanderOrder": self.alexander_order,
            "beta0": self.beta0,
            "beta1": self.beta1,
            "corollaryBranch": self.corollary_branch,
            "deltaRho": self.delta_rho,
            "equalityExpected": self.equality_expected,
            "h0": self.h0,
            "h1": self.h1,
            "inequalityHolds": self.inequality_holds,
            "inputsDigest": self.inputs_digest,
            "predictedRuelleOrder": self.predicted_ruelle_order,
            "ruelleSideProvenance": "predicted (order formula, not continued numerically)",
            "warnings": list(self.warnings),
        }

    @property
    def exit_code(self) -> int:
        if not self.inequality_holds:
            return 3
        if self.corollary_branch == "hypothesisNotMet":
            return 2
        return 0


def main_conjecture_report(p: GroupPresentation, rho: UnitCharacter,
                           eps: Epsilon) -> Report:
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
    return Report(
        inputs_digest=digest, h0=h0, h1=h1, delta_rho=delta_rho,
        beta0=beta0, beta1=beta1, predicted_ruelle_order=predicted,
        alexander_order=data.ord_at_one, corollary_branch=branch,
        inequality_holds=predicted >= rhs,
        equality_expected=data.semisimple_at_one, warnings=warnings)
