"""Twisted Alexander invariants and Ruelle zeta bookkeeping for
one-cusped hyperbolic 3-manifolds.

The package splits into an exact-arithmetic half (group presentations,
Fox calculus, cyclotomic Laurent algebra, the twisted Alexander
invariant) and a numeric-analytic half (geodesic spectra, truncated
Euler products, Laplace transforms of heat traces, cusp contributions),
meeting in :func:`main_conjecture_report`, which compares the predicted
vanishing order of the Ruelle function at zero with the order of the
Alexander invariant at ``t = 1``.
"""

from .alexander import AlexanderData, alexander_invariant, twisted_betti
from .cuspterms import (Lattice2D, LatticeCharacter, NontrivialRestriction,
                        ScatteringPoles, TrivialRestriction, epstein,
                        epstein_residue_and_constant, identity_lprime,
                        scattering_lprime, threshold_lprime, unipotent_lprime)
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, euler_phi
from .errors import (ConvergenceRegionError, CuspedZetaError,
                     DiscretenessSuspect, FormatError,
                     InconsistentInput, NotTorsion,
                     PoleEvaluation, PoleOnAxis,
                     PresentationSyntaxError, QuadratureFailure,
                     ValidationError)
from .laplace import MeroSum, digamma, mero_to_json
from .laurent import LaurentPoly, format_poly, ord_at_one, smith_form
from .presentation import (Epsilon, GroupPresentation, UnitCharacter,
                           fox_derivative, parse_presentation,
                           peripheral_trivial, serialize_presentation)
from .ruelle import (TruncationReport, euler_product, fried_residual,
                     single_orbit_spectrum)
from .spectrum import (GeodesicClass, MoebiusMatrix, Spectrum, classify,
                       enumerate_classes, figure_eight_generators,
                       format_spectrum, load_spectrum)
from .verdict import (Report, l2_betti, main_conjecture_report,
                      ruelle_order_prediction)

__version__ = "0.1.0"
