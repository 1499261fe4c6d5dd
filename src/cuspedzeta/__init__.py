"""Twisted Alexander invariants and Ruelle zeta bookkeeping for
one-cusped hyperbolic 3-manifolds.

The package splits into an exact-arithmetic half (group presentations,
Fox calculus, cyclotomic Laurent algebra, the twisted Alexander
invariant) and a numeric-analytic half (geodesic spectra, truncated
Euler products, Laplace transforms of heat traces, cusp contributions),
meeting in :func:`cuspedzeta.verdict.main_conjecture_report`, which
compares the predicted vanishing order of the Ruelle function at zero
with the order of the Alexander invariant at ``t = 1``.

The package root exports only ``__version__``: import from the
submodules, so that each command loads only the modules it runs.
"""

__version__ = "0.1.0"
