"""Sparse-recovery laboratory for iterative hard thresholding.

Modules: ``core`` (linear algebra and sampling), ``solvers`` (IHT and
N-IHT), ``stablepoint`` (fixed-point verification), ``rip`` (restricted
isometry constants and bound tables), ``asymptotics`` (tail bounds and
distribution oracles), ``transitions`` (phase-transition curves and
stability factors), ``experiments`` (Monte Carlo harness), ``cli`` (the
``ihtlab`` command line) and ``errors`` (the exception hierarchy).
"""

__version__ = "0.1.0"
