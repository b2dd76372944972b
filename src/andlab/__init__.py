"""Desk-scale numerical laboratory for continuum Anderson models.

Subpackages and modules:

- ``model``        single-site distributions, site profiles, boxes, configurations
- ``discretize``   grids and sparse finite-volume Hamiltonians
- ``spectral``     eigensolvers, resolvent block-norm probes
- ``hs``           quasi-analytic extensions and functional-calculus reconstruction
- ``covering``     suitable coverings of boxes and annuli, free-site abundance
- ``percolation``  site-percolation graph on covering centers, bad clusters
- ``msa``          good-box verdicts, goodness ladders, parameter bookkeeping
- ``observables``  eigenfunction concentration, localization diagnostics
- ``ids``          integrated density of states and its modulus of continuity
- ``qucp``         Carleman weights, unique-continuation checks, periodic gaps
- ``experiments``  config-driven experiment runner and CSV/JSON emission
"""

__version__ = "0.1.0"
