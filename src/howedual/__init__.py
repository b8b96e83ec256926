"""Exact Howe-duality data for the dual pair (U_l, U_l').

The package root only names its modules; import each name from its module:

- ``howedual.exact``: exact scalars, the exact polynomial type, the exact
  determinant and the sizing of exact numbers against the print limit;
- ``howedual.reps``: occurrence tests, the correspondence map and the
  dimension formulas for genuine representations;
- ``howedual.pab``: the one-variable family P_{a,b,2};
- ``howedual.intertwine``: intertwining distributions as exact
  Gaussian-times-polynomial data, the normalization-constant chain and the
  multiplicity-one identity;
- ``howedual.verify``: the numeric harness that independently checks the
  matrix integrals the constants rest on (it loads numpy);
- ``howedual.cli``: the command line.

``import howedual`` loads none of them.
"""

__version__ = "0.1.0"
