"""Numerical toolkit for p-ellipticity of complex accretive matrices.

Subpackages:

- :mod:`pellip.realform` — complex/real linear-algebra identifications;
- :mod:`pellip.ellipticity` — the scalar functionals delta_p, mu, the
  normalized matrix W_p and their oracles;
- :mod:`pellip.bellman` — power-function Hessians, the two-variable
  Bellman function and convexity verification;
- :mod:`pellip.field` — grids, discretized divergence-form operators,
  dissipativity and heat-flow experiments;
- :mod:`pellip.heatnorm` — the sharp complex-time heat-semigroup norm;
- :mod:`pellip.cli` — batch front end.
"""

__version__ = "0.1.0"


class ParameterError(ValueError):
    """A scalar parameter (exponent, angle, size, range) lies outside
    its documented domain."""


class VerificationError(Exception):
    """A checked mathematical property failed to hold."""
