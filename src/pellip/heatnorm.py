"""Sharp L^p operator norm of the heat semigroup at complex time.

For the evolution at complex time z = t e^{i phi} the per-dimension
L^p -> L^p norm C(phi, p) is known in closed form: it equals 1 exactly
when |phi| <= phi_p = arccos|1 - 2/p| and is given by an explicit
fourth-root expression beyond that angle.  An independent oracle
recovers the same value by optimizing the norm ratio over centered
Gaussian inputs, for which both the evolution and the L^p norms are
closed-form.  Tensorization C^n demonstrates how the norm diverges
with dimension outside the contractivity sector.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.optimize

from . import ParameterError

__all__ = [
    "HeatNormResult",
    "phi_p",
    "heat_norm_constant",
    "gaussian_oracle",
    "tensorized_demo",
]


@dataclasses.dataclass(frozen=True)
class HeatNormResult:
    phi: float
    p: float
    C: float
    oracle: float
    n: int
    C_pow_n: float
    N_p_lower: float


def phi_p(p: float) -> float:
    """Contractivity angle arccos|1 - 2/p|; symmetric in p <-> p/(p-1)."""
    if not 1 < p < math.inf:
        raise ParameterError("exponent must lie in (1, inf)")
    return math.acos(abs(1.0 - 2.0 / p))


def heat_norm_constant(phi: float, p: float) -> float:
    """Per-dimension L^p norm C(phi, p) of the complex-time heat
    evolution, |phi| < pi/2, p in [1, inf]."""
    if not abs(phi) < math.pi / 2:
        raise ParameterError("|phi| must be less than pi/2")
    if not 1 <= p <= math.inf:
        raise ParameterError("exponent must lie in [1, inf]")
    if p in (1, math.inf):
        # sigma = 1: the fourth-root expression degenerates to this limit
        return 1.0 / math.sqrt(math.cos(phi))
    sigma = abs(1.0 - 2.0 / p)
    c = math.cos(phi)
    if c >= sigma:  # |phi| <= phi_p
        return 1.0
    gamma = math.sqrt(sigma * sigma - c * c) / abs(math.sin(phi))
    val = ((1.0 - gamma) / (1.0 + gamma)) \
        * ((sigma + gamma) / (sigma - gamma)) ** sigma
    return val ** 0.25


def _gaussian_ratio(a: complex, z: complex, p: float) -> float:
    """||evolved g_a||_p / ||g_a||_p for g_a(x) = exp(-a x^2).

    The evolution maps a to a/(1+4za) with amplitude (1+4za)^{-1/2};
    Gaussian p-norms are closed form, so the ratio is
    |1+4za|^{-1/2} (Re a / Re b)^{1/(2p)}.
    """
    den = 1.0 + 4.0 * z * a
    b = a / den
    if b.real <= 0 or a.real <= 0:
        return 0.0
    return abs(den) ** -0.5 * (a.real / b.real) ** (1.0 / (2.0 * p))


def gaussian_oracle(phi: float, p: float, t: float = 1.0) -> float:
    """Supremum of the Gaussian norm ratio at complex time t e^{i phi}.

    The vanishing-width limit a -> 0 always gives ratio 1, so the
    supremum is at least 1; the optimizer searches the interior for a
    better Gaussian.  The result is independent of t.
    """
    if not abs(phi) < math.pi / 2:
        raise ParameterError("|phi| must be less than pi/2")
    if not 1 < p < math.inf:
        raise ParameterError("exponent must lie in (1, inf)")
    if t <= 0:
        raise ParameterError("time must be positive")
    z = t * complex(math.cos(phi), math.sin(phi))

    def neg(x):
        a = complex(math.exp(x[0]), x[1] * math.exp(x[0]))
        return -_gaussian_ratio(a, z, p)

    best = 1.0  # boundary candidate: the a -> 0 limit
    starts = [(math.log(s / t), w)
              for s in (0.05, 0.25, 1.0, 4.0)
              for w in (-2.0, -0.5, 0.0, 0.5, 2.0)]
    for x0 in starts:
        res = scipy.optimize.minimize(
            neg, np.array(x0), method="Nelder-Mead",
            options={"maxiter": 3000, "xatol": 1e-12, "fatol": 1e-14})
        best = max(best, -float(res.fun))
    return best


def tensorized_demo(phi: float, p: float, n: int) -> HeatNormResult:
    """Dimension-n norm C^n and the induced lower bound C^n / 2 on the
    bilinear-embedding constant for the pair (e^{i phi} I, its adjoint)."""
    if n < 1:
        raise ParameterError("dimension must be at least 1")
    C = heat_norm_constant(phi, p)
    oracle = gaussian_oracle(phi, p)
    C_pow_n = C ** n
    return HeatNormResult(phi=phi, p=p, C=C, oracle=oracle, n=n,
                          C_pow_n=C_pow_n, N_p_lower=C_pow_n / 2.0)
