"""Sharp L^p operator norm of the heat semigroup at complex time.

For the evolution at complex time z = t e^{i phi} the per-dimension
L^p -> L^p norm C(phi, p) is known in closed form: it equals 1 exactly
when |phi| <= phi_p = arccos|1 - 2/p| and is given by an explicit
fourth-root expression beyond that angle.  An independent oracle
recovers the same value as the supremum of the norm ratio over centered
Gaussians exp(-a x^2), for which both the evolution and the L^p norms
are closed-form: the ratio depends only on |a| t and arg a, its optimum
over the width |a| solves a quadratic, and arg a, of the one sign that
dominates, is scanned on a grid that is then zoomed, with no iterative
optimizer.  The oracle takes a whole sweep of angles at once: one row of
the scan per angle, each with its own sign of arg a, in blocks of a fixed
number of rows.  Tensorization C^n demonstrates how the norm diverges
with dimension outside the contractivity sector; a sweep checks p and
every angle before the one oracle scan, and the oracle against C after.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import ParameterError, VerificationError

__all__ = [
    "HeatNormResult",
    "phi_p",
    "heat_norm_constant",
    "gaussian_oracle",
    "tensorized_demo",
]

# Angles per block of the oracle's scan.  A row's arrays take about
# 150 kB at the 1000-point first round, so a block holds about 1.4 MB
# whatever the number of angles; 9 rows scan as fast per angle as 18.
_ORACLE_ROWS = 9


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
    sigma = abs(1.0 - 2.0 / p)
    if sigma == 1.0:
        # p = 1, p = inf, or p so large that 2/p rounds away: the
        # fourth-root expression degenerates to this limit
        return 1.0 / math.sqrt(math.cos(phi))
    c = math.cos(phi)
    if c >= sigma:  # |phi| <= phi_p
        return 1.0
    s2 = math.sin(phi) ** 2
    gamma = math.sqrt((sigma * sigma - c * c) / s2)
    # 1 - gamma and sigma - gamma cancel as |phi| -> pi/2; with
    # 1 - sigma^2 = 4(p-1)/p^2 they follow from products instead:
    #   1 - gamma^2 = (1 - sigma^2) / sin^2 phi,
    #   sigma - gamma = cos^2 phi (1 - sigma^2) / (sin^2 phi (sigma + gamma)).
    r = 4.0 * (p - 1.0) / (p * p)
    val = (r / (s2 * (1.0 + gamma) ** 2)) \
        * ((sigma + gamma) ** 2 * s2 / (c * c * r)) ** sigma
    return val ** 0.25


def _gaussian_ratio(rho, theta, phi, p: float) -> np.ndarray:
    """||evolved g_a||_p / ||g_a||_p for g_a(x) = exp(-a x^2) at time
    z = t e^{i phi}, where a = rho e^{i theta} / (4t); batched over
    (rho, theta), and it depends on them and phi only.  phi is a float or
    a (rows, 1) column that broadcasts against theta.

    The evolution maps a to b = a/(1+4za) with amplitude (1+4za)^{-1/2};
    Gaussian p-norms are closed form, so the ratio is
    |1+4za|^{-1/2} (Re a / Re b)^{1/(2p)}, and 0 unless Re a > 0, i.e.
    |theta| < pi/2 (then Re b > 0 too).  With Re a / Re b = |1+4za|^2 /
    (1 + rho cos phi / cos theta) and |4za| = rho,
    |1+4za|^2 = (1 - rho)^2 + 2 rho (1 + cos(theta + phi)), where
    1 + cos(theta + phi) is a sum of nonnegative terms: where sin theta
    and sin phi share a sign, 1 - |sin theta sin phi| = cos^2 theta /
    (1 + |sin theta|) + |sin theta| cos^2 phi / (1 + |sin phi|).  So
    |1+4za| keeps its relative accuracy where 1 + 4za nearly cancels,
    at theta + phi near +-pi.  The ratio is taken as a product of powers,
    not as exp of a sum of logs, whose rounding (about 5 ulp at |phi| near
    pi/2, where |1+4za|^2 ~ 1e-11) lifted the oracle above C.
    """
    c, s = np.cos(phi), np.abs(np.sin(phi))
    ct, st = np.cos(theta), np.abs(np.sin(theta))
    ok = (ct > 0) & (rho > 0)
    # ct keeps theta's shape, without rho's extra axis, so one_cos is
    # computed once for both roots; entries off ok are dropped below
    ct = np.where(ct > 0, ct, 1.0)
    one_cos = ct * c + np.where(np.sign(theta) * np.sign(phi) > 0,
                                ct * ct / (1.0 + st) + st * (c * c / (1.0 + s)),
                                1.0 + st * s)
    den2 = (1.0 - rho) ** 2 + 2.0 * rho * one_cos  # |1+4za|^2
    e = 1.0 / (2.0 * p)
    return np.where(ok, den2 ** (e - 0.25) * (1.0 + rho * c / ct) ** -e, 0.0)


def _width_optimum(theta: np.ndarray, phi, p: float) -> np.ndarray:
    """Largest Gaussian ratio over the width at each arg a = theta; phi
    as in :func:`_gaussian_ratio`.

    With a = rho e^{i theta} / (4t) the ratio depends on (rho, theta)
    only; it tends to 1 as rho -> 0 and to 0 as rho -> infinity, and
    d log(ratio) / d rho = 0 is a quadratic in rho.  So the supremum over
    rho is max(1, ratio at the positive roots); roots that are not real
    or not positive cost nothing, since every value comes from
    :func:`_gaussian_ratio` and is therefore a lower bound.
    """
    c, ct, cs = np.cos(phi), np.cos(theta), np.cos(theta + phi)
    qa = (1.0 - p) * c  # < 0
    qb = (2.0 - p) * ct - p * cs * c
    qc = (2.0 - p) * cs * ct - c
    root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    rho = np.maximum(np.stack([-qb + root, -qb - root]) / (2.0 * qa), 0.0)
    return _gaussian_ratio(rho, theta, phi, p).max(axis=0)


def _check_exponent(p: float) -> None:
    """The oracle's exponent range, where its quadratic stays finite."""
    if not 1 < p < math.inf:
        raise ParameterError("exponent must lie in (1, inf)")
    if not 8.0 * p * p < math.inf:  # bounds qb^2 - 4 qa qc of _width_optimum
        raise ParameterError(f"p = {p:g} is out of numeric range: the oracle's "
                             "quadratic in the width overflows a float")


def gaussian_oracle(phi, p: float) -> float | np.ndarray:
    """Supremum of the Gaussian norm ratio at complex time t e^{i phi},
    the same for every t > 0: the ratio depends on the width a only
    through t a, so t scales out.  phi is a float, which gives a float,
    or an array of angles, which gives an array of the same shape whose
    entries are bit for bit the float values.

    The vanishing-width limit a -> 0 always gives ratio 1, so the
    supremum is at least 1.  The optimum over |a| is taken in closed form
    (:func:`_width_optimum`).  One sign of arg a = theta suffices: in
    :func:`_gaussian_ratio` the factor (1 + rho cos phi / cos theta)^{-e}
    is even in theta, and |1+4za|^2 = (1 - rho)^2 + 2 rho (1 + cos(theta
    + phi)), smaller where theta has the sign of phi, enters with exponent
    e - 1/4 = (2 - p) / (4p).  So that sign dominates pointwise for p > 2,
    the other for p < 2, and both tie at p = 2 or phi = 0.  As |phi| ->
    pi/2 the optimal arg a moves to the edge (within 7e-10 of it at phi =
    1.5707963, p = 40), so arg a = +-(pi/2 - e^u), of that one sign, is
    scanned over u in [log 1e-17, log(pi/2)] at 1000 points, then zoomed
    8 times in u around the best point.

    The angles are scanned together, one row each with its own sign of
    arg a, in blocks of ``_ORACLE_ROWS`` rows, so that memory stays that
    of one block whatever the number of angles.  p is checked, then every
    angle, before any block is scanned.
    """
    _check_exponent(p)
    phis = np.asarray(phi, dtype=float)
    flat = phis.ravel()
    if not np.all(np.abs(flat) < math.pi / 2):
        raise ParameterError("|phi| must be less than pi/2")
    out = np.empty(flat.size)
    for k in range(0, flat.size, _ORACLE_ROWS):
        out[k:k + _ORACLE_ROWS] = _scan(flat[k:k + _ORACLE_ROWS], p)
    return float(out[0]) if phis.ndim == 0 else out.reshape(phis.shape)


def _scan(phis: np.ndarray, p: float) -> np.ndarray:
    """:func:`gaussian_oracle` on one block of angles, one row each."""
    phi = phis[:, None]
    sign = np.where(phi * (p - 2.0) > 0, 1.0, -1.0)
    u, step = np.linspace(math.log(1e-17), math.log(math.pi / 2), 1000, retstep=True)
    zoom = np.linspace(-1.0, 1.0, 17)
    best = np.ones((phis.size, 1))  # boundary candidate: the a -> 0 limit
    for _ in range(9):  # the scan, then 8 zooms of 17 points
        vals = _width_optimum(sign * (math.pi / 2 - np.exp(u)), phi, p)
        i = vals.argmax(axis=1, keepdims=True)
        top = np.take_along_axis(vals, i, axis=1)
        best = np.where(top > best, top, best)
        u = np.take_along_axis(np.broadcast_to(u, vals.shape), i, axis=1) + step * zoom
        step /= 8.0
    return best[:, 0]


def tensorized_demo(phis, p: float, n: int) -> list[HeatNormResult]:
    """Dimension-n norm C^n and the induced lower bound C^n / 2 on the
    bilinear-embedding constant for the pair (e^{i phi} I, its adjoint),
    one result per angle of the sequence ``phis``, in its order.

    Every angle is checked before the oracle scans any: first the
    dimension and the oracle's exponent range, then C's domain and the
    overflow of C^n angle by angle.  A refused angle raises its
    ParameterError and gives no result; the first angle whose oracle
    differs from C by more than 1e-5 raises VerificationError.
    """
    if n < 1:
        raise ParameterError("dimension must be at least 1")
    _check_exponent(p)
    phis, closed = list(phis), []
    for phi in phis:
        C = heat_norm_constant(phi, p)
        try:
            closed.append((C, C ** n))
        except OverflowError as exc:
            raise ParameterError(f"C^n overflows a float at n = {n}") from exc
    oracle = gaussian_oracle(np.array(phis), p)
    for phi, (C, _), o in zip(phis, closed, oracle.tolist()):
        if abs(o - C) > 1e-5:
            raise VerificationError(f"Gaussian oracle {o:.8g} disagrees with the "
                                    f"closed form {C:.8g} at phi={phi}")
    return [HeatNormResult(phi=phi, p=p, C=C, oracle=o, n=n,
                           C_pow_n=C_pow_n, N_p_lower=C_pow_n / 2.0)
            for phi, (C, C_pow_n), o in zip(phis, closed, oracle.tolist())]
