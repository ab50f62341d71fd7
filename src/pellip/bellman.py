"""Power functions, generalized Hessian forms and the two-variable
Bellman function Q_{p,delta}.

The central object is the quadratic pairing of a real 4x4 Hessian
(in the coordinates (Re zeta, Im zeta, Re eta, Im eta)) against the
block real forms of two coefficient matrices A and B.  Convexity of
Q in this generalized sense is what drives the heat-flow estimates;
``convexity_verify`` searches for the minimal normalized value of the
form and compares it with the proven lower bound.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import ParameterError
from .ellipticity import accretivity_bounds, delta_p, delta_r_extended, weighted_form
from .realform import devectorize, realify, rotation_form, sym_part, vectorize

__all__ = [
    "BellmanParams",
    "hess_power",
    "hess_form_power",
    "bellman_value",
    "bellman_gradient",
    "hessian_q",
    "hessian_fd",
    "bellman_hessian_form",
    "tensor_hessian_form",
    "tensor_hessian_direct",
    "delta_choice",
    "PairConstants",
    "pair_constants",
    "convexity_verify",
    "violation_search",
]

_BRANCH_TOL = 1e-12
# hessian_fd's step: central second differences err by O(h^2) plus
# rounding O(eps / h^2), and h = 1e-5 balances the two at size O(1).
_FD_STEP = 1e-5
# Slack of convexity_verify's pass test min_ratio >= bound - _VERIFY_TOL,
# for rounding in the eigenvalue reductions behind min_ratio.
_VERIFY_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class BellmanParams:
    """Exponent pair and perturbation size defining Q_{p,delta}."""

    p: float
    delta: float

    def __post_init__(self):
        if not self.p >= 2:
            raise ParameterError("exponent p must satisfy p >= 2")
        if not 0 < self.delta < 1:
            raise ParameterError("delta must lie in (0, 1)")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1)

    @property
    def phat(self) -> float:
        return 1.0 - 2.0 / self.p


# ---------------------------------------------------------------------------
# power functions |zeta|^r


def hess_power(r: float, zeta) -> np.ndarray:
    """Real 2x2 Hessian of |zeta|^r at zeta != 0:
    (r^2/2) |zeta|^{r-2} (I + (1 - 2/r) K(2 arg zeta)).

    Broadcasts over arrays of zeta.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(zeta) == 0):
        raise ValueError("Hessian of a power function is singular at 0")
    rhat = 1.0 - 2.0 / r
    amp = (r * r / 2.0) * np.abs(zeta) ** (r - 2.0)
    K = rotation_form(2.0 * np.angle(zeta))
    return amp[..., None, None] * (np.eye(2) + rhat * K)


def hess_form_power(A: np.ndarray, r: float, zeta, xi: np.ndarray):
    """Generalized Hessian form of |zeta|^r against A at direction xi,
    (r^2/2)|zeta|^{r-2} Re(<A xi, xi> + (1-2/r) e^{-2i arg zeta} <A xi, conj xi>).

    Broadcasts over a stack of cells, A (..., n, n), zeta (...) and xi
    (..., n); returns a float for a single cell.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(zeta == 0):
        raise ValueError("zeta must be nonzero")
    xi = np.asarray(xi, dtype=complex)
    Axi = np.einsum("...jk,...k->...j", np.asarray(A, dtype=complex), xi)
    inner = np.sum(Axi * xi.conjugate(), axis=-1)
    skew = np.sum(Axi * xi, axis=-1)
    az = np.abs(zeta)
    phase = (zeta.conjugate() / az) ** 2  # e^{-2i arg zeta}
    H = (r * r / 2.0) * az ** (r - 2.0) \
        * np.real(inner + (1.0 - 2.0 / r) * phase * skew)
    return float(H) if H.ndim == 0 else H


# ---------------------------------------------------------------------------
# the Bellman function Q_{p, delta}


def _branch_mask(params: BellmanParams, zeta, eta):
    """True where |zeta|^p >= |eta|^q (outer branch)."""
    return np.abs(zeta) ** params.p >= np.abs(eta) ** params.q


def on_singular_set(params: BellmanParams, zeta, eta,
                    tol: float = _BRANCH_TOL) -> bool:
    """True within ``tol`` of the set where Q is not twice differentiable:
    eta = 0 or |zeta|^p = |eta|^q."""
    az, ae = abs(zeta), abs(eta)
    if ae < tol:
        return True
    return abs(az ** params.p - ae ** params.q) < tol * max(1.0, az ** params.p)


def bellman_value(params: BellmanParams, zeta, eta):
    """Q_{p,delta}(zeta, eta); broadcasts over arrays."""
    p, q, d = params.p, params.q, params.delta
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    zp = np.abs(zeta) ** p
    eq = np.abs(eta) ** q
    outer = (1.0 + (2.0 / p) * d) * zp + (1.0 + params.phat * d) * eq
    # inner branch: avoid 0^(2-q) warnings at eta = 0 (the branch is not
    # selected there, since |zeta|^p >= 0 = |eta|^q)
    ae = np.where(np.abs(eta) == 0, 1.0, np.abs(eta))
    inner = zp + eq + d * np.abs(zeta) ** 2 * ae ** (2.0 - q)
    out = np.where(_branch_mask(params, zeta, eta), outer, inner)
    return out if out.ndim else float(out)


def bellman_gradient(params: BellmanParams, zeta, eta):
    """Wirtinger derivatives (d/d conj zeta, d/d conj eta) of Q.

    Q is C^1, so the piecewise formulas agree across the interface; the
    gradient with respect to the real coordinates is twice these numbers
    (real and imaginary parts).  Broadcasts over arrays.
    """
    p, q, d = params.p, params.q, params.delta
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    scalar = zeta.ndim == 0 and eta.ndim == 0
    zeta, eta = np.broadcast_arrays(np.atleast_1d(zeta), np.atleast_1d(eta))
    az, ae = np.abs(zeta), np.abs(eta)
    azs = np.where(az == 0, 1.0, az)  # safe base: the zeta factor kills it
    aes = np.where(ae == 0, 1.0, ae)
    outer = _branch_mask(params, zeta, eta)
    dz_out = (1.0 + (2.0 / p) * d) * (p / 2.0) * azs ** (p - 2.0) * zeta
    de_out = (1.0 + params.phat * d) * (q / 2.0) * aes ** (q - 2.0) * eta
    dz_in = (p / 2.0) * azs ** (p - 2.0) * zeta + d * zeta * aes ** (2.0 - q)
    de_in = (q / 2.0) * aes ** (q - 2.0) * eta \
        + d * az ** 2 * ((2.0 - q) / 2.0) * aes ** (-q) * eta
    dz = np.where(outer, dz_out, dz_in)
    de = np.where(outer, de_out, de_in)
    if scalar:
        return complex(dz[0]), complex(de[0])
    return dz, de


def hessian_q(params: BellmanParams, zeta, eta) -> np.ndarray:
    """Real 4x4 Hessian of Q in coordinates (Re z, Im z, Re e, Im e).

    Only defined off the singular set; broadcasts over arrays (the
    caller is responsible for keeping batched points off the set).
    """
    p, q, d = params.p, params.q, params.delta
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    scalar = zeta.ndim == 0 and eta.ndim == 0
    zeta, eta = np.atleast_1d(zeta), np.atleast_1d(eta)
    zeta, eta = np.broadcast_arrays(zeta, eta)
    if scalar and on_singular_set(params, complex(zeta[0]), complex(eta[0])):
        raise ValueError("Hessian of Q undefined on the singular set")

    Hp = hess_power(p, zeta)
    Hq = hess_power(q, eta)
    H = np.zeros(zeta.shape + (4, 4))

    outer = _branch_mask(params, zeta, eta)
    co_z = np.where(outer, 1.0 + (2.0 / p) * d, 1.0)
    co_e = np.where(outer, 1.0 + params.phat * d, 1.0)
    H[..., :2, :2] = co_z[..., None, None] * Hp
    H[..., 2:, 2:] = co_e[..., None, None] * Hq

    inner = ~outer
    if np.any(inner):
        H[inner] += d * _tensor_hessian_4x4(q, zeta[inner], eta[inner])
    return H[0] if scalar else H


def hessian_fd(func, zeta: complex, eta: complex) -> np.ndarray:
    """Central finite-difference 4x4 Hessian, step ``_FD_STEP``, of a scalar
    function of (zeta, eta) in the real coordinates (Re z, Im z, Re e, Im e)."""
    x0 = np.array([zeta.real, zeta.imag, eta.real, eta.imag])

    def f(x):
        return func(complex(x[0], x[1]), complex(x[2], x[3]))

    H = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            ei = np.eye(4)[i] * _FD_STEP
            ej = np.eye(4)[j] * _FD_STEP
            val = (f(x0 + ei + ej) - f(x0 + ei - ej)
                   - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * _FD_STEP * _FD_STEP)
            H[i, j] = H[j, i] = val
    return H


# ---------------------------------------------------------------------------
# the generalized pairing against (A, B)


def _pair(H4: np.ndarray, MA: np.ndarray, MB: np.ndarray,
          w1: np.ndarray, w2: np.ndarray):
    """Pair a (batched) 4x4 Hessian with the real forms of (A, B):
    <diag(M(A), M(B)) w, (H4 (x) I_n) w> at w = (w1, w2), where w1, w2
    are (batched) real 2n-vectors.  (H4 (x) I_n) w is H4 acting on w
    read as four rows of n numbers."""
    n = MA.shape[-1] // 2
    w = np.concatenate([w1, w2], axis=-1)
    Hw = (H4 @ w.reshape(w.shape[:-1] + (4, n))).reshape(w.shape)
    Dw = np.concatenate([np.einsum("...ij,...j->...i", MA, w1),
                         np.einsum("...ij,...j->...i", MB, w2)], axis=-1)
    return np.sum(Dw * Hw, axis=-1)


def _form_matrix(H4: np.ndarray, MA: np.ndarray, MB: np.ndarray) -> np.ndarray:
    """Symmetric (batched) 4n x 4n matrix K with w^T K w = _pair(H4, MA,
    MB, w1, w2) at w = (w1, w2): K = sym(diag(M(A), M(B))^T (H4 (x) I_n))."""
    n = MA.shape[-1] // 2
    zero = np.zeros_like(MA)
    D = np.block([[MA, zero], [zero, MB]])
    return sym_part(D.T @ np.kron(H4, np.eye(n)))


def bellman_hessian_form(params: BellmanParams, A: np.ndarray, B: np.ndarray,
                         v: tuple[complex, complex],
                         omega: tuple[np.ndarray, np.ndarray]) -> float:
    """Generalized Hessian form of Q at v = (zeta, eta) against (A, B)
    in the direction omega = (omega1, omega2).  Rejects points on the
    singular set."""
    zeta, eta = v
    if on_singular_set(params, zeta, eta):
        raise ValueError("point lies on the singular set of Q")
    return _pair_form(hessian_q(params, zeta, eta), A, B, omega)


def _pair_form(H4: np.ndarray, A, B, omega) -> float:
    """:func:`_pair` of one 4x4 Hessian at complex directions omega."""
    w1, w2 = (vectorize(np.atleast_1d(np.asarray(o, dtype=complex))) for o in omega)
    return float(_pair(H4, realify(A), realify(B), w1, w2))


# ---------------------------------------------------------------------------
# the tensor product |zeta|^2 |eta|^{2-q}


def _tensor_hessian_4x4(q: float, zeta, eta) -> np.ndarray:
    """Real 4x4 Hessian of |zeta|^2 |eta|^{2-q} at eta != 0; broadcasts."""
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    ae = np.abs(eta)
    vz = np.stack([zeta.real, zeta.imag], axis=-1)
    ve = np.stack([eta.real, eta.imag], axis=-1)
    H = np.zeros(np.broadcast(zeta, eta).shape + (4, 4))
    H[..., :2, :2] = 2.0 * ae[..., None, None] ** (2.0 - q) * np.eye(2)
    C = 2.0 * (2.0 - q) * ae[..., None, None] ** (-q) \
        * vz[..., :, None] * ve[..., None, :]
    H[..., :2, 2:] = C
    H[..., 2:, :2] = np.swapaxes(C, -1, -2)
    if q != 2.0:  # at q = 2 the |eta|^{2-q} factor is constant
        H[..., 2:, 2:] = np.abs(zeta)[..., None, None] ** 2 * hess_power(2.0 - q, eta)
    return H


def tensor_hessian_form(A: np.ndarray, B: np.ndarray, q: float,
                        v: tuple[complex, complex],
                        omega: tuple[np.ndarray, np.ndarray]) -> float:
    """Closed three-term formula for the generalized Hessian form of the
    tensor product |zeta|^2 |eta|^{2-q} against (A, B).

    Requires 1 < q < 2, eta != 0 and |zeta| < |eta|^{q-1}.
    """
    if not 1 < q < 2:
        raise ParameterError("q must lie in (1, 2)")
    zeta, eta = v
    if eta == 0 or not abs(zeta) < abs(eta) ** (q - 1.0):
        raise ValueError("requires eta != 0 and |zeta| < |eta|^(q-1)")
    o1 = np.atleast_1d(np.asarray(omega[0], dtype=complex))
    o2 = np.atleast_1d(np.asarray(omega[1], dtype=complex))
    ae = abs(eta)

    term1 = ae ** (2.0 - q) * hess_form_power(A, 2.0, 1.0 if zeta == 0 else zeta, o1)
    term2 = abs(zeta) ** 2 * hess_form_power(B, 2.0 - q, eta, o2) if zeta != 0 else 0.0
    vz, ve = vectorize(np.atleast_1d(zeta)), vectorize(np.atleast_1d(eta))
    w1, w2 = vectorize(o1), vectorize(o2)
    MA, MB = realify(A), realify(B)
    n = o1.shape[-1]
    # <((V(z) V(e)^T) (x) I) V(o2), M(A) V(o1)> and its mirror
    cross1 = float((MA @ w1) @ np.kron(np.outer(vz, ve), np.eye(n)) @ w2)
    cross2 = float((MB @ w2) @ np.kron(np.outer(ve, vz), np.eye(n)) @ w1)
    term3 = 2.0 * (2.0 - q) * ae ** (-q) * (cross1 + cross2)
    return float(term1 + term2 + term3)


def tensor_hessian_direct(A, B, q, v, omega) -> float:
    """Same quantity via direct assembly of the 4x4 real Hessian of the
    tensor product; the independent cross-check for the closed formula."""
    zeta, eta = v
    if eta == 0:
        raise ValueError("eta must be nonzero")
    return _pair_form(_tensor_hessian_4x4(q, zeta, eta), A, B, omega)


def tensor_lower_bound(A, B, q, v, omega) -> float:
    """Proven lower bound for the tensor Hessian form:
    2 lam_A |eta|^{2-q} |o1|^2 - 4(2-q) Lam |o1||o2|
    + ((2-q)^2/2) delta_{2-q}(B) |eta|^{q-2} |o2|^2."""
    zeta, eta = v
    lamA, LamA, _ = accretivity_bounds(np.asarray(A, dtype=complex))
    _, LamB, _ = accretivity_bounds(np.asarray(B, dtype=complex))
    Lam = max(LamA, LamB)
    d2q = delta_r_extended(np.asarray(B, dtype=complex), 2.0 - q)
    n1 = np.linalg.norm(omega[0])
    n2 = np.linalg.norm(omega[1])
    ae = abs(eta)
    return (2.0 * lamA * ae ** (2.0 - q) * n1 * n1
            - 4.0 * (2.0 - q) * Lam * n1 * n2
            + ((2.0 - q) ** 2 / 2.0) * d2q * ae ** (q - 2.0) * n2 * n2)


# ---------------------------------------------------------------------------
# the convexity verification machinery


def delta_choice(lam: float, Lam: float, delta_q_B: float) -> float:
    """Perturbation size delta = lam * delta_q(B) / (10 Lam^2)."""
    if lam <= 0 or Lam <= 0 or delta_q_B <= 0:
        raise ValueError("all inputs must be positive")
    return lam * delta_q_B / (10.0 * Lam * Lam)


@dataclasses.dataclass(frozen=True)
class PairConstants:
    """Joint constants of (A, B) at p: delta_p = min(delta_p(A),
    delta_p(B)), lam = min(lam_A, lam_B), Lam = max(Lam_A, Lam_B), and
    delta_q(B), the input of :func:`delta_choice` (delta_p(B) by duality,
    but only up to rounding)."""

    delta_p: float
    lam: float
    Lam: float
    delta_q_B: float

    @property
    def bound(self) -> float:
        """Proven lower bound (delta_p / 5)(lam / Lam) of the normalized form."""
        return self.delta_p / 5.0 * self.lam / self.Lam

    @property
    def delta(self) -> float:
        return delta_choice(self.lam, self.Lam, self.delta_q_B)


def pair_constants(A, B, p: float) -> PairConstants:
    """The joint constants of (A, B) at exponent p; matrices or fields."""
    lamA, LamA, _ = accretivity_bounds(A)
    lamB, LamB, _ = accretivity_bounds(B)
    return PairConstants(delta_p=min(delta_p(A, p), delta_p(B, p)),
                         lam=min(lamA, lamB), Lam=max(LamA, LamB),
                         delta_q_B=delta_p(B, p / (p - 1.0)))


# The ratio H_Q^{(A,B)}[v; omega] / (|o1||o2|) is unchanged under the
# phases (zeta, o1) -> e^{ia}(zeta, o1), (eta, o2) -> e^{ib}(eta, o2) and
# the scaling (s^{1/p} zeta, s^{1/q} eta, s^{1/p} o1, s^{1/q} o2), so the
# points reduce to v = (1, rho^{1/q}) with rho = |eta|^q / |zeta|^p.  On
# the outer branch rho <= 1 the ratio is in closed form (convexity_verify),
# so log rho is scanned on the inner branch only, at offsets from rho = 1,
# dense there, out to e^140.
_LOG_RHO = np.geomspace(1e-10, 140.0, 160)
_ZOOMS, _ZOOM_POINTS, _LOG_TAU_SPAN = 6, 9, 300.0
# log tau is searched on [-300, 300] until its bracket is _TAU_CLOSE *
# max(1, |log tau|) wide, a few ulp.  Past the first, a model step is taken
# only after a step that halved the bracket, so each step that does not
# halve it follows one that did: with the start and the first model step,
# _TAU_STEPS = 2 + 2 ceil(log2(600 / _TAU_CLOSE)) = 120 steps close any bracket.
_TAU_CLOSE = 8.0 * np.finfo(float).eps
_TAU_STEPS = 2 * math.ceil(math.log2(2.0 * _LOG_TAU_SPAN / _TAU_CLOSE)) + 2
# Eigenvalues of K_tau within _TAU_TIE * ||K_tau|| of lam_min are tied to
# it: its bottom cluster.  A model step of length h aims min(16 h^2, h / 2)
# past its model point, beyond Newton's O(h^2) error, to cross the root.
_TAU_TIE = 8.0 * np.finfo(float).eps
_OVERSHOOT = 16.0


def _scaled(K: np.ndarray, log_tau) -> np.ndarray:
    """K_tau = [[K11 / tau, K12], [K21, tau K22]] of a (batched) K."""
    d = np.exp(np.multiply.outer(0.5 * np.asarray(log_tau),
                                 np.repeat([-1.0, 1.0], K.shape[-1] // 2)))
    return d[..., :, None] * K * d[..., None, :]


def _cluster_range(G: np.ndarray, k: np.ndarray):
    """(min, max) eigenvalue of the leading k x k block of each G."""
    gmin, gmax = G[:, 0, 0].copy(), G[:, 0, 0].copy()
    for size in np.unique(k[k > 1]):
        sel = k == size
        g = np.linalg.eigvalsh(G[sel, :size, :size])
        gmin[sel], gmax[sel] = g[:, 0], g[:, -1]
    return gmin, gmax


def _model_step(lam: np.ndarray, G: np.ndarray, tied: np.ndarray,
                d: np.ndarray) -> np.ndarray:
    """Length of the step in direction d (+-1) to the nearer of two model
    points of the bottom branch lam_0 of K_tau, where lam_0 > 0; inf where
    there is none.  With E = diag(-I/2, I/2), d K_tau / d log tau = E K_tau
    + K_tau E, and G = 2 X^T E X in K_tau's eigenbasis X, so branch j has
    log-slope sigma_j = G_jj.  With r_k = lam_k / lam_0 the points are:
      - Newton's for lam_0' = 0, where lam_0'' = lam_0 ((1 + sigma_0^2) / 2
        + 2 sum_k e_k^2 (1 + 3 r_k) / (1 - r_k)) < 0, the sum over the
        untied k and e_k = G_k0 / 2;
      - the first crossing of log lam_0 with another untied log lam_k, both
        continued linearly: it is exact at a kink where K12 = 0.
    """
    sig = np.diagonal(G, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = lam / lam[:, :1]
        pert = np.where(tied, 0.0, (0.5 * G[:, :, 0]) ** 2 * (1.0 + 3.0 * r) / (1.0 - r))
        curv = 0.5 * (1.0 + sig[:, 0] ** 2) + 2.0 * pert.sum(axis=-1)
        newton = np.where(curv < 0, np.abs(sig[:, 0] / curv), np.inf)
        cross = d[:, None] * np.log(r) / (sig[:, :1] - sig)
        cross = np.where(tied | ~(cross > 0), np.inf, cross).min(axis=-1)
    return np.where(lam[:, 0] > 0, np.minimum(newton, cross), np.inf)


def _direction_inf(K: np.ndarray):
    """(value, log tau): exact inf over w = (w1, w2), w1, w2 != 0, of
    w^T K w / (|w1||w2|) for a batch of symmetric 4n x 4n K.  Each tau > 0
    gives the lower bound 2 lam_min(K_tau) where that is nonnegative, and
    lam_min(K_tau) is quasi-concave in log tau with slope lam_min (|x2|^2 -
    |x1|^2) at its unit eigenvector x: the root of |x2|^2 - 1/2 is the
    maximizer, where w = (x1, tau x2) attains the bound, negative or not.

    The root is bracketed on [-_LOG_TAU_SPAN, _LOG_TAU_SPAN] by the sign of
    |x2|^2 - 1/2, or, for a tied bottom cluster, of the extreme eigenvalues
    of |x2|^2 - |x1|^2 on it (both signs: the cluster holds a balanced x and
    log tau is the root).  It starts where the diagonal blocks balance,
    lam_min(K11) / tau = tau lam_min(K22), and steps to :func:`_model_step`'s
    point, or to the midpoint where there is none inside the bracket or the
    step before did not halve the bracket.  One eigh of K_tau per step; a
    bracket still open after _TAU_STEPS steps raises RuntimeError.
    """
    K = np.asarray(K)
    shape, size = K.shape[:-2], K.shape[-1]
    m = size // 2
    K = K.reshape(-1, size, size)
    l11 = np.linalg.eigvalsh(K[:, :m, :m])[:, 0]
    l22 = np.linalg.eigvalsh(K[:, m:, m:])[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.clip(0.5 * np.log(l11 / l22), -_LOG_TAU_SPAN, _LOG_TAU_SPAN)
    s = np.where((l11 > 0) & (l22 > 0), start, 0.0)
    lo, hi = np.full_like(s, -_LOG_TAU_SPAN), np.full_like(s, _LOG_TAU_SPAN)
    next_lo, next_hi = np.full_like(s, np.nan), np.full_like(s, np.nan)  # model points
    last = np.full_like(s, np.inf)  # bracket width before the last step
    val = np.empty_like(s)
    act = np.arange(s.size)
    for _ in range(_TAU_STEPS):
        if act.size == 0:
            break
        sa = s[act]
        lam, X = np.linalg.eigh(_scaled(K[act], sa))
        X1, X2 = X[:, :m], X[:, m:]
        G = np.swapaxes(X2, -1, -2) @ X2 - np.swapaxes(X1, -1, -2) @ X1
        tied = lam - lam[:, :1] <= _TAU_TIE * np.abs(lam).max(axis=-1, keepdims=True)
        gmin, gmax = _cluster_range(G, tied.sum(axis=-1))
        rising, falling = gmin > 0, gmax < 0
        d = np.where(rising, 1.0, -1.0)
        tol = _TAU_CLOSE * np.maximum(1.0, np.abs(sa))
        h = _model_step(lam, G, tied, d)
        point = sa + d * np.maximum(h + np.minimum(_OVERSHOOT * h, 0.5) * h, 0.5 * tol)
        lo[act] = a_lo = np.where(rising, sa, lo[act])
        hi[act] = a_hi = np.where(falling, sa, hi[act])
        next_lo[act] = n_lo = np.where(rising, point, next_lo[act])
        next_hi[act] = n_hi = np.where(falling, point, next_hi[act])
        val[act] = 2.0 * lam[:, 0]
        width = a_hi - a_lo
        done = ~(rising | falling) | (width <= tol)
        # the model point nearer its own end of the bracket (the shorter
        # extrapolation), strictly inside; taking the latest one instead
        # made 4.6 K_tau steps per scanned rho, not 2.9, on 35 verify pairs
        in_lo, in_hi = (a_lo < n_lo) & (n_lo < a_hi), (a_lo < n_hi) & (n_hi < a_hi)
        use_lo = in_lo & ~(in_hi & (a_hi - n_hi < n_lo - a_lo))
        model = (in_lo | in_hi) & (width <= 0.5 * last[act])
        s[act] = np.where(done, sa, np.where(model, np.where(use_lo, n_lo, n_hi),
                                             0.5 * (a_lo + a_hi)))
        last[act] = width
        act = act[~done]
    if act.size:
        raise RuntimeError(f"log tau search left {act.size} brackets open "
                           f"after {_TAU_STEPS} steps")
    return val.reshape(shape), s.reshape(shape)


def _balanced_minimizer(Kt: np.ndarray) -> np.ndarray:
    """Unit x = (x1, x2) in the lam_min eigenspace of K_tau with |x1| =
    |x2|, also where a multiple lam_min (outer branch, multiples of the
    identity) has unbalanced eigenvectors: sqrt(g1) u0 + sqrt(-g0) u1 for
    (g0 < 0, u0), (g1 > 0, u1) extreme eigenpairs of |x2|^2 - |x1|^2 there."""
    m = Kt.shape[-1] // 2
    evals, evecs = np.linalg.eigh(Kt)
    E = evecs[:, evals - evals[0] <= 1e-9 * max(abs(evals[0]), 1e-9)]  # ties
    g, U = np.linalg.eigh(E[m:].T @ E[m:] - E[:m].T @ E[:m])
    if not g[0] < 0 < g[-1]:
        return E @ U[:, np.argmin(np.abs(g))]
    c = math.sqrt(g[-1]) * U[:, 0] + math.sqrt(-g[0]) * U[:, -1]
    return E @ c / np.linalg.norm(c)


def convexity_verify(params: BellmanParams, A: np.ndarray, B: np.ndarray) -> dict:
    """Minimum of H_Q^{(A,B)}[v; omega] / (|o1||o2|) over off-singular-set
    points v and nonzero directions, against the proven lower bound
    (delta_p / 5)(lam / Lam).  It is the least of three values:
      - the inner-branch scan of rho above, zoomed around its best point;
      - the outer-branch infimum C = p q sqrt((1 + 2 delta/p)(1 + phat
        delta) delta_q(A) delta_p(B)).  There Q is separable and K is
        block diagonal, with blocks p^2 (1 + 2 delta/p) weighted_form(A, q)
        and q^2 (1 + phat delta) rho^{(q-2)/q} weighted_form(B, p), so the
        ratio is 2 sqrt(lam_min(K11) lam_min(K22)) = C rho^{(q-2)/(2q)},
        nonincreasing in rho, with C its limit at rho = 1;
      - for p > 2 the inner-branch rho -> infinity limit (at p = 2 the
        branches coincide and the ratio does not depend on rho).
    The witness attains the best scanned value.  Passes when min_ratio >=
    bound - ``_VERIFY_TOL``.

    Refuses when the joint ellipticity constant min(delta_p(A),
    delta_p(B)) is not positive; use :func:`violation_search` there.
    """
    constants = pair_constants(A, B, params.p)
    if not constants.delta_p > 0:
        raise ValueError("joint p-ellipticity constant is not positive")
    MA, MB = realify(A), realify(B)

    def form(log_rho):
        return _form_matrix(hessian_q(params, 1.0, np.exp(log_rho / params.q)), MA, MB)

    x = _LOG_RHO
    for _ in range(_ZOOMS):
        i = int(np.argmin(_direction_inf(form(x))[0]))
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
        x = np.concatenate([np.linspace(lo, x[i], _ZOOM_POINTS),
                            np.linspace(x[i], hi, _ZOOM_POINTS)[1:]])
    K = form(x)
    vals, log_tau = _direction_inf(K)
    i = int(np.argmin(vals))
    w1, w2 = np.split(_balanced_minimizer(_scaled(K[i], log_tau[i])), 2)
    p, q, d = params.p, params.q, params.delta
    outer = p * q * math.sqrt((1.0 + 2.0 * d / p) * (1.0 + params.phat * d)
                              * delta_p(A, q) * delta_p(B, p))
    min_ratio = min(float(vals[i]), outer)
    if p > 2:
        min_ratio = min(min_ratio, 2.0 * q * math.sqrt(
            d * accretivity_bounds(A)[0] * constants.delta_q_B))
    return {
        "min_ratio": min_ratio,
        "bound": constants.bound,
        "witness": {"zeta": 1.0 + 0.0j, "eta": complex(math.exp(x[i] / params.q)),
                    "omega1": devectorize(w1),
                    "omega2": math.exp(log_tau[i]) * devectorize(w2)},
        "pass": min_ratio >= constants.bound - _VERIFY_TOL,
    }


def violation_search(params: BellmanParams, A: np.ndarray, B: np.ndarray) -> dict:
    """Construct a point where the branch-restricted Hessian form of Q is
    negative, available whenever delta_p(A) < 0.

    Takes omega2 = 0 and zeta = 1 in the outer branch, so the form reduces
    to a positive multiple of the power-function Hessian form, whose
    sphere minimum is (p^2/2) delta_p(A).
    """
    A = np.asarray(A, dtype=complex)
    if not delta_p(A, params.p) < 0:
        raise ValueError("no violation to construct: delta_p(A) >= 0")
    n = A.shape[-1]
    x = np.linalg.eigh(weighted_form(A, params.q))[1][:, 0]
    xi = x[:n] + 1j * x[n:]
    v = (1.0 + 0.0j, 0.1 + 0.0j)  # outer branch: 1 >= 0.1^q
    value = bellman_hessian_form(params, A, B, v,
                                 (xi, np.zeros(n, dtype=complex)))
    return {"zeta": v[0], "eta": v[1], "omega1": xi,
            "omega2": np.zeros(n, dtype=complex), "value": float(value)}
