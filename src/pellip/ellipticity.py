"""Scalar functionals attached to a complex accretive matrix.

Computes the accretivity bounds (lambda, Lambda, nu), the p-ellipticity
constant delta_p, the angle-like quantity mu, the normalized matrix W_p
and the closed-form special cases.  lambda, nu, delta_p and mu are
exact eigenvalue reductions of the real form of A, batched over cells:
tan(nu) is the largest |eigenvalue| of the (Im-form, Re-form) pencil,
and 1/mu that of the (conjugation-weighted form, Re-form) pencil.
Sampling oracles for delta_p and mu cross-check the exact reductions.

Every public function accepts either a single complex (n, n) array, a
stack of matrices with shape (..., n, n) interpreted as a piecewise
constant coefficient field (reduction = min / max over cells), or any
object exposing a ``mats`` attribute holding such a stack (e.g.
``pellip.field.MatrixField``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.optimize

from . import ParameterError
from .realform import antisym_part, realify, sym_part

__all__ = [
    "EllipticityReport",
    "rotation_matrix",
    "skew_matrix",
    "rotated_matrix",
    "accretivity_bounds",
    "weighted_form",
    "delta_p",
    "delta_r_extended",
    "delta_p_oracle",
    "mu",
    "mu_oracle",
    "p_ellipticity_range",
    "script_w_p",
    "closed_form_delta",
    "sector_test_symmetric",
    "ellipticity_report",
]

# 2x2 rotation generator, the building block of the skew family.
ROT_GEN = np.array([[0.0, -1.0], [1.0, 0.0]])
# mu_oracle leaves out directions with |<A xi, conj xi>| below this:
# there the quotient is unbounded and its value is rounding.
_MU_GUARD = 1e-12
# Slack of sector_test_symmetric, so that matrices on the boundary
# delta_p(A_s) = 0 pass despite rounding in the pencil radius.
_SECTOR_TOL = 1e-12


def _cells(A) -> np.ndarray:
    """Normalize input to a stack of matrices with shape (m, n, n)."""
    if hasattr(A, "mats"):
        A = A.mats
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix or a stack of square matrices")
    return A.reshape((-1,) + A.shape[-2:])


def _distinct(mats: np.ndarray) -> np.ndarray:
    """The bitwise-distinct matrices of a stack, in no particular order;
    piecewise constant fields repeat a few matrices over many cells."""
    rows = np.ascontiguousarray(mats).reshape(mats.shape[0], -1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return mats[np.unique(keys, return_index=True)[1]]


def rotation_matrix(phi: float, n: int = 2) -> np.ndarray:
    """e^{i phi} I_n; accretive iff |phi| < pi/2."""
    return np.exp(1j * phi) * np.eye(n)


def skew_matrix(w: float) -> np.ndarray:
    """I_2 + i w R with R the rotation generator; accretive iff |w| < 1...
    in the sense that lambda = 1 > 0 always, while p-ellipticity degrades
    with |w|."""
    return np.eye(2) + 1j * w * ROT_GEN


def rotated_matrix(B: np.ndarray, phi: float) -> np.ndarray:
    """e^{i phi} B for a real matrix B with positive definite symmetric part."""
    return np.exp(1j * phi) * np.asarray(B, dtype=complex)


@dataclasses.dataclass(frozen=True)
class EllipticityReport:
    lam: float
    Lam: float
    nu: float
    p: float
    delta_p: float
    mu: float
    w_p_norm: float
    p_range: tuple[float, float]


# ---------------------------------------------------------------------------
# exact eigenvalue reductions


def weighted_form(A, r: float) -> np.ndarray:
    """sym(D_r M(A)) of a matrix or a stack, where D_r scales the real
    part rows of M(A) by 1/r and the imaginary part rows by 1 - 1/r.

    delta_r(A) is twice its smallest eigenvalue.  For A = U + iV and
    r = q = p/(p - 1) it is sym([[U/q, -V/q], [V/p, U/p]]), the block the
    Hessian of the power function |zeta|^p pairs with A.
    """
    M = realify(A)
    n = M.shape[-1] // 2
    scale = np.concatenate([np.full(n, 1.0 / r), np.full(n, 1.0 - 1.0 / r)])
    return sym_part(scale[:, None] * M)


def _delta_cells(mats: np.ndarray, r: float) -> np.ndarray:
    """Per-cell p-ellipticity constant, exact: 2 lambda_min of the
    weighted form; for r > 1 the weight is the conjugate-exponent 1/r*."""
    return 2.0 * np.linalg.eigvalsh(weighted_form(mats, r))[..., 0]


def delta_r_extended(A, r: float) -> float:
    """delta_r for any r > 0, using the extended weight (1/r, 1 - 1/r).

    Needed with r in (0, 1) by the tensor-Hessian lower bound; for
    r > 1 it coincides with :func:`delta_p`.
    """
    if not r > 0:
        raise ParameterError("exponent must be positive")
    return float(_delta_cells(_distinct(_cells(A)), r).min())


def delta_p(A, p: float) -> float:
    """The p-ellipticity constant; exact, via a 2n x 2n symmetric eigenproblem."""
    if not p > 1:
        raise ParameterError("exponent p must satisfy p > 1")
    return float(_delta_cells(_distinct(_cells(A)), p).min())


def accretivity_bounds(A) -> tuple[float, float, float]:
    """(lambda, Lambda, nu): ellipticity lower bound, operator-norm upper
    bound and numerical-range half-angle, reduced over cells for fields.

    Re<A xi, xi> and Im<A xi, xi> are the real quadratic forms of
    P = sym(M(A)) and S = sym(J^T M(A)) on R^2n, so tan(nu) is the
    largest |eigenvalue| of the pencil (S, P) over all cells.
    """
    mats = _distinct(_cells(A))
    n = mats.shape[-1]
    M = realify(mats)
    P = sym_part(M)
    lam = float(np.linalg.eigvalsh(P)[..., 0].min())
    Lam = float(np.linalg.svd(mats, compute_uv=False)[..., 0].max())
    if lam <= 0:
        # numerical range meets the closed left half plane; no sector angle
        return lam, Lam, math.pi / 2
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return lam, Lam, math.atan(_pencil_radius(sym_part(J.T @ M), P))


def _pencil_radius(S: np.ndarray, P: np.ndarray) -> float:
    """Largest |eigenvalue| of the symmetric pencils (S, P) over a stack,
    P positive definite; whitening P = L L^T batches it in eigvalsh."""
    L_inv = np.linalg.inv(np.linalg.cholesky(P))
    return float(np.abs(np.linalg.eigvalsh(L_inv @ S @ np.swapaxes(L_inv, -1, -2))).max())


def mu(A) -> float:
    """Infimum of Re<A xi, xi> / |<A xi, conj xi>|, exact.

    At s = |1 - 2/p| the p-ellipticity constant is lambda_min(P - s T)
    with P = sym(M(A)) and T = sym(diag(I, -I) M(A)).  The phase symmetry
    xi -> e^{i alpha} xi makes it even in s, so the spectrum of the pencil
    (T, P) is symmetric and delta_p > 0 exactly when s < mu =
    1 / (largest |eigenvalue| of the pencil) over all cells.  Returns 1
    when mu is within 1e-9 of 1 (e.g. real matrices).
    """
    M = realify(_distinct(_cells(A)))
    P = sym_part(M)
    if np.linalg.eigvalsh(P)[..., 0].min() <= 0:
        raise ValueError("matrix is not accretive (delta_2 <= 0)")
    n = M.shape[-1] // 2
    conj = np.concatenate([np.ones(n), -np.ones(n)])
    m = 1.0 / _pencil_radius(sym_part(conj[:, None] * M), P)
    return 1.0 if m >= 1.0 - 1e-9 else m


def _sphere_min(A, form, samples, refine, rng, maxiter, fatol) -> float:
    """Sampled, then Nelder-Mead refined, minimum over distinct cells and
    unit xi of form(<A xi, xi>, <A xi, conj xi>); ``form`` acts on batches."""
    rng = np.random.default_rng(rng)
    best = math.inf
    for Amat in _distinct(_cells(A)):
        n = Amat.shape[-1]

        def values(X):
            Xi = X[..., :n] + 1j * X[..., n:]
            nrm = np.linalg.norm(Xi, axis=-1, keepdims=True)
            Xi = Xi / np.where(nrm < 1e-14, 1.0, nrm)
            AXi = Xi @ Amat.T
            vals = form(np.sum(AXi * Xi.conjugate(), axis=-1), np.sum(AXi * Xi, axis=-1))
            return np.where(nrm[..., 0] < 1e-14, math.inf, vals)

        X = rng.standard_normal((samples, 2 * n))
        vals = values(X)
        order = np.argsort(vals)
        best = min(best, float(vals[order[0]]))
        for idx in order[:refine]:
            res = scipy.optimize.minimize(
                lambda x: float(values(x)), X[idx], method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": 1e-10, "fatol": fatol},
            )
            best = min(best, float(res.fun))
    return best


def mu_oracle(A) -> float:
    """Direct sphere minimization of the mu quotient, from 2048 seeded
    samples with the best 6 refined.

    Points with |<A xi, conj xi>| below ``_MU_GUARD`` are excluded; the
    pencil reduction in :func:`mu` is authoritative, this is a cross-check.
    """
    def quotient(inner, skew):
        den = np.abs(skew)
        return np.where(den < _MU_GUARD, math.inf,
                        inner.real / np.maximum(den, _MU_GUARD))

    return min(_sphere_min(A, quotient, 2048, 6, 3, 600, 1e-12), 1.0)


def p_ellipticity_range(A) -> tuple[float, float]:
    """Open interval of exponents p with |1 - 2/p| < mu(A); endpoints conjugate."""
    return _p_range(mu(A))


def _p_range(m: float) -> tuple[float, float]:
    if m >= 1.0:
        return 1.0, math.inf
    return 2.0 / (1.0 + m), 2.0 / (1.0 - m)


def delta_p_oracle(A, p: float) -> float:
    """Sampled + locally refined minimum of
    Re<A xi, xi> - |1 - 2/p| |<A xi, conj xi>| over the unit sphere:
    1024 seeded samples, the best 3 refined."""
    if not p > 1:
        raise ParameterError("exponent p must satisfy p > 1")
    s = abs(1.0 - 2.0 / p)
    return _sphere_min(A, lambda inner, skew: inner.real - s * np.abs(skew),
                       1024, 3, 7, 800, 1e-13)


# ---------------------------------------------------------------------------
# W_p and closed forms


def _inv_sqrt(U: np.ndarray, message: str) -> np.ndarray:
    """U^{-1/2} for a (stack of) real symmetric positive definite U;
    ``message`` names U in the error raised otherwise."""
    evals, evecs = np.linalg.eigh(U)
    if np.any(evals[..., 0] <= 0):
        raise ValueError(message)
    return (evecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def _script_v_p(V: np.ndarray, p: float) -> np.ndarray:
    return ((p - 2) * sym_part(V) + p * antisym_part(V)) / (2 * math.sqrt(p - 1))


def script_w_p(A, p: float):
    """(W_p(A), ||W_p(A)||); for stacks returns (stack of W_p, sup of norms).

    W_p = S^-1 V_p S^-1 with S the positive square root of (Re A)_s and
    V_p = ((p-2) V_s + p V_a) / (2 sqrt(p-1)); the operator norm of W_p
    is <= 1 exactly when delta_p(A) >= 0.
    """
    if not p > 1:
        raise ParameterError("exponent p must satisfy p > 1")
    mats = _cells(A)
    S_inv = _inv_sqrt(sym_part(mats.real), "(Re A)_s must be positive definite")
    W = S_inv @ _script_v_p(mats.imag, p) @ S_inv
    norms = np.linalg.norm(W, 2, axis=(-2, -1))
    if np.ndim(A.mats if hasattr(A, "mats") else A) == 2:
        return W[0], float(norms[0])
    return W, float(norms.max())


def closed_form_delta(kind: str, params: dict, p: float) -> float:
    """Closed-form special cases.

    'rotation' (phi): cos(phi) - |1 - 2/p|.
    'skew' (w), p >= 2: 1 - sqrt(phat^2 + w^2) with phat = 1 - 2/p.
    'rotated_wp_norm' (B, phi): squared W_p norm of e^{i phi} B,
    tan^2(phi) (||Bs^{-1/2} Ba Bs^{-1/2}||^2 + phat^2) / (1 - phat^2).
    """
    if not p > 1:
        raise ParameterError("exponent p must satisfy p > 1")
    ph = 1.0 - 2.0 / p
    if kind == "rotation":
        return math.cos(params["phi"]) - abs(ph)
    if kind == "skew":
        if p < 2:
            raise ParameterError("skew closed form requires p >= 2")
        return 1.0 - math.sqrt(ph * ph + params["w"] ** 2)
    if kind == "rotated_wp_norm":
        B = np.asarray(params["B"], dtype=float)
        phi = params["phi"]
        S_inv = _inv_sqrt(sym_part(B), "B must have positive definite symmetric part")
        core = np.linalg.norm(S_inv @ antisym_part(B) @ S_inv, 2)
        return math.tan(phi) ** 2 * (core**2 + ph * ph) / (1.0 - ph * ph)
    raise ParameterError(f"unknown closed form kind {kind!r}")


def sector_test_symmetric(A, p: float) -> bool:
    """True iff delta_p(A_s) >= 0, up to the slack ``_SECTOR_TOL``.

    Checked without going through delta_p: the condition is
    |p - 2| |<V alpha, alpha>| <= 2 sqrt(p-1) <U alpha, alpha> for all
    real alpha, i.e. the largest-magnitude eigenvalue of the pencil
    (V_s, U_s) stays below tan of the critical sector angle.
    """
    if not p > 1:
        raise ParameterError("exponent p must satisfy p > 1")
    if abs(p - 2) < 1e-15:
        return True
    mats = _cells(A)
    Us, Vs = sym_part(mats.real), sym_part(mats.imag)
    if np.linalg.eigvalsh(Us)[..., 0].min() <= 0:
        return False
    return _pencil_radius(Vs, Us) <= 2.0 * math.sqrt(p - 1) / abs(p - 2) + _SECTOR_TOL


def ellipticity_report(A, p: float) -> EllipticityReport:
    lam, Lam, nu = accretivity_bounds(A)
    _, wnorm = script_w_p(A, p)
    m = mu(A)
    return EllipticityReport(
        lam=lam,
        Lam=Lam,
        nu=nu,
        p=p,
        delta_p=delta_p(A, p),
        mu=m,
        w_p_norm=wnorm,
        p_range=_p_range(m),
    )
