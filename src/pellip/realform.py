"""Identifications between complex and real linear algebra.

A complex vector in C^n is flattened to R^2n by stacking real over
imaginary parts; a complex n x n matrix becomes a real 2n x 2n block
matrix.  Every quadratic-form computation in this package reduces to
plain real linear algebra through these maps.  All functions broadcast
over leading batch axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vectorize",
    "devectorize",
    "realify",
    "sym_part",
    "antisym_part",
    "rotation_form",
]


def vectorize(xi: np.ndarray) -> np.ndarray:
    """Map a complex n-vector to the real 2n-vector (Re xi, Im xi)."""
    xi = np.asarray(xi, dtype=complex)
    return np.concatenate([xi.real, xi.imag], axis=-1)


def devectorize(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    if m % 2:
        raise ValueError("real vector length must be even")
    n = m // 2
    return x[..., :n] + 1j * x[..., n:]


def realify(A: np.ndarray) -> np.ndarray:
    """Real 2n x 2n block form [[Re A, -Im A], [Im A, Re A]] of a complex matrix.

    Satisfies vectorize(A @ xi) == realify(A) @ vectorize(xi), and is
    multiplicative: realify(A @ B) == realify(A) @ realify(B).
    """
    A = np.asarray(A, dtype=complex)
    top = np.concatenate([A.real, -A.imag], axis=-1)
    bot = np.concatenate([A.imag, A.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _transpose(M: np.ndarray) -> np.ndarray:
    """Plain transpose (no conjugation) of a square matrix or a stack."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("matrix must be square")
    return np.swapaxes(M, -1, -2)


def sym_part(M: np.ndarray) -> np.ndarray:
    """(M + M^T)/2; plain transpose, so it applies to complex M as well."""
    return (M + _transpose(M)) / 2


def antisym_part(M: np.ndarray) -> np.ndarray:
    """(M - M^T)/2; plain transpose, so it applies to complex M as well."""
    return (M - _transpose(M)) / 2


def rotation_form(psi):
    """The symmetric reflection-like 2x2 matrix [[cos, sin], [sin, -cos]](psi).

    Appears as the angular part of the real Hessian of |zeta|^r; squares
    to the identity for every angle.
    """
    c, s = np.cos(psi), np.sin(psi)
    return np.stack(
        [np.stack([c, s], axis=-1), np.stack([s, -c], axis=-1)], axis=-2
    )
