import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellip.realform import (
    antisym_part,
    devectorize,
    realify,
    rotation_form,
    sym_part,
    vectorize,
)

rng = np.random.default_rng(1812)


def cvec(n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def cmat(n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_vectorize_basics():
    assert np.allclose(vectorize(np.array([1 + 2j])), [1.0, 2.0])
    alpha = rng.standard_normal(5)
    assert np.allclose(vectorize(alpha + 0j), np.concatenate([alpha, 0 * alpha]))


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_vectorize_roundtrip_and_inner_product(n):
    z, w = cvec(n), cvec(n)
    assert np.allclose(devectorize(vectorize(z)), z)
    assert np.isclose(np.real(np.vdot(w, z)), vectorize(z) @ vectorize(w))


def test_devectorize_rejects_odd_length():
    with pytest.raises(ValueError):
        devectorize(np.zeros(3))


def test_realify_scalar_i():
    assert np.allclose(realify(np.array([[1j]])), [[0, -1], [1, 0]])


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_realify_homomorphisms(n):
    A, B = cmat(n), cmat(n)
    xi = cvec(n)
    assert np.allclose(vectorize(A @ xi), realify(A) @ vectorize(xi))
    assert np.allclose(realify(A.conj().T), realify(A).T)
    assert np.allclose(realify(A @ B), realify(A) @ realify(B))


def test_sym_antisym_split():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    s, a = sym_part(M), antisym_part(M)
    assert np.allclose(s, [[0, 0.5], [0.5, 0]])
    assert np.allclose(a, [[0, 0.5], [-0.5, 0]])
    M = cmat(4)
    s, a = sym_part(M), antisym_part(M)
    assert np.allclose(s + a, M)
    assert np.allclose(s, s.T) and np.allclose(a, -a.T)
    for bad in (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros(3)):
        with pytest.raises(ValueError):
            sym_part(bad)
        with pytest.raises(ValueError):
            antisym_part(bad)


@pytest.mark.parametrize("psi", [0.0, 0.3, -1.2, 2.9])
def test_rotation_form(psi):
    K = rotation_form(psi)
    assert np.allclose(K, K.T)
    assert np.allclose(K @ K, np.eye(2))
    if psi == 0.0:
        assert np.allclose(K, [[1, 0], [0, -1]])


def test_real_form_quadratic_expansions():
    # Re<A xi, xi> and Re<A xi, conj xi> in terms of U, V blocks
    n = 3
    A = cmat(n)
    U, V = A.real, A.imag
    xi = cvec(n)
    a, b = xi.real, xi.imag
    lhs1 = np.real(np.vdot(xi, A @ xi).conjugate())
    rhs1 = a @ U @ a + b @ U @ b - a @ V @ b + b @ V @ a
    assert np.isclose(lhs1, rhs1)
    lhs2 = np.real(np.sum((A @ xi) * xi))
    rhs2 = a @ U @ a - b @ U @ b - a @ V @ b - b @ V @ a
    assert np.isclose(lhs2, rhs2)


def test_sym_part_antisym_part_shortcuts():
    M = cmat(5)
    T = M.T  # plain transpose, no conjugation
    assert np.allclose(sym_part(M), (M + T) / 2)
    assert np.allclose(antisym_part(M), (M - T) / 2)
    stack = np.stack([cmat(3) for _ in range(4)])
    assert np.allclose(sym_part(stack), np.stack([sym_part(m) for m in stack]))
