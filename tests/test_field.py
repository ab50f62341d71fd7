import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from pellip import ParameterError, VerificationError
from pellip import bellman as bl
from pellip import ellipticity as el
from pellip import field as fd

rng = np.random.default_rng(662607)


# ---------------------------------------------------------------------------
# grids, sampling, calculus


def test_grid_validation():
    with pytest.raises(ValueError):
        fd.Grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        fd.Grid(2, 4, 1.0)
    with pytest.raises(ValueError):
        fd.Grid(2, 16, -1.0)
    with pytest.raises(ValueError):
        fd.Grid(2, 16, 1.0, "neumann")
    # the cell count is bounded before any array is built
    assert fd.Grid(2, 512, 1.0).size == fd.MAX_CELLS
    with pytest.raises(ParameterError):
        fd.Grid(2, 513, 1.0)
    with pytest.raises(ParameterError):
        fd.Grid(2, 100_000, 1.0)
    with pytest.raises(ParameterError):
        fd.Grid(1, fd.MAX_CELLS + 1, 1.0)
    # h = 2 extent / cells enters as h, h^2 and their inverses
    for extent in (1e-300, 1e-200, 1e300, 1e160):
        with pytest.raises(ParameterError, match="out of numeric range"):
            fd.Grid(2, 64, extent)
    for extent in (1e-140, 1e140):
        assert 0 < fd.Grid(2, 64, extent).h ** -2 < math.inf
    g = fd.Grid(2, 16, 2.0)
    assert g.h == 0.25 and g.size == 256
    assert abs(g.axis()[0] + 2.0 - g.h / 2) < 1e-15
    assert fd.Grid(np.int64(1), np.int64(16), 2.0).shape == (16,)
    # sizes are integers: a float cell count was kept as is (shape
    # (16.9, 16.9), size 285.6), and True passed for dim 1
    for dim, cells in [(2, 16.9), (2.9, 16), (2, 16.0), (2.0, 16), (True, 16),
                       (2, "16"), (2, None)]:
        with pytest.raises(ParameterError):
            fd.Grid(dim, cells, 4.0)


def test_gaussian_mass():
    grid = fd.Grid(2, 256, 4.0, "periodic")
    f = fd.sample(grid, lambda X, Y: np.exp(-np.pi * (X**2 + Y**2)))
    assert abs(fd.integrate(f) - 1.0) < 1e-8
    assert abs(fd.lp_norm(f, 2.0) - (0.5) ** 0.5) < 1e-8


def test_gradient_second_order():
    errs = []
    for c in (32, 64, 128):
        grid = fd.Grid(1, c, np.pi, "periodic")
        f = fd.sample(grid, lambda X: np.sin(X))
        g = fd.gradient(f).values[..., 0]
        errs.append(np.abs(g - np.cos(grid.axis())).max())
    assert math.log2(errs[0] / errs[1]) > 1.9
    assert math.log2(errs[1] / errs[2]) > 1.9
    # Dirichlet edges: second-order one-sided stencils are exact on quadratics
    grid = fd.Grid(1, 16, 1.0, "dirichlet")
    f = fd.sample(grid, lambda X: X**2 + 0.5 * X)
    g = fd.gradient(f).values[..., 0]
    assert np.abs(g - (2 * grid.axis() + 0.5)).max() < 1e-12


def test_matrix_field_bounds_and_validation():
    grid = fd.Grid(2, 8, 1.0)
    A = np.eye(2) - 0.6j * np.asarray(el.ROT_GEN)
    F = fd.constant_field(grid, A)
    assert np.array_equal(F.mats, np.broadcast_to(A, (8, 8, 2, 2)))
    with pytest.raises(ValueError):
        fd.constant_field(grid, -np.eye(2))
    with pytest.raises(ValueError):
        fd.MatrixField(grid, np.ones((3, 3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        fd.section7_field(fd.Grid(1, 16, 1.0), 0.5)
    with pytest.raises(ValueError):
        fd.section7_field(grid, 1.5)


def test_matrix_field_construction_computes_no_svd(monkeypatch):
    # accretivity needs lambda = Delta_2 alone: no SVD for Lambda and no
    # nu pencil
    def refuse(*args, **kwargs):
        raise AssertionError("Lambda or nu computed")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(el, "_pencil_radius", refuse)
    F = _random_field(fd.Grid(2, 16, 1.0), 5)
    lam = el.delta_p(F, 2.0)
    assert lam > 0
    with pytest.raises(ValueError, match="lambda <= 0"):
        fd.MatrixField(F.grid, F.mats - 1.5 * lam * np.eye(2))


def _periodic_1d():
    return fd.Grid(1, 16, 2.0)


_FIELDS = {
    "constant": lambda: fd.constant_field(fd.Grid(2, 16, 1.0),
                                          np.eye(2) - 0.6j * el.ROT_GEN),
    "two-value": lambda: fd.two_value_field(
        fd.Grid(2, 16, 1.0), el.rotation_matrix(0.2, 2),
        np.array([[1.0, 0.3j], [-0.1, 1.2]]), lambda X, Y: X * Y > 0.1),
    "two-value-one-present": lambda: fd.two_value_field(
        fd.Grid(2, 16, 1.0), el.rotation_matrix(0.2, 2), np.eye(2) + 0j,
        lambda X, Y: X > 5.0),
    "two-value-equal": lambda: fd.two_value_field(
        fd.Grid(2, 16, 1.0), np.eye(2) + 0j, np.eye(2) + 0j, lambda X, Y: X > 0),
    "section7": lambda: fd.section7_field(fd.Grid(2, 16, 1.0), 0.7),
    "section7-gamma0": lambda: fd.section7_field(fd.Grid(2, 16, 1.0), 0.0),
    "mollified": lambda: fd.mollify(fd.section7_field(fd.Grid(2, 16, 1.0), 0.7), 0.3),
    "random-entries": lambda: _random_field(fd.Grid(2, 12, 1.0), 8),
    "1d-constant": lambda: fd.constant_field(_periodic_1d(), np.array([[np.exp(0.4j)]])),
    "1d-two-value": lambda: fd.two_value_field(
        _periodic_1d(), np.array([[np.exp(0.4j)]]), np.array([[2.0 + 0j]]),
        lambda X: X > 0.5),
    "1d-random-entries": lambda: _random_field(_periodic_1d(), 9),
}


@pytest.mark.parametrize("name", list(_FIELDS))
def test_field_caches_the_distinct_cells_of_a_full_sort(name):
    # same matrices, bit for bit, in the same order as _distinct of every
    # cell: _sphere_min's per-cell draws follow that order
    F = _FIELDS[name]()
    d = F.grid.dim
    want = el._distinct(F.mats.reshape(-1, d, d))
    assert F.distinct.shape == want.shape
    assert F.distinct.tobytes() == want.tobytes()
    assert el._distinct_cells(F) is F.distinct


def test_field_cells_are_read_only():
    grid = fd.Grid(2, 8, 1.0)
    mats = np.broadcast_to(np.eye(2) + 0j, (8, 8, 2, 2)).copy()
    F = fd.MatrixField(grid, mats)
    with pytest.raises(ValueError, match="read-only"):
        F.mats[0, 0] = 0.0
    # the caller's array is copied, not frozen: writing to it leaves F as built
    mats[...] = -1.0
    assert np.array_equal(F.mats, np.broadcast_to(np.eye(2), (8, 8, 2, 2)))
    assert F.distinct.shape == (1, 2, 2)
    for G in (fd.constant_field(grid, np.eye(2)), fd.section7_field(grid, 0.5),
              fd.mollify(fd.section7_field(grid, 0.5), 0.3)):
        with pytest.raises(ValueError, match="read-only"):
            G.mats[...] = 0.0


def test_mollify_errors():
    grid = fd.Grid(2, 16, 1.0, "dirichlet")
    F = fd.constant_field(grid, np.eye(2) + 0j)
    with pytest.raises(ValueError):
        fd.mollify(F, grid.h)
    grid = fd.Grid(2, 16, 1.0, "periodic")
    F = fd.constant_field(grid, np.eye(2) + 0j)
    with pytest.raises(ValueError):
        fd.mollify(F, -1.0)


# ---------------------------------------------------------------------------
# discrete operators


def test_dirichlet_laplacian_tridiagonal():
    grid = fd.Grid(1, 8, 4.0, "dirichlet")
    F = fd.constant_field(grid, np.array([[1.0 + 0j]]))
    L = fd.OperatorMatrix(F).matrix
    h = grid.h
    want = (np.diag(np.full(8, 2.0)) + np.diag(np.full(7, -1.0), 1)
            + np.diag(np.full(7, -1.0), -1)) / h**2
    assert np.allclose(L, want)


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_operator_adjoint_consistency(boundary):
    grid = fd.Grid(2, 8, 1.0, boundary)
    A = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) \
        + 2 * np.eye(2)
    L = fd.OperatorMatrix(fd.constant_field(grid, A)).matrix
    Lstar = fd.OperatorMatrix(
        fd.constant_field(grid, A.conj().T)).matrix
    assert np.abs(L.conj().T - Lstar).max() < 1e-12


def test_summation_by_parts_periodic():
    grid = fd.Grid(2, 16, 2.0, "periodic")
    A = np.eye(2) + 0.4j * np.asarray(el.ROT_GEN)
    F = fd.constant_field(grid, A)
    L = fd.OperatorMatrix(F)
    f = fd.sample(grid, lambda X, Y: np.exp(np.sin(np.pi * X / 2))
                  + 1j * np.cos(np.pi * Y / 2))
    g = fd.sample(grid, lambda X, Y: np.sin(np.pi * X / 2) + np.cos(np.pi * Y / 2))
    lhs = grid.h**2 * np.vdot(g.values.reshape(-1),
                              L.matrix @ f.values.reshape(-1))
    gf, gg = fd.gradient(f).values, fd.gradient(g).values
    rhs = grid.h**2 * np.sum(fd._pairing(F.mats, gf, gg))
    # a pairing far above rounding, with real and imaginary parts (about
    # 21 + 19i), so that a conjugated side cannot pass
    assert abs(rhs.real) > 1 and abs(rhs.imag) > 1
    # <g, L f> = integral of <A grad f, grad g>, no conjugate
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def _random_field(grid, seed):
    """Every cell its own accretive matrix 2I + 0.25 * complex noise."""
    r = np.random.default_rng(seed)
    shape = grid.shape + (grid.dim, grid.dim)
    noise = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    return fd.MatrixField(grid, 2 * np.eye(grid.dim) + 0.25 * noise)


def _variable_field(kind, grid):
    if kind == "section7":
        return fd.section7_field(grid, 0.7)
    return _random_field(grid, 31)


def _dense_reference(A):
    """-div(A grad) term by term with dense matrices: the sum over (j, k)
    of C_j^T diag(a_jk) C_k with centered differences C_j, where a
    Dirichlet grid takes G_j^T diag(a_jj on faces) G_j with forward
    differences G_j to the c + 1 faces (zero ghosts) for j = k."""
    g = A.grid
    c, h, d = g.cells, g.h, g.dim
    periodic = g.boundary == "periodic"
    C = np.zeros((c, c))
    G = np.zeros((c + 1, c))
    for i in range(c):
        if periodic or i + 1 < c:
            C[i, (i + 1) % c] = 1 / (2 * h)
        if periodic or i > 0:
            C[i, (i - 1) % c] = -1 / (2 * h)
        G[i, i], G[i + 1, i] = 1 / h, -1 / h

    def along(D, axis):
        if d == 1:
            return D
        return np.kron(D, np.eye(c)) if axis == 0 else np.kron(np.eye(c), D)

    # face i lies between cells i - 1 and i; wall faces take the wall cell
    lo = np.clip(np.arange(c + 1) - 1, 0, c - 1)
    hi = np.minimum(np.arange(c + 1), c - 1)
    L = np.zeros((g.size, g.size), dtype=complex)
    for j in range(d):
        for k in range(d):
            if j == k and not periodic:
                a = A.mats[..., j, j]
                face = (np.take(a, lo, axis=j) + np.take(a, hi, axis=j)) / 2
                L += along(G, j).T @ np.diag(face.reshape(-1)) @ along(G, j)
            else:
                L += (along(C, j).T @ np.diag(A.mats[..., j, k].reshape(-1))
                      @ along(C, k))
    return L


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim", [1, 2])
def test_operator_matches_dense_reference(boundary, dim):
    grid = fd.Grid(dim, 8, 1.0, boundary)
    fields = [_random_field(grid, 7)]
    if dim == 2:
        fields.append(fd.section7_field(grid, 0.7))
    for F in fields:
        L = fd.OperatorMatrix(F).matrix
        want = _dense_reference(F)
        assert np.abs(L - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("kind", ["section7", "random"])
def test_variable_operator_adjoint_consistency(boundary, kind):
    grid = fd.Grid(2, 8, 1.0, boundary)
    F = _variable_field(kind, grid)
    Fstar = fd.MatrixField(grid, F.mats.conj().swapaxes(-1, -2))
    L = fd.OperatorMatrix(F).matrix
    Lstar = fd.OperatorMatrix(Fstar).matrix
    assert np.abs(L.conj().T - Lstar).max() <= 1e-14 * np.abs(L).max()


@pytest.mark.parametrize("kind", ["section7", "random"])
def test_variable_summation_by_parts_periodic(kind):
    grid = fd.Grid(2, 16, 2.0, "periodic")
    F = _variable_field(kind, grid)
    L = fd.OperatorMatrix(F)
    f = fd.sample(grid, lambda X, Y: np.exp(np.sin(np.pi * X / 2))
                  + 1j * np.cos(np.pi * Y / 2))
    g = fd.sample(grid, lambda X, Y: np.sin(np.pi * (X + Y) / 2))
    lhs = grid.h**2 * np.vdot(g.values.reshape(-1),
                              L.matrix @ f.values.reshape(-1))
    gf, gg = fd.gradient(f).values, fd.gradient(g).values
    rhs = grid.h**2 * np.sum(fd._pairing(F.mats, gf, gg))
    # <g, L f> = integral of <A grad f, grad g>, no conjugate
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_numerical_range_in_sector():
    grid = fd.Grid(1, 32, 2.0, "periodic")
    phi = 0.8
    F = fd.constant_field(grid, np.array([[np.exp(1j * phi)]]))
    L = fd.OperatorMatrix(F).matrix
    for _ in range(20):
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        z = np.vdot(u, L @ u)
        if abs(z) > 1e-12:
            assert abs(np.angle(z)) <= phi + 1e-9


def test_semigroup_identity_and_decay():
    grid = fd.Grid(1, 64, np.pi, "periodic")
    F = fd.constant_field(grid, np.array([[1.0 + 0j]]))
    L = fd.OperatorMatrix(F)
    f = fd.sample(grid, lambda X: np.exp(1j * X) + 0.3 * np.sin(2 * X))
    assert np.allclose(fd.semigroup_apply(L, 0.0, f).values, f.values)
    n0 = fd.lp_norm(f, 2.0)
    n1 = fd.lp_norm(fd.semigroup_apply(L, 0.5, f), 2.0)
    n2 = fd.lp_norm(fd.semigroup_apply(L, 2.0, f), 2.0)
    assert n1 < n0 and n2 < n1
    with pytest.raises(ValueError):
        fd.semigroup_apply(L, -1.0, f)


def test_semigroup_fourier_mode_decay():
    grid = fd.Grid(1, 64, np.pi, "periodic")
    F = fd.constant_field(grid, np.array([[1.0 + 0j]]))
    L = fd.OperatorMatrix(F)
    x = grid.axis()
    for k in (1, 3, 7):
        v = np.exp(1j * k * x)
        lam_k = (np.vdot(v, L.matrix @ v) / np.vdot(v, v)).real
        got = fd.semigroup_apply(L, 0.7, fd.GridFunction(grid, v)).values
        assert np.abs(got - math.exp(-0.7 * lam_k) * v).max() < 1e-12


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("cells", [64, 128, 192])
def test_semigroup_matches_exact_reference(boundary, cells):
    # L = a S with S real symmetric, so e^{-tL} = V e^{-t a s} V^T from
    # eigh(S).  Eigenvalues from eigh carry an absolute error ~u ||L||,
    # which the flow turns into ~t u ||L||: measured at most 5.7e-13 ||f||
    # over the heat times, largest at 192 periodic cells, where the
    # reference's own eigh dominates (the DFT factor there is within
    # 4.6e-15 of an extended-precision flow)
    grid = fd.Grid(1, cells, 6.0, boundary)
    a = 1.3 * np.exp(0.7j)
    S = fd.OperatorMatrix(fd.constant_field(grid, np.array([[1.0]]))).matrix
    assert not S.imag.any() and np.array_equal(S, S.T)
    s, V = np.linalg.eigh(S.real)
    L = fd.OperatorMatrix(fd.constant_field(grid, np.array([[a]])))
    x = grid.axis()
    f = fd.GridFunction(grid, np.exp(-x * x) * np.exp(0.4j * x))
    for t in fd._HEAT_TIMES:
        want = V @ (np.exp(-t * a * s) * (V.T @ f.values))
        got = fd.semigroup_apply(L, t, f).values
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(f.values)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that its calls are counted; returns the list of
    calls and the original function."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls, orig


def test_semigroup_fallback_for_nonnormal_operators(monkeypatch):
    # variable coefficients make L far from normal (off-diagonal share of
    # the eigh factor 0.21), so e^{-tD} of the full D = Q^H L Q is taken by
    # expm; measured at most 3.1e-14 ||f|| from the dense oracle
    expm_calls, expm = _count_calls(monkeypatch, scipy.linalg, "expm")
    grid = fd.Grid(1, 32, np.pi, "dirichlet")
    x = grid.axis()
    a = (1.5 + np.cos(x)) * np.exp(0.3j * np.sin(2 * x))
    L = fd.OperatorMatrix(fd.MatrixField(grid, a[:, None, None]))
    f = fd.GridFunction(grid, np.exp(-x * x) * (1 + 0.3j * np.sin(x)))
    for t in fd._HEAT_TIMES:
        want = expm(-t * L.matrix) @ f.values
        got = fd.semigroup_apply(L, t, f).values
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(f.values)
    assert len(expm_calls) == len(fd._HEAT_TIMES)

    # a constant coefficient gives a normal L: diagonal path, no expm
    expm_calls.clear()
    const = fd.OperatorMatrix(fd.constant_field(grid, np.array([[1.5]])))
    for t in fd._HEAT_TIMES:
        fd.semigroup_apply(const, t, f)
    assert expm_calls == []


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_single_phase_variable_operator_is_diagonalized_by_eigh(boundary, monkeypatch):
    # A = e^{ia} b(x) with b real makes L = e^{ia} S, S real symmetric: a
    # normal operator that no transform diagonalizes.  The eigenvectors
    # of its Hermitian part cos(a) S are those of L (off-diagonal share
    # measured at most 1.1e-15 at 64 cells), so the factor is diagonal, no
    # expm runs, and the flow matches dense expm (at most 7.0e-14 ||f||)
    expm_calls, expm = _count_calls(monkeypatch, scipy.linalg, "expm")
    grid = fd.Grid(1, 64, np.pi, boundary)
    x = grid.axis()
    L = fd.OperatorMatrix(
        fd.MatrixField(grid, (np.exp(0.5j) * (1.5 + np.cos(x)))[:, None, None]))
    f = np.exp(-x * x) * (1 + 0.3j * np.sin(x))
    got = fd._propagator(L, fd._HEAT_TIMES, f.reshape(-1, 1))[:, 0, :]
    assert L._factor[0] is not None and L._factor[1].ndim == 1 and expm_calls == []
    for t, col in zip(fd._HEAT_TIMES, got.T):
        want = expm(-t * L.matrix) @ f
        assert np.linalg.norm(col - want) <= 1e-12 * np.linalg.norm(f)


def _count_factors(monkeypatch):
    """Count the computations of OperatorMatrix._factor (diagonal or
    full D alike); returns the list of calls."""
    orig = fd.OperatorMatrix._factor.func
    calls = []

    def counted(self):
        calls.append(1)
        return orig(self)
    prop = functools.cached_property(counted)
    prop.__set_name__(fd.OperatorMatrix, "_factor")
    monkeypatch.setattr(fd.OperatorMatrix, "_factor", prop)
    return calls


def test_heat_flow_factors_each_operator_once(monkeypatch):
    factor_calls = _count_factors(monkeypatch)
    grid = fd.Grid(1, 32, 6.0, "periodic")
    A = fd.constant_field(grid, np.array([[np.exp(0.3j)]]))
    f, g = _gaussian_pair(grid)
    fd.heat_flow_experiment(A, A, f, g, p=3.0)
    assert len(factor_calls) == 1
    # an equal-valued but distinct field is a second operator
    factor_calls.clear()
    B = fd.constant_field(grid, np.array([[np.exp(0.3j)]]))
    fd.heat_flow_experiment(A, B, f, g, p=3.0)
    assert len(factor_calls) == 2
    # a variable field takes the eigh factor, also once per operator:
    # one N x N eigh for the operator of V, none for that of A
    x = grid.axis()
    v = (1.5 + np.cos(x)) * np.exp(0.3j * np.sin(2 * x))
    V = fd.MatrixField(grid, v[:, None, None])
    eigh = np.linalg.eigh
    operator_eighs = []

    def counted(M, *args, **kwargs):
        operator_eighs.append(M.shape[-1] == grid.size)
        return eigh(M, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    for B, factors in ((V, 1), (A, 2)):
        factor_calls.clear()
        operator_eighs.clear()
        fd.heat_flow_experiment(V, B, f, g, p=3.0)
        assert len(factor_calls) == factors and sum(operator_eighs) == 1
    # the factor belongs to the operator's entries, which stay fixed
    L = fd.OperatorMatrix(A)
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 0.0


def test_periodic_assembly_builds_no_face_gradient(monkeypatch):
    # the Dirichlet face-flux difference is read on Dirichlet grids only
    def refuse(*args, **kwargs):
        raise AssertionError("_face_grad_1d called")
    monkeypatch.setattr(fd, "_face_grad_1d", refuse)
    for dim in (1, 2):
        grid = fd.Grid(dim, 16, 3.0, "periodic")
        r = np.random.default_rng(dim)
        mats = np.eye(dim) * (1.0 + r.uniform(0, 0.5, grid.shape + (1, 1)))
        fd.OperatorMatrix(fd.MatrixField(grid, mats))


_SKEW_A = np.eye(2) + 0.3j * np.array([[1.0, 0.5], [0.5, -1.0]])


def _skew_2d(cells, boundary):
    # periodic, a normal operator whose Hermitian part is degenerate where
    # L is not: the symbol is |s|^2 + 0.3i (s1^2 + s1 s2 - s2^2), so modes
    # with equal |s| (swapped or sign-flipped s) share Re but not Im of the
    # eigenvalue
    grid = fd.Grid(2, cells, 3.0, boundary)
    X, Y = grid.meshes()
    f = fd.GridFunction(grid, np.exp(-X**2 - 0.5 * Y**2) * (1 + 0.3j * X))
    return fd.OperatorMatrix(fd.constant_field(grid, _SKEW_A)), f


def test_normal_operator_with_degenerate_hermitian_part_is_diagonalized(monkeypatch):
    # the periodic skew operator is circulant, so its factor is the DFT
    # with closed-form eigenvalues: the diagonal path, with no expm
    expm_calls, expm = _count_calls(monkeypatch, scipy.linalg, "expm")
    L, f = _skew_2d(24, "periodic")
    got = fd._propagator(L, fd._HEAT_TIMES, f.values.reshape(-1, 1))[:, 0, :]
    assert L._factor[1].ndim == 1 and expm_calls == []
    # L is block circulant with circulant blocks, so the 2-D DFT of its
    # first column gives its eigenvalues: an exact reference at every time
    lam = np.fft.fft2(L.matrix[:, 0].reshape(L.grid.shape))
    nf = np.linalg.norm(f.values)
    for t, col in zip(fd._HEAT_TIMES, got.T):
        want = np.fft.ifft2(np.exp(-t * lam) * np.fft.fft2(f.values))
        assert np.linalg.norm(col - want.reshape(-1)) <= 1e-12 * nf
    # and dense expm at the first, a middle and the last nonzero time
    for j in (1, 20, len(fd._HEAT_TIMES) - 1):
        want = expm(-fd._HEAT_TIMES[j] * L.matrix) @ f.values.reshape(-1)
        assert np.linalg.norm(got[:, j] - want) <= 1e-12 * nf
    # on a Dirichlet grid A = diag(e^{ia}, e^{-ia}) gives L = e^{ia} S1 +
    # e^{-ia} S2 with S1, S2 the commuting second differences along the
    # axes: normal, while modes with swapped indices share Re but not Im
    # of the eigenvalue, so the eigenvectors of the Hermitian part would
    # mix modes of distinct eigenvalues (off-diagonal share 0.13).  The
    # DST-I diagonalizes S1 and S2 alike: no eigh, no expm, and the flow
    # matches expm
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    grid = fd.Grid(2, 16, 3.0, "dirichlet")
    A = fd.constant_field(grid, np.diag([np.exp(0.3j), np.exp(-0.3j)]))
    X, Y = grid.meshes()
    f = np.exp(-X**2 - 0.5 * Y**2).reshape(-1) * (1 + 0.3j * X.reshape(-1))
    L = fd.OperatorMatrix(A)
    got = fd._propagator(L, fd._HEAT_TIMES, f.reshape(-1, 1))[:, 0, :]
    assert L._factor[0] is None and L._factor[1].ndim == 1 and expm_calls == []
    for j in (1, 20, len(fd._HEAT_TIMES) - 1):
        want = expm(-fd._HEAT_TIMES[j] * L.matrix) @ f
        assert np.linalg.norm(got[:, j] - want) <= 1e-12 * np.linalg.norm(f)


def _transform_case(case):
    """A grid and a constant coefficient on it that the grid's transform
    diagonalizes: periodic, 1-D at 192 cells or the skew matrix at 64^2,
    the dense cap, or at 128^2, above it; Dirichlet (mixed terms that
    cancel), 1-D at 192 cells, diag(e^{0.3i}, e^{-0.3i}) at 48^2 or
    I + 0.6i R at 32^2."""
    boundary = "dirichlet" if case.startswith("dirichlet-") else "periodic"
    shape = case.removeprefix("dirichlet-")
    if shape == "1d-192":
        return fd.Grid(1, 192, 6.0, boundary), np.array([[1.3 * np.exp(0.7j)]])
    if shape == "2d-48":
        return fd.Grid(2, 48, 3.0, boundary), np.diag([np.exp(0.3j), np.exp(-0.3j)])
    if shape == "2d-32":
        return fd.Grid(2, 32, 3.0, boundary), el.skew_matrix(0.6)
    return fd.Grid(2, 128 if shape == "2d-128" else 64, 3.0, boundary), _SKEW_A


_TRANSFORM_CASES = ["1d-192", "2d-64", "dirichlet-1d-192", "dirichlet-2d-48",
                    "dirichlet-2d-32"]


def _reference_flow(L):
    """(t, f) -> e^{-tL} f for a grid-shaped f, by a route independent of
    the factor: on a periodic grid the DFT of the first column of the
    circulant L gives its eigenvalues; on a Dirichlet grid L is sum_j a_jj
    T_j (checked against the assembled matrix), T the 1-D second
    difference, and eigh(T) gives a real orthogonal basis along each axis."""
    g = L.grid
    if g.boundary == "periodic":
        lam = np.fft.fftn(L.matrix[:, 0].reshape(g.shape))
        return lambda t, f: np.fft.ifftn(np.exp(-t * lam) * np.fft.fftn(f))
    one = fd.Grid(1, g.cells, g.extent, "dirichlet")
    T = fd.OperatorMatrix(fd.constant_field(one, np.ones((1, 1)))).matrix.real
    a = np.diagonal(L.field.distinct[0])
    s, V = np.linalg.eigh(T)
    if g.dim == 1:
        M, lam = a[0] * T, a[0] * s
    else:
        eye = np.eye(g.cells)
        M = a[0] * np.kron(T, eye) + a[1] * np.kron(eye, T)
        lam = a[0] * s[:, None] + a[1] * s[None, :]
    assert np.abs(L.matrix - M).max() <= 1e-15 * np.abs(M).max()

    def flow(t, f):
        w = np.exp(-t * lam) * (V.T @ f if g.dim == 1 else V.T @ f @ V)
        return V @ w if g.dim == 1 else V @ w @ V.T
    return flow


@pytest.mark.parametrize("case", _TRANSFORM_CASES)
def test_constant_periodic_operator_is_factored_by_the_dft(case, monkeypatch):
    # a constant field is diagonalized by its grid's transform: the DFT on
    # a periodic grid, where L is circulant, and the DST-I on a Dirichlet
    # grid whose mixed terms cancel.  The eigenvalues have a closed form,
    # so no eigh runs and no N x N array is formed besides L.matrix.  The
    # 64^2 periodic skew operator, at the dense cap, is normal, yet its
    # eigh factor measured an off-diagonal share of 1.2e-12, over
    # _NORMAL_TOL, and took one expm per time
    grid, a = _transform_case(case)
    A = fd.constant_field(grid, a)
    want = _reference_flow(fd.OperatorMatrix(A))  # runs eigh: before the patch

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    L = fd.OperatorMatrix(A)
    X = grid.meshes()
    f = np.exp(-sum(c * c for c in X)) * (1 + 0.3j * X[0])
    tracemalloc.start()
    try:
        got = fd._propagator(L, fd._HEAT_TIMES, f.reshape(-1, 1))[:, 0, :]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L._factor[0] is None and L._factor[1].ndim == 1
    # factor and flow together (measured 0.66 of it at 192 periodic cells,
    # 0.03 at 64^2) stay below the size of one N x N complex array
    assert peak < L.matrix.nbytes
    nf = np.linalg.norm(f)
    for t, col in zip(fd._HEAT_TIMES, got.T):
        assert np.linalg.norm(col - want(t, f).reshape(-1)) <= 1e-12 * nf


@pytest.mark.parametrize("case", _TRANSFORM_CASES + ["2d-128"])
def test_circulant_operator_is_never_assembled(case, monkeypatch):
    # the transform factor reads the field's one value: a heat flow, a
    # semigroup step and the contractivity probe build no stencil, and the
    # dense matrix stays unassembled, also above its cap (2d-128)
    def refuse(*args, **kwargs):
        raise AssertionError("operator assembled")
    monkeypatch.setattr(fd, "_centered_1d", refuse)
    monkeypatch.setattr(fd, "_face_grad_1d", refuse)
    grid, a = _transform_case(case)
    A = fd.constant_field(grid, a)
    X = grid.meshes()
    r2 = sum(c * c for c in X)
    f = fd.GridFunction(grid, np.exp(-r2) * (1 + 0.3j * X[0]))
    g = fd.GridFunction(grid, np.exp(-0.5 * r2) + 0j)
    out = fd.heat_flow_experiment(A, A, f, g, p=3.0)
    assert out["monotone"] and out["budget_ok"]
    L = fd.OperatorMatrix(A)
    assert np.linalg.norm(fd.semigroup_apply(L, 0.5, f).values) > 0
    assert fd.contractivity_probe(L, 3.0, 0.5) > 0
    assert "matrix" not in vars(L)


@pytest.mark.parametrize("case", ["dirichlet", "variable"])
def test_noncirculant_operator_is_assembled_once(case, monkeypatch):
    # the eigh factor reads the dense matrix, which is assembled on its
    # first read, whichever of the two comes first, and then kept
    calls, _ = _count_calls(monkeypatch, fd, "_centered_1d")
    if case == "dirichlet":  # mixed terms that do not cancel: no DST factor
        A = fd.constant_field(fd.Grid(2, 12, 3.0, "dirichlet"), _SKEW_A)
    else:
        A = fd.section7_field(fd.Grid(2, 12, 3.0, "periodic"), 0.5)
    for first in ("matrix", "_factor"):
        calls.clear()
        L = fd.OperatorMatrix(A)
        assert calls == [] and L.field is A and L.grid is A.grid
        getattr(L, first)
        M = L.matrix
        assert L._factor[0] is not None
        fd.semigroup_apply(L, 0.5, fd.GridFunction(A.grid, np.ones(A.grid.shape)))
        assert L.matrix is M and len(calls) == 1


def _random_constant_case(r, dim, boundary):
    """A grid (8-40 cells in 1-D, 8-16 per axis in 2-D, extent 0.5-20) and
    a random accretive constant coefficient on it: r e^{i phi}, |phi| <
    1.4, in 1-D.  In 2-D, periodic: H + iK with H positive definite and K
    Hermitian; Dirichlet: diag(d) + w R, mixed terms -w and w that cancel,
    with |arg d_j| < 1.4 and |Im w| below the root of Re d_0 Re d_1."""
    cells = int(r.integers(8, 41 if dim == 1 else 17))
    grid = fd.Grid(dim, cells, float(np.exp(r.uniform(np.log(0.5), np.log(20.0)))),
                   boundary)
    if dim == 1:
        return grid, np.array([[np.exp(r.uniform(np.log(0.2), np.log(5.0))
                                       + 1j * r.uniform(-1.4, 1.4))]])
    if boundary == "dirichlet":
        d = np.exp(r.uniform(np.log(0.2), np.log(5.0), 2) + 1j * r.uniform(-1.4, 1.4, 2))
        y = 0.9 * r.uniform(-1.0, 1.0) * np.sqrt(d[0].real * d[1].real)
        return grid, np.diag(d) + (r.uniform(-2.0, 2.0) + 1j * y) * el.ROT_GEN
    B, K = (r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2)) for _ in range(2))
    return grid, B @ B.conj().T + 0.1 * np.eye(2) + 1j * (K + K.conj().T)


@pytest.mark.parametrize("dim, boundary",
                         [(1, "periodic"), (2, "periodic"), (1, "dirichlet"), (2, "dirichlet")],
                         ids=["1", "2", "dirichlet-1", "dirichlet-2"])
def test_dft_factor_matches_dense_expm(dim, boundary):
    # the transform factor (DFT, or DST-I on Dirichlet grids) against
    # expm(-tL) of the assembled matrix: measured at most 1.9e-13 ||f||
    # (2-D periodic, 16^2 cells, extent 0.5, t = 5, where ||tL|| is
    # largest; 2.4e-15 on Dirichlet grids) and, at t = 0, a round trip
    # through the transform, at most 6.5e-16 ||f||
    r = np.random.default_rng(20 + dim + (10 if boundary == "dirichlet" else 0))
    for _ in range(10):
        grid, a = _random_constant_case(r, dim, boundary)
        L = fd.OperatorMatrix(fd.constant_field(grid, a))
        assert L._factor[0] is None
        f = fd.GridFunction(grid, r.standard_normal(grid.shape)
                            + 1j * r.standard_normal(grid.shape))
        nf = np.linalg.norm(f.values)
        assert np.linalg.norm(fd.semigroup_apply(L, 0.0, f).values - f.values) <= 1e-15 * nf
        for t in (1e-3, 0.3, 5.0):
            want = scipy.linalg.expm(-t * L.matrix) @ f.values.reshape(-1)
            got = fd.semigroup_apply(L, t, f).values.reshape(-1)
            assert np.linalg.norm(got - want) <= 1e-12 * nf


def test_nonnormal_2d_operator_takes_expm_per_time(monkeypatch):
    # Dirichlet walls make the mixed terms non-normal (off-diagonal share
    # of the eigh factor 0.13): full D, one expm per time
    expm_calls, expm = _count_calls(monkeypatch, scipy.linalg, "expm")
    L, f = _skew_2d(12, "dirichlet")
    got = fd._propagator(L, fd._HEAT_TIMES, f.values.reshape(-1, 1))[:, 0, :]
    assert L._factor[1].ndim == 2
    assert len(expm_calls) == len(fd._HEAT_TIMES)
    for t, col in zip(fd._HEAT_TIMES, got.T):
        want = expm(-t * L.matrix) @ f.values.reshape(-1)
        assert np.linalg.norm(col - want) <= 1e-13 * np.linalg.norm(f.values)


def _variable_dirichlet(cells):
    grid = fd.Grid(1, cells, np.pi, "dirichlet")
    x = grid.axis()
    a = (1.5 + np.cos(x)) * np.exp(0.3j * np.sin(2 * x))
    return fd.MatrixField(grid, a[:, None, None])


@pytest.mark.parametrize("normal", [True, False])
def test_batched_flow_matches_semigroup_apply(normal):
    if normal:
        A = fd.constant_field(fd.Grid(1, 64, 6.0, "periodic"), np.array([[np.exp(0.7j)]]))
    else:
        A = _variable_dirichlet(32)
    L = fd.OperatorMatrix(A)
    assert (L._factor[1].ndim == 1) == normal
    f, _ = _gaussian_pair(A.grid)
    got = fd._propagator(L, fd._HEAT_TIMES, f.values.reshape(-1, 1))
    assert got.shape == (A.grid.size, 1, len(fd._HEAT_TIMES))
    for t, col in zip(fd._HEAT_TIMES, got[:, 0, :].T):
        want = fd.semigroup_apply(L, t, f).values
        assert np.linalg.norm(col - want) <= 1e-13 * np.linalg.norm(f.values)


def _semigroup_case(case):
    """A coefficient field and whether its operator is normal."""
    if case == "1d-constant-periodic":
        grid = fd.Grid(1, 64, 6.0, "periodic")
        return fd.constant_field(grid, np.array([[np.exp(0.7j)]])), True
    if case == "1d-variable-dirichlet":
        return _variable_dirichlet(32), False
    boundary = case.split("-")[-1]
    grid = fd.Grid(2, 16 if boundary == "periodic" else 12, 3.0, boundary)
    return fd.constant_field(grid, _SKEW_A), boundary == "periodic"


_SEMIGROUP_CASES = ["1d-constant-periodic", "2d-skew-periodic",
                    "1d-variable-dirichlet", "2d-skew-dirichlet"]


@pytest.mark.parametrize("case", _SEMIGROUP_CASES)
def test_semigroup_law_and_duality(case):
    # e^{-(s+t)L} f = e^{-sL} e^{-tL} f, and <e^{-tL_A} f, h> =
    # <f, e^{-tL_A*} h> (L_A* = L_A^H); both measured at most 7.6e-16
    # relative on these operators
    A, normal = _semigroup_case(case)
    grid = A.grid
    L = fd.OperatorMatrix(A)
    Lstar = fd.OperatorMatrix(fd.MatrixField(grid, A.mats.conj().swapaxes(-1, -2)))
    assert (L._factor[1].ndim == 1) == normal == (Lstar._factor[1].ndim == 1)
    r = np.random.default_rng(11)
    f, h = (fd.GridFunction(grid, r.standard_normal(grid.shape)
                            + 1j * r.standard_normal(grid.shape)) for _ in range(2))
    nf, nh = np.linalg.norm(f.values), np.linalg.norm(h.values)
    for s, t in ((1e-3, 0.2), (0.7, 2.3), (5.0, 35.0)):
        whole = fd.semigroup_apply(L, s + t, f).values
        steps = fd.semigroup_apply(L, s, fd.semigroup_apply(L, t, f)).values
        assert np.linalg.norm(whole - steps) <= 1e-12 * nf
    for t in (0.2, 3.0, 40.0):
        lhs = np.vdot(h.values, fd.semigroup_apply(L, t, f).values)
        rhs = np.vdot(fd.semigroup_apply(Lstar, t, h).values, f.values)
        assert abs(lhs - rhs) <= 1e-12 * nf * nh


def test_nonnormal_operators_need_no_schur_factor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.schur called")
    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    A = _variable_dirichlet(32)
    L = fd.OperatorMatrix(A)
    assert L._factor[1].ndim == 2
    f, g = _gaussian_pair(A.grid)
    assert np.linalg.norm(fd.semigroup_apply(L, 0.5, f).values) > 0
    out = fd.heat_flow_experiment(A, A, f, g, p=3.0)
    assert out["monotone"] and out["budget_ok"]
    # the probe's 81 flows, forward and adjoint, share one t: one expm
    expm_calls, _ = _count_calls(monkeypatch, scipy.linalg, "expm")
    assert fd.contractivity_probe(fd.OperatorMatrix(A), 3.0, 0.5) > 0
    assert len(expm_calls) == 1


@pytest.mark.parametrize("case", ["normal", "nonnormal"])
def test_heat_flow_matches_the_per_step_reference(case):
    # the loop the batched flow replaced: one semigroup_apply per operator
    # and time, the integrands evaluated one time at a time
    if case == "normal":
        grid = fd.Grid(1, 64, 6.0, "periodic")
        A = fd.constant_field(grid, np.array([[np.exp(0.3j)]]))
        B = fd.constant_field(grid, np.array([[np.exp(-0.2j)]]))
    else:
        A = B = _variable_dirichlet(32)
        grid = A.grid
    f, g = _gaussian_pair(grid)
    out = fd.heat_flow_experiment(A, B, f, g, p=3.0)
    params = bl.BellmanParams(3.0, out["delta"])
    LA, LB = fd.OperatorMatrix(A), fd.OperatorMatrix(B)
    energy, bilinear = [], []
    for t in fd._HEAT_TIMES:
        ft = fd.semigroup_apply(LA, t, f)
        gt = fd.semigroup_apply(LB, t, g)
        energy.append(float(np.real(fd.integrate(fd.GridFunction(
            grid, bl.bellman_value(params, ft.values, gt.values))))))
        nf = np.linalg.norm(fd.gradient(ft).values, axis=-1)
        ng = np.linalg.norm(fd.gradient(gt).values, axis=-1)
        bilinear.append(float(grid.h * np.sum(nf * ng)))
    for got, want in ((out["energy"], energy), (out["bilinear"], bilinear)):
        assert got.shape == (len(fd._HEAT_TIMES),)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# dissipativity


def test_dissipativity_p2_identity_matrix():
    grid = fd.Grid(2, 32, np.pi, "periodic")
    F = fd.constant_field(grid, np.eye(2) + 0j)
    f = fd.sample(grid, lambda X, Y: np.exp(np.sin(X)) + 1j * np.cos(Y))
    val, comp = fd.dissipativity_functional(F, f, 2.0)
    gf = fd.gradient(f).values
    want = grid.h**2 * np.sum(np.abs(gf) ** 2)
    assert abs(val - want) < 1e-10 * want
    assert abs(comp - want) < 1e-10 * want


def test_dissipativity_rejects_small_p():
    grid = fd.Grid(1, 16, 1.0)
    F = fd.constant_field(grid, np.array([[1.0 + 0j]]))
    f = fd.sample(grid, lambda X: np.sin(np.pi * X))
    with pytest.raises(ValueError):
        fd.dissipativity_functional(F, f, 1.5)


def test_lp_norm_at_infinity_is_the_largest_modulus():
    grid = fd.Grid(1, 16, 1.0)
    f = fd.sample(grid, lambda X: (X - 0.2) * np.exp(1j * X))
    assert fd.lp_norm(f, math.inf) == np.abs(f.values).max()
    assert fd.lp_norm(f, 400.0) == pytest.approx(fd.lp_norm(f, math.inf), rel=1e-2)



@pytest.mark.parametrize("amplitude", [1.0, 3.0])
@pytest.mark.parametrize("p", [700.0, 3e5, 1e6])
def test_lp_norm_at_large_p_is_the_scaled_sum(p, amplitude):
    # sum |f|^p underflowed to 0 for e^{-x^2} from p ~ 3e5 and overflowed
    # to inf for 3 e^{-x^2} from p ~ 700; the reference sums in logs
    grid = fd.Grid(1, 64, 4.0)
    f = fd.sample(grid, lambda X: amplitude * np.exp(-X * X) * np.exp(0.3j * X))
    log_terms = p * np.log(np.abs(f.values))
    top = log_terms.max()
    want = math.exp((math.log(grid.h) + top + math.log(np.exp(log_terms - top).sum())) / p)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = fd.lp_norm(f, p)  # terms far below the largest may underflow
    assert got == pytest.approx(want, rel=1e-13)
    assert fd.lp_norm(fd.GridFunction(grid, 0.0 * f.values), p) == 0.0

def test_dense_matrix_refuses_more_than_4096_cells():
    F = fd.constant_field(fd.Grid(2, 65, 4.0), np.eye(2))
    with pytest.raises(ParameterError, match="too large for dense storage"):
        fd.OperatorMatrix(F).matrix
    # a variable field takes the eigh factor, which reads the dense matrix:
    # the operator is built, and the flow refuses when it first reads the
    # factor, which stays uncomputed
    grid = fd.Grid(2, 65, 4.0, "periodic")
    X, _ = grid.meshes()
    V = fd.MatrixField(grid, (1.5 + np.cos(X))[..., None, None] * np.eye(2))
    f, g = (fd.GridFunction(grid, np.exp(-c * X**2) + 0j) for c in (1.0, 0.5))
    L = fd.OperatorMatrix(V)
    with pytest.raises(ParameterError, match="too large for dense storage"):
        fd.semigroup_apply(L, 0.5, f)
    with pytest.raises(ParameterError, match="too large for dense storage"):
        fd.heat_flow_experiment(V, V, f, g, p=3.0)
    assert "_factor" not in vars(L) and "matrix" not in vars(L)


def test_flow_over_its_budget_is_refused_before_allocating():
    # a constant field at MAX_CELLS is factored by the DFT and never reads
    # the dense matrix, but its 41-time flow would hold MAX_CELLS x 41
    # complex values per function (172 MB): the flow refuses it before it
    # allocates, or computes the factor
    grid = fd.Grid(1, fd.MAX_CELLS, 6.0, "periodic")
    A = fd.constant_field(grid, np.array([[np.exp(0.3j)]]))
    x = grid.axis()
    f, g = (fd.GridFunction(grid, np.exp(-c * x * x) + 0j) for c in (1.0, 0.5))
    assert grid.size * len(fd._HEAT_TIMES) > fd._FLOW_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="entries exceeds"):
            fd.heat_flow_experiment(A, A, f, g, p=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes  # one grid function, 4.2 MB; measured 4.1 kB
    L = fd.OperatorMatrix(A)
    with pytest.raises(ParameterError, match="entries exceeds"):
        fd._propagator(L, fd._HEAT_TIMES, f.values.reshape(-1, 1))
    assert "_factor" not in vars(L)
    # one time fits: a semigroup step on the same grid runs
    assert np.linalg.norm(fd.semigroup_apply(L, 0.5, f).values) > 0


def test_polar_decomposition_real_field():
    # for the identity field the rotational term vanishes and the value
    # equals the two elliptic terms
    grid = fd.Grid(2, 64, 4.0, "periodic")
    F = fd.constant_field(grid, np.eye(2) + 0j)
    r, grad_r, grad_phi = fd.random_polar_probe(grid, rng)
    for p in (2.0, 3.5, 6.0):
        value, terms = fd.dissipativity_from_polar(F, p, r, grad_r, grad_phi)
        assert abs(terms[2]) < 1e-15
        assert abs(value - (terms[0] + terms[1])) < 1e-10 * max(1.0, abs(value))


def test_polar_decomposition_rotational_field():
    grid = fd.Grid(2, 64, 4.0, "periodic")
    F = fd.section7_field(grid, 0.7)
    for seed in range(5):
        r, grad_r, grad_phi = fd.random_polar_probe(grid, seed)
        value, terms = fd.dissipativity_from_polar(F, 4.0, r, grad_r, grad_phi)
        assert abs(value - sum(terms)) < 1e-10 * max(1.0, abs(value))
        assert terms[0] >= 0 and terms[1] >= 0


@pytest.mark.parametrize("dim, A", [
    (2, 2.0 * np.eye(2)),
    (2, np.array([[1.0, 0.3j], [0.3j, 1.0]])),  # Im A symmetric
    (1, np.array([[2.0 + 0.5j]])),
])
def test_polar_decomposition_rejects_other_fields(dim, A):
    # the terms assume A = I + i w R; on these fields they summed to 4.569,
    # 4.569 and 1.861 against values 9.139, 4.352 and 3.721
    grid = fd.Grid(dim, 64, 4.0, "periodic")
    r, grad_r, grad_phi = fd.random_polar_probe(grid, 3)
    F = fd.constant_field(grid, A)
    with pytest.raises(ParameterError):
        fd.dissipativity_from_polar(F, 4.0, r, grad_r, grad_phi)


def test_identity_checks_and_refinement():
    params = bl.BellmanParams(p=3.0, delta=0.05)
    A, B, f, g = fd.default_identity_case(64)
    res = fd.identity_checks(A, B, f, g, params)
    assert res["antisymmetric_divfree"] < 1e-12
    assert res["hessian_identity"] < 1e-2
    assert res["chain_rule"] < 1e-2
    study = fd.refinement_study(params)
    for key in ("hessian_identity", "chain_rule"):
        assert all(o >= 1.9 for o in study["orders"][key])


# ---------------------------------------------------------------------------
# the rotational counterexample


def test_counterexample_analytic_terms():
    p, gamma = 8.0, 0.8
    (out,) = fd.counterexample_section7(p, [gamma])
    t1, t2, t3 = out["terms"]
    assert abs(t1 - 4 * math.pi * (p - 1) / p**2) < 1e-6
    assert abs(t2 - 1 / math.pi) < 1e-6
    assert abs(t3 - (-2 * gamma / math.pi)) < 2e-4
    assert out["decomposition_error"] < 1e-10


def test_counterexample_sign_threshold():
    p = 40.0
    crit = 0.5 + 2 * math.pi**2 * (p - 1) / p**2
    below, above = fd.counterexample_section7(
        p, [crit - 0.01, min(crit + 0.01, 0.999)])
    assert below["value"] > 0 > above["value"]
    below, above = fd.counterexample_section7(p, [crit - 1e-9, crit + 1e-9])
    assert below["value"] > 0 > above["value"]
    # moderate exponent and small gamma: genuinely dissipative
    (out,) = fd.counterexample_section7(4.0, [0.5])
    assert out["value"] > 0
    # real coefficient: the decomposition is a sum of squares
    (real_case,) = fd.counterexample_section7(40.0, [0.0])
    assert real_case["value"] > 0 and real_case["terms"][2] == 0.0


def test_counterexample_domain_errors():
    with pytest.raises(ValueError):
        fd.counterexample_section7(2.0, [0.5])
    with pytest.raises(ValueError):
        fd.counterexample_section7(4.0, [1.5])
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ParameterError):
            fd.counterexample_section7(4.0, [0.5, 0.9, bad])


def test_counterexample_verdict_reads_the_scan_in_input_order():
    # gamma*(40) = 0.98114: an unsorted scan that straddles it, negative
    # at 0.99, 0.985 and 0.995, and first so at 0.99
    gammas = [0.6, 0.99, 0.5, 0.985, 0.97, 0.995, 0.0]
    rows = fd.counterexample_section7(40.0, gammas)
    negative = [g > 0.5 + 2 * math.pi**2 * 39 / 40**2 for g in gammas]
    assert [r["negative"] for r in rows] == negative
    assert [r["value"] < 0 for r in rows] == negative
    assert [r["first_negative"] for r in rows] == [i == 1 for i in range(len(gammas))]
    # no negative value: no first one
    rows = fd.counterexample_section7(4.0, [0.9, 0.5, 0.99])
    assert not any(r["negative"] or r["first_negative"] for r in rows)


def test_counterexample_rows_do_not_depend_on_the_scan():
    # a gamma's row is the same bits whichever scan it is part of
    a, b, c = 0.6, 0.8, 0.97
    assert fd.counterexample_section7(40.0, [a, b, c])[2] == \
        fd.counterexample_section7(40.0, [c])[0]


def _s7_point(p, x1, x2):
    """r, grad r and grad phi of f = r e^{i phi} = exp(-pi |x|^2 - i p x1 x2)."""
    r = math.exp(-math.pi * (x1 * x1 + x2 * x2))
    return r, (-2 * math.pi * x1 * r, -2 * math.pi * x2 * r), (-p * x2, -p * x1)


def _quadrant_oracle(integrand, p):
    """Plane integral of integrand(x1, x2, chi_E), even in x1 and in x2:
    4 times the quadrant x1, x2 >= 0, split at the diagonal where chi_E
    jumps, so that each piece is smooth; truncated at 6/sqrt(p), where
    r^p = e^{-36 pi} ~ 1e-49."""
    R = 6.0 / math.sqrt(p)
    opts = dict(epsabs=1e-14, epsrel=1e-13)
    inside = scipy.integrate.dblquad(lambda x2, x1: integrand(x1, x2, 1.0),
                                     0.0, R, 0.0, lambda x1: x1, **opts)[0]
    outside = scipy.integrate.dblquad(lambda x2, x1: integrand(x1, x2, 0.0),
                                      0.0, R, lambda x1: x1, R, **opts)[0]
    return 4.0 * (inside + outside)


@pytest.mark.parametrize("p", [2.01, 4.0, 40.0])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99])
def test_counterexample_matches_adaptive_quadrature(p, gamma):
    # the direct integrand Re<(I + i w R) u, v>, w = -gamma chi_E, with
    # u = e^{-i phi} grad f and v = e^{-i phi} grad(|f|^{p-2} f)
    def direct(x1, x2, chi):
        r, (a1, a2), (b1, b2) = _s7_point(p, x1, x2)
        w = -gamma * chi
        u1, u2 = complex(a1, r * b1), complex(a2, r * b2)
        v1 = complex((p - 1) * r ** (p - 2) * a1, r ** (p - 1) * b1)
        v2 = complex((p - 1) * r ** (p - 2) * a2, r ** (p - 1) * b2)
        # R u = (-u2, u1)
        return ((u1 - 1j * w * u2) * v1.conjugate()
                + (u2 + 1j * w * u1) * v2.conjugate()).real

    (row,) = fd.counterexample_section7(p, [gamma])
    t1, t2, t3 = row["terms"]
    # the value is a difference of O(1) sums: scale by their size
    assert abs(row["value"] - _quadrant_oracle(direct, p)) <= 1e-12 * (t1 + t2 + abs(t3))


def test_counterexample_terms_match_adaptive_quadrature():
    p, gamma = 40.0, 0.99

    def term(k):
        def integrand(x1, x2, chi):
            r, (a1, a2), (b1, b2) = _s7_point(p, x1, x2)
            return ((p - 1) * r ** (p - 2) * (a1 * a1 + a2 * a2),
                    r ** p * (b1 * b1 + b2 * b2),
                    -gamma * chi * p * r ** (p - 1) * (a1 * b2 - a2 * b1))[k]
        return integrand

    (row,) = fd.counterexample_section7(p, [gamma])
    for k, got in enumerate(row["terms"]):
        assert abs(got - _quadrant_oracle(term(k), p)) <= 1e-12 * abs(got)


# ---------------------------------------------------------------------------
# heat flow and contractivity


def _gaussian_pair(grid):
    f = fd.sample(grid, lambda X: np.exp(-X**2) * (1 + 0.4j))
    g = fd.sample(grid, lambda X: np.exp(-0.5 * (X - 1) ** 2) - 0.2j * np.exp(-X**2))
    return f, g


def test_heat_flow_monotone_and_budget():
    grid = fd.Grid(1, 64, 6.0, "periodic")
    A = fd.constant_field(grid, np.array([[np.exp(0.3j)]]))
    B = fd.constant_field(grid, np.array([[np.exp(-0.2j)]]))
    f, g = _gaussian_pair(grid)
    out = fd.heat_flow_experiment(A, B, f, g, p=3.0)
    assert out["monotone"]
    assert out["budget_ok"]
    assert 0 < out["ratio"] <= 1.0
    assert np.all(np.diff(out["energy"]) <= 1e-9)
    assert out["energy"][0] > out["energy"][-1] > 0


_HEAT_REPORT = {"times": [0.0], "energy": [1.0], "bilinear": [1.0],
                "ratio": 0.5, "monotone": True, "budget_ok": True, "a0": 0.5}


@pytest.mark.parametrize("failed, message", [
    ({"monotone": False}, "Bellman energy was not nonincreasing"),
    ({"ratio": 1.5}, "bilinear time integral exceeded the closed bound (ratio 1.5)"),
    ({"budget_ok": False},
     "bilinear time integral exceeded the energy budget E(0)/a0 (a0 = 0.5)"),
    ({"monotone": False, "ratio": 1.5, "budget_ok": False},
     "Bellman energy was not nonincreasing"),
], ids=["monotone", "ratio", "budget", "first-of-three"])
def test_heat_flow_verify_raises_on_each_failed_check(monkeypatch, failed, message):
    A = fd.constant_field(fd.Grid(1, 16, 4.0), np.array([[np.exp(0.3j)]]))
    monkeypatch.setattr(fd, "heat_flow_experiment",
                        lambda *a: {**_HEAT_REPORT, **failed})
    with pytest.raises(VerificationError) as exc:
        fd.heat_flow_verify(A, 3.0, 5)
    assert str(exc.value) == message


def test_heat_flow_verify_needs_a_1d_field():
    A = fd.constant_field(fd.Grid(2, 16, 4.0), el.rotation_matrix(0.3, 2))
    with pytest.raises(ParameterError, match="needs a 1-D coefficient field"):
        fd.heat_flow_verify(A, 3.0, 5)


def test_dissipativity_verify_raises_where_the_value_is_negative(monkeypatch):
    A = fd.constant_field(fd.Grid(2, 16, 4.0), el.rotation_matrix(0.3, 2))
    monkeypatch.setattr(fd, "dissipativity_functional", lambda *a: (-1.0, -1.0))
    with pytest.raises(VerificationError) as exc:
        fd.dissipativity_verify(A, 3.0, 5)
    assert str(exc.value) == ("dissipativity functional negative (-1) although "
                              "the p-ellipticity constant is nonnegative")


def test_heat_flow_refuses_data_that_vanish_on_the_grid(monkeypatch):
    # the nearest cell centre of 8 cells on [-300, 300] is x = 37.5, where
    # e^{-x^2} underflows: ||f||_p = 0, and the ratio divided by it
    monkeypatch.setattr(fd, "_propagator", lambda *a, **k: pytest.fail("flowed"))
    grid = fd.Grid(1, 8, 300.0, "periodic")
    A = fd.constant_field(grid, np.array([[np.exp(0.3j)]]))
    with pytest.raises(ParameterError, match="f or g vanishes on the grid"):
        fd.heat_flow_verify(A, 3.0, 5)
    f, g = _gaussian_pair(fd.Grid(1, 16, 2.0, "periodic"))
    A = fd.constant_field(f.grid, np.array([[np.exp(0.3j)]]))
    zero = fd.GridFunction(f.grid, np.zeros_like(f.values))
    for pair in ((zero, g), (f, zero)):
        with pytest.raises(ParameterError, match="f or g vanishes on the grid"):
            fd.heat_flow_experiment(A, A, *pair, p=3.0)


def test_heat_flow_rejects_nonelliptic():
    grid = fd.Grid(1, 16, 2.0, "periodic")
    A = fd.constant_field(grid, np.array([[np.exp(1.5j)]]))  # beyond p=3 angle
    f, g = _gaussian_pair(grid)
    with pytest.raises(ValueError):
        fd.heat_flow_experiment(A, A, f, g, p=3.0)


def test_heat_flow_and_semigroup_need_one_grid():
    # both mismatches used to run, returning ratios 0.0054 and 0.0085
    A = fd.constant_field(fd.Grid(1, 32, 6.0), np.array([[np.exp(0.3j)]]))
    B = fd.constant_field(fd.Grid(1, 32, 2.0), np.array([[np.exp(0.3j)]]))
    f, g = _gaussian_pair(A.grid)
    with pytest.raises(ParameterError):
        fd.heat_flow_experiment(A, B, f, g, p=3.0)
    fw, _ = _gaussian_pair(fd.Grid(1, 32, 6.0, "dirichlet"))
    with pytest.raises(ParameterError):
        fd.heat_flow_experiment(A, A, fw, g, p=3.0)
    with pytest.raises(ParameterError):
        fd.semigroup_apply(fd.OperatorMatrix(A), 0.5, fw)


def _factor_kind_case(kind):
    """An operator whose factor is of one kind: the DFT (periodic skew
    coefficient), the DST-I (Dirichlet diag(e^{0.3i}, e^{-0.3i})), a
    diagonal eigh basis (e^{0.5i}(1.5 + cos x), normal) or an eigh basis
    that keeps the full D (a variable Dirichlet phase, non-normal)."""
    if kind == "dft":
        return fd.OperatorMatrix(fd.constant_field(fd.Grid(2, 12, 3.0), _SKEW_A))
    if kind == "dst":
        a = np.diag([np.exp(0.3j), np.exp(-0.3j)])
        return fd.OperatorMatrix(fd.constant_field(fd.Grid(2, 12, 3.0, "dirichlet"), a))
    if kind == "eigh-normal":
        grid = fd.Grid(1, 64, np.pi, "periodic")
        a = np.exp(0.5j) * (1.5 + np.cos(grid.axis()))
        return fd.OperatorMatrix(fd.MatrixField(grid, a[:, None, None]))
    return fd.OperatorMatrix(_variable_dirichlet(32))


@pytest.mark.parametrize("kind", ["dft", "dst", "eigh-normal", "eigh-nonnormal"])
def test_adjoint_flow_matches_dense_expm(kind):
    # e^{-tL^H} = Q e^{-tD^H} Q^H in the factor's own basis, against the
    # dense exponential of the conjugate transpose (measured at most
    # 1.9e-14 ||v||, on the eigh-normal case)
    L = _factor_kind_case(kind)
    Q, D = L._factor
    assert (Q is None) == (kind in ("dft", "dst"))
    assert (D.ndim == 2) == (kind == "eigh-nonnormal")
    N = L.grid.size
    r = np.random.default_rng(5)
    v = r.standard_normal((N, 2)) + 1j * r.standard_normal((N, 2))
    times = [0.0, 0.01, 0.5, 3.0]
    got = fd._propagator(L, times, v, adjoint=True)
    forward = fd._propagator(L, times, v)
    assert got.shape == (N, 2, len(times))
    nv = np.linalg.norm(v)
    for j, t in enumerate(times):
        want = scipy.linalg.expm(-t * L.matrix.conj().T) @ v
        assert np.linalg.norm(got[:, :, j] - want) <= 1e-12 * nv
    # L is not self-adjoint, so the adjoint flow is another flow
    assert np.linalg.norm(got[:, :, 2] - forward[:, :, 2]) > 1e-3 * nv


def _dense_probe(L, p, t):
    """The power method of contractivity_probe on the N x N propagator E
    from the factor, one start at a time, with E^H for the adjoint flow."""
    rng = np.random.default_rng(fd._PROBE_SEED)
    N = L.grid.size
    E = fd._propagator(L, [t], np.eye(N))[:, :, 0]
    q = p / (p - 1.0)
    best = 0.0
    for _ in range(fd._PROBE_TRIALS):
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        x /= np.linalg.norm(x)
        for _ in range(fd._POWER_ITERS):
            y = E @ x
            z = E.conj().T @ (np.abs(y) ** (p - 2.0) * y)
            x = np.abs(z) ** (q - 2.0) * z
            x /= np.linalg.norm(x)
        y = E @ x
        best = max(best, (np.sum(np.abs(y) ** p) / np.sum(np.abs(x) ** p)) ** (1.0 / p))
    return best


@pytest.mark.parametrize("cells", [16, 32])
@pytest.mark.parametrize("case", ["periodic-skew", "dirichlet-rotated"])
def test_contractivity_probe_matches_the_dense_power_method(case, cells):
    # the starts run side by side as columns through the factor, drawn in
    # the order of the one-at-a-time loop: the same values to rounding
    # (measured at most 8.9e-16 relative).  The rotated e^{1.4i} I at
    # p = 4 is past the critical angle, so its value exceeds 1
    if case == "periodic-skew":
        grid, a, p, t = fd.Grid(2, cells, 3.0), _SKEW_A, 3.0, 0.5
    else:
        grid, a, p, t = fd.Grid(2, cells, 3.0, "dirichlet"), np.exp(1.4j) * np.eye(2), 4.0, 0.05
    L = fd.OperatorMatrix(fd.constant_field(grid, a))
    want = _dense_probe(L, p, t)
    assert fd.contractivity_probe(L, p, t) == pytest.approx(want, rel=1e-12, abs=0)
    assert case == "periodic-skew" or want > 1.2


def test_contractivity_probe_forms_no_dense_array():
    # at 64^2 one N x N complex array is 268 MB; the probe holds a few
    # N x _PROBE_TRIALS arrays (measured peak 2.0 MB)
    L = fd.OperatorMatrix(fd.constant_field(fd.Grid(2, 64, 3.0), _SKEW_A))
    N = L.grid.size
    tracemalloc.start()
    try:
        assert fd.contractivity_probe(L, 3.0, 0.5) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6 < N * N * 16
    assert "matrix" not in vars(L)


def test_contractivity_probe_regimes():
    grid = fd.Grid(1, 128, np.pi, "periodic")
    p = 4.0
    ok = fd.OperatorMatrix(fd.constant_field(grid, np.array([[1.0 + 0j]])))
    assert fd.contractivity_probe(ok, p, 0.05) <= 1.0 + 1e-9
    crit = math.acos(abs(1 - 2 / p))  # = pi/3
    bad = fd.OperatorMatrix(
        fd.constant_field(grid, np.array([[np.exp(1.4j)]])))
    assert fd.contractivity_probe(bad, p, 0.05) > 1.0 + 1e-3
    assert ok._factor[0] is None and bad._factor[0] is None  # the DFT factor
    assert 1.4 > crit  # the probe exceeds 1 only past the critical angle


def test_contractivity_probe_rejects_negative_time():
    # e^{+tL} is the backward heat flow, whose norm exceeds 1
    grid = fd.Grid(1, 32, np.pi, "periodic")
    L = fd.OperatorMatrix(fd.constant_field(grid, np.array([[1.0 + 0j]])))
    with pytest.raises(ParameterError):
        fd.contractivity_probe(L, 4.0, -0.05)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_nonfinite_times_are_refused(t):
    # a NaN time made the probe return 0.0, and an infinite one made
    # semigroup_apply warn and then fail on non-finite entries
    grid = fd.Grid(1, 32, np.pi, "periodic")
    L = fd.OperatorMatrix(fd.constant_field(grid, np.array([[1.0 + 0j]])))
    f, _ = _gaussian_pair(grid)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        fd.contractivity_probe(L, 3.0, t)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        fd.semigroup_apply(L, t, f)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_contractivity_probe_rejects_nonfinite_exponent(p):
    grid = fd.Grid(1, 32, np.pi, "periodic")
    L = fd.OperatorMatrix(fd.constant_field(grid, np.array([[1.0 + 0j]])))
    with pytest.raises(ParameterError):
        fd.contractivity_probe(L, p, 0.05)


_PERIODIC_FIELD = fd.constant_field(fd.Grid(2, 16, 1.0, "periodic"), np.eye(2) + 0j)


@pytest.mark.parametrize("call", [
    lambda: bl.BellmanParams(math.inf, 0.1),
    lambda: el.script_w_p(np.eye(2) + 0j, math.inf),
    lambda: el.ellipticity_report(np.eye(2) + 0j, math.inf),
    lambda: fd.counterexample_section7(math.inf, [0.5]),
    lambda: fd.mollify(_PERIODIC_FIELD, math.nan),
    lambda: fd.mollify(_PERIODIC_FIELD, math.inf),
], ids=["bellman-p-inf", "script_w_p-inf", "report-inf",
        "section7-inf", "mollify-nan", "mollify-inf"])
def test_nonfinite_parameters_are_refused(call):
    # these gave q = nan and Q = nan, a LinAlgError, a row with value 0.0,
    # the field unchanged and an OverflowError
    with pytest.raises(ParameterError, match="finite"):
        call()
