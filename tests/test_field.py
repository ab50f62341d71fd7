import math

import numpy as np
import pytest

from pellip import ParameterError
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
    g = fd.Grid(2, 16, 2.0)
    assert g.h == 0.25 and g.size == 256
    assert abs(g.axis()[0] + 2.0 - g.h / 2) < 1e-15


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
    lam, Lam, _ = el.accretivity_bounds(A)
    assert abs(F.lam - lam) < 1e-12 and abs(F.Lam - Lam) < 1e-12
    with pytest.raises(ValueError):
        fd.constant_field(grid, -np.eye(2))
    with pytest.raises(ValueError):
        fd.MatrixField(grid, np.ones((3, 3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        fd.section7_field(fd.Grid(1, 16, 1.0), 0.5)
    with pytest.raises(ValueError):
        fd.section7_field(grid, 1.5)


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
    L = fd.discretize_operator(F).matrix
    h = grid.h
    want = (np.diag(np.full(8, 2.0)) + np.diag(np.full(7, -1.0), 1)
            + np.diag(np.full(7, -1.0), -1)) / h**2
    assert np.allclose(L, want)


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_operator_adjoint_consistency(boundary):
    grid = fd.Grid(2, 8, 1.0, boundary)
    A = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) \
        + 2 * np.eye(2)
    L = fd.discretize_operator(fd.constant_field(grid, A)).matrix
    Lstar = fd.discretize_operator(
        fd.constant_field(grid, A.conj().T)).matrix
    assert np.abs(L.conj().T - Lstar).max() < 1e-12


def test_summation_by_parts_periodic():
    grid = fd.Grid(2, 16, 2.0, "periodic")
    A = np.eye(2) + 0.4j * np.asarray(el.ROT_GEN)
    F = fd.constant_field(grid, A)
    L = fd.discretize_operator(F)
    f = fd.sample(grid, lambda X, Y: np.exp(np.sin(np.pi * X / 2))
                  + 1j * np.cos(np.pi * Y / 2))
    g = fd.sample(grid, lambda X, Y: np.sin(np.pi * (X + Y) / 2))
    lhs = grid.h**2 * np.vdot(g.values.reshape(-1),
                              L.matrix @ f.values.reshape(-1))
    gf, gg = fd.gradient(f).values, fd.gradient(g).values
    rhs = grid.h**2 * np.sum(fd._pairing(F.mats, gf, gg))
    assert abs(lhs.conjugate() - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_numerical_range_in_sector():
    grid = fd.Grid(1, 32, 2.0, "periodic")
    phi = 0.8
    F = fd.constant_field(grid, np.array([[np.exp(1j * phi)]]))
    L = fd.discretize_operator(F).matrix
    for _ in range(20):
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        z = np.vdot(u, L @ u)
        if abs(z) > 1e-12:
            assert abs(np.angle(z)) <= phi + 1e-9


def test_semigroup_identity_and_decay():
    grid = fd.Grid(1, 64, np.pi, "periodic")
    F = fd.constant_field(grid, np.array([[1.0 + 0j]]))
    L = fd.discretize_operator(F)
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
    L = fd.discretize_operator(F)
    x = grid.axis()
    for k in (1, 3, 7):
        v = np.exp(1j * k * x)
        lam_k = (np.vdot(v, L.matrix @ v) / np.vdot(v, v)).real
        got = fd.semigroup_apply(L, 0.7, fd.GridFunction(grid, v)).values
        assert np.abs(got - math.exp(-0.7 * lam_k) * v).max() < 1e-12


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


def test_polar_decomposition_real_field():
    # for a real symmetric field the rotational term vanishes and the
    # value equals the two elliptic terms
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


def test_identity_checks_and_refinement():
    params = bl.BellmanParams(p=3.0, delta=0.05)
    A, B, f, g = fd.default_identity_case(64)
    res = fd.identity_checks(A, B, f, g, params)
    assert res["antisymmetric_divfree"] < 1e-12
    assert res["hessian_identity"] < 1e-2
    assert res["chain_rule"] < 1e-2
    study = fd.refinement_study(params, cells=(32, 64, 128))
    for key in ("hessian_identity", "chain_rule"):
        assert all(o >= 1.9 for o in study["orders"][key])


# ---------------------------------------------------------------------------
# the rotational counterexample


def test_counterexample_analytic_terms():
    grid = fd.Grid(2, 128, 4.0, "periodic")
    p, gamma = 8.0, 0.8
    out = fd.counterexample_section7(p, gamma, grid)
    t1, t2, t3 = out["terms"]
    assert abs(t1 - 4 * math.pi * (p - 1) / p**2) < 1e-6
    assert abs(t2 - 1 / math.pi) < 1e-6
    # the rotational integrand has a kink on the diagonals, so its
    # quadrature error dominates the two smooth elliptic terms
    assert abs(t3 - (-2 * gamma / math.pi)) < 2e-4
    assert out["decomposition_error"] < 1e-10


def test_counterexample_sign_threshold():
    grid = fd.Grid(2, 128, 4.0, "periodic")
    p = 40.0
    crit = 0.5 + 2 * math.pi**2 * (p - 1) / p**2
    below = fd.counterexample_section7(p, crit - 0.01, grid)
    above = fd.counterexample_section7(p, min(crit + 0.01, 0.999), grid)
    assert below["value"] > 0 > above["value"]
    # moderate exponent and small gamma: genuinely dissipative
    out = fd.counterexample_section7(4.0, 0.5, grid)
    assert out["value"] > 0
    # real coefficient: the decomposition is a sum of squares
    real_case = fd.counterexample_section7(40.0, 0.0, grid)
    assert real_case["value"] > 0 and real_case["terms"][2] == 0.0


def test_counterexample_domain_errors():
    grid = fd.Grid(2, 64, 4.0, "periodic")
    with pytest.raises(ValueError):
        fd.counterexample_section7(2.0, 0.5, grid)
    with pytest.raises(ValueError):
        fd.counterexample_section7(4.0, 1.5, grid)
    with pytest.raises(ValueError):
        fd.counterexample_section7(4.0, 0.5, fd.Grid(2, 64, 1.0))


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


def test_heat_flow_rejects_nonelliptic():
    grid = fd.Grid(1, 16, 2.0, "periodic")
    A = fd.constant_field(grid, np.array([[np.exp(1.5j)]]))  # beyond p=3 angle
    f, g = _gaussian_pair(grid)
    with pytest.raises(ValueError):
        fd.heat_flow_experiment(A, A, f, g, p=3.0)


def test_contractivity_probe_regimes():
    grid = fd.Grid(1, 128, np.pi, "periodic")
    p = 4.0
    ok = fd.discretize_operator(fd.constant_field(grid, np.array([[1.0 + 0j]])))
    assert fd.contractivity_probe(ok, p, 0.05, trials=4, rng=1) <= 1.0 + 1e-9
    crit = math.acos(abs(1 - 2 / p))  # = pi/3
    bad = fd.discretize_operator(
        fd.constant_field(grid, np.array([[np.exp(1.4j)]])))
    assert fd.contractivity_probe(bad, p, 0.05, trials=4, rng=1) > 1.0 + 1e-3
    assert 1.4 > crit  # the probe exceeds 1 only past the critical angle
