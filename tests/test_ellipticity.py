import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pellip import cli
from pellip import ellipticity as el
from pellip import field as fd

rng = np.random.default_rng(271828)


def random_accretive(n, scale=0.45):
    """Diagonally dominated random complex matrix with positive real part."""
    A = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return A + 2.0 * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("phi", [0.0, 0.4, -1.1])
def test_rotation_family_closed_forms(n, phi):
    A = el.rotation_matrix(phi, n)
    lam, Lam, nu = el.accretivity_bounds(A)
    assert abs(lam - math.cos(phi)) < 1e-12
    assert abs(Lam - 1.0) < 1e-12
    assert abs(nu - abs(phi)) < 1e-9
    for p in (1.3, 2, 4, 10):
        want = math.cos(phi) - abs(1 - 2 / p)
        assert abs(el.delta_p(A, p) - want) < 1e-10
    assert abs(el.mu(A) - math.cos(phi)) < 1e-9


def test_identity_matrix():
    lam, Lam, nu = el.accretivity_bounds(np.eye(3))
    assert (lam, Lam) == (1.0, 1.0) and abs(nu) < 1e-9
    assert abs(el.delta_p(np.eye(2), 4) - 0.5) < 1e-12
    assert el.mu(np.eye(2)) == 1.0
    assert el.p_ellipticity_range(np.eye(2)) == (1.0, math.inf)


def test_delta_2_is_lambda():
    for _ in range(20):
        A = random_accretive(3)
        lam, _, _ = el.accretivity_bounds(A)
        assert abs(el.delta_p(A, 2) - lam) < 1e-12


def test_delta_duality_and_conjugation():
    for _ in range(30):
        A = random_accretive(4)
        for p in (1.2, 1.5, 3, 8):
            q = p / (p - 1)
            assert abs(el.delta_p(A, p) - el.delta_p(A, q)) < 1e-10
            assert abs(el.delta_p(A, p) - el.delta_p(A.conj(), p)) < 1e-10
            # adjoint preserves the sign
            assert np.sign(el.delta_p(A, p)) == np.sign(el.delta_p(A.conj().T, p))


def test_delta_monotone_and_lipschitz_in_p():
    A = random_accretive(3)
    ps = np.linspace(2, 64, 40)
    vals = [el.delta_p(A, p) for p in ps]
    assert all(v1 - v0 < 1e-12 for v0, v1 in zip(vals, vals[1:]))
    K = max(abs(v1 - v0) / (p1 - p0)
            for (v0, v1, p0, p1) in zip(vals, vals[1:], ps, ps[1:]))
    assert np.isfinite(K)


def test_rotated_delta_concavity_inequality():
    # Delta_p(A) <= (Delta_p(e^{i phi}A)/sin phi - Delta_p(e^{i psi}A)/sin psi)
    #               / (cot phi - cot psi)
    for _ in range(10):
        A = random_accretive(2)
        p = rng.uniform(1.5, 6.0)
        phi, psi = sorted(rng.uniform(0.1, 1.4, size=2))
        if abs(phi - psi) < 1e-3:
            continue
        lhs = el.delta_p(A, p)
        num = (el.delta_p(np.exp(1j * phi) * A, p) / math.sin(phi)
               - el.delta_p(np.exp(1j * psi) * A, p) / math.sin(psi))
        den = 1 / math.tan(phi) - 1 / math.tan(psi)
        assert lhs <= num / den + 1e-9


def test_delta_oracle_agreement():
    for _ in range(10):
        A = random_accretive(3)
        for p in (1.2, 2, 4, 9):
            d = el.delta_p(A, p)
            o = el.delta_p_oracle(A, p)
            assert abs(d - o) < 1e-6


def test_real_matrix_is_p_elliptic_for_all_p():
    A = np.abs(rng.standard_normal((3, 3))) * 0.2 + 2 * np.eye(3)
    for p in (1.05, 1.5, 2, 7, 40):
        assert el.delta_p(A + 0j, p) > 0
    assert el.p_ellipticity_range(A + 0j) == (1.0, math.inf)


def test_nu_bounded_by_arccos():
    for _ in range(10):
        A = random_accretive(3)
        lam, Lam, nu = el.accretivity_bounds(A)
        assert nu <= math.acos(min(lam / Lam, 1.0)) + 1e-9


def test_mu_sandwich_and_oracle():
    for _ in range(10):
        A = random_accretive(2)
        m = el.mu(A)
        lam, Lam, _ = el.accretivity_bounds(A)
        assert lam / Lam - 1e-9 <= m <= 1.0 + 1e-12
        for p in (2.5, 4):
            d = el.delta_p(A, p)
            if d >= 0:
                s = abs(1 - 2 / p)
                assert d / Lam <= m - s + 1e-8
                assert m - s <= m * d / lam + 1e-8
    A = random_accretive(2)
    assert abs(el.mu(A) - el.mu_oracle(A)) < 1e-4


def test_p_range_endpoints_conjugate():
    for _ in range(10):
        A = random_accretive(2)
        lo, hi = el.p_ellipticity_range(A)
        if math.isinf(hi):
            assert lo == 1.0
        else:
            assert abs(1 / lo + 1 / hi - 1.0) < 1e-6
    lo, hi = el.p_ellipticity_range(el.rotation_matrix(math.pi / 3, 2))
    assert abs(lo - 4 / 3) < 1e-6 and abs(hi - 4) < 1e-5


def test_script_w_p():
    # at p=2 the matrix reduces to the antisymmetric part of Im A
    A = random_accretive(3)
    Us = (A.real + A.real.T) / 2
    evals, evecs = np.linalg.eigh(Us)
    S_inv = (evecs / np.sqrt(evals)) @ evecs.T
    Va = (A.imag - A.imag.T) / 2
    W2, _ = el.script_w_p(A, 2)
    assert np.allclose(W2, S_inv @ Va @ S_inv)
    # skew family closed norm
    for p in (2.5, 4, 9):
        w = 0.6
        _, nrm = el.script_w_p(el.skew_matrix(w), p)
        assert abs(nrm - p * w / (2 * math.sqrt(p - 1))) < 1e-12


def test_script_w_p_stack_matches_cells():
    # a stack returns each cell's W_p and the sup of the norms
    mats = np.stack([random_accretive(2) for _ in range(7)])
    for p in (1.5, 4.0, 40.0):
        W, sup = el.script_w_p(mats, p)
        cells = [el.script_w_p(A, p) for A in mats]
        assert W.shape == mats.shape
        assert np.allclose(W, np.stack([c[0] for c in cells]), rtol=1e-13, atol=1e-15)
        assert abs(sup - max(c[1] for c in cells)) < 1e-13 * sup
    with pytest.raises(ValueError):
        el.script_w_p(np.stack([np.eye(2), -np.eye(2)]) + 0j, 3.0)


def test_w_p_norm_sign_equivalence():
    for _ in range(40):
        A = random_accretive(2, scale=rng.uniform(0.3, 1.2))
        if np.linalg.eigvalsh((A.real + A.real.T) / 2)[0] <= 1e-6:
            continue
        for p in (1.5, 3, 8):
            d = el.delta_p(A, p)
            _, nrm = el.script_w_p(A, p)
            if abs(d) > 1e-9 and abs(nrm - 1) > 1e-9:
                assert (d >= 0) == (nrm <= 1)


def test_closed_form_delta():
    assert abs(el.closed_form_delta("rotation", {"phi": math.pi / 3}, 4)) < 1e-12
    assert abs(el.closed_form_delta("skew", {"w": 0.6}, 2) - 0.4) < 1e-12
    for p in (2, 3, 11):
        got = el.closed_form_delta("skew", {"w": 0.35}, p)
        assert abs(got - el.delta_p(el.skew_matrix(0.35), p)) < 1e-10
    # rotated family: B = I gives phat^2/(1-phat^2) * tan^2 phi
    p, phi = 4.0, 0.5
    phat = 1 - 2 / p
    want = math.tan(phi) ** 2 * phat**2 / (1 - phat**2)
    got = el.closed_form_delta("rotated_wp_norm", {"B": np.eye(2), "phi": phi}, p)
    assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        el.closed_form_delta("skew", {"w": 0.5}, 1.5)


def test_rotated_wp_norm_matches_direct():
    for _ in range(10):
        B = rng.standard_normal((2, 2)) * 0.4 + np.eye(2)
        if np.linalg.eigvalsh((B + B.T) / 2)[0] <= 0:
            continue
        phi, p = rng.uniform(0.05, 0.7), rng.uniform(2.2, 6)
        want = el.closed_form_delta("rotated_wp_norm", {"B": B, "phi": phi}, p)
        _, nrm = el.script_w_p(el.rotated_matrix(B, phi), p)
        assert abs(nrm**2 - want) < 1e-9


def test_sector_test_symmetric():
    # purely skew imaginary part: symmetric part is real, passes all p
    for p in (1.5, 2, 4, 25):
        assert el.sector_test_symmetric(el.skew_matrix(0.9), p)
    # at p = 2 the condition is (Re A)_s >= 0: these returned True there
    # and False at p = 2 + 1e-14
    for A in (-np.eye(2), np.diag([1.0, -0.5])):
        assert not el.sector_test_symmetric(A, 2)
        assert not el.sector_test_symmetric(A, 2 + 1e-14)
    # a singular (Re A)_s on the boundary, delta_p = 0: it was refused
    # away from p = 2 before the sector condition was looked at
    for p in (1.5, 3):
        assert el.delta_p(np.diag([1.0, 0.0]), p) == 0.0
        assert el.sector_test_symmetric(np.diag([1.0, 0.0]), p)
    # rotation family: passes exactly up to the critical angle
    for p in (1.5, 4.0):
        crit = math.acos(abs(1 - 2 / p))
        assert el.sector_test_symmetric(el.rotation_matrix(crit - 1e-6, 2), p)
        assert not el.sector_test_symmetric(el.rotation_matrix(crit + 1e-3, 2), p)
    # agreement with the sign of delta_p on the symmetric part
    for _ in range(40):
        A = random_accretive(2, scale=rng.uniform(0.3, 1.5))
        As = (A + A.T) / 2
        for p in (1.7, 3, 6):
            d = el.delta_p(As, p)
            if abs(d) > 1e-9:
                assert el.sector_test_symmetric(A, p) == (d > 0)


def test_matrix_spec_validation():
    with pytest.raises(cli.InputError):
        cli.spec_from_dict({"kind": "rotation", "phi": 1.8})
    with pytest.raises(cli.InputError):
        cli.spec_from_dict({"kind": "skew", "w": 1.1})
    with pytest.raises(cli.InputError):
        cli.spec_from_dict({"kind": "constant",
                            "entries": [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]]})
    A = cli.spec_from_dict({"kind": "rotation", "phi": 0.7, "n": 3})
    assert np.allclose(A, np.exp(0.7j) * np.eye(3))


def test_field_reduction_is_min_over_cells():
    grid = fd.Grid(2, 8, 1.0, "periodic")
    F = fd.two_value_field(grid, el.rotation_matrix(0.2, 2),
                           el.rotation_matrix(0.9, 2),
                           lambda X, Y: X > 0)
    assert abs(el.delta_p(F, 4) - (math.cos(0.9) - 0.5)) < 1e-12
    assert abs(el.mu(F) - math.cos(0.9)) < 1e-9


def test_mollify_basics():
    grid = fd.Grid(2, 16, 1.0, "periodic")
    F = fd.constant_field(grid, el.rotation_matrix(0.4, 2))
    for eps in (0.0, grid.h, 3 * grid.h):
        G = fd.mollify(F, eps)
        assert np.allclose(G.mats, F.mats)
    F2 = fd.two_value_field(grid, np.eye(2) + 0j, el.rotation_matrix(1.0, 2),
                            lambda X, Y: X * Y > 0)
    for eps in (grid.h, 2 * grid.h, 4 * grid.h):
        G = fd.mollify(F2, eps)
        assert el.delta_p(G, 4) >= el.delta_p(F2, 4) - 1e-10
        assert el.mu(G) >= el.mu(F2) - 1e-8


# ---------------------------------------------------------------------------
# the sector angle nu (exact pencil reduction)


def _sampled_max_arg(A, samples=4000):
    """max |arg<A xi, xi>| over random complex directions."""
    n = A.shape[-1]
    X = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    z = np.sum((X @ A.T) * X.conjugate(), axis=1)  # <A xi, xi>
    return float(np.abs(np.angle(z)).max())


@pytest.mark.parametrize("w", [0.0, 0.3, -0.8, 0.99])
def test_nu_of_skew_is_zero(w):
    # A = I + i w R with R antisymmetric: <A xi, xi> = |xi|^2 is real
    assert el.accretivity_bounds(el.skew_matrix(w))[2] < 1e-15


def test_nu_of_section7_field_is_zero():
    F = fd.section7_field(fd.Grid(2, 16, 4.0), 0.9)
    assert el.accretivity_bounds(F)[2] < 1e-15


@given(n=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(min_value=0.05, max_value=1.5))
@settings(max_examples=60, deadline=None)
def test_nu_bounds_sampled_arguments(n, seed, scale):
    r = np.random.default_rng(seed)
    A = scale * (r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))) + 2.0 * np.eye(n)
    lam, _, nu = el.accretivity_bounds(A)
    assume(lam > 1e-3)
    assert _sampled_max_arg(A) <= nu + 1e-12
    assert nu < math.pi / 2


def test_nu_of_stack_is_max_over_cells():
    cells = [random_accretive(3, scale=rng.uniform(0.1, 0.9)) for _ in range(7)]
    stack = np.stack(cells)
    want = max(el.accretivity_bounds(A)[2] for A in cells)
    assert abs(el.accretivity_bounds(stack)[2] - want) < 1e-15
    assert abs(el.accretivity_bounds(stack.reshape(7, 1, 3, 3))[2] - want) < 1e-15


def test_matrix_field_bounds_are_accretivity_bounds():
    grid = fd.Grid(2, 8, 1.0)
    mats = np.stack([random_accretive(2, scale=0.3) for _ in range(64)]).reshape(8, 8, 2, 2)
    # MatrixField keeps no bounds; it refuses a field exactly when the
    # lambda of accretivity_bounds is not positive
    lam = el.accretivity_bounds(mats)[0]
    assert lam > 0
    fd.MatrixField(grid, mats - 0.5 * lam * np.eye(2))
    with pytest.raises(ValueError, match="not uniformly accretive"):
        fd.MatrixField(grid, mats - 1.5 * lam * np.eye(2))


# ---------------------------------------------------------------------------
# mu as a pencil eigenvalue


@given(n=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(min_value=0.05, max_value=1.0), p=st.floats(min_value=1.05, max_value=40.0))
@settings(max_examples=100, deadline=None)
def test_delta_p_positive_iff_inside_mu(n, seed, scale, p):
    # the paper's characterization: delta_p(A) > 0 exactly when |1 - 2/p| < mu(A)
    r = np.random.default_rng(seed)
    A = scale * (r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))) + 2.0 * np.eye(n)
    assume(el.accretivity_bounds(A)[0] > 1e-3)
    m, s = el.mu(A), abs(1 - 2 / p)
    assume(abs(s - m) > 1e-9)
    assert (el.delta_p(A, p) > 0) == (s < m)


_EXPONENTS = st.floats(min_value=1.05, max_value=40.0, exclude_min=True,
                       exclude_max=True)


@given(n=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(min_value=0.05, max_value=3.0), p=_EXPONENTS)
@settings(max_examples=100, deadline=None)
def test_delta_p_duality_and_conjugation(n, seed, scale, p):
    # delta_p(A) = delta_{p/(p-1)}(A) = delta_p(conj A), for any complex A
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, n)) + 1j * scale * r.standard_normal((n, n))
    d = el.delta_p(A, p)
    tol = 1e-12 * max(1.0, np.linalg.norm(A, 2))
    assert abs(el.delta_p(A, p / (p - 1)) - d) <= tol
    assert abs(el.delta_p(A.conj(), p) - d) <= tol


@given(n=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(min_value=0.05, max_value=3.0), p=_EXPONENTS)
@settings(max_examples=100, deadline=None)
def test_w_p_norm_at_most_one_iff_delta_p_nonnegative(n, seed, scale, p):
    r = np.random.default_rng(seed)
    U = np.eye(n) + 0.3 * r.standard_normal((n, n))
    assume(np.linalg.eigvalsh((U + U.T) / 2)[0] > 1e-3)
    A = U + 1j * scale * r.standard_normal((n, n))
    d = el.delta_p(A, p)
    _, nrm = el.script_w_p(A, p)
    assume(abs(d) > 1e-9 and abs(nrm - 1.0) > 1e-9)
    assert (nrm <= 1.0) == (d >= 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_of_rotation_is_cos_phi(n):
    for phi in np.linspace(-1.5, 1.5, 31):
        assert abs(el.mu(el.rotation_matrix(phi, n)) - math.cos(phi)) <= 1e-15


def test_mu_rejects_non_accretive():
    with pytest.raises(ValueError):
        el.mu(-np.eye(2))
    with pytest.raises(ValueError):
        el.mu(el.rotation_matrix(2.0, 2))


def test_ellipticity_report_computes_mu_once(monkeypatch):
    calls = []
    real_mu = el.mu
    monkeypatch.setattr(el, "mu", lambda A: calls.append(A) or real_mu(A))
    rep = el.ellipticity_report(el.rotation_matrix(math.pi / 3, 2), 4.0)
    assert len(calls) == 1
    assert rep.p_range == el._p_range(rep.mu)
    assert abs(rep.p_range[1] - 4.0) < 1e-12
