import math

import numpy as np
import pytest

from pellip import bellman as bl
from pellip import ellipticity as el
from pellip.realform import realify, vectorize

rng = np.random.default_rng(314159)


def random_accretive(n, scale=0.4):
    A = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return A + 2.0 * np.eye(n)


def cvec(n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# power-function Hessians


def test_hess_power_closed_values():
    assert np.allclose(bl.hess_power(2.0, 0.3 + 0.7j), 2 * np.eye(2))
    assert np.allclose(bl.hess_power(4.0, 1.0 + 0.0j), np.diag([12.0, 4.0]))
    for r in (1.3, 2.5, 7.0):
        z = 0.8 * np.exp(0.9j)
        evals = np.linalg.eigvalsh(bl.hess_power(r, z))
        amp = (r * r / 2) * abs(z) ** (r - 2)
        want = sorted([amp * (1 + abs(1 - 2 / r)), amp * (1 - abs(1 - 2 / r))])
        assert np.allclose(sorted(evals), want)
    with pytest.raises(ValueError):
        bl.hess_power(3.0, 0.0)


def test_hess_form_power_closed_vs_assembly():
    for _ in range(20):
        n = rng.integers(1, 4)
        A, xi = random_accretive(n), cvec(n)
        z = complex(*rng.standard_normal(2))
        r = rng.uniform(1.1, 8.0)
        c = bl.hess_form_power(A, r, z, xi, method="closed")
        a = bl.hess_form_power(A, r, z, xi, method="assembly")
        assert abs(c - a) < 1e-10 * max(1.0, abs(c))


def test_hess_form_identities():
    # scaling, i-rotation, reduction to zeta = 1, conjugation
    A, xi = random_accretive(3), cvec(3)
    r = 3.7
    z = 0.8 * np.exp(1.1j)
    base = bl.hess_form_power(A, r, z, xi)
    for t in (0.3, 2.0):
        assert abs(bl.hess_form_power(A, r, t * z, xi)
                   - t ** (r - 2) * base) < 1e-12 * abs(base)
    for t in (0.5, 3.0):
        assert abs(bl.hess_form_power(A, r, z, t * xi) - t * t * base) \
            < 1e-12 * t * t * abs(base)
    theta = np.angle(z)
    red = abs(z) ** (r - 2) * bl.hess_form_power(A, r, 1.0, np.exp(-1j * theta) * xi)
    assert abs(base - red) < 1e-12 * abs(base)
    conj = bl.hess_form_power(A.conj(), r, z.conjugate(), xi.conj())
    assert abs(base - conj) < 1e-12 * abs(base)


def test_hess_form_lower_bound_and_minimizer():
    for _ in range(10):
        A = random_accretive(2)
        r = rng.uniform(1.2, 6.0)
        d = el.delta_r_extended(A, r)
        z = complex(*rng.standard_normal(2))
        for _ in range(20):
            xi = cvec(2)
            val = bl.hess_form_power(A, r, z, xi)
            lower = (r * r / 2) * abs(z) ** (r - 2) * np.vdot(xi, xi).real * d
            assert val >= lower - 1e-10 * max(1.0, abs(lower))


def test_delta_from_hessian_matches_delta_p():
    for _ in range(20):
        A = random_accretive(3)
        for p in (1.3, 2.0, 4.0, 11.0):
            assert abs(bl.delta_from_hessian(A, p) - el.delta_p(A, p)) < 1e-10
            q = p / (p - 1)
            assert abs(bl.delta_from_hessian(A, p)
                       - bl.delta_from_hessian(A, q)) < 1e-10


# ---------------------------------------------------------------------------
# the Bellman function itself


PARAMS = bl.BellmanParams(p=3.0, delta=0.05)


def test_params_validation():
    with pytest.raises(ValueError):
        bl.BellmanParams(p=1.5, delta=0.1)
    with pytest.raises(ValueError):
        bl.BellmanParams(p=3.0, delta=0.0)
    assert abs(PARAMS.q - 1.5) < 1e-15
    assert abs(PARAMS.phat - 1 / 3) < 1e-15


def test_value_bounds_and_continuity():
    pr = PARAMS
    z = 10.0 ** rng.uniform(-1, 1, 200) * np.exp(1j * rng.uniform(0, 7, 200))
    e = 10.0 ** rng.uniform(-1, 1, 200) * np.exp(1j * rng.uniform(0, 7, 200))
    Q = bl.bellman_value(pr, z, e)
    base = np.abs(z) ** pr.p + np.abs(e) ** pr.q
    assert np.all(Q >= 0)
    assert np.all(Q <= (1 + pr.delta) * base + 1e-12)
    # continuity across the branch interface |zeta|^p = |eta|^q
    for ae in (0.3, 1.0, 2.5):
        az = ae ** (pr.q / pr.p)
        lo = bl.bellman_value(pr, az * (1 - 1e-9), ae)
        hi = bl.bellman_value(pr, az * (1 + 1e-9), ae)
        assert abs(lo - hi) < 1e-7 * max(1.0, abs(hi))


def test_gradient_matches_finite_differences():
    pr = PARAMS
    h = 1e-7
    for _ in range(20):
        z = complex(*rng.uniform(-2, 2, 2))
        e = complex(*rng.uniform(-2, 2, 2))
        if abs(e) < 0.1:
            continue
        dz, de = bl.bellman_gradient(pr, z, e)
        # real-coordinate gradient is twice the Wirtinger derivative
        gx = (bl.bellman_value(pr, z + h, e) - bl.bellman_value(pr, z - h, e)) / (2 * h)
        gy = (bl.bellman_value(pr, z + 1j * h, e)
              - bl.bellman_value(pr, z - 1j * h, e)) / (2 * h)
        assert abs(2 * dz - (gx + 1j * gy)) < 1e-6
        gx = (bl.bellman_value(pr, z, e + h) - bl.bellman_value(pr, z, e - h)) / (2 * h)
        gy = (bl.bellman_value(pr, z, e + 1j * h)
              - bl.bellman_value(pr, z, e - 1j * h)) / (2 * h)
        assert abs(2 * de - (gx + 1j * gy)) < 1e-6


def test_eta_derivative_bound():
    pr = PARAMS
    z = 10.0 ** rng.uniform(-1, 1, 500) * np.exp(1j * rng.uniform(0, 7, 500))
    e = 10.0 ** rng.uniform(-1, 1, 500) * np.exp(1j * rng.uniform(0, 7, 500))
    _, de = bl.bellman_gradient(pr, z, e)
    cap = (pr.q + (2 - pr.q) * pr.delta) * np.abs(e) ** (pr.q - 1)
    assert np.all(2 * np.abs(de) <= cap + 1e-12)


def test_hessian_q_matches_finite_differences():
    pr = PARAMS
    worst = 0.0
    for _ in range(40):
        z = complex(*rng.uniform(-2, 2, 2))
        e = complex(*rng.uniform(-2, 2, 2))
        if bl.on_singular_set(pr, z, e, tol=1e-3):
            continue
        H = bl.hessian_q(pr, z, e)
        F = bl.hessian_fd(lambda a, b: bl.bellman_value(pr, a, b), z, e)
        worst = max(worst, np.abs(H - F).max() / max(1.0, np.abs(H).max()))
    assert worst < 1e-4


def test_hessian_rejects_singular_set():
    with pytest.raises(ValueError):
        bl.hessian_q(PARAMS, 1.0 + 0j, 0.0 + 0j)
    with pytest.raises(ValueError):
        bl.bellman_hessian_form(PARAMS, np.eye(2), np.eye(2),
                                (1.0 + 0j, 1.0 + 0j),
                                (cvec(2), cvec(2)))


def test_p2_closed_case_outer_branch():
    # at p = q = 2 the outer-branch form decouples into
    # 2(1+delta) Re<A o1, o1> + 2 Re<B o2, o2>
    pr = bl.BellmanParams(p=2.0, delta=0.07)
    A, B = random_accretive(2), random_accretive(2)
    o1, o2 = cvec(2), cvec(2)
    v = (2.0 + 0.5j, 1.0 + 0.2j)  # |zeta|^2 > |eta|^2
    got = bl.bellman_hessian_form(pr, A, B, v, (o1, o2))
    want = (2 * (1 + pr.delta) * np.vdot(o1, A @ o1).real
            + 2 * np.vdot(o2, B @ o2).real)
    assert abs(got - want) < 1e-10 * abs(want)


def test_form_decouples_when_omega2_zero_outer():
    pr = PARAMS
    A, B = random_accretive(2), random_accretive(2)
    xi = cvec(2)
    v = (1.0 + 0j, 0.2 + 0j)
    got = bl.bellman_hessian_form(pr, A, B, v, (xi, np.zeros(2, complex)))
    want = (1 + (2 / pr.p) * pr.delta) * bl.hess_form_power(A, pr.p, v[0], xi)
    assert abs(got - want) < 1e-10 * abs(want)


def test_power_form_at_one_is_quadratic_identity():
    # H_{|.|^p}^A[1; eta] = (p^2/2) Re(<A eta, eta> + (1-2/p) <A eta, conj eta>)
    A = random_accretive(2)
    p = 3.4
    eta = cvec(2)
    got = bl.hess_form_power(A, p, 1.0 + 0j, eta)
    Ae = A @ eta
    want = (p * p / 2) * (np.sum(Ae * eta.conj())
                          + (1 - 2 / p) * np.sum(Ae * eta)).real
    assert abs(got - want) < 1e-10 * abs(want)


# ---------------------------------------------------------------------------
# tensor product |zeta|^2 |eta|^{2-q}


def test_tensor_closed_matches_direct_and_fd():
    q = PARAMS.q
    A, B = random_accretive(2), random_accretive(2)
    for _ in range(20):
        e = complex(*rng.uniform(-2, 2, 2))
        if abs(e) < 0.3:
            continue
        z = 0.5 * abs(e) ** (q - 1) * np.exp(1j * rng.uniform(0, 7))
        v = (complex(z), e)
        om = (cvec(2), cvec(2))
        closed = bl.tensor_hessian_form(A, B, q, v, om)
        direct = bl.tensor_hessian_direct(A, B, q, v, om)
        assert abs(closed - direct) < 1e-9 * max(1.0, abs(closed))
    # cross-check one point against finite differences of the scalar field
    e, z = 1.3 - 0.4j, 0.3 + 0.2j
    om = (np.array([1.0 + 0.5j]), np.array([0.2 - 1.0j]))
    A1, B1 = random_accretive(1), random_accretive(1)
    H = bl.hessian_fd(lambda a, b: abs(a) ** 2 * abs(b) ** (2 - q), z, e)
    w = np.concatenate([vectorize(om[0]), vectorize(om[1])])
    MA, MB = realify(A1), realify(B1)
    M = np.zeros((4, 4))
    M[:2, :2], M[2:, 2:] = MA, MB
    fd_val = float((M @ w) @ (H @ w))
    closed = bl.tensor_hessian_form(A1, B1, q, (z, e), om)
    assert abs(closed - fd_val) < 1e-4 * max(1.0, abs(closed))


def test_tensor_form_domain_errors():
    q = PARAMS.q
    with pytest.raises(ValueError):
        bl.tensor_hessian_form(np.eye(2), np.eye(2), 2.5, (0.1 + 0j, 1.0 + 0j),
                               (cvec(2), cvec(2)))
    with pytest.raises(ValueError):
        bl.tensor_hessian_form(np.eye(2), np.eye(2), q, (5.0 + 0j, 1.0 + 0j),
                               (cvec(2), cvec(2)))


def test_tensor_lower_bound_holds():
    q = PARAMS.q
    A, B = random_accretive(2), random_accretive(2)
    for _ in range(50):
        e = complex(*rng.uniform(-2, 2, 2))
        if abs(e) < 0.3:
            continue
        z = 0.5 * abs(e) ** (q - 1) * np.exp(1j * rng.uniform(0, 7))
        v = (complex(z), e)
        om = (cvec(2), cvec(2))
        val = bl.tensor_hessian_direct(A, B, q, v, om)
        low = bl.tensor_lower_bound(A, B, q, v, om)
        assert val >= low - 1e-9 * max(1.0, abs(low))


# ---------------------------------------------------------------------------
# convexity machinery


def test_delta_choice_and_hyperbola():
    assert abs(bl.delta_choice(1.0, 1.0, 1.0) - 0.1) < 1e-15
    assert abs(bl.delta_choice(2.0, 4.0, 0.8) - 2.0 * 0.8 / 160.0) < 1e-15
    with pytest.raises(ValueError):
        bl.delta_choice(-1.0, 1.0, 1.0)
    assert abs(bl.inf_hyperbola(1.0, 0.0, 1.0) - 2.0) < 1e-15
    assert abs(bl.inf_hyperbola(1.0, 3.0, 1.0) + 1.0) < 1e-15
    assert bl.inf_hyperbola(-1.0, 0.0, 1.0) == -math.inf
    assert bl.inf_hyperbola(1.0, 0.0, -0.5) == -math.inf


def test_convexity_verify_elliptic_pair():
    A = el.rotation_matrix(0.3, 2)
    B = random_accretive(2, scale=0.2)
    p = 3.0
    lam, Lam, _ = el.accretivity_bounds(A)
    lamB, LamB, _ = el.accretivity_bounds(B)
    delta = bl.delta_choice(min(lam, lamB), max(Lam, LamB), el.delta_p(B, p))
    params = bl.BellmanParams(p=p, delta=delta)
    out = bl.convexity_verify(params, A, B, budget=4000, rng=11, refine=2)
    assert out["pass"]
    assert out["min_ratio"] >= out["bound"] - 1e-8
    w = out["witness"]
    val = bl.bellman_hessian_form(
        params, A, B, (w["zeta"], w["eta"]),
        (w["omega1"] / np.linalg.norm(w["omega1"]),
         w["omega2"] / np.linalg.norm(w["omega2"])))
    assert abs(val - out["min_ratio"]) < 1e-6 * max(1.0, abs(val))


def test_convexity_verify_refuses_nonelliptic():
    A = el.rotation_matrix(1.5, 2)  # beyond the p=3 angle
    params = bl.BellmanParams(p=3.0, delta=0.05)
    with pytest.raises(ValueError):
        bl.convexity_verify(params, A, np.eye(2) + 0j, budget=100)


def test_violation_search_finds_negative_form():
    p = 3.0
    A = el.rotation_matrix(1.5, 2)  # delta_3 = cos 1.5 - 1/3 < 0
    assert el.delta_p(A, p) < 0
    params = bl.BellmanParams(p=p, delta=0.05)
    out = bl.violation_search(params, A, np.eye(2) + 0j)
    assert out["value"] < 0
    # the witness reproduces through the public evaluator
    val = bl.bellman_hessian_form(params, A, np.eye(2) + 0j,
                                  (out["zeta"], out["eta"]),
                                  (out["omega1"], out["omega2"]))
    assert abs(val - out["value"]) < 1e-12
    with pytest.raises(ValueError):
        bl.violation_search(params, np.eye(2) + 0j, np.eye(2) + 0j)


def test_pair_constants_match_their_definitions():
    A, B = el.rotation_matrix(0.3, 2), random_accretive(2, scale=0.2)
    for p in (2.0, 3.0, 8.0):
        c = bl.pair_constants(A, B, p)
        lamA, LamA, _ = el.accretivity_bounds(A)
        lamB, LamB, _ = el.accretivity_bounds(B)
        assert c.delta_p == min(el.delta_p(A, p), el.delta_p(B, p))
        assert (c.lam, c.Lam) == (min(lamA, lamB), max(LamA, LamB))
        assert c.bound == c.delta_p / 5.0 * c.lam / c.Lam
        assert c.delta == bl.delta_choice(c.lam, c.Lam, el.delta_p(B, p / (p - 1)))
    # a non-elliptic pair still has constants, but no admissible delta
    c = bl.pair_constants(el.rotation_matrix(1.5, 2), B, 3.0)
    assert c.delta_p < 0
    with pytest.raises(ValueError):
        bl.pair_constants(A, el.rotation_matrix(1.5, 2), 3.0).delta


def test_hessian_q_inner_branch_at_p2():
    # q = 2: the |eta|^{2-q} factor is constant, so the tensor Hessian
    # has no eta-eta block and no cross terms
    pr = bl.BellmanParams(p=2.0, delta=0.07)
    z, e = 0.4 + 0.3j, 1.1 - 0.6j  # |zeta|^2 < |eta|^2: inner branch
    H = bl.hessian_q(pr, z, e)
    F = bl.hessian_fd(lambda a, b: bl.bellman_value(pr, a, b), z, e)
    assert np.abs(H - F).max() < 1e-5
    assert np.allclose(bl._tensor_hessian_4x4(2.0, z, e), np.diag([2.0, 2.0, 0.0, 0.0]))
