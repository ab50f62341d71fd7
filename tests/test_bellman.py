import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_hess_form_power_batched_matches_cells():
    for n in (1, 2, 3):
        m = 50
        A = np.stack([random_accretive(n) for _ in range(m)])
        xi = np.stack([cvec(n) for _ in range(m)])
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        r = rng.uniform(0.5, 8.0)
        batch = bl.hess_form_power(A, r, z, xi)
        cells = [bl.hess_form_power(A[i], r, z[i], xi[i]) for i in range(m)]
        assert batch.shape == (m,) and all(isinstance(c, float) for c in cells)
        assert np.allclose(batch, cells, rtol=1e-14, atol=0.0)
        z[m // 2] = 0.0
        with pytest.raises(ValueError):
            bl.hess_form_power(A, r, z, xi)
    with pytest.raises(ValueError):
        bl.hess_form_power(np.eye(2), 3.0, 0.0, cvec(2))


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


def _outer_block_pairs(block):
    """(got, want) of the production form on the outer branch with one
    direction zero, against the closed power-function form of the other
    block, over random n, p in (2, 11) (so q reaches 1.1), zeta and xi."""
    for _ in range(20):
        n = int(rng.integers(1, 4))
        pr = bl.BellmanParams(p=rng.uniform(2.0, 11.0), delta=rng.uniform(0.01, 0.5))
        A, B, xi = random_accretive(n), random_accretive(n), cvec(n)
        z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        # |eta|^q a fraction of |zeta|^p keeps (zeta, eta) on the outer branch
        e = (abs(z) ** pr.p * rng.uniform(0.05, 0.9)) ** (1 / pr.q) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi))
        zero = np.zeros(n, complex)
        if block == 1:
            got = bl.bellman_hessian_form(pr, A, B, (z, e), (xi, zero))
            want = (1 + (2 / pr.p) * pr.delta) * bl.hess_form_power(A, pr.p, z, xi)
        else:
            got = bl.bellman_hessian_form(pr, A, B, (z, e), (zero, xi))
            want = (1 + pr.phat * pr.delta) * bl.hess_form_power(B, pr.q, e, xi)
        yield got, want


def test_form_decouples_when_omega2_zero_outer():
    for got, want in _outer_block_pairs(1):
        assert abs(got - want) < 1e-10 * abs(want)


def test_form_decouples_when_omega1_zero_outer():
    for got, want in _outer_block_pairs(2):
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


def test_delta_choice():
    assert abs(bl.delta_choice(1.0, 1.0, 1.0) - 0.1) < 1e-15
    assert abs(bl.delta_choice(2.0, 4.0, 0.8) - 2.0 * 0.8 / 160.0) < 1e-15
    with pytest.raises(ValueError):
        bl.delta_choice(-1.0, 1.0, 1.0)


def elliptic_pair(kind, n, p, seed=0):
    """(A, B) with positive joint p-ellipticity constant."""
    angle = math.acos(abs(1 - 2 / p))
    if kind == "rotation":
        A = el.rotation_matrix(0.7 * angle, n)
        return A, A
    if kind == "skew":
        A = el.skew_matrix(0.6 * math.sin(angle))
        return A, A
    local = np.random.default_rng(seed)
    while True:
        A, B = (2.0 * np.eye(n) + 0.25 * (local.standard_normal((n, n))
                                          + 1j * local.standard_normal((n, n)))
                for _ in range(2))
        if min(el.delta_p(A, p), el.delta_p(B, p)) > 0.02:
            return A, B


def verified(kind, n, p, seed=0):
    A, B = elliptic_pair(kind, n, p, seed)
    params = bl.BellmanParams(p, bl.pair_constants(A, B, p).delta)
    return params, A, B, bl.convexity_verify(params, A, B)


def _form_ratio(params, A, B, z, e, o1, o2):
    val = bl.bellman_hessian_form(params, A, B, (z, e), (o1, o2))
    return val / (np.linalg.norm(o1) * np.linalg.norm(o2))


@pytest.mark.parametrize("p", [2.0, 2.5, 8.0])
@pytest.mark.parametrize("kind,n", [("rotation", 1), ("rotation", 2),
                                    ("rotation", 3), ("skew", 2),
                                    ("random", 1), ("random", 2),
                                    ("random", 3)])
def test_convexity_verify_elliptic_pair(kind, n, p):
    params, A, B, out = verified(kind, n, p)
    assert out["pass"]
    assert out["min_ratio"] >= out["bound"] - 1e-8
    w = out["witness"]
    val = _form_ratio(params, A, B, w["zeta"], w["eta"], w["omega1"], w["omega2"])
    assert abs(val - out["min_ratio"]) < 1e-6 * max(1.0, abs(val))


def test_convexity_verify_is_deterministic():
    first = verified("random", 2, 4.0)[3]
    again = verified("random", 2, 4.0)[3]
    assert first["min_ratio"] == again["min_ratio"]
    assert first["bound"] == again["bound"]
    for key, val in first["witness"].items():
        assert np.array_equal(val, again["witness"][key])


@pytest.mark.parametrize("kind,n,p", [("rotation", 2, 3.0), ("skew", 2, 8.0),
                                      ("random", 1, 4.0), ("random", 2, 2.0),
                                      ("random", 3, 3.0)])
def test_convexity_verify_below_random_search(kind, n, p):
    # no sampled point and direction, at any scale of (omega1, omega2),
    # falls below the reported minimum
    params, A, B, out = verified(kind, n, p, seed=1)
    local = np.random.default_rng(2)
    m = 20_000
    z = 10.0 ** local.uniform(-3, 3, m) * np.exp(1j * local.uniform(0, 7, m))
    e = 10.0 ** local.uniform(-3, 3, m) * np.exp(1j * local.uniform(0, 7, m))
    zp = np.abs(z) ** p
    keep = np.abs(zp - np.abs(e) ** params.q) > 1e-9 * np.maximum(1.0, zp)
    z, e = z[keep], e[keep]
    w1 = local.standard_normal((z.size, 2 * n))
    w2 = local.standard_normal((z.size, 2 * n)) * 10.0 ** local.uniform(-3, 3, (z.size, 1))
    vals = bl._pair(bl.hessian_q(params, z, e), realify(A), realify(B), w1, w2)
    ratios = vals / (np.linalg.norm(w1, axis=-1) * np.linalg.norm(w2, axis=-1))
    assert ratios.min() >= out["min_ratio"] * (1 - 1e-9)


@pytest.mark.parametrize("kind,n,p", [("rotation", 2, 3.0), ("skew", 2, 4.0),
                                      ("random", 2, 4.0), ("random", 3, 8.0)])
def test_inner_branch_limit_formula(kind, n, p):
    # as rho -> infinity the exact direction infimum tends to
    # 2 q sqrt(delta lam_A delta_q(B))
    params, A, B, out = verified(kind, n, p)
    eta = np.array([1e60 ** (1 / params.q)])
    K = bl._form_matrix(bl.hessian_q(params, np.ones(1), eta), realify(A), realify(B))
    far = bl._direction_inf(K)[0][0]
    lamA = el.accretivity_bounds(A)[0]
    limit = 2 * params.q * math.sqrt(params.delta * lamA * el.delta_p(B, params.q))
    assert abs(far - limit) < 1e-6 * limit
    assert out["min_ratio"] <= limit


@pytest.mark.parametrize("p", [2.5, 4.0, 8.0])
@pytest.mark.parametrize("kind,n", [("rotation", 2), ("skew", 2), ("random", 3)])
def test_outer_branch_closed_form(kind, n, p):
    # on the outer branch the exact direction infimum is C rho^{(q-2)/(2q)},
    # nonincreasing in rho, with C = p q sqrt((1 + 2 delta/p)(1 + phat
    # delta) delta_q(A) delta_p(B)) its limit at rho = 1
    params, A, B, out = verified(kind, n, p)
    q, d = params.q, params.delta
    C = p * q * math.sqrt((1 + 2 * d / p) * (1 + params.phat * d)
                          * el.delta_p(A, q) * el.delta_p(B, p))
    log_rho = np.concatenate([[-1e-10], -np.geomspace(1e-6, 40.0, 200)])
    eta = np.exp(log_rho / q)
    K = bl._form_matrix(bl.hessian_q(params, np.ones_like(eta), eta), realify(A), realify(B))
    vals = bl._direction_inf(K)[0]
    assert np.allclose(vals, C * np.exp(log_rho * (q - 2) / (2 * q)), rtol=1e-9, atol=0)
    assert np.all(np.diff(vals) > 0)  # rho falls along the grid
    assert out["min_ratio"] <= C


def test_convexity_verify_includes_limit_near_p2():
    # near p = 2 the scan approaches the rho -> infinity limit too slowly,
    # so min_ratio is the limit and the witness attains the best scanned value
    params, A, B, out = verified("rotation", 2, 2.05)
    lamA = el.accretivity_bounds(A)[0]
    limit = 2 * params.q * math.sqrt(params.delta * lamA * el.delta_p(B, params.q))
    assert out["min_ratio"] == limit
    w = out["witness"]
    val = _form_ratio(params, A, B, w["zeta"], w["eta"], w["omega1"], w["omega2"])
    assert val > 1.2 * limit


@pytest.mark.parametrize("kind,n,p", [("skew", 2, 8.0), ("random", 2, 4.0)])
def test_convexity_verify_not_above_dense_scan(kind, n, p):
    # min_ratio is at least as low as a dense scan of both branches
    params, A, B, out = verified(kind, n, p)
    inner = np.linspace(0.05, 60.0, 2000)
    log_rho = np.concatenate([-inner, inner])
    eta = np.exp(log_rho / params.q)
    K = bl._form_matrix(bl.hessian_q(params, np.ones_like(eta), eta),
                        realify(A), realify(B))
    assert out["min_ratio"] <= bl._direction_inf(K)[0].min() * (1 + 1e-12)


def test_form_matrix_reproduces_pair():
    for n in (1, 2, 3):
        H4 = rng.standard_normal((5, 4, 4))
        MA, MB = realify(random_accretive(n)), realify(random_accretive(n))
        w1, w2 = rng.standard_normal((5, 2 * n)), rng.standard_normal((5, 2 * n))
        w = np.concatenate([w1, w2], axis=-1)
        K = bl._form_matrix(H4, MA, MB)
        assert np.allclose(K, np.swapaxes(K, -1, -2))
        quad = np.einsum("...i,...ij,...j->...", w, K, w)
        assert np.allclose(quad, bl._pair(H4, MA, MB, w1, w2), rtol=1e-12, atol=1e-12)


def test_direction_inf_is_exact_and_attained():
    # the searched value is a lower bound at every tau and is attained by
    # the balanced minimizer, also where lam_min is multiple
    params = bl.BellmanParams(3.0, 0.05)
    for kind, n in (("random", 2), ("rotation", 2)):
        A, B = elliptic_pair(kind, n, params.p)
        MA, MB = realify(A), realify(B)
        # both branches, out to both ends of the scan
        for log_rho in (math.log(0.3), math.log(4.0), -20.0, 20.0, 140.0):
            H4 = bl.hessian_q(params, 1.0 + 0j, complex(math.exp(log_rho / params.q)))
            K = bl._form_matrix(H4, MA, MB)
            val, log_tau = bl._direction_inf(K)
            x = bl._balanced_minimizer(bl._scaled(K, log_tau))
            w1, w2 = x[:2 * n], math.exp(log_tau) * x[2 * n:]
            ratio = bl._pair(H4, MA, MB, w1, w2) / (np.linalg.norm(w1) * np.linalg.norm(w2))
            assert abs(ratio - val) < 1e-9 * val
            for s in log_tau + np.linspace(-3, 3, 13):
                assert 2 * np.linalg.eigvalsh(bl._scaled(K, s))[0] <= val * (1 + 1e-12)


def bisection_direction_inf(K):
    """Reference for _direction_inf: 60 bisections of log tau on [-300, 300]
    on the sign of |x2|^2 - 1/2 at the lam_min eigenvector of K_tau."""
    m = K.shape[-1] // 2
    lo, hi = -300.0, 300.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        x2 = np.linalg.eigh(bl._scaled(K, mid))[1][..., m:, 0]
        rising = np.sum(x2 ** 2, axis=-1) > 0.5
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    s = 0.5 * (lo + hi)
    return 2.0 * np.linalg.eigvalsh(bl._scaled(K, s))[..., 0], s


def scan_forms(kind, n, p):
    """K at every scanned rho of convexity_verify, and at the mirrored
    points of the outer branch out to rho = e^-20, where K is block
    diagonal (K12 = 0): a kink of lam_min(K_tau) in log tau."""
    A, B = elliptic_pair(kind, n, p)
    params = bl.BellmanParams(p, bl.pair_constants(A, B, p).delta)
    log_rho = np.concatenate([-bl._LOG_RHO[bl._LOG_RHO <= 20.0][::-1], bl._LOG_RHO])
    eta = np.exp(log_rho / params.q)
    return bl._form_matrix(bl.hessian_q(params, np.ones_like(eta), eta),
                           realify(A), realify(B))


PAIR_KINDS = [("rotation", 1), ("rotation", 2), ("rotation", 3), ("skew", 2),
              ("random", 1), ("random", 2), ("random", 3)]


@pytest.mark.parametrize("kind,n", PAIR_KINDS)
def test_direction_inf_matches_bisection(kind, n):
    # permanent pairs (A = B rotations), kinks (K12 = 0 on the outer
    # branch) and smooth maxima, out to rho = e^140 where K's entries span
    # 1e+-30
    for p in (2.0, 2.05, 2.5, 4.0, 8.0, 40.0):
        K = scan_forms(kind, n, p)
        val, _ = bl._direction_inf(K)
        ref, _ = bisection_direction_inf(K)
        rel = np.abs(val - ref) / np.abs(ref)
        assert rel.max() <= 1e-12, (p, int(np.argmax(rel)))


def test_direction_inf_balances_where_lam_min_is_negative():
    # positive diagonal blocks and a coupling of norm 1.5 make K indefinite,
    # so lam_min(K_tau) < 0 at every tau (K_tau is congruent to K), while
    # |x2|^2 - 1/2 changes sign; the search still finds the reference's
    # balanced point
    local = np.random.default_rng(7)
    for n in (1, 2, 3):
        m = 2 * n
        Q = np.linalg.qr(local.standard_normal((5, m, m)))[0]
        S = 0.1 * local.standard_normal((5, 2, m, m))
        D = np.eye(m) + S + np.swapaxes(S, -1, -2)
        assert np.all(np.linalg.eigvalsh(D)[..., 0] > 0)
        K = np.block([[D[:, 0], 1.5 * Q], [1.5 * np.swapaxes(Q, -1, -2), D[:, 1]]])
        val, s = bl._direction_inf(K)
        ref, s_ref = bisection_direction_inf(K)
        assert np.all(val < 0)
        assert np.allclose(val, ref, rtol=1e-12, atol=0.0)
        for Ki, si, ri in zip(K, s, s_ref):
            x = bl._balanced_minimizer(bl._scaled(Ki, si))
            x_ref = bl._balanced_minimizer(bl._scaled(Ki, ri))
            assert abs(abs(x @ x_ref) - 1.0) < 1e-9
            assert abs(np.linalg.norm(x[:2 * n]) - np.linalg.norm(x[2 * n:])) < 1e-9


def test_direction_inf_bisection_alone_converges(monkeypatch):
    # with every model step rejected the search is a bisection, which the
    # step cap leaves room for
    K = np.concatenate([scan_forms("random", 2, 8.0), scan_forms("skew", 2, 4.0)])
    monkeypatch.setattr(bl, "_model_step", lambda lam, *_: np.full(len(lam), np.inf))
    val, _ = bl._direction_inf(K)
    ref, _ = bisection_direction_inf(K)
    assert np.all(np.abs(val - ref) <= 1e-12 * np.abs(ref))


def test_direction_inf_refuses_an_open_bracket(monkeypatch):
    monkeypatch.setattr(bl, "_TAU_STEPS", 3)
    with pytest.raises(RuntimeError, match="open"):
        bl._direction_inf(scan_forms("random", 2, 8.0))


@pytest.mark.parametrize("kind,n,p", [("rotation", 2, 4.0), ("random", 3, 8.0)])
def test_convexity_verify_work_per_scanned_rho(kind, n, p, monkeypatch):
    # every eigen-decomposition of one convexity_verify run, against the
    # number of rho it scans: the 60-step bisection took 61 per rho
    A, B = elliptic_pair(kind, n, p)
    params = bl.BellmanParams(p, bl.pair_constants(A, B, p).delta)
    counts = {"matrices": 0, "rho": 0}

    def counted(fn, key):
        def wrapped(a, *args, **kwargs):
            a = np.asarray(a)
            counts[key] += int(np.prod(a.shape[:-2]))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "matrices"))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh, "matrices"))
    monkeypatch.setattr(bl, "_direction_inf", counted(bl._direction_inf, "rho"))
    rhos = []  # every rho whose Hessian is taken
    hessian_q = bl.hessian_q

    def recorded(params, zeta, eta):
        rhos.append(np.abs(eta) ** params.q / np.abs(zeta) ** params.p)
        return hessian_q(params, zeta, eta)

    monkeypatch.setattr(bl, "hessian_q", recorded)
    bl.convexity_verify(params, A, B)
    assert counts["rho"] == bl._LOG_RHO.size + bl._ZOOMS * (2 * bl._ZOOM_POINTS - 1)
    assert np.all(np.concatenate(rhos) > 1.0)  # the inner branch only
    assert counts["matrices"] <= 12 * counts["rho"]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0, 2 * math.pi),
       st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi),
       st.floats(2.0, 12.0), st.integers(0, 10 ** 6))
def test_ratio_phase_symmetry(rz, re_, tz, te, alpha, beta, p, seed):
    local = np.random.default_rng(seed)
    params = bl.BellmanParams(p, 0.05)
    z, e = rz * np.exp(1j * tz), re_ * np.exp(1j * te)
    assume(not bl.on_singular_set(params, z, e, tol=1e-6))
    A, B = (2 * np.eye(2) + 0.4 * local.standard_normal((2, 2))
            + 0.4j * local.standard_normal((2, 2)) for _ in range(2))
    o1, o2 = (local.standard_normal(2) + 1j * local.standard_normal(2) for _ in range(2))
    base = _form_ratio(params, A, B, z, e, o1, o2)
    a, b = np.exp(1j * alpha), np.exp(1j * beta)
    turned = _form_ratio(params, A, B, a * z, b * e, a * o1, b * o2)
    assert abs(turned - base) <= 1e-9 * max(1.0, abs(base))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(1e-3, 1e3),
       st.floats(2.0, 12.0), st.integers(0, 10 ** 6))
def test_ratio_scaling_symmetry(rz, re_, s, p, seed):
    local = np.random.default_rng(seed)
    params = bl.BellmanParams(p, 0.05)
    q = params.q
    z, e = complex(rz), re_ * np.exp(0.7j)
    assume(not bl.on_singular_set(params, z, e, tol=1e-6))
    A, B = (2 * np.eye(2) + 0.4 * local.standard_normal((2, 2))
            + 0.4j * local.standard_normal((2, 2)) for _ in range(2))
    o1, o2 = (local.standard_normal(2) + 1j * local.standard_normal(2) for _ in range(2))
    base = bl.bellman_hessian_form(params, A, B, (z, e), (o1, o2))
    a, b = s ** (1 / p), s ** (1 / q)
    scaled = bl.bellman_hessian_form(params, A, B, (a * z, b * e), (a * o1, b * o2))
    assert abs(scaled - s * base) <= 1e-9 * s * max(1.0, abs(base))
    ratio = _form_ratio(params, A, B, z, e, o1, o2)
    assert abs(_form_ratio(params, A, B, a * z, b * e, a * o1, b * o2)
               - ratio) <= 1e-9 * max(1.0, abs(ratio))


def test_convexity_verify_refuses_nonelliptic():
    A = el.rotation_matrix(1.5, 2)  # beyond the p=3 angle
    params = bl.BellmanParams(p=3.0, delta=0.05)
    with pytest.raises(ValueError):
        bl.convexity_verify(params, A, np.eye(2) + 0j)


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
