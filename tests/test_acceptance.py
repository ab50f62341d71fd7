"""Acceptance suite: one test (and one printed PASS/FAIL line) per
criterion.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines."""

import math

import numpy as np
import pytest

from pellip import bellman as bl
from pellip import ellipticity as el
from pellip import field as fd
from pellip import heatnorm as hn
from pellip.realform import realify, vectorize


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _random_accretive(rng, n, scale=0.4):
    A = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return A + 2.0 * np.eye(n)


def _random_set(seed=20240817, count=500):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        out.append(_random_accretive(rng, n, scale=rng.uniform(0.2, 0.6)))
    return out


P_SET = (1.2, 1.5, 2.0, 3.0, 8.0)


def test_criterion_01_closed_form_delta():
    worst = 0.0
    for phi in np.linspace(0.0, 1.55, 20):
        for p in np.linspace(1.05, 40.0, 20):
            want = math.cos(phi) - abs(1 - 2 / p)
            for n in (1, 2, 5):
                got = el.delta_p(el.rotation_matrix(phi, n), p)
                worst = max(worst, abs(got - want))
    for p in np.linspace(2.0, 40.0, 20):
        for w in np.linspace(0.0, 0.99, 20):
            want = 1.0 - math.sqrt((1 - 2 / p) ** 2 + w * w)
            got = el.delta_p(el.skew_matrix(w), p)
            worst = max(worst, abs(got - want))
    _report(1, worst < 1e-10, f"closed-form delta_p, worst error {worst:.2e}")


def test_criterion_02_duality_conjugation():
    worst, signs_ok = 0.0, True
    for A in _random_set():
        for p in P_SET:
            q = p / (p - 1)
            d = el.delta_p(A, p)
            worst = max(worst, abs(d - el.delta_p(A, q)),
                        abs(d - el.delta_p(A.conj(), p)))
            signs_ok &= np.sign(el.delta_p(A.conj().T, p)) == np.sign(d)
    _report(2, worst < 1e-10 and signs_ok,
            f"duality/conjugation on 500 matrices, worst error {worst:.2e}")


def test_criterion_03_w_p_equivalence():
    band = 1e-9
    agree = True
    for A in _random_set():
        if np.linalg.eigvalsh((A.real + A.real.T) / 2)[0] <= band:
            continue
        for p in P_SET:
            d = el.delta_p(A, p)
            _, nrm = el.script_w_p(A, p)
            if abs(d) > band and abs(nrm - 1.0) > band:
                agree &= (d >= 0) == (nrm <= 1)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        B = 0.4 * rng.standard_normal((2, 2)) + np.eye(2)
        if np.linalg.eigvalsh((B + B.T) / 2)[0] <= 0.05:
            continue
        phi = rng.uniform(0.05, 0.7)
        p = rng.uniform(2.1, 8.0)
        want = el.closed_form_delta("rotated_wp_norm", {"B": B, "phi": phi}, p)
        _, nrm = el.script_w_p(el.rotated_matrix(B, phi), p)
        worst = max(worst, abs(nrm * nrm - want) / max(1.0, want))
    _report(3, agree and worst < 1e-9,
            f"W_p sign equivalence and rotated norm, worst error {worst:.2e}")


def test_criterion_04_mu_sandwich():
    ok = True
    for A in _random_set(count=100):
        lam, Lam, _ = el.accretivity_bounds(A)
        if lam <= 1e-6:  # the sandwich presumes an accretive matrix
            continue
        m = el.mu(A)
        for p in P_SET:
            d = el.delta_p(A, p)
            if d < 0:
                continue
            s = abs(1 - 2 / p)
            ok &= d / Lam <= m - s + 1e-8
            ok &= m - s <= m * d / lam + 1e-8
    worst_eq = 0.0
    for phi in np.linspace(0.0, 1.5, 15):
        A = el.rotation_matrix(phi, 2)
        m = el.mu(A)
        for p in P_SET:
            d = el.delta_p(A, p)
            if d < 0:
                continue
            s = abs(1 - 2 / p)
            lam, Lam, _ = el.accretivity_bounds(A)
            worst_eq = max(worst_eq, abs(m - s - d / Lam),
                           abs(m - s - m * d / lam))
    _report(4, ok and worst_eq < 1e-9,
            f"mu sandwich, rotation equality error {worst_eq:.2e}")


def test_criterion_05_bellman_convexity():
    rng = np.random.default_rng(55)
    pairs = []
    # rotation families inside the contractivity angle
    for p in (2.0, 3.0, 4.0, 8.0):
        crit = math.acos(abs(1 - 2 / p))
        for frac in (0.3, 0.8):
            A = el.rotation_matrix(frac * crit, 2)
            pairs.append((p, A, A))
    # random elliptic pairs
    while len(pairs) < 30:
        p = float(rng.choice([2.0, 3.0, 4.0, 8.0]))
        A = _random_accretive(rng, 2, scale=rng.uniform(0.2, 0.5))
        B = _random_accretive(rng, 2, scale=rng.uniform(0.2, 0.5))
        if min(el.delta_p(A, p), el.delta_p(B, p)) > 0.05:
            pairs.append((p, A, B))
    all_ok = True
    for i, (p, A, B) in enumerate(pairs):
        lamA, LamA, _ = el.accretivity_bounds(A)
        lamB, LamB, _ = el.accretivity_bounds(B)
        q = p / (p - 1)
        delta = bl.delta_choice(min(lamA, lamB), max(LamA, LamB),
                                el.delta_p(B, q))
        params = bl.BellmanParams(p, delta)
        out = bl.convexity_verify(params, A, B)
        all_ok &= out["min_ratio"] >= out["bound"] - 1e-8
    # negative-branch witness beyond the angle
    witness_ok = True
    for p in (3.0, 4.0, 8.0):
        phi = math.acos(abs(1 - 2 / p)) + 0.15
        wit = bl.violation_search(bl.BellmanParams(p, 0.1),
                                  el.rotation_matrix(phi, 2), np.eye(2) + 0j)
        witness_ok &= wit["value"] < 0
    _report(5, all_ok and witness_ok,
            "convexity bound on 30 pairs + negative-branch witnesses")


def _fd_form(func, z, e, MA, MB, w1, w2):
    H = bl.hessian_fd(func, z, e)
    return float(bl._pair(H, MA, MB, w1, w2))


def test_criterion_06_hessian_oracles():
    rng = np.random.default_rng(606)
    params = bl.BellmanParams(p=3.0, delta=0.05)
    A = _random_accretive(rng, 2)
    B = _random_accretive(rng, 2)
    MA, MB = realify(A), realify(B)
    worst_q = 0.0
    count = 0
    while count < 1000:
        z = complex(*rng.uniform(-2, 2, 2))
        e = complex(*rng.uniform(-2, 2, 2))
        if bl.on_singular_set(params, z, e, tol=1e-3):
            continue
        o1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        o2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        o1, o2 = o1 / np.linalg.norm(o1), o2 / np.linalg.norm(o2)
        w1, w2 = vectorize(o1), vectorize(o2)
        got = bl.bellman_hessian_form(params, A, B, (z, e), (o1, o2))
        ref = _fd_form(lambda a, b: bl.bellman_value(params, a, b),
                       z, e, MA, MB, w1, w2)
        scale = max(1.0, abs(got), abs(ref))
        worst_q = max(worst_q, abs(got - ref) / scale)
        count += 1
    q = params.q
    worst_t = 0.0
    for _ in range(1000):
        e = complex(*rng.uniform(-2, 2, 2))
        if abs(e) < 0.3:
            continue
        z = rng.uniform(0.1, 0.9) * abs(e) ** (q - 1) * np.exp(1j * rng.uniform(0, 7))
        o1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        o2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = bl.tensor_hessian_form(A, B, q, (complex(z), e), (o1, o2))
        ref = _fd_form(lambda a, b: abs(a) ** 2 * abs(b) ** (2 - q),
                       complex(z), e, MA, MB, vectorize(o1), vectorize(o2))
        worst_t = max(worst_t, abs(got - ref) / max(1.0, abs(got), abs(ref)))

    # structural identities of the power-function Hessian form
    worst_id = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        Ai = _random_accretive(rng, n)
        Bi = _random_accretive(rng, n)
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = rng.uniform(1.2, 8.0)
        zt = complex(*rng.uniform(-2, 2, 2))
        if abs(zt) < 0.1:
            continue
        base = bl.hess_form_power(Ai, r, zt, xi)
        sc = max(1.0, abs(base))
        t = rng.uniform(0.3, 3.0)
        th = rng.uniform(0, 2 * np.pi)
        checks = [
            # (1) homogeneity in zeta
            bl.hess_form_power(Ai, r, t * zt, xi) - t ** (r - 2) * base,
            # (2) quadratic homogeneity in xi
            bl.hess_form_power(Ai, r, zt, t * xi) - t * t * base,
            # (3) joint phase invariance
            bl.hess_form_power(Ai, r, np.exp(1j * th) * zt,
                               np.exp(1j * th) * xi) - base,
            # (4) reduction to zeta = 1
            abs(zt) ** (r - 2) * bl.hess_form_power(
                Ai, r, 1.0, np.exp(-1j * np.angle(zt)) * xi) - base,
            # (5) conjugation covariance
            bl.hess_form_power(Ai.conj(), r, zt.conjugate(), xi.conj()) - base,
            # (6) additivity in the coefficient matrix
            bl.hess_form_power(Ai + Bi, r, zt, xi) - base
            - bl.hess_form_power(Bi, r, zt, xi),
        ]
        worst_id = max(worst_id, max(abs(c) for c in checks) / sc)
    ok = worst_q < 1e-5 and worst_t < 1e-5 and worst_id < 1e-12
    _report(6, ok, f"Hessian oracles: bellman {worst_q:.2e}, "
                   f"tensor {worst_t:.2e}, identities {worst_id:.2e}")


def test_criterion_07_residual_orders():
    params = bl.BellmanParams(p=3.0, delta=0.05)
    study = fd.refinement_study(params)
    ok = all(o >= 1.9 for key in study["orders"] for o in study["orders"][key])
    flat = {k: [f"{o:.2f}" for o in v] for k, v in study["orders"].items()}
    _report(7, ok, f"residual convergence orders {flat}")


def test_criterion_08_counterexample():
    grid = fd.Grid(2, 256, 4.0, "periodic")
    p = 40.0
    scan = fd.counterexample_section7(p, np.arange(0.5, 0.9951, 0.01), grid)
    worst_dec = max(out["decomposition_error"] for out in scan)
    found_negative = any(out["value"] < 0 for out in scan)
    (mild,) = fd.counterexample_section7(4.0, [0.5], grid)
    probes_ok = mild["value"] >= -1e-9
    pgrid = fd.Grid(2, 128, 4.0, "periodic")
    F = fd.section7_field(pgrid, 0.5)
    for seed in range(100):
        r, gr, gp = fd.random_polar_probe(pgrid, seed)
        value, _ = fd.dissipativity_from_polar(F, 4.0, r, gr, gp)
        probes_ok &= value >= -1e-9
    ok = found_negative and worst_dec < 1e-6 and probes_ok
    _report(8, ok, f"rotational counterexample: negative value found, "
                   f"decomposition error {worst_dec:.2e}, mild regime safe")


def test_criterion_09_heat_constant():
    worst_above, worst_inside = 0.0, 0.0
    for p in (1.5, 3.0, 4.0, 10.0):
        crit = hn.phi_p(p)
        for phi in np.linspace(crit + 0.02, 1.5, 6):
            diff = abs(hn.gaussian_oracle(phi, p) - hn.heat_norm_constant(phi, p))
            worst_above = max(worst_above, diff)
        for phi in np.linspace(0.0, crit - 1e-6, 4):
            worst_inside = max(worst_inside,
                               abs(hn.gaussian_oracle(phi, p) - 1.0))
    worst_end = max(abs(hn.heat_norm_constant(phi, 1)
                        - 1 / math.sqrt(math.cos(phi)))
                    for phi in np.linspace(0.0, 1.5, 20))
    ok = worst_above < 1e-6 and worst_inside < 1e-8 and worst_end < 1e-10
    _report(9, ok, f"heat constant: oracle {worst_above:.2e}, "
                   f"sector {worst_inside:.2e}, "
                   f"endpoint {worst_end:.2e}")


def test_criterion_10_heat_flow():
    rng = np.random.default_rng(1010)
    grid = fd.Grid(1, 128, 6.0, "periodic")
    x = grid.axis()
    ok = True
    for trial in range(20):
        p = float(rng.choice([2.5, 3.0, 4.0]))
        crit = math.acos(abs(1 - 2 / p))
        phiA = rng.uniform(-0.9, 0.9) * crit
        phiB = rng.uniform(-0.9, 0.9) * crit
        A = fd.constant_field(grid, np.array([[np.exp(1j * phiA)]]))
        B = fd.constant_field(grid, np.array([[np.exp(1j * phiB)]]))
        c1, c2 = rng.uniform(0.5, 2.0, 2)
        f = fd.GridFunction(grid, np.exp(-c1 * x * x)
                            * np.exp(1j * rng.uniform(-1, 1) * x))
        g = fd.GridFunction(grid, np.exp(-c2 * (x - rng.uniform(-1, 1)) ** 2)
                            + 0.2j * np.exp(-x * x))
        rep = fd.heat_flow_experiment(A, B, f, g, p)
        ok &= rep["monotone"] and rep["budget_ok"] and rep["ratio"] <= 1.0
    _report(10, ok, "heat-flow energy monotone and within the closed bound "
                    "on 20 pairs")


def test_criterion_11_mollification():
    rng = np.random.default_rng(1111)
    grid = fd.Grid(2, 16, 1.0, "periodic")
    h = grid.h
    ok = True
    for _ in range(20):
        A0 = _random_accretive(rng, 2, scale=rng.uniform(0.2, 0.5))
        A1 = _random_accretive(rng, 2, scale=rng.uniform(0.2, 0.5))
        kx, ky = rng.integers(1, 4, 2)
        c = rng.uniform(0, 2 * np.pi)
        F = fd.two_value_field(
            grid, A0, A1,
            lambda X, Y: np.cos(kx * np.pi * X + ky * np.pi * Y + c) > 0)
        p = float(rng.choice([2.5, 4.0, 8.0]))
        d0, m0 = el.delta_p(F, p), el.mu(F)
        for eps in (h, 2 * h, 4 * h):
            G = fd.mollify(F, eps)
            ok &= el.delta_p(G, p) >= d0 - 1e-10
            ok &= el.mu(G) >= m0 - 1e-8
    _report(11, ok, "mollification never decreases delta_p or mu "
                    "(20 two-value fields, eps in {h, 2h, 4h})")


def test_criterion_12_divergence():
    best_n, best = None, 0.0
    for n in range(1, 201):
        res = hn.tensorized_demo(1.4, 4.0, n)
        if res.N_p_lower > 1e3:
            best_n, best = n, res.N_p_lower
            break
    _report(12, best_n is not None,
            f"divergence: N_p lower bound {best:.4g} at n={best_n}")
