import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellip import ParameterError, VerificationError
from pellip import heatnorm as hn


def test_phi_p_values():
    assert abs(hn.phi_p(2.0) - math.pi / 2) < 1e-15
    assert abs(hn.phi_p(4.0) - math.pi / 3) < 1e-15
    for p in (1.3, 2.7, 6.0):
        q = p / (p - 1)
        assert abs(hn.phi_p(p) - hn.phi_p(q)) < 1e-14
    with pytest.raises(ValueError):
        hn.phi_p(1.0)
    with pytest.raises(ValueError):
        hn.phi_p(math.inf)


def test_constant_inside_sector_is_one():
    for p in (1.5, 2.0, 4.0, 10.0):
        crit = hn.phi_p(p)
        for phi in (0.0, 0.5 * crit, crit - 1e-9):
            assert hn.heat_norm_constant(phi, p) == 1.0


def test_constant_symmetries_and_monotonicity():
    for p in (1.4, 3.0, 8.0):
        q = p / (p - 1)
        for phi in (0.3, 1.0, 1.5):
            C = hn.heat_norm_constant(phi, p)
            assert abs(C - hn.heat_norm_constant(phi, q)) < 1e-14
            assert abs(C - hn.heat_norm_constant(-phi, p)) < 1e-15
        phis = np.linspace(hn.phi_p(p) + 1e-6, 1.55, 30)
        vals = [hn.heat_norm_constant(x, p) for x in phis]
        assert all(v1 > v0 for v0, v1 in zip(vals, vals[1:]))
        assert all(v > 1.0 for v in vals)


def test_endpoint_limit():
    # as p -> 1 (or infinity) the constant approaches 1/sqrt(cos phi)
    phi = 1.2
    want = 1.0 / math.sqrt(math.cos(phi))
    assert abs(hn.heat_norm_constant(phi, 1) - want) < 1e-15
    assert abs(hn.heat_norm_constant(phi, math.inf) - want) < 1e-15
    seq = [hn.heat_norm_constant(phi, 1 + 10.0 ** (-k)) for k in (2, 4, 6)]
    errs = [abs(s - want) for s in seq]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


@pytest.mark.parametrize("phi,p,want", [
    # 40-digit evaluations of the closed form, rounded to double
    (-1.547, 37.9, 5.5285002342627547),
    (1.57, 1.5, 2.6070030906670331),
    (1.57, 1.05, 22.952656761489755),
])
def test_constant_accurate_near_right_angle(phi, p, want):
    # sigma - gamma and 1 - gamma cancel as |phi| -> pi/2
    assert abs(hn.heat_norm_constant(phi, p) - want) <= 1e-15 * want


def test_domain_errors():
    with pytest.raises(ValueError):
        hn.heat_norm_constant(1.6, 4.0)
    with pytest.raises(ValueError):
        hn.heat_norm_constant(0.5, 0.9)
    with pytest.raises(ValueError):
        hn.tensorized_demo([0.3], 4.0, 0)


def test_oracle_matches_formula():
    for p, phi in [(4.0, 0.2), (4.0, 1.2), (1.5, 1.4), (8.0, 0.9), (2.0, 1.0)]:
        C = hn.heat_norm_constant(phi, p)
        assert abs(hn.gaussian_oracle(phi, p) - C) < 1e-6


def test_tensorized_demo_divergence():
    p, phi = 4.0, 1.4
    [out] = hn.tensorized_demo([phi], p, 150)
    assert out.C > 1.0
    assert abs(out.C_pow_n - out.C ** 150) < 1e-9 * out.C_pow_n
    assert out.N_p_lower == out.C_pow_n / 2.0
    assert out.N_p_lower > 1e3
    [inside] = hn.tensorized_demo([0.2], p, 50)
    assert inside.C == 1.0 and inside.C_pow_n == 1.0


def test_tensorized_demo_overflow_is_parameter_error():
    # C(1.4, 4) ~ 1.23, so C^n passes the largest float near n = 3381
    with pytest.raises(ParameterError, match="overflows"):
        hn.tensorized_demo([1.4], 4.0, 100_000)
    [inside] = hn.tensorized_demo([0.2], 4.0, 10**9)
    assert inside.C_pow_n == 1.0


# Near |phi| = pi/2 the optimal arg a moves to the edge +-pi/2, which the
# oracle scans on a grid logarithmic in the distance to it (|oracle - C| <=
# 5e-12 at phi = 1.5707963, p = 40); the two are compared to 1e-12 on
# |phi| <= 1.5, and only one-sided beyond.


@given(p=st.floats(min_value=1.05, max_value=40.0), phi=st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=150, deadline=None)
def test_oracle_is_the_sharp_constant(p, phi):
    o = hn.gaussian_oracle(phi, p)
    if abs(phi) <= hn.phi_p(p) - 1e-9:
        assert o == 1.0
    else:
        assert abs(o - hn.heat_norm_constant(phi, p)) <= 1e-12


@pytest.mark.parametrize("phi,p", [(1.57, 10.0), (1.57079, 10.0), (1.570795, 40.0)])
def test_oracle_not_above_the_constant_at_right_angle(phi, p):
    # |1 + 4za| is small at the optimal width there; computed as
    # 1 + 4za it overshot C by 4.6e-11, 5.0e-7 and 3.8e-5
    for s in (1.0, -1.0):
        assert hn.gaussian_oracle(s * phi, p) <= hn.heat_norm_constant(s * phi, p) * (1 + 1e-14)


@given(p=st.floats(min_value=1.05, max_value=40.0),
       phi=st.floats(min_value=1.5, max_value=math.pi / 2 - 1e-6, exclude_min=True),
       sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=100, deadline=None)
def test_oracle_is_a_lower_bound_near_right_angle(p, phi, sign):
    # every oracle value is a Gaussian's norm ratio, so it cannot exceed C
    assert hn.gaussian_oracle(sign * phi, p) <= hn.heat_norm_constant(sign * phi, p) * (1 + 1e-14)


def _direct_ratio(a, phi, p, t):
    """The Gaussian norm ratio straight from its definition: the evolution
    at z maps exp(-a x^2) to (1+4za)^{-1/2} exp(-b x^2), b = a/(1+4za)."""
    den = 1.0 + 4.0 * t * np.exp(1j * phi) * a
    return np.abs(den) ** -0.5 * (a.real / (a / den).real) ** (1.0 / (2.0 * p))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0])
@pytest.mark.parametrize("phi", [0.3, 0.9, 1.2, 1.45, -1.1])
def test_random_gaussians_never_beat_the_oracle(p, phi):
    r = np.random.default_rng(int(1000 * p + 100 * phi) % 2**32)
    t = 0.7
    rho = np.exp(r.uniform(-12.0, 12.0, 50_000))
    theta = r.uniform(-math.pi / 2, math.pi / 2, rho.size)
    direct = _direct_ratio(rho * np.exp(1j * theta) / (4.0 * t), phi, p, t)
    assert np.allclose(hn._gaussian_ratio(rho, theta, phi, p), direct, rtol=1e-13, atol=0.0)
    assert direct.max() <= hn.gaussian_oracle(phi, p) + 1e-12


def test_gaussian_ratio_vanishes_off_the_admissible_widths():
    # zooms may step past arg a = +-pi/2, where Re a < 0, and a clipped
    # root of the width optimum is rho = 0, where a = 0
    theta = np.array([2.68, -math.pi / 2 - 1e-3, math.pi / 2 + 0.1,
                      np.nextafter(math.pi / 2, 4.0), 0.6, 0.6])
    rho = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    vals = hn._gaussian_ratio(rho, theta, 0.4, 4.0)
    assert vals[:5].tolist() == [0.0] * 5 and 0.0 < vals[5] <= 1.0


@pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 3.0, 40.0, 1e4])
@pytest.mark.parametrize("phi", [-1.5707963, -1.0, -1e-9, 0.0, 1e-12, 0.3, 1.4, 1.5707963])
def test_dropped_sign_of_arg_a_never_beats_the_scanned_one(p, phi):
    # gaussian_oracle scans arg a of one sign, 1 if phi (p - 2) > 0 else
    # -1; at every width and |arg a| the other sign's ratio is no larger
    # (ties at p = 2 and phi = 0 are exact), and neither is its optimum
    # over the width, against the a -> 0 limit 1.  Measured 0 ulp of
    # excess here; the slack allows for rounding of sin and cos
    r = np.random.default_rng(int(1e6 * p + 1e3 * phi) % 2**32)
    rho = np.exp(r.uniform(np.log(1e-6), np.log(1e6), (400, 1)))
    theta = (math.pi / 2 - np.exp(r.uniform(np.log(1e-17), np.log(math.pi / 2), 400)))
    s = 1.0 if phi * (p - 2.0) > 0 else -1.0
    kept = hn._gaussian_ratio(rho, s * theta, phi, p)
    dropped = hn._gaussian_ratio(rho, -s * theta, phi, p)
    assert np.all(dropped <= kept * (1 + 4e-16))
    if p == 2.0 or phi == 0.0:
        assert np.array_equal(dropped, kept)
    assert np.all(hn._width_optimum(-s * theta, phi, p)
                  <= np.maximum(hn._width_optimum(s * theta, phi, p), 1.0) * (1 + 4e-16))


_ANGLE = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.5707963, -1.5707963]),
                   st.floats(min_value=-1.5707963, max_value=1.5707963))
_R = hn._ORACLE_ROWS


@given(phis=st.sampled_from([1, 2, _R - 1, _R, _R + 1, 2 * _R + 1]).flatmap(
           lambda n: st.lists(_ANGLE, min_size=n, max_size=n)),
       p=st.one_of(st.just(2.0), st.floats(min_value=1.05, max_value=2.0),
                   st.floats(min_value=2.0, max_value=40.0)))
@settings(max_examples=60, deadline=None)
def test_batched_oracle_is_the_scalar_oracle(phis, p):
    # one row per angle, each with its own sign of arg a, in blocks of
    # _ORACLE_ROWS rows: every entry is bit for bit the scalar value
    batch = hn.gaussian_oracle(np.array(phis), p)
    assert batch.shape == (len(phis),)
    for k, phi in enumerate(phis):
        assert batch[k] == hn.gaussian_oracle(phi, p)


def test_batched_oracle_memory_is_one_block():
    # 2000 angles in one block would hold about 300 MB at the first round
    phis = np.linspace(-1.5, 1.5, 2000)
    tracemalloc.start()
    try:
        hn.gaussian_oracle(phis, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_tensorized_demo_raises_at_the_first_disagreeing_angle(monkeypatch):
    # the oracle is compared with C after its one call, in input order
    monkeypatch.setattr(hn, "gaussian_oracle", lambda phi, p: np.full(np.shape(phi), 2.0))
    with pytest.raises(VerificationError) as exc:
        hn.tensorized_demo([0.5, 0.2], 4.0, 1)
    assert str(exc.value) == "Gaussian oracle 2 disagrees with the closed form 1 at phi=0.5"


def test_tensorized_demo_checks_every_angle_before_the_oracle(monkeypatch):
    # a refused angle anywhere in the sweep raises its ParameterError, and
    # the oracle scans no angle, not even those before it
    calls = []
    monkeypatch.setattr(hn, "gaussian_oracle", lambda phi, p: calls.append(phi))
    for phis, match in (([0.2, 1.4, 1.6, 0.3], "pi/2"), ([1.6, 0.2], "pi/2"),
                        ([0.2, 1.4, 1.5707963], "overflows")):
        with pytest.raises(ParameterError, match=match):
            hn.tensorized_demo(phis, 4.0, 3000)
    assert calls == []
