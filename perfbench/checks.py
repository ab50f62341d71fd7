"""Output checks against the paper's invariants.

Each check reads the JSON report of one job and returns a list of
problems (empty when the job passed).  The checks test invariants, not
bytes: a closed form where the paper gives one, otherwise a bound that
any correct answer satisfies (a sampled value the exact minimum cannot
exceed, a convexity ratio that must stay above the proven bound).  A
sharper search that lowers ``min_ratio`` or an exact reduction that
changes the last digits still passes.

The reference formulas are written out here rather than imported from
pellip, so the check does not share code with what it checks.
"""

from __future__ import annotations

import json
import math

import numpy as np

CLOSED_TOL = 1e-9     # exact eigen-reductions against closed forms
ORACLE_TOL = 1e-5     # Gaussian oracle against the closed heat constant
SAMPLE_SLACK = 0.05   # how far below a sampled minimum an exact one may sit


def _phat(p: float) -> float:
    return 1.0 - 2.0 / p


def _complex(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def closed_delta(spec: dict, p: float):
    """Closed-form p-ellipticity constant of a spec, p >= 2, or None.

    rotation e^{i phi} I: cos(phi) - |1 - 2/p|.
    skew I + i w R and the section-7 field I - i gamma chi_E R (whose
    worst cell is the skew one): 1 - sqrt((1 - 2/p)^2 + w^2).
    """
    if spec["kind"] == "rotation":
        return math.cos(spec["phi"]) - abs(_phat(p))
    if spec["kind"] == "skew":
        return 1.0 - math.hypot(_phat(p), spec["w"])
    gen = spec.get("generator", {})
    if gen.get("name") == "section7":
        return 1.0 - math.hypot(_phat(p), gen["gamma"])
    return None


def sampled_delta(mats: np.ndarray, p: float, samples: int = 256,
                  seed: int = 0) -> float:
    """min over cells and sampled unit xi of
    Re<A xi, xi> - |1 - 2/p| |<A xi, conj xi>|: an upper bound on the
    exact p-ellipticity constant."""
    mats = mats.reshape((-1,) + mats.shape[-2:])
    n = mats.shape[-1]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    AX = np.einsum("cjk,sk->csj", mats, X)
    re = np.real(np.sum(AX * X.conj(), axis=-1))
    tw = np.abs(np.sum(AX * X, axis=-1))
    return float((re - abs(_phat(p)) * tw).min())


def _delta_problems(spec: dict, p: float, got: float, what: str) -> list:
    ref = closed_delta(spec, p)
    if ref is not None:
        if abs(got - ref) > CLOSED_TOL:
            return [f"{what}: delta_p {got:.12g} != closed form {ref:.12g}"]
        return []
    mats = _complex(spec["entries"])
    up = sampled_delta(mats, p, samples=4096 if mats.ndim == 2 else 256)
    if not up - SAMPLE_SLACK <= got <= up + CLOSED_TOL:
        return [f"{what}: delta_p {got:.12g} outside [{up - SAMPLE_SLACK:.6g}, "
                f"sampled {up:.12g}]"]
    return []


def _check_heatflow(job, rows) -> list:
    out = []
    times = [r["t"] for r in rows]
    energy = [r["energy"] for r in rows]
    if len(rows) < 2 or any(b <= a for a, b in zip(times, times[1:])):
        out.append("heatflow: times are not increasing")
    if not all(math.isfinite(e) and e > 0 for e in energy):
        out.append("heatflow: energy not finite and positive")
    # same tolerance as the experiment's own monotonicity test
    if any(b > a + 1e-9 * max(a, 1.0) for a, b in zip(energy, energy[1:])):
        out.append("heatflow: Bellman energy increased")
    ratio = rows[0]["ratio"]
    if not (math.isfinite(ratio) and 0 <= ratio <= 1.0):
        out.append(f"heatflow: bilinear ratio {ratio} not in [0, 1]")
    if not all(r["monotone"] for r in rows):
        out.append("heatflow: report says not monotone")
    return out


def _check_bellman(job, rows) -> list:
    (row,) = rows
    p = float(job.option("p"))
    specs = [job.specs["a.json"]] + ([job.specs["b.json"]] if "b.json" in job.specs else [])
    refs = [closed_delta(s, p) for s in specs]
    out = []
    if None not in refs and abs(row["delta_p"] - min(refs)) > CLOSED_TOL:
        out.append(f"bellman: joint delta_p {row['delta_p']:.12g} != closed "
                   f"form {min(refs):.12g}")
    if None in refs:
        out += _delta_problems(specs[0], p, row["delta_p"], "bellman")
    if job.cls == "bellman.inside":
        if not row["delta_p"] > 0 or not row["bound"] > 0:
            out.append("bellman: convexity branch without a positive bound")
        if not (row["passed"] and row["min_ratio"] >= row["bound"] - 1e-8):
            out.append(f"bellman: min_ratio {row['min_ratio']:.6g} below "
                       f"bound {row['bound']:.6g}")
        if row["violation"]:
            out.append("bellman: violation reported inside the angle")
    else:
        if not row["delta_p"] < 0:
            out.append("bellman: violation branch with delta_p >= 0")
        if not (row["min_ratio"] < 0 and row["violation"]):
            out.append(f"bellman: no negative witness ({row['min_ratio']})")
    return out


def _check_ellipticity(job, rows) -> list:
    (row,) = rows
    p = float(job.option("p"))
    out = _delta_problems(job.specs["a.json"], p, row["delta_p"], "ellipticity")
    d = row["delta_p"]
    if not 0 < row["lambda"] <= row["Lambda"]:
        out.append("ellipticity: not 0 < lambda <= Lambda")
    if not 0 <= row["nu"] < math.pi / 2:
        out.append(f"ellipticity: sector angle {row['nu']} outside [0, pi/2)")
    # ||W_p|| <= 1 exactly when delta_p >= 0
    if abs(d) > 1e-7 and (row["w_p_norm"] <= 1.0) != (d >= 0):
        out.append(f"ellipticity: ||W_p|| = {row['w_p_norm']:.6g} "
                   f"inconsistent with delta_p = {d:.6g}")
    # p lies in the p-ellipticity interval exactly when delta_p > 0
    if abs(d) > 1e-7 and (row["p_min"] < p < row["p_max"]) != (d > 0):
        out.append("ellipticity: p-range inconsistent with delta_p")
    return out


def heat_constant(phi: float, p: float) -> float:
    """Closed-form C(phi, p): 1 inside |phi| <= arccos|1 - 2/p|, the
    fourth-root expression outside."""
    sigma = abs(_phat(p))
    c = math.cos(phi)
    if c >= sigma:
        return 1.0
    g = math.sqrt(sigma * sigma - c * c) / abs(math.sin(phi))
    return ((1 - g) / (1 + g) * ((sigma + g) / (sigma - g)) ** sigma) ** 0.25


def _check_heatnorm(job, rows) -> list:
    out = []
    p = float(job.option("p"))
    n = int(job.option("n"))
    for r in rows:
        ref = heat_constant(r["phi"], p)
        if abs(r["C"] - ref) > CLOSED_TOL:
            out.append(f"heatnorm: C({r['phi']:.4g}) = {r['C']:.12g} != {ref:.12g}")
        if abs(r["oracle"] - ref) > ORACLE_TOL:
            out.append(f"heatnorm: oracle {r['oracle']:.10g} != {ref:.10g} "
                       f"at phi={r['phi']:.4g}")
        if abs(r["C_pow_n"] - ref ** n) > CLOSED_TOL * max(1.0, ref ** n):
            out.append("heatnorm: C^n disagrees with C")
    return out


def _check_counterexample(job, rows) -> list:
    out = []
    values = [r["value"] for r in rows]
    negative = [v < 0 for v in values]
    if job.option("p") == "40":
        if not any(negative):
            out.append("counterexample: no negative value at p = 40")
    elif any(negative):
        out.append("counterexample: negative value inside the p-elliptic range")
    first = [r["first_negative"] for r in rows]
    expect = [neg and not any(negative[:i]) for i, neg in enumerate(negative)]
    if first != expect:
        out.append("counterexample: first_negative flags wrong")
    if any(r["decomposition_error"] > 1e-10 for r in rows):
        out.append("counterexample: decomposition disagrees with direct value")
    return out


def _check_dissipativity(job, rows) -> list:
    (row,) = rows
    p = float(job.option("p"))
    out = []
    d = closed_delta(job.specs["a.json"], p)
    if d >= 0 and row["value"] < -1e-8:
        out.append(f"dissipativity: value {row['value']:.6g} < 0 with delta_p >= 0")
    if row["antisymmetric_divfree"] > 1e-9:
        out.append("dissipativity: antisymmetric pairing not zero on a periodic grid")
    if not all(math.isfinite(row[k]) for k in ("value", "companion",
                                                 "hessian_identity", "chain_rule")):
        out.append("dissipativity: non-finite output")
    return out


_CHECKS = {
    "heatflow": _check_heatflow,
    "bellman": _check_bellman,
    "ellipticity": _check_ellipticity,
    "heatnorm": _check_heatnorm,
    "counterexample": _check_counterexample,
    "dissipativity": _check_dissipativity,
}


def check(job, rc: int, stdout: str, stderr: str) -> list:
    """Problems with one job's result; empty when it passed."""
    if rc != 0:
        return [f"{job.argv[0]}: exit code {rc}: {stderr.strip()[:200]}"]
    try:
        return _CHECKS[job.argv[0]](job, json.loads(stdout)["rows"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{job.argv[0]}: malformed report: {exc!r}"]
