"""Batch command-line front end.

Subcommands wrap the library modules one-to-one and hold no numerics of
their own: ``ellipticity``, ``bellman``, ``dissipativity``,
``counterexample``, ``heatflow`` and ``heatnorm``.  Reports are emitted
as CSV or JSON with the seed recorded, so a rerun with the same config
is byte-identical.

Exit codes: 0 success, 2 input error (bad or non-finite flags, values
the library rejects with ParameterError, malformed or non-accretive
spec), 3 verification failure (a checked mathematical property did
not hold), 1 internal error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import io
import json
import math
import os
import sys

import numpy as np

from . import ParameterError, __version__, bellman, ellipticity, field, heatnorm

__all__ = ["main", "load_spec", "run", "emit_report",
           "InputError", "VerificationError"]


class InputError(Exception):
    """Bad user input: malformed spec, failed validation, bad ranges."""


class VerificationError(Exception):
    """A verified mathematical property failed to hold."""


# ---------------------------------------------------------------------------
# spec files


def _entries_to_array(entries) -> np.ndarray:
    """Nested lists with innermost [re, im] pairs -> complex ndarray."""
    arr = np.asarray(entries, dtype=float)
    if arr.shape[-1] != 2:
        raise InputError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def load_spec(path: str):
    """Load a matrix or matrix-field specification from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    return spec_from_dict(doc)


def spec_from_dict(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("spec must be an object with a 'kind' key")
    kind = doc["kind"]
    try:
        if kind == "rotation":
            return ellipticity.MatrixSpec(kind="rotation", phi=float(doc["phi"]),
                                          n=int(doc.get("n", 2)))
        if kind == "skew":
            return ellipticity.MatrixSpec(kind="skew", w=float(doc["w"]))
        if kind == "constant":
            return ellipticity.MatrixSpec(
                kind="constant", matrix=_entries_to_array(doc["entries"]))
        if kind == "rotated":
            B = _entries_to_array(doc["entries"])
            return ellipticity.MatrixSpec(kind="rotated", matrix=B,
                                          phi=float(doc["phi"]))
        if kind == "field":
            return _field_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid spec: {exc}") from exc
    raise InputError(f"unknown spec kind {kind!r}")


def _field_from_dict(doc: dict) -> field.MatrixField:
    gdoc = doc["grid"]
    grid = field.Grid(dim=int(gdoc["dim"]), cells=int(gdoc["cells"]),
                      extent=float(gdoc["extent"]),
                      boundary=gdoc.get("boundary", "periodic"))
    if "entries" in doc:
        return field.MatrixField(grid, _entries_to_array(doc["entries"]))
    gen = doc["generator"]
    name = gen["name"]
    if name == "rotation":
        A = ellipticity.rotation_matrix(float(gen["phi"]), grid.dim)
        return field.constant_field(grid, A)
    if name == "skew":
        if grid.dim != 2:
            raise InputError("skew generator needs a 2-D grid")
        return field.constant_field(grid, ellipticity.skew_matrix(float(gen["w"])))
    if name == "section7":
        return field.section7_field(grid, float(gen["gamma"]))
    raise InputError(f"unknown field generator {name!r}")


def _coefficient(spec, grid: field.Grid) -> field.MatrixField:
    """Realize a spec as a matrix field on the given grid."""
    if isinstance(spec, field.MatrixField):
        return spec
    A = spec.realize()
    if A.shape[-1] != grid.dim:
        raise InputError(
            f"matrix dimension {A.shape[-1]} does not match grid dim {grid.dim}")
    return field.constant_field(grid, A)


_MAX_SCAN_VALUES = 10_000


def _parse_scan(text: str) -> np.ndarray:
    """'start:stop:step' -> inclusive grid of at most _MAX_SCAN_VALUES values."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise InputError(f"bad scan range {text!r} (want start:stop:step)") from exc
    span = (stop - start) / step + 1e-9 if start <= stop and step > 0 else -1.0
    if not 0 <= span < _MAX_SCAN_VALUES:  # also rejects nan and inf
        raise InputError(f"bad scan range {text!r} (want finite start <= stop, "
                         f"step > 0, at most {_MAX_SCAN_VALUES} values)")
    return start + step * np.arange(int(span) + 1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ellipticity(args) -> list[dict]:
    spec = load_spec(_require(args, "spec"))
    A = spec.realize() if isinstance(spec, ellipticity.MatrixSpec) else spec
    rep = ellipticity.ellipticity_report(A, args.p)
    return [{
        "p": rep.p, "lambda": rep.lam, "Lambda": rep.Lam, "nu": rep.nu,
        "delta_p": rep.delta_p, "mu": rep.mu, "w_p_norm": rep.w_p_norm,
        "p_min": rep.p_range[0], "p_max": rep.p_range[1],
    }]


def _cmd_bellman(args) -> list[dict]:
    spec = load_spec(_require(args, "spec"))
    if isinstance(spec, field.MatrixField):
        raise InputError("bellman verification needs a constant matrix spec")
    A = spec.realize()
    B = A if args.spec_b is None else load_spec(args.spec_b).realize()
    p = args.p
    c = bellman.pair_constants(A, B, p)
    if c.delta_p > 0:
        params = bellman.BellmanParams(p, c.delta)
        out = bellman.convexity_verify(params, A, B)
        row = {"p": p, "delta": params.delta, "delta_p": c.delta_p,
               "min_ratio": out["min_ratio"], "bound": out["bound"],
               "passed": out["pass"], "violation": ""}
        if not out["pass"]:
            raise VerificationError(
                f"convexity bound violated: min_ratio={out['min_ratio']:.6g} "
                f"< bound={out['bound']:.6g}")
        return [row]
    params = bellman.BellmanParams(p, 0.5)
    wit = bellman.violation_search(
        params, A if ellipticity.delta_p(A, p) < 0 else B, B)
    return [{"p": p, "delta": 0.5, "delta_p": c.delta_p,
             "min_ratio": wit["value"], "bound": 0.0, "passed": True,
             "violation": f"negative branch value {wit['value']:.6g}"}]


# The identity checks need a Bellman delta > 0 even when A lies outside
# the q-range (delta_q(A) <= 0), so delta's input is floored here.
_DELTA_Q_FLOOR = 1e-6


def _cmd_dissipativity(args) -> list[dict]:
    grid = field.Grid(2, args.grid_cells, args.extent, "periodic")
    spec = load_spec(_require(args, "spec"))
    A = _coefficient(spec, grid if not isinstance(spec, field.MatrixField)
                     else spec.grid)
    grid = A.grid
    rng = np.random.default_rng(args.seed)
    B = A
    f_probe, g_probe = _smooth_pair(grid, rng)
    value, companion = field.dissipativity_functional(A, f_probe, args.p)
    c = bellman.pair_constants(A, B, args.p)
    delta = bellman.delta_choice(c.lam, c.Lam, max(c.delta_q_B, _DELTA_Q_FLOOR))
    params = bellman.BellmanParams(args.p, delta)
    res = field.identity_checks(A, B, f_probe, g_probe, params)
    row = {"p": args.p, "value": value, "companion": companion,
           "hessian_identity": res["hessian_identity"],
           "antisymmetric_divfree": res["antisymmetric_divfree"],
           "chain_rule": res["chain_rule"]}
    if c.delta_p >= 0 and value < -1e-8:
        raise VerificationError(
            f"dissipativity functional negative ({value:.6g}) although the "
            "p-ellipticity constant is nonnegative")
    return [row]


def _smooth_pair(grid, rng):
    L = grid.extent
    coords = grid.meshes()
    k = rng.integers(1, 3, size=(2, grid.dim))
    a = rng.uniform(0.1, 0.3, size=4)

    def mk(base, kk, a1, a2):
        tr = np.ones(grid.shape)
        for c, kc in zip(coords, kk):
            tr = tr * np.cos(kc * np.pi * c / L)
        return base + a1 * tr + 1j * a2 * np.sin(np.pi * coords[0] / L)

    f = field.GridFunction(grid, mk(2.0, k[0], a[0], a[1]))
    g = field.GridFunction(grid, mk(0.5, k[1], a[2], a[3]))
    return f, g


def _scan_gamma(task):
    p, gamma, cells, extent = task
    grid = field.Grid(2, cells, extent, "periodic")
    out = field.counterexample_section7(p, gamma, grid)
    return {"gamma": gamma, "p": p, "value": out["value"],
            "elliptic_r": out["terms"][0], "elliptic_phi": out["terms"][1],
            "rotational": out["terms"][2],
            "decomposition_error": out["decomposition_error"],
            "negative": out["value"] < 0}


def _cmd_counterexample(args) -> list[dict]:
    gammas = _parse_scan(args.gamma_scan or "0.5:0.99:0.01")
    gammas = gammas[(gammas > 0) & (gammas < 1)]
    tasks = [(args.p, float(gv), args.grid_cells, args.extent) for gv in gammas]
    rows = list(_map(_scan_gamma, tasks, args.workers))
    first = True
    for row in rows:
        row["first_negative"] = bool(row["negative"] and first)
        if row["negative"]:
            first = False
    return rows


def _cmd_heatflow(args) -> list[dict]:
    grid = field.Grid(1, args.grid_cells, args.extent, "periodic")
    spec = load_spec(_require(args, "spec"))
    A = _coefficient(spec, grid)
    B = A
    rng = np.random.default_rng(args.seed)
    x = grid.axis()
    fv = np.exp(-x * x) * np.exp(1j * rng.uniform(0, 2 * np.pi) * np.sin(np.pi * x / grid.extent))
    gv = np.exp(-0.5 * x * x) * (1 + 0.2 * np.cos(np.pi * x / grid.extent))
    f = field.GridFunction(grid, fv)
    g = field.GridFunction(grid, gv)
    rep = field.heat_flow_experiment(A, B, f, g, args.p)
    rows = [{"t": float(t), "energy": float(e), "bilinear": float(b),
             "ratio": rep["ratio"], "monotone": rep["monotone"]}
            for t, e, b in zip(rep["times"], rep["energy"], rep["bilinear"])]
    if not rep["monotone"]:
        raise VerificationError("Bellman energy was not nonincreasing")
    if rep["ratio"] > 1.0:
        raise VerificationError(
            f"bilinear time integral exceeded the closed bound "
            f"(ratio {rep['ratio']:.6g})")
    return rows


def _heatnorm_point(task):
    phi, p, n = task
    res = heatnorm.tensorized_demo(phi, p, n)
    return {"p": p, "phi": phi, "C": res.C, "oracle": res.oracle,
            "n": n, "C_pow_n": res.C_pow_n, "N_p_lower": res.N_p_lower}


def _cmd_heatnorm(args) -> list[dict]:
    phis = (_parse_scan(args.phi_grid) if args.phi_grid
            else np.array([args.phi if args.phi is not None else 0.0]))
    phis = phis[np.abs(phis) < math.pi / 2]
    tasks = sorted((float(ph), args.p, args.n) for ph in phis)
    rows = list(_map(_heatnorm_point, tasks, args.workers))
    for row in rows:
        if abs(row["oracle"] - row["C"]) > 1e-5:
            raise VerificationError(
                f"Gaussian oracle {row['oracle']:.8g} disagrees with the "
                f"closed form {row['C']:.8g} at phi={row['phi']}")
    return rows


def _map(fn, tasks, workers):
    workers = min(workers or 1, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def _require(args, name):
    val = getattr(args, name, None)
    if val is None:
        raise InputError(f"--{name.replace('_', '-')} is required")
    return val


# ---------------------------------------------------------------------------
# report emission


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def emit_report(records: list[dict], fmt: str, path, meta: dict) -> None:
    if not records:
        raise InputError("nothing to report")
    if fmt == "csv":
        buf = io.StringIO()
        keys = list(records[0].keys())
        buf.write(",".join(keys) + "\n")
        for rec in records:
            buf.write(",".join(_fmt(rec.get(k, "")) for k in keys) + "\n")
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps({"meta": meta, "rows": records}, indent=2,
                          default=_json_default) + "\n"
    else:
        raise InputError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# entry point


_DISPATCH = {
    "ellipticity": _cmd_ellipticity,
    "bellman": _cmd_bellman,
    "dissipativity": _cmd_dissipativity,
    "counterexample": _cmd_counterexample,
    "heatflow": _cmd_heatflow,
    "heatnorm": _cmd_heatnorm,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pellip",
        description="Numerical toolkit for p-ellipticity of complex "
                    "coefficient matrices and the associated operators")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name)
        sp.add_argument("--spec", help="path to a JSON matrix/field spec")
        sp.add_argument("--spec-b", help="optional second matrix spec")
        sp.add_argument("--p", type=float, default=4.0)
        sp.add_argument("--phi", type=float)
        sp.add_argument("--phi-grid", help="phi sweep start:stop:step")
        sp.add_argument("--gamma-scan", help="gamma sweep start:stop:step")
        sp.add_argument("--grid-cells", type=int, default=64)
        sp.add_argument("--extent", type=float, default=4.0)
        sp.add_argument("--budget", type=int, default=10_000, help="unused; kept for old argv")
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--seed", type=int, default=20_240_817)
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--workers", type=int, default=1)
    return ap


def run(args) -> int:
    for name in ("p", "phi", "extent"):
        val = getattr(args, name)
        if val is not None and not math.isfinite(val):
            raise InputError(f"--{name} must be finite, got {val}")
    rows = _DISPATCH[args.subcommand](args)
    meta = {"seed": args.seed, "version": __version__,
            "command": args.subcommand}
    emit_report(rows, args.format, args.out, meta)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except (InputError, ParameterError) as exc:  # library range checks too
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
