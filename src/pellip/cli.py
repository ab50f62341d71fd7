"""Batch command-line front end.

Subcommands wrap the library modules one-to-one and hold no numerics of
their own.  Each declares only the flags it reads (``_COMMANDS``) besides
the shared ``--seed``, ``--out`` and ``--format``; argparse rejects any
other flag with exit 2.  A spec file loads to a validated complex (n, n)
matrix or a ``field.MatrixField``: ``bellman`` takes matrices of one
size, ``dissipativity`` and ``heatflow`` spread a matrix over their
--grid-cells grid and run a field on its own grid.  Reports are emitted
as CSV or JSON with the seed recorded, so a rerun with the same config
is byte-identical.

Exit codes: 0 success, 2 input error (bad or non-finite flags, values
the library rejects with ParameterError, malformed or non-accretive
spec), 3 verification failure (a checked mathematical property did
not hold), 1 internal error, including a NaN in any reported column
(inf is a legal value: ``ellipticity`` reports p_max = inf for real
matrices).
"""

from __future__ import annotations

import argparse
import io
import json
import math
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
    if not np.isfinite(arr).all():
        raise InputError("matrix entries must be finite (no NaN or Infinity)")
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


# e^{i phi} I_n is dense and bellman solves 4n x 4n eigenproblems at
# every scan point: its run takes ~4x longer per doubling of n, 37 s at
# n = 32 on one core.  So a rotation spec's n is capped there.
_MAX_ROTATION_N = 32


def spec_from_dict(doc: dict):
    """A validated complex (n, n) matrix, or a field.MatrixField."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("spec must be an object with a 'kind' key")
    kind = doc["kind"]
    try:
        if kind == "rotation":
            phi, n = _number(doc, "phi"), doc.get("n", 2)
            if not abs(phi) < math.pi / 2:
                raise InputError("rotation angle must satisfy |phi| < pi/2")
            if type(n) is not int or not 1 <= n <= _MAX_ROTATION_N:
                raise InputError("rotation dimension n must be an integer in "
                                 f"[1, {_MAX_ROTATION_N}], got {n!r}")
            return ellipticity.rotation_matrix(phi, n)
        if kind == "skew":
            w = _number(doc, "w")
            if not abs(w) < 1:
                raise InputError("skew parameter must satisfy |w| < 1")
            return ellipticity.skew_matrix(w)
        if kind == "constant":
            return _accretive(_entries_to_array(doc["entries"]))
        if kind == "rotated":
            return _accretive(ellipticity.rotated_matrix(
                _entries_to_array(doc["entries"]), _number(doc, "phi")))
        if kind == "field":
            return _field_from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid spec: {exc}") from exc
    raise InputError(f"unknown spec kind {kind!r}")


def _number(doc: dict, key: str) -> float:
    """A spec scalar: a JSON number, not a bool or a numeric string."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def _accretive(A: np.ndarray) -> np.ndarray:
    if A.ndim != 2:
        raise InputError("a matrix spec needs n x n entries")
    if not ellipticity.accretivity_bounds(A)[0] > 0:
        raise InputError("matrix is not accretive (lambda <= 0)")
    return A


def _field_from_dict(doc: dict) -> field.MatrixField:
    gdoc = doc["grid"]
    grid = field.Grid(dim=gdoc["dim"], cells=gdoc["cells"],
                      extent=_number(gdoc, "extent"),
                      boundary=gdoc.get("boundary", "periodic"))
    if "entries" in doc:
        return field.MatrixField(grid, _entries_to_array(doc["entries"]))
    gen = doc["generator"]
    name = gen["name"]
    if name == "rotation":
        A = ellipticity.rotation_matrix(_number(gen, "phi"), grid.dim)
        return field.constant_field(grid, A)
    if name == "skew":
        if grid.dim != 2:
            raise InputError("skew generator needs a 2-D grid")
        return field.constant_field(grid, ellipticity.skew_matrix(_number(gen, "w")))
    if name == "section7":
        return field.section7_field(grid, _number(gen, "gamma"))
    raise InputError(f"unknown field generator {name!r}")


def _spec(path, flag: str = "--spec"):
    if path is None:
        raise InputError(f"{flag} is required")
    return load_spec(path)


def _matrix(path, flag: str = "--spec") -> np.ndarray:
    """A constant matrix spec; a field spec is an input error."""
    A = _spec(path, flag)
    if isinstance(A, field.MatrixField):
        raise InputError(f"{flag} must be a constant matrix spec, not a field")
    return A


def _coefficient(A, grid: field.Grid) -> field.MatrixField:
    """A matrix spread over ``grid``; a field keeps its own grid."""
    if isinstance(A, field.MatrixField):
        return A
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
    rep = ellipticity.ellipticity_report(_spec(args.spec), args.p)
    return [{
        "p": rep.p, "lambda": rep.lam, "Lambda": rep.Lam, "nu": rep.nu,
        "delta_p": rep.delta_p, "mu": rep.mu, "w_p_norm": rep.w_p_norm,
        "p_min": rep.p_range[0], "p_max": rep.p_range[1],
    }]


def _cmd_bellman(args) -> list[dict]:
    A = _matrix(args.spec)
    B = A if args.spec_b is None else _matrix(args.spec_b, "--spec-b")
    if B.shape != A.shape:
        raise InputError(f"--spec-b is {B.shape[0]}x{B.shape[0]} but --spec "
                         f"is {A.shape[0]}x{A.shape[0]}")
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
    if c.delta_p == 0:
        raise InputError(f"p = {p:g} is an endpoint of the pair's p-ellipticity "
                         "range (delta_p = 0): no convexity bound and no violation")
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
    A = _coefficient(_spec(args.spec), grid)  # a field brings its own grid
    f_probe, g_probe = _smooth_pair(A.grid, np.random.default_rng(args.seed))
    value, companion = field.dissipativity_functional(A, f_probe, args.p)
    c = bellman.pair_constants(A, A, args.p)
    delta = bellman.delta_choice(c.lam, c.Lam, max(c.delta_q_B, _DELTA_Q_FLOOR))
    params = bellman.BellmanParams(args.p, delta)
    res = field.identity_checks(A, A, f_probe, g_probe, params)
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


def _cmd_counterexample(args) -> list[dict]:
    grid = field.Grid(2, args.grid_cells, args.extent, "periodic")
    gammas = [float(g) for g in _parse_scan(args.gamma_scan)]
    rows, first = [], True
    for gamma, out in zip(gammas, field.counterexample_section7(args.p, gammas, grid)):
        negative = out["value"] < 0
        rows.append({"gamma": gamma, "p": args.p, "value": out["value"],
                     "elliptic_r": out["terms"][0],
                     "elliptic_phi": out["terms"][1],
                     "rotational": out["terms"][2],
                     "decomposition_error": out["decomposition_error"],
                     "negative": negative,
                     "first_negative": negative and first})
        first = first and not negative
    return rows


def _cmd_heatflow(args) -> list[dict]:
    A = _coefficient(_spec(args.spec),
                     field.Grid(1, args.grid_cells, args.extent, "periodic"))
    grid = A.grid  # a field spec brings its own grid
    if grid.dim != 1:
        raise InputError("heatflow needs a 1-D coefficient field")
    rng = np.random.default_rng(args.seed)
    x = grid.axis()
    fv = np.exp(-x * x) * np.exp(1j * rng.uniform(0, 2 * np.pi) * np.sin(np.pi * x / grid.extent))
    gv = np.exp(-0.5 * x * x) * (1 + 0.2 * np.cos(np.pi * x / grid.extent))
    f = field.GridFunction(grid, fv)
    g = field.GridFunction(grid, gv)
    rep = field.heat_flow_experiment(A, A, f, g, args.p)
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


def _cmd_heatnorm(args) -> list[dict]:
    if args.phi_grid is not None and args.phi is not None:
        raise InputError("give --phi or --phi-grid, not both")
    phis = (_parse_scan(args.phi_grid) if args.phi_grid is not None
            else np.array([0.0 if args.phi is None else args.phi]))
    rows = []
    for phi in sorted(float(ph) for ph in phis):
        res = heatnorm.tensorized_demo(phi, args.p, args.n)
        if abs(res.oracle - res.C) > 1e-5:
            raise VerificationError(
                f"Gaussian oracle {res.oracle:.8g} disagrees with the "
                f"closed form {res.C:.8g} at phi={phi}")
        rows.append({"p": args.p, "phi": phi, "C": res.C, "oracle": res.oracle,
                     "n": args.n, "C_pow_n": res.C_pow_n,
                     "N_p_lower": res.N_p_lower})
    return rows


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


_FLAGS = {
    "--spec": dict(help="path to a JSON matrix or field spec"),
    "--spec-b": dict(help="second constant matrix spec, the size of --spec "
                     "(default: --spec)"),
    "--p": dict(type=float, default=4.0),
    "--phi": dict(type=float, help="one angle (default 0)"),
    # argparse reads a value starting with '-' as an option
    "--phi-grid": dict(help="phi sweep start:stop:step; give a negative start "
                       "with '=': --phi-grid=-1.5:0:0.1"),
    "--gamma-scan": dict(default="0.5:0.99:0.01", help="gamma sweep "
                         "start:stop:step; give a negative start with '=': "
                         "--gamma-scan=START:STOP:STEP"),
    "--grid-cells": dict(type=int, default=64),
    "--extent": dict(type=float, default=4.0),
    "--budget": dict(type=int, default=10_000, help="no-op, accepted for old argv"),
    "--n": dict(type=int, default=1),
}

# The flags a subcommand reads, and nothing else: argparse rejects the rest.
_COMMANDS = {
    "ellipticity": (_cmd_ellipticity, "--spec --p"),
    "bellman": (_cmd_bellman, "--spec --spec-b --p --budget"),
    "dissipativity": (_cmd_dissipativity, "--spec --p --grid-cells --extent"),
    "counterexample": (_cmd_counterexample,
                       "--p --gamma-scan --grid-cells --extent"),
    "heatflow": (_cmd_heatflow, "--spec --p --grid-cells --extent"),
    "heatnorm": (_cmd_heatnorm, "--p --phi --phi-grid --n"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pellip",
        description="Numerical toolkit for p-ellipticity of complex "
                    "coefficient matrices and the associated operators")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=20_240_817)
    shared.add_argument("--out", help="output path (default stdout)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (cmd, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[shared])
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(cmd=cmd)
    return ap


def run(args) -> int:
    for name in ("p", "phi", "extent"):
        val = getattr(args, name, None)
        if val is not None and not math.isfinite(val):
            raise InputError(f"--{name} must be finite, got {val}")
    rows = args.cmd(args)
    for row in rows:
        for key, val in row.items():
            if isinstance(val, float) and math.isnan(val):
                raise ArithmeticError(f"{args.subcommand} computed NaN in "
                                      f"column {key!r}")
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
