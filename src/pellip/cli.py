"""Batch command-line front end.

Each subcommand adapts its spec and grid, makes one library call and
names the columns of its rows; every numerical decision, from probe data,
delta and size bounds to each verdict and sign, is the library's.  Each
declares only the flags it reads (``_COMMANDS``) besides the shared
``--seed``, ``--out`` and ``--format``, and three it accepts for old argv
and ignores: ``bellman --budget`` and the closed-form ``counterexample``'s
``--grid-cells`` and ``--extent``; argparse rejects any other flag, or
prefix of one, with exit 2.  A spec file loads to a validated complex (n, n) matrix or a
``field.MatrixField``: ``bellman`` takes matrices of one size,
``dissipativity`` and ``heatflow`` spread a matrix over their
--grid-cells grid and run a field on its own grid.  Reports are emitted
as CSV or JSON with the seed recorded, so a rerun with the same config
is byte-identical.

Exit codes: 0 success, 2 input error (bad or non-finite flags, values
the library rejects with ParameterError, malformed or non-accretive
spec), 3 verification failure (the library's VerificationError: a
checked mathematical property did not hold), 1 internal error,
including a NaN in any reported column (inf is a legal value:
``ellipticity`` reports p_max = inf for real matrices).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

import numpy as np

from . import (ParameterError, VerificationError, __version__, bellman, ellipticity,
               field, heatnorm)

__all__ = ["main", "load_spec", "run", "emit_report",
           "InputError", "VerificationError"]


class InputError(Exception):
    """Bad user input: malformed spec, failed validation, bad ranges."""


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
            if type(n) is not int or not 1 <= n <= bellman.MAX_N:
                raise InputError("rotation dimension n must be an integer in "
                                 f"[1, {bellman.MAX_N}], got {n!r}")
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


def _as_field(A, grid: field.Grid) -> field.MatrixField:
    """A matrix spread over ``grid``; a field keeps its own grid."""
    if isinstance(A, field.MatrixField):
        return A
    if A.shape[-1] != grid.dim:
        raise InputError(
            f"matrix dimension {A.shape[-1]} does not match grid dim {grid.dim}")
    return field.constant_field(grid, A)


_MAX_SCAN_VALUES = 10_000


def _parse_scan(text: str) -> np.ndarray:
    """'start:stop:step' -> inclusive grid of at most _MAX_SCAN_VALUES values;
    a bare number is a one-value scan."""
    try:
        start, stop, step = (float(x) for x in
                             (text.split(":") if ":" in text else (text, text, 1)))
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
    out = bellman.convexity_verify(A, B, args.p)
    return [{"p": args.p, "delta": out["delta"], "delta_p": out["delta_p"],
             "min_ratio": out["min_ratio"], "bound": out["bound"], "passed": out["pass"],
             "violation": f"negative branch value {out['min_ratio']:.6g}"
             if out["violation"] else ""}]


def _cmd_dissipativity(args) -> list[dict]:
    # the grid first: its refusal comes before a missing or bad --spec
    grid = field.Grid(2, args.grid_cells, args.extent, "periodic")
    A = _as_field(_spec(args.spec), grid)  # a field brings its own grid
    return [{"p": args.p, **field.dissipativity_verify(A, args.p, args.seed)}]


def _cmd_counterexample(args) -> list[dict]:
    gammas = [float(g) for g in _parse_scan(args.gamma_scan)]
    return [{"gamma": gamma, "p": args.p, "value": out["value"],
             "elliptic_r": out["terms"][0], "elliptic_phi": out["terms"][1],
             "rotational": out["terms"][2],
             "decomposition_error": out["decomposition_error"],
             "negative": out["negative"], "first_negative": out["first_negative"]}
            for gamma, out in zip(gammas, field.counterexample_section7(args.p, gammas))]


def _cmd_heatflow(args) -> list[dict]:
    A = _as_field(_spec(args.spec),  # a field spec brings its own grid
                  field.Grid(1, args.grid_cells, args.extent, "periodic"))
    rep = field.heat_flow_verify(A, args.p, args.seed)
    return [{"t": float(t), "energy": float(e), "bilinear": float(b),
             "ratio": rep["ratio"], "monotone": rep["monotone"]}
            for t, e, b in zip(rep["times"], rep["energy"], rep["bilinear"])]


def _cmd_heatnorm(args) -> list[dict]:
    phis = sorted(float(ph) for ph in _parse_scan(args.phi_grid))
    return [{"p": args.p, "phi": res.phi, "C": res.C, "oracle": res.oracle,
             "n": args.n, "C_pow_n": res.C_pow_n, "N_p_lower": res.N_p_lower}
            for res in heatnorm.tensorized_demo(phis, args.p, args.n)]


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
        text = json.dumps({"meta": meta, "rows": records}, indent=2) + "\n"
    else:
        raise InputError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# entry point


_FLAGS = {
    "--spec": dict(help="path to a JSON matrix or field spec"),
    "--spec-b": dict(help="second constant matrix spec, the size of --spec "
                     "(default: --spec)"),
    "--p": dict(type=float, default=4.0),
    # argparse reads a value starting with '-' as an option
    "--phi-grid": dict(default="0", help="phi sweep start:stop:step, or one "
                       "angle; give a negative start with '=': --phi-grid=-1.5:0:0.1"),
    "--gamma-scan": dict(default="0.5:0.99:0.01", help="gamma sweep "
                         "start:stop:step; give a negative start with '=': "
                         "--gamma-scan=START:STOP:STEP"),
    "--grid-cells": dict(type=int, default=64, help="cells per axis (unused by "
                         "counterexample)"),
    "--extent": dict(type=float, default=4.0, help="grid half-width (unused by "
                     "counterexample)"),
    "--budget": dict(type=int, default=10_000, help="no-op, accepted for old argv"),
    "--n": dict(type=int, default=1),
}

# The flags a subcommand reads (or accepts unread, see the module
# docstring), and nothing else: argparse rejects the rest.
_COMMANDS = {
    "ellipticity": (_cmd_ellipticity, "--spec --p"),
    "bellman": (_cmd_bellman, "--spec --spec-b --p --budget"),
    "dissipativity": (_cmd_dissipativity, "--spec --p --grid-cells --extent"),
    "counterexample": (_cmd_counterexample,
                       "--p --gamma-scan --grid-cells --extent"),
    "heatflow": (_cmd_heatflow, "--spec --p --grid-cells --extent"),
    "heatnorm": (_cmd_heatnorm, "--p --phi-grid --n"),
}


@functools.cache  # one per process: building it costs more than a small job
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pellip", allow_abbrev=False,
        description="Numerical toolkit for p-ellipticity of complex "
                    "coefficient matrices and the associated operators")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=20_240_817)
    shared.add_argument("--out", help="output path (default stdout)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (cmd, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[shared], allow_abbrev=False)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(cmd=cmd)
    return ap


def run(args) -> int:
    for name in ("p", "extent"):
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
