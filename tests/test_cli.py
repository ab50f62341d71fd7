import collections
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellip import bellman, cli, ellipticity, field, heatnorm, realform


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rotation_specs(tmp_path):
    """Paths of rot.json (n = 2) and rot1.json (n = 1), rotations by 0.3."""
    return {name: write_spec(tmp_path, name, {"kind": "rotation", "phi": 0.3, "n": n})
            for name, n in (("rot.json", 2), ("rot1.json", 1))}


def test_spec_round_trips(tmp_path):
    path = write_spec(tmp_path, "const.json", {
        "kind": "constant",
        "entries": [[[1, 0], [0, -0.5]], [[0, 0.5], [1, 0]]],
    })
    spec = cli.load_spec(path)
    assert isinstance(spec, np.ndarray)
    want = np.eye(2) + 0.5j * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(spec, want)
    rot = cli.spec_from_dict({"kind": "rotation", "phi": 0.4, "n": 3})
    assert np.allclose(rot, np.exp(0.4j) * np.eye(3))
    fld = cli.spec_from_dict({
        "kind": "field",
        "grid": {"dim": 2, "cells": 16, "extent": 4.0},
        "generator": {"name": "section7", "gamma": 0.5},
    })
    assert fld.grid.cells == 16


def test_spec_errors(tmp_path):
    with pytest.raises(cli.InputError):
        cli.load_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cli.InputError):
        cli.load_spec(str(bad))
    with pytest.raises(cli.InputError):
        cli.spec_from_dict({"kind": "wedge"})
    with pytest.raises(cli.InputError):
        cli.spec_from_dict({"kind": "constant", "entries": [[1, 2, 3]]})


def test_parse_scan():
    assert np.allclose(cli._parse_scan("0.5:0.9:0.1"), [0.5, 0.6, 0.7, 0.8, 0.9])
    # a bare number is a one-value scan, the same bits as the number
    assert cli._parse_scan("0.3").tolist() == [0.3]
    assert cli._parse_scan("-1.25").tolist() == [-1.25]
    with pytest.raises(cli.InputError):
        cli._parse_scan("1:0:0.1")
    with pytest.raises(cli.InputError):
        cli._parse_scan("oops")


@pytest.mark.parametrize("text", ["0:1e9:1", "0:10000:1", "0:1e308:1e-308",
                                  "nan:1:0.1", "0:inf:1", "0:1:nan", "0:1:0",
                                  "nan", "inf", "0:1"])
def test_parse_scan_rejects_long_or_nonfinite_ranges(text):
    # rejected from the three numbers, before any array is built
    with pytest.raises(cli.InputError):
        cli._parse_scan(text)


def test_parse_scan_length_limit():
    assert cli._parse_scan("0:9999:1").size == cli._MAX_SCAN_VALUES


def test_oversized_inputs_exit_2(capsys):
    assert cli.main(["counterexample", "--p", "40",
                     "--gamma-scan", "0:1e9:1"]) == 2
    assert cli.main(["dissipativity", "--grid-cells", "100000"]) == 2
    err = capsys.readouterr().err
    assert "at most 10000 values" in err
    assert "more than 262144 cells" in err


def test_ellipticity_subcommand_json(tmp_path, capsys):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.5})
    code = cli.main(["ellipticity", "--spec", spec, "--p", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["rows"][0]
    assert abs(row["delta_p"] - (math.cos(0.5) - 0.5)) < 1e-10
    assert abs(row["mu"] - math.cos(0.5)) < 1e-8
    assert doc["meta"]["command"] == "ellipticity"
    # inf is a legal report value, unlike NaN: real matrices have p_max = inf
    real = write_spec(tmp_path, "real.json", {"kind": "rotation", "phi": 0.0})
    assert cli.main(["ellipticity", "--spec", real, "--p", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["p_max"] == math.inf


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["ellipticity"]) == 2  # --spec missing
    capsys.readouterr()
    bad = write_spec(tmp_path, "bad.json", {"kind": "rotation", "phi": 3.0})
    assert cli.main(["ellipticity", "--spec", bad]) == 2
    capsys.readouterr()


def test_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force an oracle/closed-form disagreement
    monkeypatch.setattr(heatnorm, "gaussian_oracle", lambda phi, p: np.full(np.shape(phi), 2.0))
    assert cli.main(["heatnorm", "--phi-grid", "0.2", "--p", "4"]) == 3
    assert "verification failure" in capsys.readouterr().err
    # every angle is checked before the oracle runs, so the input error at
    # 1.6 wins over the disagreement at phi = 0.2
    assert cli.main(["heatnorm", "--phi-grid", "0.2:1.6:0.7", "--p", "4"]) == 2
    assert "input error: |phi| must be less than pi/2" in capsys.readouterr().err
    # p is one value for the sweep: its range is checked before any angle,
    # so a p outside the oracle's range wins over the overflow of C^n
    assert cli.main(["heatnorm", "--p", "1", "--phi-grid", "0:1.4:0.7",
                     "--n", "100000"]) == 2
    assert "input error: exponent must lie in (1, inf)" in capsys.readouterr().err


_HEAT_REPORT = {"times": [0.0], "energy": [1.0], "bilinear": [1.0],
                "ratio": 0.5, "monotone": True, "budget_ok": True, "a0": 0.5}


# Each case replaces the call one level below a library verdict, so both
# the library's check and the CLI's exit 3 run.
@pytest.mark.parametrize("argv, target, result, message", [
    (["bellman", "--spec", "rot.json", "--p", "3"], (bellman, "_convexity"),
     {"min_ratio": 0.0, "bound": 1.0, "pass": False}, "convexity bound violated"),
    (["dissipativity", "--spec", "rot.json", "--p", "3", "--grid-cells", "16"],
     (field, "dissipativity_functional"), (-1.0, -1.0), "dissipativity functional negative"),
    (["heatflow", "--spec", "rot1.json", "--p", "3"], (field, "heat_flow_experiment"),
     {**_HEAT_REPORT, "monotone": False}, "not nonincreasing"),
    (["heatflow", "--spec", "rot1.json", "--p", "3"], (field, "heat_flow_experiment"),
     {**_HEAT_REPORT, "ratio": 1.5}, "exceeded the closed bound"),
    (["heatflow", "--spec", "rot1.json", "--p", "3"], (field, "heat_flow_experiment"),
     {**_HEAT_REPORT, "budget_ok": False}, "exceeded the energy budget"),
    (["heatnorm", "--phi-grid", "0.2", "--p", "4"], (heatnorm, "gaussian_oracle"),
     np.array([2.0]), "disagrees with the closed form"),
], ids=["bellman", "dissipativity", "heatflow-monotone", "heatflow-ratio",
        "heatflow-budget", "heatnorm"])
def test_verification_failures_of_each_check_exit_3(tmp_path, capsys, monkeypatch,
                                                    argv, target, result, message):
    specs = rotation_specs(tmp_path)
    monkeypatch.setattr(*target, lambda *a: result)
    assert cli.main([specs.get(a, a) for a in argv]) == 3
    err = capsys.readouterr().err
    assert "verification failure" in err and message in err


def test_reruns_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["bellman", "--spec", spec, "--p", "3", "--budget", "2000",
            "--seed", "5"]
    assert cli.main(argv + ["--out", out1]) == 0
    assert cli.main(argv + ["--out", out2]) == 0
    assert pathlib.Path(out1).read_bytes() == pathlib.Path(out2).read_bytes()


def test_csv_format(tmp_path):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.2})
    out = str(tmp_path / "rep.csv")
    assert cli.main(["ellipticity", "--spec", spec, "--p", "3",
                     "--format", "csv", "--out", out]) == 0
    lines = pathlib.Path(out).read_text().splitlines()
    assert lines[0].startswith("p,lambda,Lambda,nu,delta_p,mu")
    cells = lines[1].split(",")
    assert float(cells[0]) == 3.0
    assert "true" not in lines[0]


def test_csv_booleans_of_a_counterexample_report(tmp_path):
    out = str(tmp_path / "scan.csv")
    assert cli.main(["counterexample", "--p", "40", "--gamma-scan", "0.95:0.99:0.02",
                     "--grid-cells", "64", "--format", "csv", "--out", out]) == 0
    lines = pathlib.Path(out).read_text().splitlines()
    keys = lines[0].split(",")
    rows = [dict(zip(keys, line.split(","))) for line in lines[1:]]
    assert [r["negative"] for r in rows] == ["false", "false", "true"]
    assert [r["first_negative"] for r in rows] == ["false", "false", "true"]


def test_csv_integer_column_of_a_heatnorm_report(tmp_path):
    out = str(tmp_path / "norm.csv")
    assert cli.main(["heatnorm", "--p", "4", "--phi-grid", "0.3", "--n", "2",
                     "--format", "csv", "--out", out]) == 0
    keys, row = (line.split(",") for line in pathlib.Path(out).read_text().splitlines())
    assert dict(zip(keys, row))["n"] == "2"


def test_bellman_violation_row(tmp_path, capsys):
    spec = write_spec(tmp_path, "wide.json", {"kind": "rotation", "phi": 1.5})
    assert cli.main(["bellman", "--spec", spec, "--p", "3",
                     "--budget", "500"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["delta_p"] < 0
    assert row["min_ratio"] < 0
    assert "negative branch value" in row["violation"]
    # where only --spec-b fails, the witness is B's, for the pair (A, B):
    # min_ratio read -1.57558, the form of (B, B), while the pair's form at
    # that point is +5.0073
    rot = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3})
    assert cli.main(["bellman", "--spec", rot, "--spec-b", spec, "--p", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    A, B = cli.load_spec(rot), cli.load_spec(spec)
    params = bellman.BellmanParams(3.0, 0.5)
    wit = bellman.violation_search(params, A, B)
    val = bellman.bellman_hessian_form(params, A, B, (wit["zeta"], wit["eta"]),
                                       (wit["omega1"], wit["omega2"]))
    assert row["delta_p"] == ellipticity.delta_p(B, 1.5) < 0  # delta_p, read at q
    assert row["min_ratio"] == wit["value"] < 0
    assert abs(row["min_ratio"] - val) < 1e-12
    assert row["violation"] == f"negative branch value {val:.6g}"
    assert (row["delta"], row["bound"], row["passed"]) == (0.5, 0.0, True)


@pytest.mark.parametrize("doc", [
    {"kind": "rotation", "phi": 1.369438406004566},
    {"kind": "skew", "w": 0.9797958971132712},
], ids=["rotation", "skew"])
def test_bellman_at_an_endpoint_of_the_p_range_is_an_input_error(tmp_path, capsys, doc):
    # delta_p is exactly 0 at p = 2.5: neither the convexity bound
    # (delta_p > 0) nor a violation (delta_p < 0) exists there
    spec = write_spec(tmp_path, "edge.json", doc)
    assert cli.main(["ellipticity", "--spec", spec, "--p", "2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["delta_p"] == 0.0
    assert cli.main(["bellman", "--spec", spec, "--p", "2.5"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "endpoint" in err


def _near_the_angle(p, ulps):
    """Rotation and skew specs ``ulps`` steps of a float from where delta_p
    vanishes at p: phi_p = arccos|1 - 2/p| and w_p = sqrt(1 - (1 - 2/p)^2)."""
    s = abs(1.0 - 2.0 / p)
    phi, w = math.acos(s), math.sqrt(1.0 - s * s)
    for _ in range(abs(ulps)):
        phi, w = (float(np.nextafter(x, math.copysign(math.inf, ulps))) for x in (phi, w))
    return [{"kind": "rotation", "phi": phi}, {"kind": "skew", "w": w}]


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0, 7.0, 12.0, 20.0, 40.0])
def test_no_internal_error_at_the_end_of_the_p_range(tmp_path, capsys, p):
    # within a few ulp of the end, delta_p at p and at q rounded to
    # opposite signs: delta_choice refused delta_q(B) <= 0 as an internal
    # error (exit 1), or a violation of value 0 was reported
    inner = write_spec(tmp_path, "inner.json", {"kind": "rotation", "phi": 0.1})
    for ulps in range(-5, 6):
        for doc in _near_the_angle(p, ulps):
            spec = write_spec(tmp_path, "spec.json", doc)
            line = write_spec(tmp_path, "line.json", {**doc, "n": 1}
                              if doc["kind"] == "rotation" else doc)
            for argv in (["bellman", "--spec", spec], ["ellipticity", "--spec", spec],
                         ["bellman", "--spec", inner, "--spec-b", spec],
                         ["heatflow", "--spec", line],
                         ["dissipativity", "--spec", spec, "--grid-cells", "16"]):
                code = cli.main(argv + ["--p", str(p)])
                assert code in (0, 2, 3), (argv[0], doc, p, capsys.readouterr().err)
                capsys.readouterr()


@pytest.mark.parametrize("argv, doc", [
    (["bellman", "--p", "6"], {"kind": "rotation", "phi": 0.8410686705679302}),
    (["bellman", "--p", "12"], {"kind": "rotation", "phi": 0.5856855434571506}),
    (["bellman", "--p", "40"], {"kind": "skew", "w": 0.31224989991991975}),
    (["bellman", "--p", "7"], {"kind": "rotation", "phi": 0.7751933733103613}),
    (["heatflow", "--p", "6"], {"kind": "rotation", "phi": 0.8410686705679302, "n": 1}),
    (["heatflow", "--p", "1.5"], {"kind": "rotation", "phi": 1.2309594173407747, "n": 1}),
])
def test_a_rounded_end_of_the_p_range_is_an_input_error(tmp_path, capsys, argv, doc):
    # each side's one delta_p is 0 within eigvalsh's rounding: exit 1 with
    # "all inputs must be positive" before, or (p = 7) a violation of value 0
    spec = write_spec(tmp_path, "edge.json", doc)
    assert cli.main(argv + ["--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and ("endpoint" in err or "must be positive" in err)


@pytest.mark.parametrize("p, phi", [("40", "1.5707963"), ("1000", "1.570796")])
def test_heatnorm_oracle_meets_the_constant_near_right_angle(capsys, p, phi):
    # the optimal arg a lies within 7e-10 (3e-10) of pi/2 there, which a
    # uniform arg a grid missed by 2.2e-5 (4.6e-6) relative
    assert cli.main(["heatnorm", "--p", p, "--phi-grid", phi]) == 0, \
        capsys.readouterr().err


def test_counterexample_scan_goes_negative(capsys):
    assert cli.main(["counterexample", "--p", "40",
                     "--gamma-scan", "0.95:0.99:0.02",
                     "--grid-cells", "64", "--extent", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert any(r["negative"] for r in rows)
    firsts = [r for r in rows if r["first_negative"]]
    assert len(firsts) == 1
    assert all(r["decomposition_error"] < 1e-10 for r in rows)


def test_heatnorm_sweep_sorted(capsys):
    assert cli.main(["heatnorm", "--p", "4", "--phi-grid", "0:1.4:0.35",
                     "--n", "10"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    phis = [r["phi"] for r in rows]
    assert phis == sorted(phis)
    Cs = [r["C"] for r in rows]
    assert Cs[0] == 1.0 and Cs[-1] > 1.0


def test_heatflow_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, "rot1.json",
                      {"kind": "rotation", "phi": 0.3, "n": 1})
    assert cli.main(["heatflow", "--spec", spec, "--p", "3",
                     "--grid-cells", "48", "--extent", "6"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    energies = [r["energy"] for r in rows]
    assert all(e1 <= e0 + 1e-9 for e0, e1 in zip(energies, energies[1:]))
    assert rows[0]["ratio"] <= 1.0


def test_heatflow_reaches_past_the_dense_cap_within_the_flow_budget(tmp_path, capsys):
    # a constant periodic coefficient never forms the dense operator, so
    # 8192 cells run; MAX_CELLS would need 41 x 2^18 flow entries per
    # function, over the flow budget, and is an input error
    spec = write_spec(tmp_path, "rot1.json", {"kind": "rotation", "phi": 0.3, "n": 1})
    argv = ["heatflow", "--spec", spec, "--p", "3", "--extent", "6", "--grid-cells"]
    assert cli.main(argv + ["8192"]) == 0, capsys.readouterr().err
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 41
    assert cli.main(argv + ["262144"]) == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_heatflow_runs_on_the_field_grid(tmp_path, capsys, boundary):
    # the field's 48 cells, not --grid-cells (64), set the probe grid
    spec = write_spec(tmp_path, "fld.json", {
        "kind": "field",
        "grid": {"dim": 1, "cells": 48, "extent": 6.0, "boundary": boundary},
        "generator": {"name": "rotation", "phi": 0.3}})
    assert cli.main(["heatflow", "--spec", spec, "--p", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 41


@pytest.mark.parametrize("cells, extent", [(8, "300"), (64, "2000"), (8, "180")])
def test_heatflow_refuses_data_that_vanish_on_the_grid(tmp_path, capsys, monkeypatch,
                                                       cells, extent):
    # no cell centre lies within 37.5 of 0 on the first two grids, where
    # the Gaussian f underflows to 0 on every cell; on the third f is about
    # 1e-220, and ||f||_p ||g||_q underflows.  The ratio had divided by the
    # closed bound 0 (exit 1)
    monkeypatch.setattr(field, "_propagator", lambda *a, **k: pytest.fail("flowed"))
    spec = write_spec(tmp_path, "rot1.json", {"kind": "rotation", "phi": 0.3, "n": 1})
    assert cli.main(["heatflow", "--spec", spec, "--p", "3", "--grid-cells",
                     str(cells), "--extent", extent]) == 2
    assert "f or g vanishes on the grid" in capsys.readouterr().err


def test_heatflow_rejects_2d_field(tmp_path, capsys):
    spec = write_spec(tmp_path, "s7.json", {
        "kind": "field", "grid": {"dim": 2, "cells": 16, "extent": 4.0},
        "generator": {"name": "section7", "gamma": 0.5}})
    assert cli.main(["heatflow", "--spec", spec, "--p", "3"]) == 2
    assert "1-D" in capsys.readouterr().err


def test_counterexample_accepts_gamma_zero(capsys):
    assert cli.main(["counterexample", "--p", "4", "--gamma-scan", "0:0.1:0.1",
                     "--grid-cells", "32"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["gamma"] for r in rows] == [0.0, 0.1]
    assert rows[0]["rotational"] == 0.0


def test_negative_sweep_needs_equals_sign(capsys):
    assert cli.main(["heatnorm", "--p", "4", "--phi-grid=-1.5:0:0.5"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["phi"] for r in rows] == [-1.5, -1.0, -0.5, 0.0]
    assert rows[0]["C"] == heatnorm.heat_norm_constant(1.5, 4.0)
    # without '=' argparse takes the range for an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["heatnorm", "--phi-grid", "-1.5:0:0.5"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_dissipativity_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, "skew.json", {"kind": "skew", "w": 0.4})
    assert cli.main(["dissipativity", "--spec", spec, "--p", "4",
                     "--grid-cells", "32", "--extent", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["value"] > 0
    assert row["antisymmetric_divfree"] < 1e-10


def test_dissipativity_outside_the_p_range_reports_without_a_verdict(tmp_path, capsys):
    # phi = 1.5 is outside the p = 3 angle: delta_p < 0, so the identity
    # checks run at the pair's delta 0.5, and there is nothing to verify
    spec = write_spec(tmp_path, "wide.json", {"kind": "rotation", "phi": 1.5})
    c = bellman.pair_constants(*[ellipticity.rotation_matrix(1.5, 2)] * 2, 3.0)
    assert c.delta_p < 0 and c.delta == 0.5
    assert cli.main(["dissipativity", "--spec", spec, "--p", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert all(math.isfinite(v) for v in row.values())


def _dissipativity_row(directory, A) -> dict:
    spec = directory / "scaled.json"
    spec.write_text(json.dumps({"kind": "constant", "entries": [
        [[z.real, z.imag] for z in row] for row in A]}))
    out = directory / "row.json"
    assert cli.main(["dissipativity", "--spec", str(spec), "--p", "3",
                     "--grid-cells", "32", "--out", str(out)]) == 0
    return json.loads(out.read_text())["rows"][0]


@settings(max_examples=20, deadline=None)
@given(k=st.integers(-60, 60))
@example(k=-60)
@example(k=-30)
@example(k=60)
def test_dissipativity_is_covariant_under_scaling(tmp_path_factory, k):
    # delta = lam delta_p / (10 Lam^2) does not change with the scale of A,
    # and every other column is linear in A: 2^k A scales them by 2^k
    # exactly, and the divergence-free pairing, which does not read A,
    # not at all.  An absolute floor under delta_p had pushed delta past 1
    # from k = -30 down (exit 2).
    directory = tmp_path_factory.mktemp("scale")
    A = np.exp(0.4j) * np.array([[1, 0.3], [-0.2, 0.9]])
    ref, row = [_dissipativity_row(directory, 2.0 ** j * A) for j in (0, k)]
    for key in ("value", "companion", "hessian_identity", "chain_rule"):
        assert row[key] == math.ldexp(ref[key], k)
    assert row["antisymmetric_divfree"] == ref["antisymmetric_divfree"]


def test_dissipativity_on_a_1d_field(tmp_path, capsys):
    # the antisymmetric pairing is a 2-D identity: 0 on a line
    spec = write_spec(tmp_path, "rot1d.json", {
        "kind": "field", "grid": {"dim": 1, "cells": 32, "extent": 4.0},
        "generator": {"name": "rotation", "phi": 0.3}})
    assert cli.main(["dissipativity", "--spec", spec, "--p", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["antisymmetric_divfree"] == 0.0
    assert row["value"] > 0


@pytest.mark.parametrize("argv", [
    ["ellipticity", "--p", "0.5"],
    ["ellipticity", "--p", "nan"],
    ["heatnorm", "--p", "1.0"],
    ["counterexample", "--p", "1.5"],
    ["heatflow", "--grid-cells", "4"],
    ["dissipativity", "--extent", "-1"],
    ["dissipativity", "--p", "1.5"],
    ["bellman", "--p", "1.5"],
    ["counterexample", "--gamma-scan", "1:1.2:0.1"],
    ["counterexample", "--gamma-scan=-0.2:0.2:0.1"],
    ["heatnorm", "--phi-grid", "1.6"],
    ["heatnorm", "--phi-grid", "1.5:1.6:0.05"],
])
def test_bad_flag_values_are_input_errors(tmp_path, capsys, argv):
    if argv[0] not in ("counterexample", "heatnorm"):  # they take no --spec
        n = 1 if argv[0] == "heatflow" else 2
        spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3, "n": n})
        argv = argv + ["--spec", spec]
    assert cli.main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_other_library_errors_stay_internal(tmp_path, capsys, monkeypatch):
    # only the range checks map to exit 2; any other ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("unexpected")
    monkeypatch.setattr(heatnorm, "tensorized_demo", broken)
    assert cli.main(["heatnorm", "--phi-grid", "0.2", "--p", "4"]) == 1
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dissipativity", "--spec", "rot.json", "--p", "3", "--grid-cells", "16"],
    ["counterexample", "--p", "4", "--gamma-scan", "0.5", "--grid-cells", "16"],
])
def test_nan_results_exit_1(tmp_path, capsys, monkeypatch, argv):
    # a NaN fails dissipativity's negativity check and reads as 'negative:
    # false', so both reports had exited 0.  The extents that produced the
    # NaN are refused as input now (test_out_of_range_extent_exits_2), so
    # the library's result is replaced by one with NaN.
    monkeypatch.setattr(field, "dissipativity_functional", lambda *a: (math.nan, 0.0))
    monkeypatch.setattr(field, "counterexample_section7", lambda p, gammas: [
        {"value": math.nan, "terms": (0.0, 0.0, 0.0), "decomposition_error": 0.0,
         "negative": False, "first_negative": False} for _ in gammas])
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3})
    argv = [spec if a == "rot.json" else a for a in argv]
    assert cli.main(argv) == 1
    assert "NaN in column 'value'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dissipativity", "--spec", "rot.json", "--p", "3", "--extent", "1e-300"],
    ["heatflow", "--spec", "rot1.json", "--p", "3", "--extent", "1e-200"],
], ids=["dissipativity", "heatflow"])
def test_out_of_range_extent_exits_2(tmp_path, capsys, argv):
    # h^2 underflows to 0 or overflows to inf; these ran into NaN or a
    # non-finite grid function and exited 1
    specs = rotation_specs(tmp_path)
    assert cli.main([specs.get(a, a) for a in argv]) == 2
    assert "out of numeric range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dissipativity", "--spec", "rot.json", "--p", "1e300", "--grid-cells", "16"],
    ["heatnorm", "--p", "1e300", "--phi-grid", "0.3"],
], ids=["dissipativity", "heatnorm"])
def test_out_of_range_p_exits_2(tmp_path, capsys, argv):
    # |f|^(p-2) f and the oracle's quadratic overflow; these exited 1
    specs = rotation_specs(tmp_path)
    assert cli.main([specs.get(a, a) for a in argv]) == 2
    assert "p = 1e+300 is out of numeric range" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["920", "930"])
def test_dissipativity_refuses_p_where_the_residuals_overflow(tmp_path, capsys, p):
    # |f|^(p-2) f is finite here, but the companion value and the Bellman
    # derivatives overflowed: these exited 1 with RuntimeWarnings
    specs = rotation_specs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["dissipativity", "--spec", specs["rot.json"],
                         "--grid-cells", "16", "--p", p])
    assert code == 2
    assert f"input error: p = {p} is out of numeric range" in capsys.readouterr().err


def test_dissipativity_reduces_and_evaluates_each_thing_once(tmp_path, capsys,
                                                             monkeypatch):
    # a 128^2 section-7 field: its distinct cells come from the two values
    # it was built from, so no np.unique runs over all cells; the
    # dissipativity functional runs once and the field is realified once;
    # pair_constants(A, A, p) reads A's constants once for B: one
    # accretivity_bounds and one delta_p, at q
    cells = 128
    counts = collections.Counter()

    def counting(name, fn, full):
        def wrapped(*args, **kwargs):
            if full(args[0]):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np, "unique", counting(
        "unique", np.unique, lambda a: np.size(a) >= cells * cells))
    realify = counting("realify", realform.realify,
                       lambda A: np.size(A) >= cells * cells * 4)
    for mod in (realform, ellipticity, bellman, field):
        monkeypatch.setattr(mod, "realify", realify)
    monkeypatch.setattr(field, "dissipativity_functional", counting(
        "dissipativity_functional", field.dissipativity_functional,
        lambda A: True))
    monkeypatch.setattr(bellman, "accretivity_bounds", counting(
        "accretivity_bounds", bellman.accretivity_bounds, lambda A: True))
    delta_p = bellman.delta_p

    def delta_p_counted(A, r):
        counts["delta_p", r] += 1
        return delta_p(A, r)

    monkeypatch.setattr(bellman, "delta_p", delta_p_counted)
    spec = write_spec(tmp_path, "s7.json", {
        "kind": "field", "grid": {"dim": 2, "cells": cells, "extent": 4.0},
        "generator": {"name": "section7", "gamma": 0.5}})
    assert cli.main(["dissipativity", "--spec", spec, "--p", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["value"] > 0
    assert counts == {"realify": 1, "dissipativity_functional": 1,
                      "accretivity_bounds": 1, ("delta_p", 1.5): 1}


def test_ellipticity_reduces_each_functional_over_distinct_cells(tmp_path, capsys,
                                                                 monkeypatch):
    # a 128^2 section-7 field has two distinct cells: the report's W_p norm
    # and the sector test read those, not all 16384 cells (script_w_p keeps
    # its per-cell stack for a caller that passes a stack, with the same norm)
    cells = 128
    spec = write_spec(tmp_path, "s7.json", {
        "kind": "field", "grid": {"dim": 2, "cells": cells, "extent": 4.0},
        "generator": {"name": "section7", "gamma": 0.5}})
    A = cli.load_spec(spec)
    W, norm = ellipticity.script_w_p(A, 3.0)
    assert W.shape == (cells * cells, 2, 2)
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            if np.size(getattr(args[0], "mats", args[0])) >= cells * cells:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np, "unique", counting("unique", np.unique))
    for name in ("_cells", "sym_part", "realify"):
        monkeypatch.setattr(ellipticity, name, counting(name, getattr(ellipticity, name)))
    assert cli.main(["ellipticity", "--spec", spec, "--p", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["w_p_norm"] == norm
    assert ellipticity.sector_test_symmetric(A, 40.0)  # A_s = I
    assert counts == {}


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    specs = rotation_specs(tmp_path)
    argvs = [
        ["ellipticity", "--spec", specs["rot.json"], "--p", "4"],
        ["counterexample", "--p", "40", "--gamma-scan", "0.9:0.99:0.03",
         "--format", "csv"],
        ["heatnorm", "--p", "4", "--phi", "0.3"],  # argparse error
        ["dissipativity", "--spec", specs["rot.json"], "--grid-cells", "16",
         "--p", "3", "--seed", "5"],
        ["heatnorm", "--p", "4", "--phi-grid", "0.3"],
        ["ellipticity", "--spec", specs["rot1.json"], "--p", "1.5",
         "--format", "csv"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    reused = [run(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    assert reused == fresh


@pytest.mark.parametrize("p", ["1e6", "1e300"])
def test_counterexample_runs_at_huge_p(capsys, p):
    assert cli.main(["counterexample", "--p", p, "--gamma-scan", "0.5"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))


_INF_FIELD_ENTRIES = [[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 8] * 8
_INF_FIELD_ENTRIES[3] = [[[[math.inf, 0], [0, 0]], [[0, 0], [1, 0]]]] * 8


@pytest.mark.parametrize("command", ["ellipticity", "bellman"])
@pytest.mark.parametrize("doc", [
    {"kind": "constant", "entries": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]},
    {"kind": "field", "grid": {"dim": 2, "cells": 8, "extent": 4.0},
     "entries": _INF_FIELD_ENTRIES},
], ids=["nan-constant", "inf-field"])
def test_nonfinite_spec_entries_are_input_errors(tmp_path, capsys, command, doc):
    spec = write_spec(tmp_path, "bad.json", doc)
    assert cli.main([command, "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "entries must be finite" in err


def test_cli_paths_run_no_optimizer(tmp_path, capsys, monkeypatch):
    # ellipticity, bellman and heatnorm are exact reductions and scans;
    # a Nelder-Mead call on their path would now be an internal error
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")
    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.5})
    for argv in (["ellipticity", "--spec", spec, "--p", "4"],
                 ["bellman", "--spec", spec, "--p", "3"],
                 ["heatnorm", "--p", "4", "--phi-grid", "0:1.4:0.7"]):
        assert cli.main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()


def test_cli_imports_no_optimizer(tmp_path):
    # scipy.optimize serves only ellipticity's sampling oracles, so a fresh
    # process that runs every subcommand never loads it; scipy.fft serves
    # only the DST factor of Dirichlet heat operators, scipy.sparse only
    # the eigh factor's dense operator and scipy.linalg only a non-normal
    # flow, and these runs are all periodic with constant coefficients
    specs = rotation_specs(tmp_path)
    argvs = [["ellipticity", "--spec", specs["rot.json"], "--p", "4"],
             ["bellman", "--spec", specs["rot.json"], "--p", "3"],
             ["dissipativity", "--spec", specs["rot.json"], "--grid-cells", "16",
              "--p", "3"],
             ["counterexample", "--p", "40", "--gamma-scan", "0.97:0.99:0.01"],
             ["heatflow", "--spec", specs["rot1.json"], "--p", "3"],
             ["heatnorm", "--p", "4", "--phi-grid", "0.3"]]
    assert {a[0] for a in argvs} == set(cli._COMMANDS)
    argvs = [a + ["--out", str(tmp_path / f"{a[0]}.json")] for a in argvs]
    script = ("import json, sys\n"
              "from pellip import cli\n"
              "codes = [cli.main(a) for a in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules if m in\n"
              "    ('scipy.optimize', 'scipy.fft', 'scipy.linalg', 'scipy.sparse'))]))\n")
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(argvs), []]


# the flags each subcommand reads, besides the shared --seed --out --format
_DECLARED = {
    "ellipticity": {"--spec", "--p"},
    "bellman": {"--spec", "--spec-b", "--p", "--budget"},
    "dissipativity": {"--spec", "--p", "--grid-cells", "--extent"},
    "counterexample": {"--p", "--gamma-scan", "--grid-cells", "--extent"},
    "heatflow": {"--spec", "--p", "--grid-cells", "--extent"},
    "heatnorm": {"--p", "--phi-grid", "--n"},
}
# flags that no subcommand declares any more (heatnorm --workers 2 exits 2)
_RETIRED = {"--workers", "--phi"}
_SHARED = {"--seed", "--out", "--format"}


def test_each_subcommand_declares_only_the_flags_it_reads():
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, cli.argparse._SubParsersAction)).choices
    assert set(subs) == set(_DECLARED)
    total = 0
    for name, sp in subs.items():
        flags = {a.option_strings[0] for a in sp._actions
                 if not isinstance(a, cli.argparse._HelpAction)}
        assert flags == _DECLARED[name] | _SHARED
        total += len(flags)
    assert total == 39


@pytest.mark.parametrize("name", sorted(_DECLARED))
def test_undeclared_flags_exit_2(tmp_path, capsys, name):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3})
    values = {"--spec": spec, "--spec-b": spec, "--phi-grid": "0:0.1:0.1",
              "--gamma-scan": "0.5:0.5:0.1", "--workers": "2"}
    # a prefix of a flag is not that flag: "--phi" once read as --phi-grid,
    # "--ext" as --extent
    own = _DECLARED[name] | _SHARED
    prefixes = {f[:k] for f in own for k in range(4, len(f))}
    for flag in (set().union(*_DECLARED.values()) | _RETIRED | prefixes) - own:
        with pytest.raises(SystemExit) as exc:
            cli.main([name, flag, values.get(flag, "1")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture(scope="module")
def benchmark_jobs():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    yield mod
    del sys.modules[spec.name]


@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_argv_parses(benchmark_jobs, seed, warm):
    # every argv the benchmark streams send is accepted by the parser
    parser = cli._build_parser()
    for workload in benchmark_jobs.WORKLOADS:
        for job in benchmark_jobs.generate(workload, seed, warm):
            args = parser.parse_args(job.argv + ["--format", "json"])
            assert args.subcommand == job.argv[0]


def test_bellman_rejects_field_spec_b(tmp_path, capsys):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3})
    fld = write_spec(tmp_path, "fld.json", {
        "kind": "field", "grid": {"dim": 2, "cells": 8, "extent": 4.0},
        "generator": {"name": "rotation", "phi": 0.3}})
    assert cli.main(["bellman", "--spec", spec, "--spec-b", fld]) == 2
    assert "--spec-b must be a constant matrix spec" in capsys.readouterr().err
    assert cli.main(["bellman", "--spec", fld]) == 2
    assert "--spec must be a constant matrix spec" in capsys.readouterr().err


def test_bellman_rejects_spec_b_of_another_size(tmp_path, capsys):
    a = write_spec(tmp_path, "a.json", {"kind": "rotation", "phi": 0.3})
    b = write_spec(tmp_path, "b.json", {"kind": "rotation", "phi": 0.3, "n": 3})
    assert cli.main(["bellman", "--spec", a, "--spec-b", b]) == 2
    assert "--spec-b is 3x3 but --spec is 2x2" in capsys.readouterr().err


def test_bellman_computes_each_pair_constant_once(tmp_path, monkeypatch):
    # choosing delta and convexity_verify read one computation of lambda,
    # Lambda and each side's one p-ellipticity number, read at q
    a = write_spec(tmp_path, "a.json", {"kind": "rotation", "phi": 0.3})
    b = write_spec(tmp_path, "b.json", {"kind": "skew", "w": 0.3})
    calls = collections.Counter()
    for name in ("accretivity_bounds", "delta_p"):
        def counted(*args, _fn=getattr(bellman, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bellman, name, counted)
    assert cli.main(["bellman", "--spec", a, "--spec-b", b, "--p", "8"]) == 0
    assert calls == {"accretivity_bounds": 2, "delta_p": 2}


@pytest.mark.parametrize("n", [0, -1, bellman.MAX_N + 1, 3000, 100_000,
                               2.7, 2.0, True, "2"])
def test_rotation_dimension_is_bounded(tmp_path, capsys, n):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3, "n": n})
    assert cli.main(["ellipticity", "--spec", spec]) == 2
    assert "rotation dimension n must be an integer" in capsys.readouterr().err


def test_rotation_dimension_cap_is_accepted():
    n = bellman.MAX_N
    A = cli.spec_from_dict({"kind": "rotation", "phi": 0.3, "n": n})
    assert A.shape == (n, n)


def test_bellman_size_bound_covers_a_constant_spec(tmp_path, capsys):
    # a constant e^{0.3i} I_33 loads, and ellipticity runs on it; bellman,
    # whose cost grows as n^3, refuses it
    spec = write_spec(tmp_path, "eye33.json", {"kind": "constant", "entries": [
        [[0.955336489125606, 0.29552020666134] if i == j else [0, 0] for j in range(33)]
        for i in range(33)]})
    assert cli.main(["ellipticity", "--spec", spec, "--p", "4"]) == 0
    capsys.readouterr()
    assert cli.main(["bellman", "--spec", spec, "--p", "4"]) == 2
    assert "bellman takes matrices of size at most 32, got 33" in capsys.readouterr().err


def test_heatnorm_agrees_with_oracle_near_right_angle(capsys):
    assert cli.main(["heatnorm", "--p", "40", "--phi-grid", "1.570795"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    # the bound of tests/test_heatnorm.py: the float C may sit ulps below
    # the true supremum, which an exact oracle would reach
    assert row["oracle"] <= row["C"] * (1 + 1e-14)


def test_heatnorm_overflow_is_input_error(capsys):
    assert cli.main(["heatnorm", "--phi-grid", "1.4", "--p", "4", "--n", "100000"]) == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("dim", 2.9), ("cells", 16.9), ("dim", True),
                                        ("cells", "16")])
def test_field_grid_sizes_must_be_integers(tmp_path, capsys, key, value):
    # dim 2.9 and cells 16.9 were truncated to a 16^2 grid and ran
    grid = {"dim": 2, "cells": 16, "extent": 4.0, key: value}
    spec = write_spec(tmp_path, "f.json", {"kind": "field", "grid": grid,
                                           "generator": {"name": "skew", "w": 0.4}})
    assert cli.main(["ellipticity", "--spec", spec]) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"kind": "rotation", "phi": True},  # loaded as e^{i} I
    {"kind": "skew", "w": "0.4"},
    {"kind": "rotated", "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
     "phi": "0.2"},
    {"kind": "field", "grid": {"dim": 2, "cells": 16, "extent": True},
     "generator": {"name": "skew", "w": 0.4}},
    {"kind": "field", "grid": {"dim": 2, "cells": 16, "extent": 4.0},
     "generator": {"name": "skew", "w": "0.4"}},
    {"kind": "field", "grid": {"dim": 2, "cells": 16, "extent": 4.0},
     "generator": {"name": "rotation", "phi": False}},
    {"kind": "field", "grid": {"dim": 2, "cells": 16, "extent": 4.0},
     "generator": {"name": "section7", "gamma": "0.5"}},
], ids=["rotation-phi-bool", "skew-w-str", "rotated-phi-str", "extent-bool",
        "gen-skew-w-str", "gen-rotation-phi-bool", "gen-gamma-str"])
def test_spec_scalars_must_be_json_numbers(tmp_path, capsys, doc):
    spec = write_spec(tmp_path, "s.json", doc)
    assert cli.main(["ellipticity", "--spec", spec]) == 2
    assert "must be a JSON number" in capsys.readouterr().err


def test_spec_scalar_overflow_is_input_error(tmp_path, capsys):
    # a JSON integer too large for a float
    spec = write_spec(tmp_path, "s.json", {"kind": "skew", "w": 10 ** 400})
    assert cli.main(["ellipticity", "--spec", spec]) == 2
    assert "input error" in capsys.readouterr().err


def test_heatflow_stdout_is_byte_identical_across_runs(tmp_path, capsys):
    spec = write_spec(tmp_path, "rot1.json", {"kind": "rotation", "phi": -0.6, "n": 1})
    argv = ["heatflow", "--spec", spec, "--p", "2.5", "--grid-cells", "72",
            "--extent", "6", "--seed", "5"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1] and len(outs[0]) > 0


def test_heatflow_runs_no_dense_expm(tmp_path, capsys, monkeypatch):
    # a constant coefficient on a periodic grid gives a circulant operator,
    # diagonalized by the DFT and propagated elementwise; an expm (or a
    # Schur factor) call would be an internal error
    for name in ("expm", "schur"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} called")
        monkeypatch.setattr(scipy.linalg, name, refuse)
    spec = write_spec(tmp_path, "rot1.json", {"kind": "rotation", "phi": 0.3, "n": 1})
    assert cli.main(["heatflow", "--spec", spec, "--p", "3",
                     "--grid-cells", "64", "--extent", "6"]) == 0, \
        capsys.readouterr().err
    capsys.readouterr()
