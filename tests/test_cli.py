import json
import math
import pathlib

import numpy as np
import pytest

from pellip import cli, heatnorm
from pellip.ellipticity import MatrixSpec


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_spec_round_trips(tmp_path):
    path = write_spec(tmp_path, "const.json", {
        "kind": "constant",
        "entries": [[[1, 0], [0, -0.5]], [[0, 0.5], [1, 0]]],
    })
    spec = cli.load_spec(path)
    assert isinstance(spec, MatrixSpec)
    want = np.eye(2) + 0.5j * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(spec.realize(), want)
    rot = cli.spec_from_dict({"kind": "rotation", "phi": 0.4, "n": 3})
    assert np.allclose(rot.realize(), np.exp(0.4j) * np.eye(3))
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
    with pytest.raises(cli.InputError):
        cli._parse_scan("1:0:0.1")
    with pytest.raises(cli.InputError):
        cli._parse_scan("oops")


@pytest.mark.parametrize("text", ["0:1e9:1", "0:10000:1", "0:1e308:1e-308",
                                  "nan:1:0.1", "0:inf:1", "0:1:nan", "0:1:0"])
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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,tasks,pools", [
    (64, 3, [3]), (64, 500, [4]), (1, 500, []), (0, 500, []), (2, 1, [])])
def test_map_caps_worker_processes(monkeypatch, workers, tasks, pools):
    # 4 CPUs: at most min(workers, tasks, 4) processes, none for one
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    _RecordingPool.sizes = []
    assert cli._map(abs, list(range(-tasks, 0)), workers) == list(range(tasks, 0, -1))
    assert _RecordingPool.sizes == pools


def test_ellipticity_subcommand_json(tmp_path, capsys):
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.5})
    code = cli.main(["ellipticity", "--spec", spec, "--p", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["rows"][0]
    assert abs(row["delta_p"] - (math.cos(0.5) - 0.5)) < 1e-10
    assert abs(row["mu"] - math.cos(0.5)) < 1e-8
    assert doc["meta"]["command"] == "ellipticity"


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["ellipticity"]) == 2  # --spec missing
    capsys.readouterr()
    bad = write_spec(tmp_path, "bad.json", {"kind": "rotation", "phi": 3.0})
    assert cli.main(["ellipticity", "--spec", bad]) == 2
    capsys.readouterr()


def test_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force an oracle/closed-form disagreement
    monkeypatch.setattr(heatnorm, "gaussian_oracle", lambda phi, p, t=1.0: 2.0)
    assert cli.main(["heatnorm", "--phi", "0.2", "--p", "4"]) == 3
    assert "verification failure" in capsys.readouterr().err


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


def test_bellman_violation_row(tmp_path, capsys):
    spec = write_spec(tmp_path, "wide.json", {"kind": "rotation", "phi": 1.5})
    assert cli.main(["bellman", "--spec", spec, "--p", "3",
                     "--budget", "500"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["delta_p"] < 0
    assert row["min_ratio"] < 0
    assert "negative branch value" in row["violation"]


def test_counterexample_scan_goes_negative(capsys):
    assert cli.main(["counterexample", "--p", "40",
                     "--gamma-scan", "0.95:0.99:0.02",
                     "--grid-cells", "64", "--extent", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert any(r["negative"] for r in rows)
    firsts = [r for r in rows if r["first_negative"]]
    assert len(firsts) == 1
    assert all(r["decomposition_error"] < 1e-10 for r in rows)


def test_heatnorm_sweep_sorted_and_workers(capsys):
    assert cli.main(["heatnorm", "--p", "4", "--phi-grid", "0:1.4:0.35",
                     "--n", "10", "--workers", "2"]) == 0
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


def test_dissipativity_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, "skew.json", {"kind": "skew", "w": 0.4})
    assert cli.main(["dissipativity", "--spec", spec, "--p", "4",
                     "--grid-cells", "32", "--extent", "3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["value"] > 0
    assert row["antisymmetric_divfree"] < 1e-10


@pytest.mark.parametrize("argv", [
    ["ellipticity", "--p", "0.5"],
    ["ellipticity", "--p", "nan"],
    ["heatnorm", "--p", "1.0"],
    ["counterexample", "--p", "1.5"],
    ["heatflow", "--grid-cells", "4"],
    ["dissipativity", "--extent", "-1"],
    ["dissipativity", "--p", "1.5"],
    ["bellman", "--p", "1.5"],
])
def test_bad_flag_values_are_input_errors(tmp_path, capsys, argv):
    n = 1 if argv[0] == "heatflow" else 2
    spec = write_spec(tmp_path, "rot.json", {"kind": "rotation", "phi": 0.3, "n": n})
    assert cli.main(argv + ["--spec", spec]) == 2
    assert "input error" in capsys.readouterr().err


def test_other_library_errors_stay_internal(tmp_path, capsys, monkeypatch):
    # only the range checks map to exit 2; any other ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("unexpected")
    monkeypatch.setattr(heatnorm, "tensorized_demo", broken)
    assert cli.main(["heatnorm", "--phi", "0.2", "--p", "4"]) == 1
    assert "internal error" in capsys.readouterr().err
