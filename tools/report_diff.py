"""Compare the CLI reports of a git revision and of the working tree.

Every argv of the benchmark's job lists (``perfbench/jobs.py``:
``generate`` and ``materialize``, the timed and the warm list of each
workload, for each seed given) and every run of ``tools/edge_argv.json``
runs through ``pellip.cli.main`` in-process, in one subprocess per tree:
once on the ``src/`` of the revision, exported by ``git archive`` into a
temporary directory, and once on the ``src/`` of the working tree.  Both
read the same spec files.  Per subcommand it prints the number of
reports, how many are byte-identical (stdout, stderr and exit code), how
many changed their exit code or stderr, and for each column that
differs, how many values differ and the largest relative difference.
It also lists each edge run whose exit code on the working tree is not
the one the table records.

    python tools/report_diff.py [--rev REV] [--seeds 1 2 3] [--expect-identical]

It exits 0 whatever differs; with ``--expect-identical`` it exits 1 when
any report differs or an edge run's exit code is not the table's.  Run
against ``--rev HEAD`` on a clean tree, it checks that every report is
deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EDGE_ARGV = os.path.join(ROOT, "tools", "edge_argv.json")
# One BLAS thread, as the benchmark runs: the reports are then the ones it
# checks, and a BLAS reduction cannot change its order between two runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}
SHOWN = 10  # argv listed per subcommand whose exit code or stderr changed


def _benchmark_argv(seeds, directory) -> list:
    """Every argv of the benchmark's timed and warm job lists."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    import jobs
    argvs = []
    for seed in seeds:
        for workload in jobs.WORKLOADS:
            for warm in (False, True):
                tag = f"{workload}-{seed}-{'warm' if warm else 'run'}"
                argvs += jobs.materialize(jobs.generate(workload, seed, warm),
                                          os.path.join(directory, tag))
    return argvs


def edge_runs(directory) -> list:
    """The runs of EDGE_ARGV as (argv, expected exit code) pairs, its spec
    names replaced by files written under ``directory``."""
    with open(EDGE_ARGV, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, spec in doc["specs"].items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    return [([paths.get(a, a) for a in run["argv"]], run["exit"]) for run in doc["runs"]]


def _export(rev: str, directory: str) -> str:
    """The src/ of ``rev``, written under ``directory``; returns its path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    # the "data" filter, where this Python has it, refuses links and
    # paths that leave ``directory``
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(directory, **safe)
    return os.path.join(directory, "src")


def _run_tree(src: str, argv_path: str, out_path: str) -> list:
    """Each argv's (exit code, stdout, stderr) from one subprocess on ``src``."""
    env = {**os.environ, **PINNED_ENV}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                    src, argv_path, out_path], check=True, env=env)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _worker(src: str, argv_path: str, out_path: str) -> None:
    sys.path.insert(0, src)
    import pellip.cli
    if not os.path.abspath(pellip.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"report_diff: pellip imported from "
                         f"{pellip.cli.__file__}, not {src}")
    with open(argv_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pellip.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
        # a warning names the file it comes from, which differs by tree
        results.append([code, out.getvalue(), err.getvalue().replace(src, "<src>")])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _rows(text: str) -> list:
    """The rows of a JSON or CSV report; none where there is no report."""
    if text.startswith("{"):
        return json.loads(text)["rows"]
    keys, *lines = text.splitlines() or [""]
    return [dict(zip(keys.split(","), line.split(","))) for line in lines]


def _relative(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two numbers; inf where either is not a
    finite number, or one is a bool."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if isinstance(a, bool) or isinstance(b, bool) or not math.isfinite(x - y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(argvs, old, new) -> dict:
    """Per subcommand: reports, identical, status_changed, and per column
    [values that differ, largest relative difference]."""
    summary = {}
    for argv, a, b in zip(argvs, old, new):
        s = summary.setdefault(argv[0], {"reports": 0, "identical": 0,
                                         "status_changed": [], "columns": {}})
        s["reports"] += 1
        s["identical"] += a == b
        if a[0] != b[0] or a[2] != b[2]:
            s["status_changed"].append((argv, a, b))
        if a[1] == b[1]:
            continue
        rows_a, rows_b = _rows(a[1]), _rows(b[1])
        if len(rows_a) != len(rows_b):
            s["columns"].setdefault("(row count)", [0, math.inf])[0] += 1
        for ra, rb in zip(rows_a, rows_b):
            for key in dict.fromkeys([*ra, *rb]):
                va, vb = ra.get(key), rb.get(key)
                if va != vb:
                    col = s["columns"].setdefault(key, [0, 0.0])
                    col[0] += 1
                    col[1] = max(col[1], _relative(va, vb))
    return summary


def _short(argv) -> str:
    return " ".join(os.path.basename(a) if os.sep in a else a for a in argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        _worker(*argv[1:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", default="HEAD", help="git revision to compare "
                    "the working tree against (default HEAD)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--expect-identical", action="store_true",
                    help="exit 1 unless every report is byte-identical and "
                    "every edge run exits with the table's code")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        edge = edge_runs(os.path.join(tmp, "specs", "edge"))
        argvs = (_benchmark_argv(args.seeds, os.path.join(tmp, "specs"))
                 + [argv for argv, _ in edge])
        argv_path = os.path.join(tmp, "argv.json")
        with open(argv_path, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        old = _run_tree(_export(args.rev, os.path.join(tmp, "rev")), argv_path,
                        os.path.join(tmp, "old.json"))
        new = _run_tree(os.path.join(ROOT, "src"), argv_path,
                        os.path.join(tmp, "new.json"))
    summary = compare(argvs, old, new)
    print(f"{args.rev} against the working tree, seeds "
          f"{' '.join(map(str, args.seeds))}: {len(argvs)} argv")
    print(f"{'subcommand':<16}{'reports':>8}{'identical':>10}{'exit/stderr changed':>21}")
    for name, s in sorted(summary.items()):
        print(f"{name:<16}{s['reports']:>8}{s['identical']:>10}"
              f"{len(s['status_changed']):>21}")
        for key, (count, rel) in s["columns"].items():
            print(f"    column {key}: {count} values differ, "
                  f"largest relative difference {rel:.3g}")
        for cmd, a, b in s["status_changed"][:SHOWN]:
            print(f"    {_short(cmd)}\n      exit {a[0]} -> {b[0]}"
                  f"\n      stderr {a[2].strip()!r}\n          -> {b[2].strip()!r}")
    differ = sum(s["reports"] - s["identical"] for s in summary.values())
    print(f"{differ} of {len(argvs)} reports differ")
    wrong = [(argv, want, got[0]) for (argv, want), got
             in zip(edge, new[len(argvs) - len(edge):]) if got[0] != want]
    for argv, want, got in wrong:
        print(f"edge run {_short(argv)}: exit {got}, the table records {want}")
    return 1 if args.expect_identical and (differ or wrong) else 0


if __name__ == "__main__":
    sys.exit(main())
