"""pellip benchmark: one closed-loop client driving ``pellip.cli.main``.

    python3 perfbench/run.py --workload {heat,verify,fields} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
One client sends the next job only after the previous one has finished
and its output has passed the check (see checks.py).  The job list and
its spec files are generated from the seed (see jobs.py); the program
receives only those files and the argv.

--trace 0 prints the end-to-end metrics, measured untraced:
  setup_s        import + median of three (spec generation + warm-up)
  jobs_per_s     checked jobs per second of timed wall
  job_p50_s      median job wall time
  job_tail_s     job wall time at the highest percentile with at least
                 10 samples beyond it (percentile and count in the report)
  cpu_per_job_s  process user+sys time per job, BLAS threads included
  peak_rss_mb    peak resident set of this process (one workload per run)
--trace 1 runs each job untraced and then at once traced, and prints the
per-layer metrics of the traced runs (see tracing.py); the spans go to
perfbench/out/.

The line before the result is a JSON report: environment (CPU count, OS
threads after warm-up, numpy/scipy/OpenBLAS versions), seed, job-list
hash and determinism checks, the mix, the tail percentile and sample
count, and the failures.  The one departure from the default environment
is OPENBLAS_NUM_THREADS=1 unless already set (reason at PINNED_ENV).
Exit code 0 when every check passed, 1 when one failed, 2 when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
TAIL_BEYOND = 10

# The one departure from the default environment.  With OpenBLAS's default
# threads (one per core) the many small dense expm of a heat job spend most
# of their time waking and spinning BLAS threads: on 2 cores the heat mix
# ran ~3x slower in wall and ~6x in CPU (cpu/wall ~2), and its run-to-run
# spread over seeds was ~20%, too wide for any bound.  A value already set
# in the environment is kept.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": (
    "1", "default BLAS threads made heat ~3x slower in wall at cpu/wall ~2 "
         "and too noisy to compare (see perfbench/README.md)")}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("heat", "verify", "fields"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_program():
    """Import pellip.cli from src/ of this checkout, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pellip", "cli.py")):
        raise ImportError(f"no pellip sources under {src}")
    sys.path.insert(0, src)
    import pellip.cli
    if not os.path.abspath(pellip.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"pellip imported from {pellip.cli.__file__}, not {src}")
    return pellip.cli


def _os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _pin_environment() -> list:
    """Apply PINNED_ENV where the variable is unset; return the departures."""
    departures = []
    for var, (value, reason) in PINNED_ENV.items():
        if var not in os.environ:
            os.environ[var] = value
            departures.append({"var": var, "value": value, "reason": reason})
    return departures


def _environment(np, scipy, args, threads, departures) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "os_threads_after_warmup": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "seed": args.seed,
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "departures_from_default_env": departures,
    }


class Client:
    """Closed-loop client: call, check, record, next."""

    def __init__(self, cli, checks):
        self.cli = cli
        self.checks = checks
        self.attempted = 0
        self.failures = []
        self.report_bytes = 0

    def call(self, job, argv) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
        text = out.getvalue()
        self.report_bytes += len(text)
        problems = self.checks.check(job, rc, text, err.getvalue())
        self.attempted += 1
        if problems:
            self.failures.append({"cls": job.cls, "argv": argv, "problems": problems})
        return wall

    def loop(self, jobs, argvs, until):
        """Run jobs in list order (wrapping round), at least one, until
        the deadline ``until`` (perf_counter) passes.  Returns per-job wall
        times, total wall and process CPU time."""
        walls = []
        t0, c0 = time.perf_counter(), time.process_time()
        while not walls or time.perf_counter() < until:
            k = len(walls) % len(jobs)
            walls.append(self.call(jobs[k], argvs[k]))
        return walls, time.perf_counter() - t0, time.process_time() - c0

    def paired_loop(self, jobs, argvs, until, tracer):
        """Run each job untraced and then at once traced, until the
        deadline.  Pairing the two runs of a job keeps slow drift of the
        machine out of the tracing overhead.  Returns the untraced and
        traced wall times and the bytes the traced runs reported."""
        plain, traced, nbytes = [], [], 0
        while not plain or time.perf_counter() < until:
            k = len(plain) % len(jobs)
            plain.append(self.call(jobs[k], argvs[k]))
            tracer.job = (len(traced), jobs[k].cls)
            before = self.report_bytes
            tracer.install()
            try:
                traced.append(self.call(jobs[k], argvs[k]))
            finally:
                tracer.uninstall()
            nbytes += self.report_bytes - before
        return plain, traced, nbytes


def _tail(walls):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are
    too few samples."""
    s = sorted(walls)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _class_p50(job_list, walls) -> dict:
    """Median wall time and job count per job class of a timed loop."""
    by = {}
    for i, w in enumerate(walls):
        by.setdefault(job_list[i % len(job_list)].cls, []).append(w)
    return {cls: [statistics.median(ws), len(ws)] for cls, ws in by.items()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed(client, job_list, argvs, until, setup_s):
    """Untraced closed loop: the end-to-end metrics."""
    walls, wall, cpu = client.loop(job_list, argvs, until)
    tail, pct, beyond = _tail(walls)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "jobs_per_s": _metric(len(walls) / wall, "1/s"),
        "job_p50_s": _metric(statistics.median(walls), "s"),
        "job_tail_s": _metric(tail, "s"),
        "cpu_per_job_s": _metric(cpu / len(walls), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {"jobs": len(walls), "wall_s": wall, "cpu_s": cpu,
              "cpu_per_wall": cpu / wall,
              "tail_percentile": pct, "tail_samples_beyond": beyond,
              "class_p50_s": _class_p50(job_list, walls), "walls_s": walls}
    return metrics, report


def _traced(client, job_list, argvs, until, threads, tag):
    """Paired untraced/traced loop: the per-layer metrics and the spans."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced, nbytes = client.paired_loop(job_list, argvs, until, tracer)
    n = len(traced)
    layer = tracing.layer_metrics(
        tracer, n, sum(traced), overhead_frac=sum(traced) / sum(plain) - 1.0,
        os_threads=threads, report_bytes=nbytes)
    spans_path = os.path.join(OUT, f"{tag}-spans.jsonl")
    tracer.write(spans_path)
    modules = {}
    for name, s in tracer.self_s.items():
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + s / n
    c = tracer.counts
    cells = c["ellipticity.accretivity_bounds.cells"]
    ops = tracer.calls["field.discretize_operator"]
    report = {
        "jobs": n, "untraced_wall_s": sum(plain), "traced_wall_s": sum(traced),
        "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT),
        "self_s_per_job_by_module": modules,
        "top_self_s": sorted(((s / n, k) for k, s in tracer.self_s.items()),
                             reverse=True)[:5],
        "repeated_cell_frac": (
            1.0 - c["ellipticity.accretivity_bounds.distinct_cells"] / cells
            if cells else 0.0),
        "operator_n_mean": c["field.discretize_operator.n"] / ops if ops else 0,
        "counter_errors": c["trace.counter_errors"],
        "counters_label": "computed at layer boundaries from arguments "
                          "and return values",
    }
    metrics = {k: _metric(v, unit) for k, (v, unit, _) in layer.items()}
    return metrics, report


def main(argv=None) -> int:
    args = _parse(argv)
    departures = _pin_environment()  # before numpy loads OpenBLAS
    t_import = time.perf_counter()
    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import checks
    import jobs
    import_s = time.perf_counter() - t_import

    tag = f"{args.workload}-seed{args.seed}"
    os.makedirs(OUT, exist_ok=True)
    spec_dir = os.path.join(OUT, f"specs-{tag}-{os.getpid()}")
    client = Client(cli, checks)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        # -- set-up, several times: generate, write specs, warm up ------
        rep_s, digests = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            job_list = jobs.generate(args.workload, args.seed)
            digests.append(jobs.digest(job_list))
            argvs = jobs.materialize(job_list, os.path.join(spec_dir, "run"))
            warm = jobs.generate(args.workload, args.seed, warm=True)
            for job, wargv in zip(warm, jobs.materialize(warm, os.path.join(spec_dir, "warm"))):
                client.call(job, wargv)
            rep_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(rep_s)
        threads = _os_threads()

        other = jobs.generate(args.workload, args.seed + 1)
        determinism = {
            "digest": digests[0],
            "same_seed_identical": len(set(digests)) == 1,
            "other_seed_differs": jobs.digest(other) != digests[0],
            "other_seed_same_mix": jobs.mix(other) == jobs.mix(job_list),
        }
        report["determinism"] = determinism
        report["environment"] = _environment(np, scipy, args, threads, departures)
        report["setup"] = {"import_s": import_s, "reps_s": rep_s}

        until = time.perf_counter() + args.seconds
        if args.trace == 0:
            metrics, report["timed"] = _timed(client, job_list, argvs, until, setup_s)
        else:
            metrics, report["traced"] = _traced(client, job_list, argvs, until,
                                                threads, tag)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    failed = len(client.failures)
    correct = failed == 0 and all(determinism[k] for k in
                                  ("same_seed_identical", "other_seed_differs",
                                   "other_seed_same_mix"))
    report["fail_frac"] = failed / client.attempted
    report["failures"] = client.failures[:20]
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
