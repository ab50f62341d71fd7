"""Seeded job streams for the three benchmark workloads.

A workload is a fixed cycle of job classes.  What sets a job's cost
follows its position in the list: grid sizes, scan lengths, and for the
verify stream the spec kind and exponent.  The seed draws the rest
(angles, gamma, random matrices, sweep starts, other exponents, the CLI's
own --seed), so two seeds give different job lists with the same mix and
about the same work.  Each job is the argv of one ``pellip`` call
plus the spec files it reads; the output check derives everything it
needs from those two.

Only numpy is used here: the program under test receives nothing but
the spec files and the argv.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

# Jobs per workload: CYCLES repetitions of the class cycle.  The timed
# loop walks the list in order and wraps round only if a run outlasts it.
CYCLES = 16

# Job-class cycles.  The order is fixed and only the parameters depend on
# the seed, so a run of a given length sees the same mix whatever the seed.
#
# heat: one job per grid size 64-192.  Every job spends nearly all of its
#   time in field.semigroup_apply (82 dense expm per job); the small
#   grids catch a change that helps large N but costs small N.
# verify: the scalar-optimizer stream.  Bellman convexity inside the
#   angle (Nelder-Mead over scalar hessian_q), the violation branch
#   outside it, single-matrix ellipticity and heatnorm phi sweeps
#   (Nelder-Mead in gaussian_oracle).  field never runs.
# fields: per-cell reductions.  Section-7 fields have 2 distinct cells,
#   'entries' fields have every cell distinct, so a per-cell dedup shows
#   on one class and not on the other; counterexample scans and
#   dissipativity run the quadrature and the batched Bellman layer.
#
# Heat grid sizes 64, 72, ..., 192, interleaved so that any stretch of
# the cycle mixes small and large grids, plus four more 128-cell jobs so
# that the median job sits inside one size rather than between two.
_HEAT_CELLS = [64 + 8 * k for k in
               (0, 16, 8, 4, 12, 2, 14, 8, 6, 10, 1, 15, 8, 7, 11, 3, 13, 8, 5, 9, 8)]

CYCLE = {
    "heat": [f"heatflow.c{c}" for c in _HEAT_CELLS],
    "verify": ["bellman.inside", "heatnorm.sweep", "bellman.inside",
               "bellman.outside", "heatnorm.sweep", "bellman.inside",
               "ellipticity.matrix"],
    "fields": ["ellipticity.section7", "ellipticity.entries",
               "counterexample.p40", "counterexample.p4",
               "ellipticity.section7", "ellipticity.entries",
               "counterexample.p40", "dissipativity.c64", "dissipativity.c128"],
}

WORKLOADS = tuple(CYCLE)

# Warm-up: one small instance of each class (every heat class runs the
# same code, so one of them is enough there).
WARM = {w: list(dict.fromkeys(c)) for w, c in CYCLE.items()}
WARM["heat"] = ["heatflow.c64"]

HEAT_EXPONENTS = (2.5, 3.0, 4.0)
EXPONENTS = (2.5, 3.0, 4.0, 8.0)


@dataclasses.dataclass
class Job:
    """One pellip invocation.

    ``argv`` names spec files by their bare file name; :func:`materialize`
    rewrites them to paths.
    """

    cls: str
    argv: list
    specs: dict

    def option(self, name: str):
        """Value following ``--name`` in argv, or None."""
        flag = f"--{name}"
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None


def phat(p: float) -> float:
    return 1.0 - 2.0 / p


def contractivity_angle(p: float) -> float:
    """arccos|1 - 2/p|: rotations e^{i phi} with |phi| below it have
    positive p-ellipticity constant."""
    return math.acos(abs(phat(p)))


def _pairs(M: np.ndarray) -> list:
    """Complex array -> nested [re, im] pairs as the spec format wants."""
    return np.stack([M.real, M.imag], axis=-1).round(12).tolist()


def _random_accretive(rng, n: int, p: float) -> np.ndarray:
    """I + E with ||E|| small enough that delta_p(I + E) > 0.

    delta_p is Lipschitz in A with constant at most 1 + |phat| in the
    operator norm and delta_p(I) = 1 - |phat|, so ||E|| below half of
    (1 - |phat|) / (1 + |phat|) keeps a positive margin.
    """
    s = abs(phat(p))
    E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    target = 0.5 * (1 - s) / (1 + s) * rng.uniform(0.3, 0.9)
    E *= target / np.linalg.norm(E, 2)
    return np.eye(n) + E


def _matrix_spec(rng, kind: str, p: float, inside: bool) -> dict:
    """A constant 2x2 spec of the given kind, inside or outside the
    p-ellipticity angle (random accretive matrices are always inside)."""
    if kind == "rotation":
        ang = contractivity_angle(p)
        if inside:
            phi = rng.uniform(0.1, 0.8) * ang * rng.choice([-1, 1])
        else:
            phi = rng.uniform(ang + 0.05, math.pi / 2 - 0.05)
        return {"kind": "rotation", "phi": round(float(phi), 10)}
    if kind == "skew":
        wmax = math.sqrt(1 - phat(p) ** 2)  # delta_p = 0 at |w| = wmax
        if inside:
            w = rng.uniform(0.05, 0.8) * wmax
        else:
            w = wmax + rng.uniform(0.2, 0.9) * (0.999 - wmax)
        return {"kind": "skew", "w": round(float(w), 10)}
    return {"kind": "constant", "entries": _pairs(_random_accretive(rng, 2, p))}


def _heat_job(rng, cls: str, k: int, warm: bool) -> Job:
    cells = 16 if warm else int(cls.split(".c")[1])
    p = float(rng.choice(HEAT_EXPONENTS))
    phi = float(rng.uniform(0.05, 0.9) * contractivity_angle(p) * rng.choice([-1, 1]))
    spec = {"kind": "rotation", "phi": round(phi, 10), "n": 1}
    argv = ["heatflow", "--spec", "a.json", "--p", str(p), "--grid-cells",
            str(cells), "--extent", "6", "--seed", str(int(rng.integers(1 << 30)))]
    return Job(cls, argv, {"a.json": spec})


def _verify_job(rng, cls: str, k: int, warm: bool) -> Job:
    # Spec kind and exponent follow the job's rank k within its class, so
    # every seed runs the same kinds at the same exponents; the seed draws
    # the angles, matrices and sweep ranges.
    if cls == "heatnorm.sweep":
        p = EXPONENTS[k % 4]
        step = 0.05
        count = 3 if warm else 18
        start = round(float(rng.uniform(0.0, 1.5 - step * (count - 1))), 4)
        stop = round(start + step * (count - 1) + step / 2, 4)
        n = int(rng.integers(1, 12))
        argv = ["heatnorm", "--p", str(p), "--phi-grid", f"{start}:{stop}:{step}",
                "--n", str(n)]
        return Job(cls, argv, {})
    if cls == "ellipticity.matrix":
        p = float(rng.choice(EXPONENTS))
        kind = str(rng.choice(["rotation", "skew", "constant"]))
        spec = _matrix_spec(rng, kind, p, inside=bool(rng.integers(2)))
        return Job(cls, ["ellipticity", "--spec", "a.json", "--p", str(p)],
                   {"a.json": spec})
    inside = cls == "bellman.inside"
    kinds = ["rotation", "skew", "constant", "pair"] if inside else ["rotation", "skew"]
    kind = kinds[k % len(kinds)]
    p = EXPONENTS[(k + k // len(kinds)) % 4]  # each kind meets every p
    budget = 500 if warm else 10_000
    argv = ["bellman", "--spec", "a.json", "--p", str(p), "--budget", str(budget),
            "--seed", str(int(rng.integers(1 << 30)))]
    if kind == "pair":
        specB = _matrix_spec(rng, str(rng.choice(["rotation", "skew"])), p, inside=True)
        return Job(cls, argv + ["--spec-b", "b.json"],
                   {"a.json": _matrix_spec(rng, "rotation", p, inside=True),
                    "b.json": specB})
    return Job(cls, argv, {"a.json": _matrix_spec(rng, kind, p, inside=inside)})


def _field_job(rng, cls: str, k: int, warm: bool) -> Job:
    if cls == "ellipticity.section7":
        cells = 8 if warm else 14
        p = float(rng.choice(EXPONENTS))
        gamma = round(float(rng.uniform(0.1, 0.95)), 6)
        spec = {"kind": "field", "grid": {"dim": 2, "cells": cells, "extent": 4.0},
                "generator": {"name": "section7", "gamma": gamma}}
        return Job(cls, ["ellipticity", "--spec", "a.json", "--p", str(p)],
                   {"a.json": spec})
    if cls == "ellipticity.entries":
        cells = 8 if warm else 12
        p = float(rng.choice(EXPONENTS))
        mats = np.stack([_random_accretive(rng, 2, 2.0 + 8.0 * rng.uniform())
                         for _ in range(cells * cells)])
        entries = _pairs(mats.reshape(cells, cells, 2, 2))
        spec = {"kind": "field", "grid": {"dim": 2, "cells": cells, "extent": 4.0},
                "entries": entries}
        return Job(cls, ["ellipticity", "--spec", "a.json", "--p", str(p)],
                   {"a.json": spec})
    if cls == "counterexample.p40":
        # negative values appear from gamma ~ 0.985 on at p = 40; every
        # scan ends at 0.995, so each one must find a negative value
        count = 2 if warm else 12
        step = round(float(rng.uniform(0.004, 0.006)), 4)
        start = round(0.995 - step * (count - 1), 4)
        argv = ["counterexample", "--p", "40", "--gamma-scan",
                f"{start}:0.995:{step}", "--grid-cells", "64" if warm else "256",
                "--extent", "4"]
        return Job(cls, argv, {})
    if cls == "counterexample.p4":
        # p-elliptic for gamma <= 0.866 at p = 4: no negative value
        count = 1 if warm else 2
        step = round(float(rng.uniform(0.05, 0.15)), 4)
        start = round(0.5 - step * (count - 1), 4)
        argv = ["counterexample", "--p", "4", "--gamma-scan",
                f"{start}:0.5:{step}", "--grid-cells", "64" if warm else "256",
                "--extent", "4"]
        return Job(cls, argv, {})
    # dissipativity on a section-7 field inside the p-ellipticity range
    cells = 16 if warm else int(cls.split(".c")[1])
    p = float(rng.choice(HEAT_EXPONENTS))
    gamma = round(float(rng.uniform(0.1, 0.9) * math.sqrt(1 - phat(p) ** 2)), 6)
    spec = {"kind": "field", "grid": {"dim": 2, "cells": cells, "extent": 4.0},
            "generator": {"name": "section7", "gamma": gamma}}
    argv = ["dissipativity", "--spec", "a.json", "--p", str(p),
            "--seed", str(int(rng.integers(1 << 30)))]
    return Job(cls, argv, {"a.json": spec})


_MAKERS = {"heat": _heat_job, "verify": _verify_job, "fields": _field_job}


def generate(workload: str, seed: int, warm: bool = False) -> list:
    """The job list of a workload for a seed.

    ``warm`` gives one small instance of every class, used to warm the
    program up before timing.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = _MAKERS[workload]
    classes = WARM[workload] if warm else CYCLE[workload] * CYCLES
    rank = {}
    out = []
    for cls in classes:
        out.append(make(rng, cls, rank.get(cls, 0), warm))
        rank[cls] = rank.get(cls, 0) + 1
    return out


def digest(jobs: list) -> str:
    """sha256 of the job list and every spec file in it."""
    doc = json.dumps([dataclasses.asdict(j) for j in jobs], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def mix(jobs: list) -> dict:
    out = {}
    for j in jobs:
        out[j.cls] = out.get(j.cls, 0) + 1
    return out


def materialize(jobs: list, directory: str) -> list:
    """Write every spec file under ``directory`` and return the argv
    lists with spec names replaced by paths."""
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, job in enumerate(jobs):
        names = {}
        for name, doc in job.specs.items():
            path = os.path.join(directory, f"{i:04d}-{name}")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            names[name] = path
        argvs.append([names.get(a, a) for a in job.argv] + ["--format", "json"])
    return argvs
