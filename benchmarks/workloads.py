"""Workload generation, job execution and output checks for the benchmark.

A job is one user-level request, the library equivalent of ``ragd run`` on
one (problem, solver) pair: ``problem_from_dict``, ``oracle_optimum`` when
no optimum is stored, ``solvers.run``, ``certify_trace`` on workloads that
certify, and ``ConvergenceTrace.write_csv``.  Each step is timed from
outside, around the public call.

Jobs come in cycles.  A cycle holds one job per stratum of the workload's
input space (one cell of a fixed grid over the properties the cost depends
on), with the exact values drawn inside the cell from the seed.  Every
cycle therefore has the same mix of job sizes, and a run measures whole
cycles only, so the percentiles of a run do not depend on how many jobs it
happened to fit.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ragd import potential, problems, solvers
from ragd.trace import TRACE_COLUMNS

__all__ = [
    "WORKLOADS",
    "ACCURACY",
    "Job",
    "JobResult",
    "make_cycles",
    "run_job",
    "check_trace",
]

# Stated accuracy of every job: the final objective gap must be at most
# this share of the initial gap.
ACCURACY = 1e-10

# Curved runs go on past convergence (a fixed iteration budget, as a user
# running ``ragd run`` with a generous ``max_iters`` would), so the
# certifier also audits the steps taken at the float-resolution floor.
SPD_ITERS = 40
HYPERBOLIC_ITERS = 60

# ragd_constant_delta on flat quadratics pins the distortion rate at this
# value instead of the flat rate 1, so the momentum settles below sqrt(a).
FLAT_DELTA_CONST = 1.05


@dataclass(frozen=True)
class Job:
    """One request: a problem dictionary and the solver settings for it."""

    problem: dict
    solver: dict
    certify: bool
    pair: str  # "<manifold>.<mode>", the key of solvers.us_per_iter


@dataclass
class JobResult:
    """Timings (seconds per step) and outcome of one job."""

    times: dict = field(default_factory=dict)
    iters: int = 0
    iters_to_tol: int = 0
    certified_steps: int = 0
    flagged_steps: int = 0
    csv_bytes: int = 0
    csv_digest: int = 0
    error: str | None = None

    @property
    def total(self) -> float:
        return sum(self.times.values())


# ----- generation -------------------------------------------------------------


def _flat_xi_star(kappa: float, mode: str) -> float:
    """Asymptotic momentum value of a flat run, which sets its rate 1 - xi."""
    gamma_l = 1.05 if mode == "ragd" else 1.0
    a = 2.0 * gamma_l * (1.0 - gamma_l / 2.0) / kappa
    delta = FLAT_DELTA_CONST if mode == "ragd_constant_delta" else 1.0
    b = delta - 1.0
    return 0.5 * (math.sqrt(b * b + 4.0 * delta * a) - b)


def _flat_iters(kappa: float, mode: str) -> int:
    """Iteration budget that reaches ACCURACY.

    On these ranges the first iteration within ACCURACY lies below 0.48
    log(1/ACCURACY) / xi* in every mode, so 0.75 leaves a margin of more
    than half.
    """
    return math.ceil(0.75 * math.log(1.0 / ACCURACY) / _flat_xi_star(kappa, mode)) + 10


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _splits(lo: float, hi: float, k: int, log: bool = False) -> list[tuple[float, float]]:
    """``k`` adjacent bins covering [lo, hi], equal in width or in log width."""
    f, g = (math.log, math.exp) if log else (float, float)
    edges = [g(f(lo) + (f(hi) - f(lo)) * i / k) for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


# Anchor-count bins shared by both Karcher workloads; the gradient and the
# objective cost one manifold call per anchor.
ANCHOR_BINS = ((4, 6), (7, 9), (10, 12), (13, 16))


def _flat_cycle(rng: random.Random) -> list[Job]:
    jobs = []
    dim_bins = ((16, 31), (32, 63), (64, 128))
    modes = ("euclid_nesterov", "ragd", "ragd_constant_delta")
    for (d_lo, d_hi), (k_lo, k_hi), mode in itertools.product(
        dim_bins, _splits(30.0, 300.0, 4, log=True), modes
    ):
        kappa = _log_uniform(rng, k_lo, k_hi)
        solver = {"mode": mode, "max_iters": _flat_iters(kappa, mode)}
        if mode == "ragd_constant_delta":
            solver["delta_const"] = FLAT_DELTA_CONST
        problem = {
            "kind": "quadratic",
            "dim": rng.randint(d_lo, d_hi),
            "mu": 1.0,
            "L": kappa,
            "seed": rng.randrange(2**31),
        }
        jobs.append(Job(problem, solver, certify=False, pair=f"euclidean.{mode}"))
    return jobs


def _karcher_cycle(
    rng: random.Random,
    manifold: Callable[[int], dict],
    size_bins: tuple,
    radius_bins: list,
    solver: dict,
    pair: str,
) -> list[Job]:
    jobs = []
    for (s_lo, s_hi), (k_lo, k_hi), (r_lo, r_hi) in itertools.product(
        size_bins, ANCHOR_BINS, radius_bins
    ):
        problem = {
            "kind": "karcher",
            "manifold": manifold(rng.randint(s_lo, s_hi)),
            "n_anchors": rng.randint(k_lo, k_hi),
            "radius": rng.uniform(r_lo, r_hi),
            "seed": rng.randrange(2**31),
        }
        jobs.append(Job(problem, dict(solver), certify=True, pair=pair))
    return jobs


def _spd_cycle(rng: random.Random) -> list[Job]:
    return _karcher_cycle(
        rng,
        lambda n: {"kind": "spd", "n": n},
        size_bins=((3, 3), (4, 4), (5, 5)),
        radius_bins=_splits(1.0, 3.0, 3),
        solver={"mode": "ragd", "max_iters": SPD_ITERS, "record_diagnostics": True},
        pair="spd.ragd",
    )


def _hyperbolic_cycle(rng: random.Random) -> list[Job]:
    return _karcher_cycle(
        rng,
        lambda d: {"kind": "hyperbolic", "dim": d},
        size_bins=((8, 12), (13, 20), (21, 32)),
        radius_bins=_splits(3.0, 6.0, 3),
        solver={
            "mode": "ragd",
            "max_iters": HYPERBOLIC_ITERS,
            "sharp_distortion": True,
            "record_diagnostics": True,
        },
        pair="hyperbolic.ragd",
    )


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "flat-quadratic": _flat_cycle,
    "spd-karcher": _spd_cycle,
    "hyperbolic-sharp": _hyperbolic_cycle,
}


def make_cycles(workload: str, seed: int, n_cycles: int) -> list[list[Job]]:
    """The first ``n_cycles`` cycles of a workload; the same seed gives the
    same jobs."""
    make = WORKLOADS[workload]
    return [make(random.Random(f"{workload}:{seed}:{c}")) for c in range(n_cycles)]


# ----- execution ----------------------------------------------------------------


def _plain_call(name: str, fn: Callable, *args):
    return fn(*args)


def run_job(job: Job, csv_path: str, call: Callable = _plain_call) -> JobResult:
    """Run one job and check its output.

    ``call(span_name, fn, *args)`` performs each public call; the tracer
    passes its own to record a span per step.  Any exception fails the job,
    as it would fail the user's request, and the run goes on.
    """
    res = JobResult()
    clock = time.perf_counter

    def step(key: str, span: str, fn: Callable, *args):
        t0 = clock()
        out = call(span, fn, *args)
        res.times[key] = clock() - t0
        return out

    try:
        problem = step("build", "problems.build", problems.problem_from_dict, job.problem)
        if problem.optimum is None:
            step("oracle", "problems.oracle", problems.oracle_optimum, problem)
        config = solvers.SolverConfig(mu=problem.mu, L=problem.L, **job.solver)
        trace = step("solve", "solvers.run", solvers.run, problem, config)
        if job.certify:
            report = step("certify", "potential.certify", potential.certify_trace, trace, problem)
        with open(csv_path, "w") as fh:
            step("write", "trace.write_csv", trace.write_csv, fh)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        res.error = f"{type(exc).__name__}: {exc}"
        return res
    res.iters = trace.n_iters
    if job.certify:
        res.certified_steps = len(report.records) - 1
        res.flagged_steps = report.violations
    with open(csv_path, "rb") as fh:
        data = fh.read()
    res.csv_bytes = len(data)
    res.csv_digest = zlib.crc32(data)
    res.error = check_trace(trace.rows, res.csv_bytes)
    if res.error is None:
        res.iters_to_tol = iters_to_tol(trace.rows)
    return res


def iters_to_tol(rows: np.ndarray) -> int:
    """First iteration whose objective gap is within ACCURACY of the start."""
    gaps = np.abs(rows[:, 1])
    return int(np.argmax(gaps <= ACCURACY * gaps[0]))


def check_trace(rows: np.ndarray, csv_bytes: int) -> str | None:
    """Reason a trace is wrong, or None.

    Every cell must be finite except the last row's ``decrease_margin``,
    the file must hold a header and one line per row, and the final gap
    must reach the stated accuracy.
    """
    if rows.ndim != 2 or rows.shape[1] != len(TRACE_COLUMNS) or rows.shape[0] < 2:
        return f"trace has shape {rows.shape}"
    must_be_finite = np.isfinite(rows)
    must_be_finite[-1, -1] = True
    if not must_be_finite.all():
        r, c = np.argwhere(~must_be_finite)[0]
        return f"non-finite {TRACE_COLUMNS[c]} at row {r}"
    if not math.isnan(rows[-1, -1]):
        return "last decrease_margin should be NaN"
    if csv_bytes < rows.shape[0] * len(TRACE_COLUMNS):
        return f"CSV holds only {csv_bytes} bytes for {rows.shape[0]} rows"
    gap0, gap_t = abs(rows[0, 1]), abs(rows[-1, 1])
    if not gap_t <= ACCURACY * gap0:
        return f"final gap {gap_t:.3e} misses {ACCURACY:g} x initial gap {gap0:.3e}"
    return None
