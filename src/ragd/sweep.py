"""Parameter sweeps over a base experiment configuration.

One row per swept value: the measured contraction rate from the trailing
half of the log-gap curve next to its fixed-point prediction, the mean
distortion rate that produced it, and the predicted iteration count for
the momentum to settle.  Swept axes edit either the solver entry (gamma,
delta_const) or the problem description (condition_number, curvature);
every case is built before the first runs, and rows are emitted in the
order the values were given.  The config helpers here are shared with
``ragd run``.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
from dataclasses import dataclass

from .errors import DomainError, MissingDataError
from .problems import (
    Problem, curvature_key, oracle_optimum, problem_from_dict, recertified,
)
from .solvers import SolverConfig, run
from .trace import ConvergenceTrace, estimate_rate
from .xi import XiParams, fixed_point_xi, settle_steps

__all__ = [
    "SWEEP_AXES", "SweepPoint", "build_sweep", "problem_description", "run_enlarging",
    "run_sweep", "solver_config", "solver_entries", "sweep_point", "write_sweep_csv",
]

logger = logging.getLogger("ragd.sweep")

SWEEP_AXES = ("gamma", "condition_number", "curvature", "delta_const")

SWEEP_COLUMNS = (
    "axis",
    "value",
    "solver",
    "final_gap",
    "slope",
    "rate",
    "delta_bar",
    "xi_pred",
    "pred_rate",
    "xi_settle_iters",
)

# Momentum settling tolerance used for the predicted iteration count.
_XI_SETTLE_TOL = 1e-3


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row; ``rate`` is the measured per-step error contraction
    exp(slope / 2) and ``pred_rate`` = 1 - xi the certified contraction of
    the potential.  The potential is quadratic in the error, so
    ``pred_rate`` bounds the gap contraction exp(slope) = ``rate**2``, not
    ``rate``."""

    axis: str
    value: float
    solver: str
    final_gap: float
    slope: float
    rate: float
    delta_bar: float
    xi_pred: float
    pred_rate: float
    xi_settle_iters: int

    def as_row(self) -> list:
        return [getattr(self, c) for c in SWEEP_COLUMNS]


def run_enlarging(
    problem: Problem, config: SolverConfig
) -> tuple[ConvergenceTrace, SolverConfig]:
    """Run ``config`` on ``problem``, and once more on the problem certified
    on the observed ball (:func:`~ragd.problems.recertified`) when the
    iterates leave its certified ball.

    The re-run's (L, gamma) are rebuilt from the largest observed excursion,
    and its trace records the new L as ``meta["enlarged_L"]``.  Returns the
    trace and the settings that made it.
    """
    trace = run(problem, config)
    if not trace.meta["left_feasible_radius"]:
        return trace, config
    enlarged = recertified(problem, trace.meta["max_reference_distance"])
    if enlarged is None:
        return trace, config
    logger.info(
        "iterates left the certified ball; re-running with L enlarged to %r",
        enlarged.L,
    )
    new_config = dataclasses.replace(config, L=enlarged.L)
    trace = run(enlarged, new_config)
    trace.meta["enlarged_L"] = enlarged.L
    return trace, new_config


def sweep_point(
    axis: str, value: float, problem: Problem, config: SolverConfig
) -> SweepPoint:
    """Run one sweep case, through :func:`run_enlarging`, and measure it;
    locates the optimum first when the problem has none."""
    if problem.optimum is None:
        oracle_optimum(problem)
    trace, config = run_enlarging(problem, config)
    gaps = trace.column("f_gap")
    est = estimate_rate(gaps)
    if config.mode == "rgd":
        delta_bar = 1.0
        xi_pred = math.nan
        pred = 1.0 - config.mu * config.resolved_gamma
        settle = 0
    else:
        deltas = trace.column("delta_rate")
        delta_bar = float(deltas[1:].mean()) if len(deltas) > 1 else 1.0
        params = XiParams(a=config.a, delta=delta_bar)
        xi_pred = fixed_point_xi(params)
        pred = 1.0 - xi_pred
        gap0 = abs(config.resolved_xi0 - xi_pred)
        settle = math.ceil(settle_steps(gap0, _XI_SETTLE_TOL, params))
    return SweepPoint(
        axis=axis,
        value=float(value),
        solver=config.mode,
        final_gap=float(gaps[-1]),
        slope=est.slope,
        rate=est.rate,
        delta_bar=delta_bar,
        xi_pred=xi_pred,
        pred_rate=pred,
        xi_settle_iters=settle,
    )


def problem_description(config: dict, seed: int | None) -> tuple[dict, int | None]:
    """The config's problem description and the seed in force: ``seed``,
    else the config's.  That seed fills in the generator seed of a random
    problem (no ``seed``, ``hessian`` or ``anchors`` given)."""
    if seed is None:
        seed = config.get("seed")
    desc = config.get("problem")
    if not isinstance(desc, dict):
        raise MissingDataError("config has no 'problem' object")
    desc = dict(desc)
    if seed is not None and not desc.keys() & {"seed", "hessian", "anchors"}:
        desc["seed"] = int(seed)
    return desc, seed


def solver_entries(config: dict) -> list[dict]:
    """The config's non-empty list of solver entries, each an object."""
    entries = config.get("solvers")
    if not isinstance(entries, list) or not entries:
        raise MissingDataError("config lists no solvers")
    if not all(isinstance(entry, dict) for entry in entries):
        raise DomainError("each solver entry must be a JSON object")
    return entries


def solver_config(entry: dict, problem: Problem) -> SolverConfig:
    """Solver settings from one config entry; ``mu`` and ``L`` default to
    the problem's."""
    return SolverConfig(**{"mu": problem.mu, "L": problem.L, **entry})


def build_sweep(
    config: dict, axis: str, values: list[float], seed: int | None = None
) -> list[tuple[float, Problem, SolverConfig]]:
    """Every ``(value, problem, solver)`` case of a sweep of the first
    configured solver, all built before any of them runs."""
    if axis not in SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise DomainError("sweep needs at least one axis value")
    entry = solver_entries(config)[0]
    desc, _ = problem_description(config, seed)
    if axis == "condition_number" and desc.get("kind") != "quadratic":
        raise DomainError("condition_number sweeps need a quadratic problem")
    if axis == "curvature":
        if desc.get("manifold") is None:
            raise DomainError("curvature sweeps need a problem with a manifold block")
        curv_key = curvature_key(desc["manifold"])
    shared = problem_from_dict(desc) if axis in ("gamma", "delta_const") else None

    cases = []
    for v in values:
        d, e = dict(desc), dict(entry)
        if axis == "gamma":
            e["gamma"] = float(v) / e.get("L", shared.L)
        elif axis == "delta_const":
            e.update(mode="ragd_constant_delta", delta_const=float(v))
        elif axis == "condition_number":
            big = float(d.get("L", 1.0))
            d.update(mu=float(v) * big, L=big)
        else:
            d["manifold"] = {**d["manifold"], curv_key: float(v)}
        if shared is None:
            problem = problem_from_dict(d)
            e.update(mu=problem.mu, L=problem.L)
        else:
            problem = shared
        cases.append((v, problem, solver_config(e, problem)))
    return cases


def run_sweep(
    config: dict, axis: str, values: list[float], seed: int | None = None
) -> list[SweepPoint]:
    """Run the first configured solver across ``values`` of ``axis``."""
    return [sweep_point(axis, *case) for case in build_sweep(config, axis, values, seed)]


def write_sweep_csv(points: list[SweepPoint], path) -> None:
    """Write sweep rows in axis order with a fixed column header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for p in points:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in p.as_row()])
