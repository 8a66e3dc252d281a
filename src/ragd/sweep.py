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
import logging
import math
from dataclasses import astuple, dataclass, fields, replace

from .errors import DomainError, MissingDataError
from .problems import Problem, curvature_key, is_explicit, oracle_optimum, problem_from_dict
from .solvers import SolverConfig, _check_real_settings, run
from .trace import ConvergenceTrace, estimate_rate
from .xi import XiParams, fixed_point_xi, settle_steps

__all__ = [
    "SWEEP_AXES", "SweepPoint", "build_sweep", "problem_description", "run_enlarging",
    "solver_config", "solver_entries", "sweep_point", "write_sweep_csv",
]

logger = logging.getLogger("ragd.sweep")
# The accelerated-regime warning keeps the logger of the solver settings it
# is about.
_solver_logger = logging.getLogger("ragd.solvers")

SWEEP_AXES = ("gamma", "condition_number", "curvature", "delta_const")

# Momentum settling tolerance used for the predicted iteration count.
_XI_SETTLE_TOL = 1e-3


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row; ``rate`` is the measured per-step error contraction
    exp(slope / 2) and ``pred_rate`` the certified gap contraction
    (:func:`_predicted_rate`).  The gap is quadratic in the error, so
    ``pred_rate`` bounds exp(slope) = ``rate**2``, not ``rate``."""

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


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepPoint))


def _predicted_rate(config: SolverConfig, xi: float) -> float:
    """The certified per-step contraction of the gap f(y_t) - f(x*): 1 - xi
    for the accelerated modes (of the potential, which bounds the gap), and
    1 - a for plain gradient descent, where a = 2 * mu * Delta."""
    return 1.0 - (config.a if config.mode == "rgd" else xi)


def run_enlarging(
    problem: Problem, config: SolverConfig
) -> tuple[ConvergenceTrace, SolverConfig]:
    """Run ``config`` on ``problem``, and once more when the iterates leave
    its certified ball and ``problem.certify`` gives, for the ball of the
    largest observed excursion, an L above the one ``config`` ran at.

    The re-run takes that ball's (L, certified radius) and a gamma rebuilt
    from the new L: the default one, or an explicit gamma scaled by
    ``config.L / L``, so gamma * L stays what the settings chose.  Its
    trace records the new L as ``meta["enlarged_L"]``.  A problem
    certified everywhere keeps the first run; on a manifold that is not
    Hadamard, :func:`~ragd.solvers.run` raises at the first step out of
    the ball instead.  Returns the trace and the settings that made it.
    """
    trace = run(problem, config)
    if not trace.meta["left_feasible_radius"] or problem.certify is None:
        return trace, config
    _, lips, radius = problem.certify(trace.meta["max_reference_distance"])
    if not lips > config.L:
        return trace, config
    logger.info("iterates left the certified ball; re-running with L enlarged to %r", lips)
    gamma = None if config.gamma is None else config.gamma * (config.L / lips)
    new_config = replace(config, L=lips, gamma=gamma)
    trace = run(replace(problem, L=lips, certified_radius=radius), new_config)
    trace.meta["enlarged_L"] = lips
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
        settle = 0
    else:
        deltas = trace.column("delta_rate")
        delta_bar = float(deltas[1:].mean()) if len(deltas) > 1 else 1.0
        params = XiParams(a=config.a, delta=delta_bar)
        xi_pred = fixed_point_xi(params)
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
        pred_rate=_predicted_rate(config, xi_pred),
        xi_settle_iters=settle,
    )


def problem_description(config: dict, seed: int | None) -> tuple[dict, int | None]:
    """The config's problem description and the seed in force: None for
    an explicit block, which no seed builds; for a generator block its own,
    else ``seed``, else the config's, which then fills in the block's."""
    desc = config.get("problem")
    if not isinstance(desc, dict):
        raise MissingDataError("config has no 'problem' object")
    desc = dict(desc)
    if is_explicit(desc):
        return desc, None
    if "seed" in desc:
        return desc, desc["seed"]
    if seed is None:
        seed = config.get("seed")
    if seed is not None:
        desc["seed"] = seed
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
    the problem's.  A ``ragd`` entry whose gamma * L lies outside the
    accelerated regime (1, 2 - sqrt(mu / L)] logs a warning."""
    config = SolverConfig(**{"mu": problem.mu, "L": problem.L, **entry})
    if config.mode == "ragd":
        gl = config.resolved_gamma * config.L
        gl_cap = 2.0 - math.sqrt(config.mu / config.L)
        if not 1.0 < gl <= gl_cap:
            _solver_logger.warning(
                "gamma * L = %r lies outside (1, %r]; the eventual "
                "full-acceleration guarantee does not apply",
                gl,
                gl_cap,
            )
    return config


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
    # a value the swept axis replaces must still be a real number
    _check_real_settings(entry)
    desc, _ = problem_description(config, seed)
    if axis == "condition_number" and desc.get("kind") != "quadratic":
        raise DomainError("condition_number sweeps need a quadratic problem")
    if axis == "curvature" and desc.get("manifold") is None:
        raise DomainError("curvature sweeps need a problem with a manifold block")
    if axis in ("condition_number", "curvature") and is_explicit(desc):
        raise DomainError(f"{axis} sweeps need a generator problem block, not explicit data")
    if axis == "condition_number" and "L" not in desc:
        raise MissingDataError("condition_number sweeps need the problem's 'L'")
    if axis == "curvature":
        curv_key = curvature_key(desc["manifold"])
    shared = problem_from_dict(desc) if axis in ("gamma", "delta_const") else None

    cases = []
    for v in values:
        d, e = dict(desc), dict(entry)
        if axis == "gamma":
            e["gamma"] = float(v) / e.get("L", shared.L)
        elif axis == "delta_const":
            # the pinned rate replaces the adaptive one and its sharp bound
            e.pop("sharp_distortion", None)
            e.update(mode="ragd_constant_delta", delta_const=float(v))
        elif axis == "condition_number":
            big = float(d["L"])
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


def write_sweep_csv(points: list[SweepPoint], path) -> None:
    """Write sweep rows in axis order with a fixed column header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for p in points:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(p)])
