"""Accelerated first-order solvers on manifolds.

One iteration of the accelerated scheme keeps three coupled iterates
(x, y, z) and, given a fresh momentum coefficient ``xi``, moves

    x+ = Exp_y(alpha * Log_y(z))
    y+ = Exp_{x+}(-gamma * grad f(x+))
    z+ = Exp_{x+}(beta * Log_{x+}(z) - eta * grad f(x+))

with alpha = (xi - a) / (1 - a), beta = 1 - a / xi, eta = 2 * Delta / xi,
where a = 2 * mu * Delta and Delta = gamma * (1 - L * gamma / 2).  The
coefficient ``xi`` is advanced once per iteration by the momentum
recursion in :mod:`ragd.xi`, fed with a per-step distortion rate from
:mod:`ragd.distortion` (flat geometry uses rate 1, which reproduces the
classical Nesterov method exactly).

A run starts at ``problem.start``.  An iterate outside the problem's
certified ball (``certified_radius`` around ``reference``) warns once, and
is recorded in the trace meta, on a Hadamard manifold; on any other
manifold it raises :class:`~ragd.errors.RuntimeContainmentError`.

:func:`run` makes one geometry pass per step.  Each trace row takes
``Log_x(z)`` and ``Log_y(z)`` together with their distances from one
evaluation each (``Manifold._log_dist``): ``d(x, z)`` and the projected
distance in the potential reuse the first, ``d(y, z)`` and the next step's
x-update the second.  Beyond those, a step computes ``Log_x(x*)``,
``d(y, x*)``, three ``Exp`` maps, ``Log_{x+}(z)`` and one gradient, and the
containment check measures x, y and z from the reference point in one
stacked call, skipped when the certified radius is infinite.  Step outputs
are not re-checked for finiteness: every ``Exp`` returns a finite point or
raises :class:`~ragd.errors.NonFiniteError`.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

from .distortion import valid_rate_hadamard, valid_rate_nonhadamard
from .errors import DomainError, NonFiniteError, RuntimeContainmentError
from .geometry import Euclidean, Manifold, ManifoldPoint, TangentVector
from .trace import ConvergenceTrace, TraceDiagnostics
from .xi import XiParams, next_xi
from . import __version__ as _VERSION
from .problems import Problem

import numpy as np

__all__ = [
    "SOLVER_MODES",
    "SolverConfig",
    "StepParams",
    "step_params",
    "ragd_step",
    "run",
]

logger = logging.getLogger("ragd.solvers")

SOLVER_MODES = ("euclid_nesterov", "ragd", "ragd_constant_delta", "rgd")


@dataclass(frozen=True)
class SolverConfig:
    """Validated solver settings.

    ``gamma`` defaults to 1/L except in ``ragd`` mode, which defaults to
    1.05/L so that the full-acceleration regime (gamma * L > 1) is
    reachable.  ``xi0`` defaults to sqrt(mu / L).
    """

    mode: str
    mu: float
    L: float
    gamma: float | None = None
    xi0: float | None = None
    max_iters: int = 500
    delta_const: float | None = None
    sharp_distortion: bool = False
    record_diagnostics: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SOLVER_MODES:
            raise DomainError(
                f"unknown solver mode {self.mode!r}; expected one of {SOLVER_MODES}"
            )
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise DomainError(f"L must be finite and positive, got {self.L}")
        if not (0.0 <= self.mu <= self.L):
            raise DomainError(f"need 0 <= mu <= L, got mu={self.mu}, L={self.L}")
        if self.mode != "rgd" and self.mu <= 0.0:
            raise DomainError(f"mode {self.mode!r} requires mu > 0")
        if self.gamma is not None and not (0.0 < self.gamma < 2.0 / self.L):
            raise DomainError(
                f"gamma must lie in (0, 2/L) = (0, {2.0 / self.L!r}), got {self.gamma}"
            )
        if self.xi0 is not None and not (0.0 < self.xi0 < 1.0):
            raise DomainError(f"xi0 must lie in (0, 1), got {self.xi0}")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral):
            raise DomainError(f"max_iters must be an integer, got {iters!r}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        for flag in ("sharp_distortion", "record_diagnostics"):
            if not isinstance(getattr(self, flag), bool):
                raise DomainError(f"{flag} must be a bool, got {getattr(self, flag)!r}")
        if self.mode == "ragd_constant_delta":
            if self.delta_const is None:
                raise DomainError("mode 'ragd_constant_delta' requires delta_const")
            if not self.delta_const >= 1.0:
                raise DomainError(f"delta_const must be >= 1, got {self.delta_const}")

    @property
    def resolved_gamma(self) -> float:
        if self.gamma is not None:
            return self.gamma
        if self.mode == "ragd":
            return 1.05 / self.L
        return 1.0 / self.L

    @property
    def delta_gamma(self) -> float:
        g = self.resolved_gamma
        return g * (1.0 - self.L * g / 2.0)

    @property
    def a(self) -> float:
        return 2.0 * self.mu * self.delta_gamma

    @property
    def resolved_xi0(self) -> float:
        if self.xi0 is not None:
            return self.xi0
        if self.mu > 0.0:
            return math.sqrt(self.mu / self.L)
        return 0.9


@dataclass(frozen=True)
class StepParams:
    """Per-iteration combination coefficients."""

    alpha: float
    beta: float
    eta: float


def step_params(xi: float, mu: float, delta_gamma: float) -> StepParams:
    """Coefficients (alpha, beta, eta) for momentum value ``xi``.

    Requires a <= xi < 1 with xi > 0, where a = 2 * mu * delta_gamma.
    """
    a = 2.0 * mu * delta_gamma
    if not (0.0 < xi < 1.0):
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    if xi < a:
        raise DomainError(f"xi={xi} is below a=2*mu*delta_gamma={a}")
    alpha = (xi - a) / (1.0 - a)
    beta = 1.0 - a / xi
    eta = 2.0 * delta_gamma / xi
    return StepParams(alpha=alpha, beta=beta, eta=eta)


def ragd_step(
    problem: Problem,
    x: ManifoldPoint,
    y: ManifoldPoint,
    z: ManifoldPoint,
    params: StepParams,
    gamma: float,
) -> tuple[ManifoldPoint, ManifoldPoint, ManifoldPoint, TangentVector]:
    """One accelerated step through the exponential/logarithm maps."""
    return _step(problem, y, z, problem.manifold.log(y, z), params, gamma)


def _step(
    problem: Problem,
    y: ManifoldPoint,
    z: ManifoldPoint,
    log_yz: TangentVector,
    params: StepParams,
    gamma: float,
) -> tuple[ManifoldPoint, ManifoldPoint, ManifoldPoint, TangentVector]:
    """:func:`ragd_step` given ``log_y(z)``, which ``run`` already holds."""
    m = problem.manifold
    x1 = m.exp(y, params.alpha * log_yz)
    g = problem.grad(x1)
    y1 = m.exp(x1, (-gamma) * g)
    z1 = m.exp(x1, params.beta * m.log(x1, z) - params.eta * g)
    return x1, y1, z1, g


def _distortion_rate(
    m: Manifold, d_xz: float, d_yz: float, config: SolverConfig
) -> float:
    """Distortion rate fed to the momentum recursion for the next step."""
    if config.mode == "euclid_nesterov":
        return 1.0
    if config.mode == "ragd_constant_delta":
        return float(config.delta_const)
    if m.is_hadamard:
        return valid_rate_hadamard(
            m.curv_lower_mag, d_xz, sharp=config.sharp_distortion
        ).value
    return valid_rate_nonhadamard(m.curv_lower_mag, d_xz, d_yz).value


def _check_containment(
    problem: Problem, pts: tuple[ManifoldPoint, ...], t: int, warned: list[bool]
) -> float:
    radius = problem.certified_radius
    if not math.isfinite(radius):
        return math.nan
    stack = np.stack([p.coords for p in pts])
    worst = float(problem.manifold._dist_many(problem.reference, stack).max())
    if worst > radius and not problem.manifold.is_hadamard:
        raise RuntimeContainmentError(
            f"iterate left the certified ball at step {t}: "
            f"distance {worst!r} exceeds radius {radius!r}"
        )
    if worst > radius and not warned[0]:
        warned[0] = True
        logger.warning(
            "iterates left the certified radius %r at step %d (distance %r); "
            "the (mu, L) certificates no longer apply",
            radius,
            t,
            worst,
        )
    return worst


def run(problem: Problem, config: SolverConfig) -> ConvergenceTrace:
    """Run the configured solver from ``problem.start`` and return its trace.

    Row t of the trace describes iterate t: the objective gap at y_t, the
    momentum value xi_t, the distortion rate used to produce xi_t (1.0 by
    convention at t=0), the iterate separations, and the normalized
    potential phi_t = gap_t + (xi_t**2 / (4 Delta)) * proj_dist_t**2 when
    the optimum is known (the weighted potential divided by its growth
    factor A_t, which keeps long runs finite).  The ``decrease_margin``
    column is the certified per-step slack
    (1 - xi_{t+1}) * phi_t - phi_{t+1}, nonnegative up to float noise,
    NaN on the last row.  When the optimum is unknown the gap column is
    filled with f(y_t) minus the best value seen during the run.
    """
    m = problem.manifold
    if config.mode == "euclid_nesterov" and not isinstance(m, Euclidean):
        raise DomainError("mode 'euclid_nesterov' requires a Euclidean manifold")
    if config.mode in ("ragd", "ragd_constant_delta") and not m.is_hadamard:
        if not math.isfinite(problem.certified_radius):
            raise DomainError(
                "positively curved problems need a finite certified_radius"
            )
    if config.mode == "ragd" and config.mu > 0.0:
        gl = config.resolved_gamma * config.L
        gl_cap = 2.0 - math.sqrt(config.mu / config.L)
        if not 1.0 < gl <= gl_cap:
            logger.warning(
                "gamma * L = %r lies outside (1, %r]; the eventual "
                "full-acceleration guarantee does not apply",
                gl,
                gl_cap,
            )

    gamma = config.resolved_gamma
    delta_gamma = config.delta_gamma
    a = config.a
    n_steps = config.max_iters

    m.check_point(problem.start.coords)
    x = y = z = problem.start

    opt = problem.optimum
    f_opt = problem.optimum_value if opt is not None else math.nan

    accelerated = config.mode != "rgd"
    xi = config.resolved_xi0 if accelerated else a

    rows = np.full((n_steps + 1, 9), math.nan)
    diag = TraceDiagnostics() if config.record_diagnostics else None
    warned = [False]
    fvals = np.full(n_steps + 1, math.nan)
    max_ref_dist = math.nan

    delta_rate = 1.0
    for t in range(n_steps + 1):
        fy = problem.value(y)
        if not math.isfinite(fy):
            raise NonFiniteError(f"objective value is not finite at step {t}")
        fvals[t] = fy
        gap = math.nan
        d_yopt = math.nan
        phi = math.nan
        log_xz, d_xz = m._log_dist(x, z)
        log_yz, d_yz = m._log_dist(y, z)
        if opt is not None:
            gap = fy - f_opt
            d_yopt = m.distance(y, opt)
            if accelerated:
                b_over_a = xi * xi / (4.0 * delta_gamma)
                # projected_distance(x, z, opt), reusing log_x(z)
                pd = m.norm(x, log_xz - m.log(x, opt))
                phi = gap + b_over_a * pd**2
        rows[t, 0] = t
        rows[t, 1] = gap
        rows[t, 2] = xi
        rows[t, 3] = delta_rate
        rows[t, 4] = d_xz
        rows[t, 5] = d_yz
        rows[t, 6] = d_yopt
        rows[t, 7] = phi
        if diag is not None:
            diag.points_x.append(x)
            diag.points_y.append(y)
            diag.points_z.append(z)
        if t == n_steps:
            break

        if accelerated:
            delta_rate = _distortion_rate(m, d_xz, d_yz, config)
            xi = next_xi(xi, XiParams(a=a, delta=delta_rate))
            params = step_params(xi, config.mu, delta_gamma)
            x, y, z, _ = _step(problem, y, z, log_yz, params, gamma)
        else:
            g = problem.grad(y)
            y = m.exp(y, (-gamma) * g)
            x = z = y
        worst = _check_containment(problem, (x, y, z), t + 1, warned)
        if not math.isnan(worst):
            max_ref_dist = worst if math.isnan(max_ref_dist) else max(max_ref_dist, worst)

    if opt is None:
        rows[:, 1] = fvals - fvals.min()
    rows[:-1, 8] = (1.0 - rows[1:, 2]) * rows[:-1, 7] - rows[1:, 7]

    meta = {
        "version": _VERSION,
        "solver": config.mode,
        "problem": problem.name,
        "manifold": repr(m),
        "mu": config.mu,
        "L": config.L,
        "gamma": gamma,
        "delta_gamma": delta_gamma,
        "a": a,
        "xi0": config.resolved_xi0 if accelerated else math.nan,
        "max_iters": n_steps,
        "sharp_distortion": config.sharp_distortion,
        "left_feasible_radius": warned[0],
        "max_reference_distance": max_ref_dist if math.isfinite(max_ref_dist) else None,
        "config_hash": None,
        "seed": None,
    }
    if config.mode == "ragd_constant_delta":
        meta["delta_const"] = config.delta_const
    return ConvergenceTrace(rows=rows, meta=meta, diagnostics=diag)
