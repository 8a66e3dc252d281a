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

:func:`run` computes inside its step loop only what steers the iteration:
``d(x, z)`` for the distortion rate, ``Log_y(z)`` with ``d(y, z)`` from one
evaluation (``Manifold._log_dist``), three ``Exp`` maps, ``Log_{x+}(z)``
and one gradient.  When the rate cannot change (``euclid_nesterov``,
``ragd_constant_delta``, and ``ragd`` on a flat Hadamard manifold) the
recursion's parameters are built once per run.

The loop runs on coordinate arrays: ``Log_y(z)``, the gradient's
coordinates and ``beta * Log_{x+}(z) - eta * grad`` are plain arrays
passed to the manifold's kernels ``_exp`` and ``_log``.  Typed points and
tangents, and the check that a tangent is anchored at its base point,
belong to the API boundary: ``Manifold.exp``/``Manifold.log``,
:func:`ragd_step` and ``Problem.grad``, which checks every gradient once.
Step outputs are not re-checked for finiteness: every ``_exp`` returns a
finite point or raises :class:`~ragd.errors.NonFiniteError`.
The rest of each trace row (f(y_t), ``d(y_t, x*)``, the projected distance
in the potential ``phi_t`` and, on a Hadamard manifold, the containment
distances) is trace-only.  It is computed after every block of
``_ROW_BLOCK`` rows, one stacked call per quantity (f(y_t) through
``Problem.values``), so a library error raised there, and the
NonFiniteError of a non-finite f(y_t), surfaces at the end of its block,
not at its step.  On the sphere the containment check stays in the loop
and raises at its step.
Without diagnostics a run holds the iterates of at most one block, so its
memory grows with the step count only by the trace rows.
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
from .xi import XiParams, next_xi, step_gain
from . import __version__ as _VERSION
from .problems import Problem

import numpy as np

__all__ = [
    "SOLVER_MODES",
    "SolverConfig",
    "StepParams",
    "step_params",
    "ragd_step",
    "normalized_potential",
    "run",
]

logger = logging.getLogger("ragd.solvers")

SOLVER_MODES = ("euclid_nesterov", "ragd", "ragd_constant_delta", "rgd")

# Trace rows whose trace-only cells are filled per stacked call.  With
# diagnostics off, ``run`` holds the iterates of at most this many rows.
_ROW_BLOCK = 64


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
        return step_gain(self.mu, self.L, self.resolved_gamma)[0]

    @property
    def a(self) -> float:
        return step_gain(self.mu, self.L, self.resolved_gamma)[1]

    @property
    def resolved_xi0(self) -> float:
        if self.xi0 is not None:
            return self.xi0
        # Only accelerated modes read this, and they require mu > 0.
        return math.sqrt(self.mu / self.L)


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
    return _step(problem, y, z, problem.manifold._log(y, z), params, gamma)


def _step(
    problem: Problem,
    y: ManifoldPoint,
    z: ManifoldPoint,
    log_yz: np.ndarray,
    params: StepParams,
    gamma: float,
) -> tuple[ManifoldPoint, ManifoldPoint, ManifoldPoint, TangentVector]:
    """:func:`ragd_step` given the coordinates of ``log_y(z)``, which ``run``
    already holds.  Every tangent is anchored where the kernels use it: the
    logarithms by construction and the gradient by ``Problem.grad``."""
    m = problem.manifold
    x1 = m._exp(y, params.alpha * log_yz)
    g = problem.grad(x1)
    y1 = m._exp(x1, (-gamma) * g.coords)
    z1 = m._exp(x1, params.beta * m._log(x1, z) - params.eta * g.coords)
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
        return valid_rate_hadamard(m.curv_lower_mag, d_xz, sharp=config.sharp_distortion)
    return valid_rate_nonhadamard(m.curv_lower_mag, d_xz, d_yz)


def _fixed_xi_params(m: Manifold, config: SolverConfig) -> XiParams | None:
    """The momentum recursion's parameters when the distortion rate does not
    depend on the iterates (flat modes, constant rate, zero curvature on a
    Hadamard manifold); None when each step needs its own rate."""
    if config.mode == "ragd" and not (m.is_hadamard and m.curv_lower_mag == 0.0):
        return None
    return XiParams(a=config.a, delta=_distortion_rate(m, 0.0, 0.0, config))


def normalized_potential(
    gap: np.ndarray, xi: np.ndarray, pd: np.ndarray, delta_gamma: float
) -> np.ndarray:
    """``phi_t = gap_t + (xi_t**2 / (4 Delta)) * pd_t**2`` for every row:
    the potential column of :func:`run` and the certifier's replay of it."""
    # pd**2 in Python floats (libm pow), which rounds differently from
    # NumPy's square (pd * pd) in about one case in a thousand.
    pd_sq = np.array([d**2 for d in pd.tolist()])
    return gap + (xi * xi / (4.0 * delta_gamma)) * pd_sq


class _Containment:
    """Distances of the iterates from ``problem.reference``, checked against
    ``problem.certified_radius`` (finite).

    :meth:`check` measures the x, y and z of consecutive steps in one
    stacked call.  Outside the radius it raises
    :class:`~ragd.errors.RuntimeContainmentError` on a manifold that is not
    Hadamard, and otherwise logs one warning for the whole run.
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.left = False
        self.worst = -math.inf

    def check(self, steps: list[tuple[ManifoldPoint, ...]], first: int) -> None:
        """Check the (x, y, z) iterates of steps ``first, first + 1, ...``."""
        p = self.problem
        stack = np.stack([pt.coords for pts in steps for pt in pts])
        worst = p.manifold._dist_many(p.reference, stack).reshape(len(steps), -1).max(axis=1)
        radius = p.certified_radius
        outside = np.flatnonzero(worst > radius)
        if outside.size:
            t, dist = first + int(outside[0]), float(worst[outside[0]])
            if not p.manifold.is_hadamard:
                raise RuntimeContainmentError(
                    f"iterate left the certified ball at step {t}: "
                    f"distance {dist!r} exceeds radius {radius!r}"
                )
            if not self.left:
                self.left = True
                logger.warning(
                    "iterates left the certified radius %r at step %d (distance %r); "
                    "the (mu, L) certificates no longer apply",
                    radius,
                    t,
                    dist,
                )
        self.worst = max(self.worst, float(worst.max()))


def _finish_rows(
    problem: Problem,
    rows: np.ndarray,
    lo: int,
    block: list[tuple[ManifoldPoint, ...]],
    delta_gamma: float | None,
    containment: _Containment | None,
) -> None:
    """Fill the trace-only cells of rows ``lo, lo + 1, ...`` from their
    (x, y, z) iterates in ``block``: f(y_t) (``Problem.values``), raising
    NonFiniteError at the first step where it is not finite, ``d(y_t, x*)``
    and, given Delta (``delta_gamma``; None when no potential is tracked),
    ``phi_t``, each from one stacked call; then check the containment of
    those rows on a Hadamard manifold (row 0 is the start, which is not
    checked).  Column 1 holds f(y_t) afterwards."""
    m = problem.manifold
    hi = lo + len(block)
    xs, ys, zs = zip(*block)
    fy = problem.values(ys)
    bad = np.flatnonzero(~np.isfinite(fy))
    if bad.size:
        raise NonFiniteError(f"objective value is not finite at step {lo + int(bad[0])}")
    rows[lo:hi, 1] = fy
    opt = problem.optimum
    if opt is not None:
        opts = np.broadcast_to(opt.coords, (len(ys),) + opt.coords.shape)
        rows[lo:hi, 6] = m._dist_many(ys, opts)
        if delta_gamma is not None:
            rows[lo:hi, 7] = normalized_potential(
                rows[lo:hi, 1] - problem.optimum_value,
                rows[lo:hi, 2],
                m._projected_distances(xs, zs, opt),
                delta_gamma,
            )
    if containment is not None and m.is_hadamard:
        first = max(lo, 1)
        containment.check(block[first - lo:], first)


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
    containment = (
        _Containment(problem) if math.isfinite(problem.certified_radius) else None
    )
    block: list[tuple[ManifoldPoint, ...]] = []

    fixed = xi_params = _fixed_xi_params(m, config) if accelerated else None
    delta_rate = 1.0
    for t in range(n_steps + 1):
        d_xz = m.distance(x, z)
        log_yz, d_yz = m._log_dist(y, z)
        rows[t, :6] = (t, math.nan, xi, delta_rate, d_xz, d_yz)
        block.append((x, y, z))
        if diag is not None:
            diag.points_x.append(x)
            diag.points_y.append(y)
            diag.points_z.append(z)
        if len(block) == _ROW_BLOCK or t == n_steps:
            _finish_rows(
                problem,
                rows,
                t + 1 - len(block),
                block,
                delta_gamma if accelerated else None,
                containment,
            )
            block = []
        if t == n_steps:
            break

        if accelerated:
            if fixed is None:
                xi_params = XiParams(a=a, delta=_distortion_rate(m, d_xz, d_yz, config))
            delta_rate = xi_params.delta
            xi = next_xi(xi, xi_params)
            params = step_params(xi, config.mu, delta_gamma)
            x, y, z, _ = _step(problem, y, z, log_yz, params, gamma)
        else:
            g = problem.grad(y)
            y = m._exp(y, (-gamma) * g.coords)
            x = z = y
        if containment is not None and not m.is_hadamard:
            containment.check([(x, y, z)], t + 1)

    rows[:, 1] -= f_opt if opt is not None else rows[:, 1].min()
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
        "left_feasible_radius": containment is not None and containment.left,
        "max_reference_distance": (
            containment.worst
            if containment is not None and math.isfinite(containment.worst)
            else None
        ),
        "config_hash": None,
        "seed": None,
    }
    if config.mode == "ragd_constant_delta":
        meta["delta_const"] = config.delta_const
    return ConvergenceTrace(rows=rows, meta=meta, diagnostics=diag)
