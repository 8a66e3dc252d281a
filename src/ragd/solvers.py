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
manifold it raises :class:`~ragd.errors.RuntimeContainmentError` at the
end of its block of rows, naming its step.  The check measures with
``_dist_table``, the kernel the radius was measured with, so an iterate on
the farthest anchor reads exactly the radius.

:func:`run` computes inside its step loop only what steers the iteration:
the distances the distortion rate charges (``d(x, z)``, and ``d(y, z)`` off
a Hadamard manifold), x+ through the manifold's ``_geodesic`` kernel (one
eigendecomposition on SPD, where ``Exp_y(alpha * Log_y(z))`` takes two, the
two-point formula on the hyperboloid, and ``y + alpha * (z - y)`` in one
kernel on flat space; the first step's x+ is the start itself, with no
``_geodesic``), one gradient, two ``Exp`` maps and ``Log_{x+}(z)``.  When
the rate cannot change (``euclid_nesterov``, ``ragd_constant_delta``, and
``ragd`` on a flat Hadamard manifold) the recursion's parameters are built
once per run and the loop measures no distance at all.

The loop runs on coordinate arrays and builds no tangent: the gradient's
coordinates, checked once by ``Problem._grad_coords``, and
``beta * Log_{x+}(z) - eta * grad`` are plain arrays passed to the
manifold's kernels ``_exp`` and ``_log``, next to ``_geodesic``.  Typed
points and tangents belong to the API boundary: ``Manifold.exp`` and
``Manifold.log``, which check a tangent's base point, and ``Problem.grad``,
which wraps the same checked coordinates in a tangent.
Step outputs are not re-checked for finiteness: every ``_exp`` and
``_geodesic`` returns a finite point or raises
:class:`~ragd.errors.NonFiniteError`.
The rest of each trace row (f(y_t), the iterate separations ``d(x_t, z_t)``,
``d(y_t, z_t)`` and ``d(y_t, x*)``, the projected distance in the potential
``phi_t``) and each row's distance from ``reference``, which the
containment check reads, are trace-only.  They are computed after every
block of ``_ROW_BLOCK`` rows, one stacked call per quantity (f(y_t) through
``Problem.values``), so a library error raised there, the NonFiniteError
of a non-finite f(y_t) and the containment error surface at the end of
their block, not at their step; the containment check runs first.
With ``record_diagnostics`` each finished block extends the trace's one list
of ``(x_t, y_t, z_t)`` rows; without it a run holds the iterates of at most
one block, so its memory grows with the step count only by the trace rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from ._scalars import libm_squares
from .distortion import valid_rate_hadamard, valid_rate_nonhadamard
from .errors import DomainError, NonFiniteError, RuntimeContainmentError
from .geometry import Euclidean, Manifold, ManifoldPoint
from .trace import ConvergenceTrace
from .xi import XiParams, _step_coefficients, next_xi, step_gain
from . import __version__ as _VERSION
from .problems import Problem, _is_integer, _is_real

import numpy as np

__all__ = [
    "SOLVER_MODES",
    "SolverConfig",
    "step_params",
    "normalized_potential",
    "run",
]

logger = logging.getLogger("ragd.solvers")

SOLVER_MODES = ("euclid_nesterov", "ragd", "ragd_constant_delta", "rgd")

# Trace rows whose trace-only cells are filled per stacked call.  With
# diagnostics off, ``run`` holds the iterates of at most this many rows.
_ROW_BLOCK = 64

# The settings that take a real number, or None where they are optional.
_REAL_SETTINGS = ("mu", "L", "gamma", "xi0", "delta_const")


def _check_real_settings(settings: dict) -> None:
    """Raise DomainError unless each real setting in ``settings`` is None or
    a real number; a bool or a numeric string is neither."""
    for key in _REAL_SETTINGS:
        v = settings.get(key)
        if v is not None and not _is_real(v):
            raise DomainError(f"{key} must be a real number, got {v!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Validated solver settings.

    ``gamma`` defaults to 1/L except in ``ragd`` mode, which defaults to
    1.05/L so that the full-acceleration regime (gamma * L > 1) is
    reachable.  ``xi0`` defaults to sqrt(mu / L).  ``mu``, ``L``, ``gamma``,
    ``xi0`` and ``delta_const`` are real numbers, not bools or strings.
    Setting a key the mode does not read (``delta_const`` outside
    ``ragd_constant_delta``, ``sharp_distortion`` outside ``ragd``, ``xi0`` on
    ``rgd``) is a DomainError.
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
        _check_real_settings(vars(self))
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
        if not _is_integer(self.max_iters):
            raise DomainError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        for flag in ("sharp_distortion", "record_diagnostics"):
            if not isinstance(getattr(self, flag), bool):
                raise DomainError(f"{flag} must be a bool, got {getattr(self, flag)!r}")
        for key, unread in (
            ("delta_const", self.delta_const is not None and self.mode != "ragd_constant_delta"),
            ("sharp_distortion", self.sharp_distortion and self.mode != "ragd"),
            ("xi0", self.xi0 is not None and self.mode == "rgd"),
        ):
            if unread:
                raise DomainError(f"mode {self.mode!r} does not read {key}")
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


def step_params(xi: float, mu: float, delta_gamma: float) -> tuple[float, float, float]:
    """Coefficients ``(alpha, beta, eta)`` for momentum value ``xi``.

    Requires a <= xi < 1 with xi > 0, where a = 2 * mu * delta_gamma.
    """
    a = 2.0 * mu * delta_gamma
    if not (0.0 < xi < 1.0):
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    if xi < a:
        raise DomainError(f"xi={xi} is below a=2*mu*delta_gamma={a}")
    return _step_coefficients(xi, mu, delta_gamma)


def _step(
    problem: Problem,
    y: ManifoldPoint,
    z: ManifoldPoint,
    params: tuple[float, float, float],
    gamma: float,
) -> tuple[ManifoldPoint, ManifoldPoint, ManifoldPoint]:
    """One accelerated step from (y, z) with the coefficients ``params`` of
    :func:`step_params`.  Every tangent is a coordinate array at x+: the
    logarithm by construction and the gradient, checked by
    ``Problem._grad_coords``."""
    m = problem.manifold
    alpha, beta, eta = params
    # At the start z is y, and Exp_y(alpha * Log_y(y)) is y exactly.
    x1 = y if z is y else m._geodesic(y, z, alpha)
    g = problem._grad_coords(x1)
    y1 = m._exp(x1, (-gamma) * g)
    z1 = m._exp(x1, beta * m._log(x1, z) - eta * g)
    return x1, y1, z1


def _distortion_rate(
    m: Manifold, x: ManifoldPoint, y: ManifoldPoint, z: ManifoldPoint, config: SolverConfig
) -> float:
    """Distortion rate fed to the momentum recursion for the step leaving
    (x, y, z) in ``ragd`` mode, charged on ``d(x, z)`` and, off a Hadamard
    manifold, on ``d(y, z)``."""
    d_xz = m.distance(x, z)
    if m.is_hadamard:
        return valid_rate_hadamard(m.kappa, d_xz, sharp=config.sharp_distortion)
    return valid_rate_nonhadamard(m.kappa, d_xz, m.distance(y, z))


def _fixed_xi_params(problem: Problem, config: SolverConfig) -> XiParams | None:
    """The momentum recursion's parameters when the distortion rate does not
    depend on the iterates: ``delta_const`` in ``ragd_constant_delta`` mode,
    and 1 for ``euclid_nesterov`` and for ``ragd`` at zero curvature on a
    Hadamard manifold; None when each step needs its own rate."""
    m = problem.manifold
    if config.mode == "ragd_constant_delta":
        return XiParams(a=config.a, delta=float(config.delta_const))
    if config.mode == "ragd" and not (m.is_hadamard and m.kappa == 0.0):
        return None
    return XiParams(a=config.a, delta=1.0)


def normalized_potential(
    gap: np.ndarray, xi: np.ndarray, pd: np.ndarray, delta_gamma: float
) -> np.ndarray:
    """``phi_t = gap_t + (xi_t**2 / (4 Delta)) * pd_t**2`` for every row:
    the potential column of :func:`run`, and phi_0 in the shrink bounds."""
    return gap + (xi * xi / (4.0 * delta_gamma)) * libm_squares(pd)


def _finish_rows(
    problem: Problem,
    rows: np.ndarray,
    reach: np.ndarray | None,
    lo: int,
    block: list[tuple[ManifoldPoint, ...]],
    delta_gamma: float | None,
) -> int | None:
    """Fill the trace-only cells of rows ``lo, lo + 1, ...`` from their
    (x, y, z) iterates in ``block``, each quantity from one stacked call.
    First, given ``reach``, each row's largest ``_dist_table`` distance of
    x_t, y_t and z_t from ``problem.reference``: off a Hadamard manifold a
    row outside ``certified_radius`` raises RuntimeContainmentError, before
    any trace-only error.  Then f(y_t) (``Problem.values``; NonFiniteError at
    the first step where it is not finite) into column 1, ``d(x_t, z_t)``,
    ``d(y_t, z_t)``, ``d(y_t, x*)`` and, given Delta (``delta_gamma``; None
    when no potential is tracked), ``phi_t``.  Returns the first row outside
    the radius, or None; row 0, the start, is not checked."""
    m = problem.manifold
    hi = lo + len(block)
    outside = None
    if reach is not None:
        stack = np.stack([pt.coords for pts in block for pt in pts])
        reach[lo:hi] = m._dist_table([problem.reference], stack).reshape(len(block), -1).max(axis=1)
        first = max(lo, 1)
        beyond = np.flatnonzero(reach[first:hi] > problem.certified_radius)
        if beyond.size:
            outside = first + int(beyond[0])
            if not m.is_hadamard:
                raise RuntimeContainmentError(
                    f"iterate left the certified ball at step {outside}: distance "
                    f"{float(reach[outside])!r} exceeds radius {problem.certified_radius!r}"
                )
    xs, ys, zs = zip(*block)
    fy = problem.values(ys)
    bad = np.flatnonzero(~np.isfinite(fy))
    if bad.size:
        raise NonFiniteError(f"objective value is not finite at step {lo + int(bad[0])}")
    rows[lo:hi, 1] = fy
    xs, ys, z = m._prepare_bases(xs), m._prepare_bases(ys), m._base_coords(zs)
    rows[lo:hi, 4] = m._dist_many(xs, z)
    rows[lo:hi, 5] = m._dist_many(ys, z)
    opt = problem.optimum
    if opt is not None:
        rows[lo:hi, 6] = m._dist_many(ys, np.broadcast_to(opt.coords, z.shape))
        if delta_gamma is not None:
            rows[lo:hi, 7] = normalized_potential(
                rows[lo:hi, 1] - problem.optimum_value,
                rows[lo:hi, 2],
                m._projected_distances(xs, z, opt),
                delta_gamma,
            )
    return outside


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
    rows[:, 0] = np.arange(n_steps + 1)
    kept: list[tuple[ManifoldPoint, ...]] | None = [] if config.record_diagnostics else None
    radius = problem.certified_radius
    reach = np.full(n_steps + 1, math.nan) if math.isfinite(radius) else None
    left = False
    block: list[tuple[ManifoldPoint, ...]] = []

    fixed = xi_params = _fixed_xi_params(problem, config) if accelerated else None
    delta_rate = 1.0
    for t in range(n_steps + 1):
        rows[t, 2] = xi
        rows[t, 3] = delta_rate
        block.append((x, y, z))
        if len(block) == _ROW_BLOCK or t == n_steps:
            outside = _finish_rows(
                problem,
                rows,
                reach,
                t + 1 - len(block),
                block,
                delta_gamma if accelerated else None,
            )
            if outside is not None and not left:
                left = True
                logger.warning(
                    "iterates left the certified radius %r at step %d (distance %r); "
                    "the (mu, L) certificates no longer apply",
                    radius, outside, float(reach[outside]),
                )
            if kept is not None:
                kept += block
            block = []
        if t == n_steps:
            break

        if accelerated:
            if fixed is None:
                xi_params = XiParams(a=a, delta=_distortion_rate(m, x, y, z, config))
            delta_rate = xi_params.delta
            xi = next_xi(xi, xi_params)
            params = step_params(xi, config.mu, delta_gamma)
            x, y, z = _step(problem, y, z, params, gamma)
        else:
            y = m._exp(y, (-gamma) * problem._grad_coords(y))
            x = z = y

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
        "left_feasible_radius": left,
        "max_reference_distance": None if reach is None else float(reach[1:].max()),
        "config_hash": None,
        "seed": None,
    }
    if config.mode == "ragd_constant_delta":
        meta["delta_const"] = config.delta_const
    return ConvergenceTrace(rows=rows, meta=meta, diagnostics=kept)
