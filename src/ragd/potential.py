"""Potential-function certification and distance-shrinking bounds.

The accelerated scheme is certified per iteration through the weighted
potential

    Phi_t = A_t * (f(y_t) - f(x*) + (B_t / A_t) * pd_t**2),

where ``pd_t`` is the projected distance between z_t and the optimum seen
from x_t, and the weights satisfy A_{t+1} = A_t / (1 - xi_{t+1}) and
B_t / A_t = xi_t**2 / (4 * Delta).  A solver run is certified when
Phi_{t+1} <= Phi_t up to relative float slack at every step.  Because A_t
grows geometrically, all checks are carried out on the normalized
potential phi_t = Phi_t / A_t, for which the non-increase condition reads

    phi_{t+1} <= (1 - xi_{t+1}) * phi_t  (+ slack / A_{t+1}),

an exact restatement that never overflows.

The per-step inequality itself reduces to a six-coefficient quadratic
form in (gradient, displacement) being non-positive; with the scheme's
parameter choices five of the coefficients vanish (the three gradient ones
identically) and the first is non-positive, an identity that
``tests/test_step_algebra.py`` proves on the library's own formulas
(``ragd.xi._form_coefficients``).

The certifier and the rate envelope certify the run as recorded, from the
``xi``, ``f_gap``, ``potential`` and ``decrease_margin`` columns that
:func:`ragd.solvers.run` fills.  A replay through the same float kernels
reproduces those columns bit for bit, so none is re-evaluated; an
independent replay needs higher precision (ROADMAP.md, item 3, step 2).
What the columns lack, the step audits and the shrink bounds evaluate in
array form from the trace's one list of kept ``(x_t, y_t, z_t)`` rows
(``record_diagnostics``): f in one ``Problem.values`` call, and
logarithms, norms and distances in the stacked kernels with one base per
row, which round as the single-pair methods do.
Every check allows :data:`CERT_TOL` (the envelope :data:`ENVELOPE_TOL`)
times the magnitudes it compares.
Every per-step check, the certifier included, reports as a
:class:`StepAuditReport`, tallied by one rule: a NaN residual is a
violation, and an infinite allowance marks a row that is not compared
(its bound lies below a floor, or its step hypotheses fail).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scalars import libm_squares
from .errors import DomainError, HypothesisError, MissingDataError
from .geometry import ManifoldPoint
from .problems import Problem
from .solvers import normalized_potential, step_params
from .trace import NOISE_FLOOR, ConvergenceTrace
from .xi import XiParams, settle_steps, step_gain

__all__ = [
    "CERT_TOL",
    "ENVELOPE_TOL",
    "CertificationReport",
    "certify_trace",
    "StepAuditReport",
    "gradient_step_audit",
    "mirror_step_audit",
    "rate_envelope",
    "shrink_constant",
    "shrink_bounds",
    "acceleration_threshold",
]

CERT_TOL = 1e-9
"""Relative allowance of the certifier, the step audits and the shrink bounds."""

ENVELOPE_TOL = 1e-7
"""Relative allowance of the cumulative rate envelope."""


def _bound_allowance(bounds: np.ndarray, floor: float, rel: float) -> np.ndarray:
    """Allowance of an observed quantity against its bound: ``rel * (1 +
    |bound|)`` where the bound is finite and at least ``floor``, and +inf
    (not compared) elsewhere."""
    compared = np.isfinite(bounds) & (bounds >= floor)
    return np.where(compared, rel * (1.0 + np.abs(bounds)), math.inf)


def _step_params(trace: ConvergenceTrace) -> np.ndarray:
    """``(alpha, beta, eta)`` of every step, one row of the returned
    ``(3, T)`` array each, from the momentum value xi_{t+1} the step takes:
    one :func:`step_params` call per step, which raises on the first step
    it rejects."""
    mu = float(trace.meta["mu"])
    delta_gamma = float(trace.meta["delta_gamma"])
    steps = [step_params(xi, mu, delta_gamma) for xi in trace.column("xi")[1:].tolist()]
    return np.array(steps).reshape(-1, 3).T


# ----- per-step identity and inequality audits --------------------------------


@dataclass(frozen=True)
class StepAuditReport:
    """Outcome of one per-step audit over a recorded run.

    ``residuals[t]`` is the defect of the audited condition at step t
    (positive means broken); the step passes when residual <= allowed, so
    a NaN residual is a violation.  An infinite allowance means the step
    is not compared: its bound lies below what floats resolve, or its
    hypotheses fail.
    """

    name: str
    residuals: np.ndarray
    allowed: np.ndarray

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(~(self.residuals <= self.allowed)))

    @property
    def compared(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.allowed)))

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class CertificationReport(StepAuditReport):
    """The certificate as a step audit: ``phi`` holds phi_t of the T+1 rows,
    ``margin`` the recorded (1 - xi_{t+1}) * phi_t - phi_{t+1} of the T
    steps, and step t's residual is -margin_t, NaN where the margin is not
    the one its recorded phi cells give."""

    phi: np.ndarray
    margin: np.ndarray

    @property
    def records(self) -> np.recarray:
        """The T+1 rows as a read-only record array (``t, phi, margin, allowed,
        ok``); the last row leaves no step: NaN margin and allowance, ok."""
        view = np.rec.fromarrays(
            [np.arange(self.phi.size), self.phi, np.append(self.margin, math.nan),
             np.append(self.allowed, math.nan), np.append(self.residuals <= self.allowed, True)],
            names="t,phi,margin,allowed,ok",
        )
        view.flags.writeable = False
        return view


def certify_trace(trace: ConvergenceTrace, problem: Problem | None = None) -> CertificationReport:
    """Certify the potential's descent at every step of the run as recorded.

    Reads phi_t, xi_t and the margin (1 - xi_{t+1}) * phi_t - phi_{t+1}
    from the trace's columns, so ``problem`` is not read and the run needs
    no diagnostics, only a known optimum.  The per-step condition is
    Phi_{t+1} <= Phi_t + CERT_TOL * (1 + |Phi_t|), checked in normalized form.
    An independent replay in higher precision is ROADMAP.md item 3, step 2.
    """
    phi = _recorded_potential(trace)
    xis = trace.column("xi")
    shrink = 1.0 - xis[1:]
    margins = trace.column("decrease_margin")[:-1]
    allowed = CERT_TOL * (_weight_decay(xis)[1:] + shrink * np.abs(phi[:-1]))
    # a margin must match its phi cells, so a spoiled cell of either column fails
    residuals = np.where(margins == shrink * phi[:-1] - phi[1:], -margins, math.nan)
    return CertificationReport("certificate", residuals, allowed, phi, margins)


def _kept_rows(trace: ConvergenceTrace, problem: Problem | None = None) -> tuple:
    """The kept iterates ``(xs, ys, zs)``, one entry per trace row.  Given
    ``problem``, the analysis also needs a potential: an accelerated solver
    and a known optimum."""
    if trace.diagnostics is None:
        raise MissingDataError("trace has no diagnostics; rerun with record_diagnostics")
    if len(trace.diagnostics) != trace.rows.shape[0]:
        raise MissingDataError("diagnostics do not cover every trace row")
    if problem is not None:
        if trace.meta.get("solver") == "rgd":
            raise MissingDataError("plain gradient descent has no potential certificate")
        if problem.optimum is None:
            raise MissingDataError("problem has no optimum; call oracle_optimum first")
    return tuple(zip(*trace.diagnostics))


def _recorded_potential(trace: ConvergenceTrace) -> np.ndarray:
    """The ``potential`` column, phi_t of every row; MissingDataError when
    the run recorded none (plain gradient descent, or no known optimum)."""
    if trace.meta.get("solver") == "rgd":
        raise MissingDataError("plain gradient descent has no potential certificate")
    phi = trace.column("potential")
    if np.isnan(phi).all():
        raise MissingDataError("the run had no optimum; call oracle_optimum before run")
    return phi


def _weight_decay(xis: np.ndarray) -> np.ndarray:
    """prod_{1<=j<=t} (1 - xi_j) = 1 / A_t for every row t, accumulated in
    logarithms; it turns phi_0 into the certified envelope."""
    logs = itertools.accumulate((math.log1p(-float(xi)) for xi in xis[1:]), initial=0.0)
    return np.array([math.exp(s) for s in logs])


def _grads(problem: Problem, points: list[ManifoldPoint]) -> np.ndarray:
    """Checked gradient coordinates at every point, stacked; one
    ``_grad_coords`` call each."""
    return np.array([problem._grad_coords(x) for x in points])


def gradient_step_audit(trace: ConvergenceTrace, problem: Problem) -> StepAuditReport:
    """Check the per-step cost decrease of the gradient update.

    Each y-update must satisfy f(new) - f(base) <= -Delta * |grad|**2
    with Delta = gamma * (1 - L * gamma / 2); base is x_{t+1} for the
    accelerated modes and y_t for plain gradient descent.
    """
    xs, ys, _ = _kept_rows(trace)
    bases = ys[:-1] if trace.meta.get("solver") == "rgd" else xs[1:]
    f_base = problem.values(bases)
    grad_norms = problem.manifold._norm_many(bases, _grads(problem, bases))
    decrease = float(trace.meta["delta_gamma"]) * libm_squares(grad_norms)
    residuals = (problem.values(ys[1:]) - f_base) + decrease
    allowed = CERT_TOL * ((1.0 + np.abs(f_base)) + decrease)
    return StepAuditReport("gradient_step", residuals, allowed)


def mirror_step_audit(trace: ConvergenceTrace, problem: Problem) -> StepAuditReport:
    """Check the z-update against the exact mirror-step identity.

    With u = x_{t+1}, v = beta * Log_u(z_t), s = eta and g the gradient
    at u, the update z_{t+1} = Exp_u(v - s g) satisfies

        pd(u; z_{t+1}, x*)**2 - |v - Log_u(x*)|**2
            = s**2 |g|**2 + 2 s <g, Log_u(x*) - v>

    identically; the audit recomputes both sides from the stored points.
    """
    xs, _, zs = _kept_rows(trace, problem)
    m = problem.manifold
    _, beta, s = _step_params(trace)
    us = xs[1:]
    bases = m._prepare_bases(us)
    zs = m._base_coords(zs)
    v = beta.reshape((-1,) + (1,) * (zs.ndim - 1)) * m._log_many(bases, zs[:-1])
    lo = m._log_many(bases, np.broadcast_to(problem.optimum.coords, zs[1:].shape))
    g = _grads(problem, us)
    cross = np.array([m._inner(*row) for row in zip(us, g, lo - v)])
    pd_next = m._projected_distances(bases, zs[1:], problem.optimum)
    lhs = libm_squares(pd_next) - libm_squares(m._norm_many(bases, v - lo))
    rhs = s * s * libm_squares(m._norm_many(bases, g)) + 2.0 * s * cross
    allowed = CERT_TOL * ((1.0 + np.abs(lhs)) + np.abs(rhs))
    return StepAuditReport("mirror_step", np.abs(lhs - rhs), allowed)


def rate_envelope(trace: ConvergenceTrace, problem: Problem | None = None) -> StepAuditReport:
    """Check the cumulative rate f(y_t) - f(x*) <= phi_0 * prod (1 - xi_j).

    Reads the trace's columns, like :func:`certify_trace`.  Rows whose
    envelope falls below NOISE_FLOOR * phi_0 are skipped (their allowance
    is infinite): once the envelope drops under the resolution of the
    float objective, the comparison measures rounding noise, not the method.
    """
    phi0 = _recorded_potential(trace)[0]
    bounds = phi0 * _weight_decay(trace.column("xi"))
    allowed = _bound_allowance(bounds, NOISE_FLOOR * phi0, ENVELOPE_TOL)
    return StepAuditReport("rate_envelope", trace.column("f_gap") - bounds, allowed)


# ----- distance-shrinking bounds ---------------------------------------------


def _shrink_scales(mu: float, L: float, gamma: float) -> tuple[float, ...]:
    """(Delta, a, s_opt, s_proj, s_grad, den) at step size gamma: the
    per-root scales of the distance to the optimum, of the projected
    distance and of the gradient term, and the long-step denominator
    (gamma L - 1) * (gamma L - 1 + a)."""
    delta_gamma, a = step_gain(mu, L, gamma)
    s_opt = math.sqrt(2.0 / mu)
    s_proj = math.sqrt(1.0 / (mu * mu * delta_gamma))
    den = (gamma * L - 1.0) * (gamma * L - 1.0 + a)
    return delta_gamma, a, s_opt, s_proj, (L / mu) * s_opt, den


def shrink_constant(mu: float, L: float, gamma: float) -> float:
    """Constant C in the bound d(x_{t+1}, z_{t+1}) <= C * sqrt(D0 * prod).

    Requires gamma * L > 1 (and gamma < 2/L); the theory's long-step
    regime."""
    if not (0.0 < mu <= L):
        raise DomainError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if not gamma < 2.0 / L:
        raise DomainError(f"gamma must be < 2/L, got {gamma}")
    if not gamma * L > 1.0:
        raise HypothesisError(f"the bound requires gamma * L > 1, got {gamma * L}")
    delta_gamma, a, s_opt, s_proj, s_grad, den = _shrink_scales(mu, L, gamma)
    num = (s_opt + s_proj + s_grad) * (2.0 * L * delta_gamma + 1.0 - a)
    return num / den + s_grad


def shrink_bounds(
    trace: ConvergenceTrace, problem: Problem, floor: float = 0.0
) -> list[StepAuditReport]:
    """Check the distance-shrinking bounds along a recorded run.

    Returns one report per distance, named ``proj_z_opt`` (pd(x_t; z_t, x*)),
    ``d_y_opt``, ``proj_yz`` (pd(x_t; y_t, z_t)), ``d_yz`` and ``d_xz``; row
    t's residual is the observed distance minus its bound.  The observed
    ``d_y_opt``, ``d_yz`` and ``d_xz`` are the trace's recorded columns;
    the projected distances come from the stored iterates.  All bounds
    share the root sqrt(D0 * prod_{j<=t} (1 - xi_j)) built from the
    recorded momentum column; D0 is the normalized potential phi_0.  The
    bounds on ``d_yz`` and ``d_xz`` are +inf where the step hypotheses
    (gamma * L > 1, gamma * L <= 2 - xi, xi > 2 * mu * Delta) fail at the
    momentum value they depend on.  A row is compared, with allowance
    CERT_TOL * (1 + bound), only where its bound is finite and at least
    ``floor``: below that the theoretical envelope has decayed beneath
    what float distances can resolve.
    """
    xs, ys, zs = _kept_rows(trace, problem)
    m = problem.manifold
    opt = problem.optimum
    mu, L, gamma = (float(trace.meta[k]) for k in ("mu", "L", "gamma"))
    _, a, s_opt, s_proj, s_grad, den = _shrink_scales(mu, L, gamma)
    c_shrink = shrink_constant(mu, L, gamma) if gamma * L > 1.0 else math.inf
    xs = m._prepare_bases(xs)
    y, z = m._base_coords(ys), m._base_coords(zs)
    xis = trace.column("xi")
    pd = m._projected_distances(xs, z, opt)
    # D0 from the problem's optimum value, not the recorded potential column
    gap0 = problem.values(ys[:1]) - problem.optimum_value
    phi0 = normalized_potential(gap0, xis[:1], pd[:1], float(trace.meta["delta_gamma"]))[0]
    roots = np.sqrt(phi0 * _weight_decay(xis)) if phi0 > 0.0 else np.zeros_like(xis)
    # hypotheses of the step leaving row t, at xi_{t+1}; the last row has none
    xi_next = np.append(xis[1:], math.nan)
    hyp = (gamma * L > 1.0) & (gamma * L <= 2.0 - xi_next) & (xi_next > a)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_yz = roots / (1.0 - a / xi_next) * (s_opt + s_proj + s_grad) * (1.0 - a) / den
        d_yz = np.where(hyp, d_yz, math.inf)
        # row t's bound uses the root of row t-1
        d_xz = np.append(0.0, np.where(hyp[:-1], c_shrink * roots[:-1], math.inf))
    observed_bounds = (
        ("proj_z_opt", pd, roots * s_proj),
        ("d_y_opt", trace.column("d_yopt"), roots * s_opt),
        ("proj_yz", m._projected_distances(xs, y, z), roots * (s_opt + s_proj)),
        ("d_yz", trace.column("d_yz"), d_yz),
        ("d_xz", trace.column("d_xz"), d_xz),
    )
    return [
        StepAuditReport(name, obs - bound, _bound_allowance(bound, floor, CERT_TOL))
        for name, obs, bound in observed_bounds
    ]


def acceleration_threshold(
    mu: float,
    L: float,
    gamma: float,
    kappa: float,
    d0: float,
    eps: float = 1e-3,
) -> int:
    """Iteration count after which the momentum provably sits within
    ``eps`` below its flat-space limit sqrt(2 * mu * Delta).

    ``d0`` is the run's starting potential ``phi_0`` (row 0 of its
    ``potential`` column).  Combines the distance-shrinking constant, the
    curvature window in which the distortion rate is quadratically close
    to 1, and the steps the flat recursion takes to settle from
    ``2 sqrt(a)`` to ``eps`` (:func:`ragd.xi.settle_steps`).  Requires
    gamma * L > 1 and positive curvature magnitude ``kappa``.  The settle
    check of ``ragd verify`` (``long-step/settle-threshold``) compares one
    past the run's last row with ``xi < sqrt(a) - eps`` against this count.
    """
    if not kappa > 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not d0 > 0.0:
        raise DomainError(f"d0 must be positive, got {d0}")
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    c = shrink_constant(mu, L, gamma)
    _, a = step_gain(mu, L, gamma)
    d_window = math.sqrt(3.0 / (1.0 + 1.0 / (2.0 * a))) / (2.0 * math.sqrt(kappa))
    log_shrink = -math.log1p(-a)
    term_window = 2.0 * math.log(c * math.sqrt(d0) / d_window) / log_shrink
    term_eps = math.log(2.0 * kappa * c * c * d0 / eps) / log_shrink
    term_track = settle_steps(2.0 * math.sqrt(a), eps, XiParams(a=a, delta=1.0))
    return math.ceil(max(term_window, term_eps, 0.0) + term_track)
