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
parameter choices five of the coefficients vanish identically and the
first is negative.  :func:`coefficient_block` exposes them for direct
numerical inspection.

The certifier, the quadratic-form audit, the rate envelope and the
shrink report read one replay of the run, which evaluates f(y_t) - f*,
pd_t and phi_t once per row (f(y_t) of every row in one ``Problem.values``
call and pd_t in one stacked call, ``Manifold._projected_distances``).
Every check allows :data:`CERT_TOL` (the envelope :data:`ENVELOPE_TOL`)
times the magnitudes it compares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HypothesisError, MissingDataError
from .geometry import Euclidean
from .problems import Problem
from .solvers import StepParams, normalized_potential, step_params
from .trace import NOISE_FLOOR, ConvergenceTrace
from .xi import XiParams, settle_steps, step_gain

__all__ = [
    "CERT_TOL",
    "ENVELOPE_TOL",
    "CoefficientBlock",
    "coefficient_block",
    "trace_coefficient_blocks",
    "PotentialRecord",
    "CertificationReport",
    "certify_trace",
    "StepAuditReport",
    "quadratic_form_audit",
    "gradient_step_audit",
    "mirror_step_audit",
    "rate_envelope",
    "shrink_constant",
    "ShrinkRecord",
    "shrink_bounds",
    "ShrinkSummary",
    "count_shrink_violations",
    "acceleration_threshold",
]

CERT_TOL = 1e-9
"""Relative allowance of the certifier, the step audits and the shrink tally."""

ENVELOPE_TOL = 1e-7
"""Relative allowance of the cumulative rate envelope."""


def _allowance(unit: float, *magnitudes: float, rel: float = CERT_TOL) -> float:
    """Float slack of one checked inequality: ``rel`` times its unit term
    plus the magnitudes of the quantities it compares."""
    total = unit
    for mag in magnitudes:
        total += mag
    return rel * total


@dataclass(frozen=True)
class CoefficientBlock:
    """Coefficients of the per-step inequality in the order they multiply
    (pd_next**2, d(x+, x*)**2, |grad|**2, pd_next * d_prev, pd_prev * d_prev,
    grad-displacement cross term)."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float


def coefficient_block(
    a_t: float,
    b_t: float,
    a_next: float,
    b_next: float,
    params: StepParams,
    mu: float,
    delta_gamma: float,
    delta_rate: float = 1.0,
) -> CoefficientBlock:
    """Evaluate the six inequality coefficients for one step.

    With the scheme's parameter choices, c2 through c6 vanish and c1 is
    non-positive, which is exactly what makes the potential non-increasing.
    ``delta_rate`` is the metric-distortion rate of the step (1 in flat
    space); it divides the incoming distance weight.
    """
    if not delta_rate >= 1.0:
        raise DomainError(f"delta_rate must be >= 1, got {delta_rate}")
    alpha, beta, eta = params.alpha, params.beta, params.eta
    if not alpha < 1.0:
        raise DomainError(f"alpha must be < 1, got {alpha}")
    ratio = alpha / (1.0 - alpha)
    b_in = b_t / delta_rate
    c1 = beta * beta * b_next - b_in - 0.5 * mu * ratio * ratio * a_t
    c2 = b_next - b_in - 0.5 * mu * (a_next - a_t)
    c3 = eta * eta * b_next - delta_gamma * a_next
    c4 = 2.0 * (beta * b_next - b_in)
    c5 = ratio * a_t - 2.0 * beta * eta * b_next
    c6 = (a_next - a_t) - 2.0 * eta * b_next
    return CoefficientBlock(c1, c2, c3, c4, c5, c6)


def trace_coefficient_blocks(trace: ConvergenceTrace) -> list[CoefficientBlock]:
    """Coefficient blocks for every step of a recorded run.

    Uses the normalized weights A_t = 1, so coefficient magnitudes stay
    bounded regardless of run length.
    """
    mu = float(trace.meta["mu"])
    delta_gamma = float(trace.meta["delta_gamma"])
    xis = trace.column("xi")
    deltas = trace.column("delta_rate")
    blocks = []
    for t in range(trace.n_iters):
        xi_t = float(xis[t])
        xi_n = float(xis[t + 1])
        a_next = 1.0 / (1.0 - xi_n)
        b_t = xi_t * xi_t / (4.0 * delta_gamma)
        b_next = xi_n * xi_n / (4.0 * delta_gamma) * a_next
        params = step_params(xi_n, mu, delta_gamma)
        blocks.append(
            coefficient_block(
                1.0,
                b_t,
                a_next,
                b_next,
                params,
                mu,
                delta_gamma,
                delta_rate=float(deltas[t + 1]),
            )
        )
    return blocks


@dataclass(frozen=True)
class PotentialRecord:
    """Potential bookkeeping for one trace row.

    ``margin`` is the normalized certified decrease
    (1 - xi_{t+1}) * phi_t - phi_{t+1} for the step leaving this row
    (NaN on the last row); the step passes when margin >= -allowed.
    """

    t: int
    phi: float
    margin: float
    allowed: float
    ok: bool


@dataclass(frozen=True)
class CertificationReport:
    records: list[PotentialRecord]
    violations: int
    worst_margin: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def certify_trace(trace: ConvergenceTrace, problem: Problem) -> CertificationReport:
    """Recompute the potential from recorded iterates and certify descent.

    Independent of the solver's own bookkeeping: objective values and
    projected distances are re-evaluated from the stored points.  The
    per-step condition is Phi_{t+1} <= Phi_t + CERT_TOL * (1 + |Phi_t|),
    checked in normalized form.  Requires diagnostics and a known optimum.
    """
    _require_potential_inputs(trace, problem)
    r = _replay(trace, problem)
    phis = r.phi
    n_rows = phis.shape[0]

    records = []
    violations = 0
    worst = math.inf
    for t in range(n_rows):
        if t + 1 < n_rows:
            shrink = 1.0 - float(r.xi[t + 1])
            margin = shrink * phis[t] - phis[t + 1]
            allowed = _allowance(float(r.decay[t + 1]), shrink * abs(phis[t]))
            ok = margin >= -allowed
            if not ok:
                violations += 1
            worst = min(worst, margin + allowed)
        else:
            margin, allowed, ok = math.nan, math.nan, True
        records.append(
            PotentialRecord(
                t=t,
                phi=float(phis[t]),
                margin=float(margin),
                allowed=float(allowed),
                ok=ok,
            )
        )
    return CertificationReport(records=records, violations=violations, worst_margin=worst)


# ----- per-step identity and inequality audits --------------------------------


@dataclass(frozen=True)
class StepAuditReport:
    """Outcome of one per-step audit over a recorded run.

    ``residuals[t]`` is the defect of the audited condition at step t
    (positive means broken); the step passes when residual <= allowed.
    """

    name: str
    residuals: np.ndarray
    allowed: np.ndarray

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(self.residuals > self.allowed))

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _require_full_diagnostics(trace: ConvergenceTrace) -> None:
    if trace.diagnostics is None:
        raise MissingDataError("trace has no diagnostics; rerun with record_diagnostics")
    d = trace.diagnostics
    n_rows = trace.rows.shape[0]
    if not (len(d.points_x) == len(d.points_y) == len(d.points_z) == n_rows):
        raise MissingDataError("diagnostics do not cover every trace row")


def _require_potential_inputs(trace: ConvergenceTrace, problem: Problem) -> None:
    """Preamble of the potential analyses: full diagnostics, an accelerated
    solver and a known optimum."""
    _require_full_diagnostics(trace)
    if trace.meta.get("solver") == "rgd":
        raise MissingDataError("plain gradient descent has no potential certificate")
    if problem.optimum is None:
        raise MissingDataError("problem has no optimum; call oracle_optimum first")


class _Replay(NamedTuple):
    """Per-row quantities of a recorded run, re-evaluated from the stored
    iterates: the momentum ``xi``, the gap f(y_t) - f*, the projected
    distance pd(x_t; z_t, x*), the normalized potential phi_t, and the
    weight decay prod_{1<=j<=t} (1 - xi_j) = 1 / A_t, which turns phi_0
    into the certified envelope."""

    xi: np.ndarray
    gap: np.ndarray
    pd: np.ndarray
    phi: np.ndarray
    decay: np.ndarray


def _replay(trace: ConvergenceTrace, problem: Problem) -> _Replay:
    """One pass over the diagnostics; the caller has checked its inputs."""
    d = trace.diagnostics
    m = problem.manifold
    opt = problem.optimum
    xis = trace.column("xi")
    gap = problem.values(d.points_y) - problem.optimum_value
    pd = m._projected_distances(d.points_x, d.points_z, opt)
    phi = normalized_potential(gap, xis, pd, float(trace.meta["delta_gamma"]))
    logs = itertools.accumulate((math.log1p(-float(xi)) for xi in xis[1:]), initial=0.0)
    decay = np.array([math.exp(s) for s in logs])
    return _Replay(xis, gap, pd, phi, decay)


def quadratic_form_audit(trace: ConvergenceTrace, problem: Problem) -> StepAuditReport:
    """Check each step's potential difference against its quadratic form.

    For the flat solver the per-step potential change is bounded by the
    six-coefficient quadratic form in W = z_t - x_{t+1},
    X = x_{t+1} - x_*, and the gradient at x_{t+1}.  Both sides are
    evaluated per unit of the weight A_t, so the comparison stays finite
    on long runs.  Euclidean only.
    """
    if not isinstance(problem.manifold, Euclidean):
        raise DomainError("the quadratic-form audit applies to flat runs only")
    _require_potential_inputs(trace, problem)
    d = trace.diagnostics
    opt = problem.optimum
    r = _replay(trace, problem)
    phis = r.phi
    blocks = trace_coefficient_blocks(trace)
    n_steps = trace.n_iters
    residuals = np.empty(n_steps)
    allowed = np.empty(n_steps)
    for t in range(n_steps):
        u = d.points_x[t + 1]
        w = d.points_z[t].coords - u.coords
        x_vec = u.coords - opt.coords
        g = problem.grad(u).coords
        c = blocks[t]
        form = (
            c.c1 * float(w @ w)
            + c.c2 * float(x_vec @ x_vec)
            + c.c3 * float(g @ g)
            + c.c4 * float(w @ x_vec)
            + c.c5 * float(w @ g)
            + c.c6 * float(x_vec @ g)
        )
        lhs = phis[t + 1] / (1.0 - float(r.xi[t + 1])) - phis[t]
        residuals[t] = lhs - form
        allowed[t] = _allowance(1.0, abs(phis[t]), abs(form))
    return StepAuditReport("quadratic_form", residuals, allowed)


def gradient_step_audit(trace: ConvergenceTrace, problem: Problem) -> StepAuditReport:
    """Check the per-step cost decrease of the gradient update.

    Each y-update must satisfy f(new) - f(base) <= -Delta * |grad|**2
    with Delta = gamma * (1 - L * gamma / 2); base is x_{t+1} for the
    accelerated modes and y_t for plain gradient descent.
    """
    _require_full_diagnostics(trace)
    d = trace.diagnostics
    m = problem.manifold
    delta_gamma = float(trace.meta["delta_gamma"])
    plain = trace.meta.get("solver") == "rgd"
    n_steps = trace.n_iters
    residuals = np.empty(n_steps)
    allowed = np.empty(n_steps)
    for t in range(n_steps):
        base = d.points_y[t] if plain else d.points_x[t + 1]
        new = d.points_y[t + 1]
        g = problem.grad(base)
        f_base = problem.value(base)
        f_new = problem.value(new)
        decrease = delta_gamma * m.norm(base, g) ** 2
        residuals[t] = (f_new - f_base) + decrease
        allowed[t] = _allowance(1.0, abs(f_base), decrease)
    return StepAuditReport("gradient_step", residuals, allowed)


def mirror_step_audit(trace: ConvergenceTrace, problem: Problem) -> StepAuditReport:
    """Check the z-update against the exact mirror-step identity.

    With u = x_{t+1}, v = beta * Log_u(z_t), s = eta and g the gradient
    at u, the update z_{t+1} = Exp_u(v - s g) satisfies

        pd(u; z_{t+1}, x*)**2 - |v - Log_u(x*)|**2
            = s**2 |g|**2 + 2 s <g, Log_u(x*) - v>

    identically; the audit recomputes both sides from the stored points.
    """
    _require_potential_inputs(trace, problem)
    d = trace.diagnostics
    m = problem.manifold
    opt = problem.optimum
    mu = float(trace.meta["mu"])
    delta_gamma = float(trace.meta["delta_gamma"])
    xis = trace.column("xi")
    n_steps = trace.n_iters
    residuals = np.empty(n_steps)
    allowed = np.empty(n_steps)
    for t in range(n_steps):
        u = d.points_x[t + 1]
        params = step_params(float(xis[t + 1]), mu, delta_gamma)
        v = params.beta * m.log(u, d.points_z[t])
        g = problem.grad(u)
        s = params.eta
        lo = m.log(u, opt)
        lhs = (
            m.projected_distance(u, d.points_z[t + 1], opt) ** 2
            - m.norm(u, v - lo) ** 2
        )
        rhs = s * s * m.norm(u, g) ** 2 + 2.0 * s * m.inner(u, g, lo - v)
        residuals[t] = abs(lhs - rhs)
        allowed[t] = _allowance(1.0, abs(lhs), abs(rhs))
    return StepAuditReport("mirror_step", residuals, allowed)


def rate_envelope(trace: ConvergenceTrace, problem: Problem) -> StepAuditReport:
    """Check the cumulative rate f(y_t) - f(x*) <= phi_0 * prod (1 - xi_j).

    Rows whose envelope falls below NOISE_FLOOR * phi_0 are skipped (their
    allowance is infinite): once the envelope drops under the resolution
    of the float objective, the comparison measures rounding noise, not
    the method.
    """
    _require_potential_inputs(trace, problem)
    r = _replay(trace, problem)
    bounds = r.phi[0] * r.decay
    floor = NOISE_FLOOR * r.phi[0]
    allowed = np.array([
        _allowance(1.0, abs(b), rel=ENVELOPE_TOL) if b >= floor else math.inf
        for b in bounds
    ])
    return StepAuditReport("rate_envelope", r.gap - bounds, allowed)


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


@dataclass(frozen=True)
class ShrinkRecord:
    """Observed distances at one row next to their theoretical bounds.

    ``d_xz_bound`` and ``d_yz_bound`` are NaN when the step hypotheses
    (gamma * L > 1, gamma * L <= 2 - xi, xi > 2 * mu * Delta) fail at the
    momentum value they depend on.
    """

    t: int
    proj_z_opt: float
    proj_z_opt_bound: float
    d_y_opt: float
    d_y_opt_bound: float
    proj_yz: float
    proj_yz_bound: float
    d_yz: float
    d_yz_bound: float
    d_xz: float
    d_xz_bound: float


def shrink_bounds(trace: ConvergenceTrace, problem: Problem) -> list[ShrinkRecord]:
    """Evaluate the distance-shrinking bounds along a recorded run.

    All bounds share the root sqrt(D0 * prod_{j<=t} (1 - xi_j)) built from
    the recorded momentum column; D0 is the normalized potential phi_0.
    """
    _require_potential_inputs(trace, problem)
    d = trace.diagnostics
    m = problem.manifold
    opt = problem.optimum
    mu = float(trace.meta["mu"])
    L = float(trace.meta["L"])
    gamma = float(trace.meta["gamma"])
    _, a, s_opt, s_proj, s_grad, den = _shrink_scales(mu, L, gamma)
    try:
        c_shrink = shrink_constant(mu, L, gamma)
    except HypothesisError:
        c_shrink = math.nan
    r = _replay(trace, problem)
    n_rows = r.phi.shape[0]
    roots = np.sqrt(r.phi[0] * r.decay) if r.phi[0] > 0.0 else np.zeros(n_rows)

    def hyp_ok(xi_next: float) -> bool:
        return gamma * L > 1.0 and gamma * L <= 2.0 - xi_next and xi_next > a

    records = []
    for t in range(n_rows):
        root = float(roots[t])
        x_t, y_t, z_t = d.points_x[t], d.points_y[t], d.points_z[t]
        if t + 1 < n_rows and hyp_ok(float(r.xi[t + 1])):
            beta = 1.0 - a / float(r.xi[t + 1])
            d_yz_bound = root / beta * (s_opt + s_proj + s_grad) * (1.0 - a) / den
        else:
            d_yz_bound = math.nan
        if t == 0:
            d_xz_bound = 0.0
        elif hyp_ok(float(r.xi[t])) and not math.isnan(c_shrink):
            # the bound for row t uses the root of row t-1
            d_xz_bound = c_shrink * float(roots[t - 1])
        else:
            d_xz_bound = math.nan
        records.append(
            ShrinkRecord(
                t=t,
                proj_z_opt=float(r.pd[t]),
                proj_z_opt_bound=root * s_proj,
                d_y_opt=m.distance(y_t, opt),
                d_y_opt_bound=root * s_opt,
                proj_yz=m.projected_distance(x_t, y_t, z_t),
                proj_yz_bound=root * (s_opt + s_proj),
                d_yz=m.distance(y_t, z_t),
                d_yz_bound=d_yz_bound,
                d_xz=m.distance(x_t, z_t),
                d_xz_bound=d_xz_bound,
            )
        )
    return records


@dataclass(frozen=True)
class ShrinkSummary:
    """Violation tally over a list of shrink records.

    ``checked`` counts (row, bound) pairs that were actually comparable:
    the bound is defined (hypotheses hold) and at least ``floor`` large.
    Bounds below ``floor`` are skipped because the theoretical envelope
    has decayed beneath what float distances can resolve.
    """

    violations: int
    checked: int
    skipped: int


def count_shrink_violations(
    records: list[ShrinkRecord], floor: float = 0.0
) -> ShrinkSummary:
    """Tally bound violations across all five distance comparisons."""
    pairs = (
        ("proj_z_opt", "proj_z_opt_bound"),
        ("d_y_opt", "d_y_opt_bound"),
        ("proj_yz", "proj_yz_bound"),
        ("d_yz", "d_yz_bound"),
        ("d_xz", "d_xz_bound"),
    )
    violations = 0
    checked = 0
    skipped = 0
    for rec in records:
        for field_obs, field_bound in pairs:
            bound = getattr(rec, field_bound)
            if math.isnan(bound) or bound < floor:
                skipped += 1
                continue
            checked += 1
            if getattr(rec, field_obs) > bound + _allowance(1.0, bound):
                violations += 1
    return ShrinkSummary(violations=violations, checked=checked, skipped=skipped)


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

    Combines the distance-shrinking constant, the curvature window in
    which the distortion rate is quadratically close to 1, and the steps
    the flat recursion takes to settle from ``2 sqrt(a)`` to ``eps``
    (:func:`ragd.xi.settle_steps`).  Requires
    gamma * L > 1 and positive curvature magnitude ``kappa``.
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
