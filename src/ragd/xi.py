"""Momentum-parameter recursion for the accelerated solvers.

Each accelerated step picks its momentum parameter ``xi_{t+1}`` as the
positive root of

    xi * (xi - a) / (1 - xi) = xi_t**2 / delta,

where ``a = 2 * mu * Delta`` aggregates the strong-convexity gain of one
gradient step (:func:`step_gain`) and ``delta >= 1`` is the distortion rate
charged for moving the reference point of the squared-distance term.  The
root map is a contraction toward a delta-dependent fixed point; the product
of the resulting ``(1 - xi_t)`` factors is the convergence rate of the method.

This module is the one home of these formulas: the step gain, the root map
and its fixed points (one quadratic-root helper), the contraction estimate
and the settle-step count of its envelope; and the step arithmetic it feeds
(the ``_step_coefficients``, ``_recursion_defect`` and ``_form_coefficients``
below), which checks no range, so floats, arrays and sympy symbols pass.
``tests/test_step_algebra.py`` proves the step algebra, the fixed point and
the derivative bound behind the contraction estimate through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "XiParams",
    "next_xi",
    "iterate_xi",
    "xi_residual",
    "fixed_point_xi",
    "contraction_factor",
    "settle_steps",
    "step_gain",
]

# Slope C of the bound 0 <= theta(v, a) < 1 - C v on 0 < v < 1, 0 <= a < 1, where
# theta(v, a) is the derivative of the root map at delta = 1 in xi_t, at xi_t = v;
# tests/test_step_algebra.py proves it for this float.
_C_THETA = 4.0 / (5.0 + math.sqrt(5.0))

# Largest representable value strictly below 1; roots are clamped into
# [a, _XI_SUP] to guard the open upper end of the domain against rounding.
_XI_SUP = math.nextafter(1.0, 0.0)

_RESIDUAL_TOL = 1e-12


def step_gain(mu: float, L: float, gamma: float) -> tuple[float, float]:
    """``(Delta, a)`` of a gradient step of size ``gamma``: the decrease
    ``Delta = gamma * (1 - L * gamma / 2)`` and the gain ``a = 2 * mu * Delta``."""
    delta_gamma = gamma * (1.0 - L * gamma / 2.0)
    return delta_gamma, 2.0 * mu * delta_gamma


def _step_coefficients(xi, mu, delta_gamma) -> tuple:
    """``(alpha, beta, eta) = ((xi - a) / (1 - a), 1 - a / xi, 2 Delta / xi)``
    of a step taken at momentum ``xi``, with ``a = 2 mu Delta``."""
    a = 2.0 * mu * delta_gamma
    return (xi - a) / (1.0 - a), 1.0 - a / xi, 2.0 * delta_gamma / xi


def _recursion_defect(xi_next, xi_t, a, delta):
    """``xi_next (xi_next - a) / (1 - xi_next) - xi_t**2 / delta``, zero when
    ``xi_next`` solves the recursion."""
    return xi_next * (xi_next - a) / (1.0 - xi_next) - xi_t * xi_t / delta


def _form_coefficients(xi_t, xi_next, rate, mu, delta_gamma) -> tuple:
    """``(c1, ..., c6)`` of the step from ``xi_t`` to ``xi_next`` at distortion
    ``rate``: the coefficients of (pd_next**2, d(x+, x*)**2, |grad|**2,
    pd_next * d_prev, pd_prev * d_prev, the gradient-displacement cross
    term) in the per-step inequality, at the normalized weight A_t = 1.
    Once the recursion eliminates ``xi_t**2``, c2..c6 vanish and
    c1 = -mu (1 - a) (xi_next - a) / (2 (1 - xi_next)**2) <= 0, which makes
    the potential non-increasing; ``tests/test_step_algebra.py`` proves it."""
    alpha, beta, eta = _step_coefficients(xi_next, mu, delta_gamma)
    ratio = alpha / (1.0 - alpha)
    a_next = 1.0 / (1.0 - xi_next)
    b_in = xi_t * xi_t / (4.0 * delta_gamma) / rate
    b_next = xi_next * xi_next / (4.0 * delta_gamma) * a_next
    return (
        beta * beta * b_next - b_in - 0.5 * mu * ratio * ratio,
        b_next - b_in - 0.5 * mu * (a_next - 1.0),
        eta * eta * b_next - delta_gamma * a_next,
        2.0 * (beta * b_next - b_in),
        ratio - 2.0 * beta * eta * b_next,
        (a_next - 1.0) - 2.0 * eta * b_next,
    )


def _positive_root(b: float, c: float) -> float:
    """Root ``>= 0`` of ``x**2 + b x - c = 0`` for ``c >= 0``; the conjugate
    form is used when ``b > 0``, so no cancellation occurs."""
    disc = math.sqrt(b * b + 4.0 * c)
    if b > 0.0:
        return 2.0 * c / (disc + b)
    return 0.5 * (disc - b)


@dataclass(frozen=True)
class XiParams:
    """Coefficients of one recursion step.

    Attributes
    ----------
    a : float
        Gradient-step gain ``2 * mu * delta_gamma``.  Must lie in ``[0, 1)``;
        ``a = 0`` is the non-strongly-convex limit.
    delta : float
        Distortion rate, ``>= 1``.  ``math.inf`` is accepted and sends the
        recursion to its flat limit ``xi = a``.
    """

    a: float
    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or not 0.0 <= self.a < 1.0:
            raise DomainError(f"a must lie in [0, 1), got {self.a}")
        if math.isnan(self.delta) or self.delta < 1.0:
            raise DomainError(f"delta must be >= 1, got {self.delta}")


def next_xi(xi_t: float, params: XiParams) -> float:
    """Advance the recursion by one step.

    Returns the unique root in ``[a, 1)`` of
    ``xi * (xi - a) / (1 - xi) = xi_t**2 / delta``, that is of
    ``xi**2 + (rhs - a) xi - rhs = 0`` with ``rhs = xi_t**2 / delta``.
    """
    if not math.isfinite(xi_t) or xi_t < 0.0:
        raise DomainError(f"xi_t must be finite and >= 0, got {xi_t}")
    a = params.a
    rhs = 0.0 if math.isinf(params.delta) else xi_t * xi_t / params.delta
    nxt = min(max(_positive_root(rhs - a, rhs), a), _XI_SUP)
    res = xi_residual(nxt, xi_t, params)
    if abs(res) > _RESIDUAL_TOL * max(1.0, rhs):
        raise ConvergenceError(
            f"root of the xi recursion failed its residual check: {res:.3e}"
        )
    return nxt


def xi_residual(xi_next: float, xi_t: float, params: XiParams) -> float:
    """Defect of ``xi_next`` as a root of the recursion equation."""
    return _recursion_defect(xi_next, xi_t, params.a, params.delta)


def iterate_xi(xi0: float, params: XiParams, steps: int) -> list[float]:
    """Run the recursion for ``steps`` updates; returns ``[xi_0, ..., xi_steps]``."""
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    seq = [xi0]
    for _ in range(steps):
        seq.append(next_xi(seq[-1], params))
    return seq


def fixed_point_xi(params: XiParams) -> float:
    """Fixed point ``xi(delta)`` of the recursion at constant parameters.

    The positive root of ``xi**2 + (delta - 1) xi - delta a = 0``:
    ``xi(1) = sqrt(a)`` and ``xi(delta) -> a`` as ``delta -> inf``.
    """
    a, d = params.a, params.delta
    if math.isinf(d):
        return a
    return _positive_root(d - 1.0, d * a)


def contraction_factor(params: XiParams) -> float:
    """Per-step contraction rate of ``|xi_t - xi(delta)|``.

    Returns ``(1 - _C_THETA * a / sqrt(delta)) / sqrt(delta)``, which is a
    valid Lipschitz bound of the update map around its fixed point; it rests
    on the derivative bound ``theta(v, a) < 1 - _C_THETA * v`` of the map at
    ``delta = 1``, which ``tests/test_step_algebra.py`` proves.  The
    value is strictly below 1 unless ``a == 0`` and ``delta == 1``, in
    which case the recursion does not contract and DomainError is raised.
    """
    a, d = params.a, params.delta
    if math.isinf(d):
        return 0.0
    root_d = math.sqrt(d)
    factor = (1.0 - _C_THETA * a / root_d) / root_d
    if factor >= 1.0:
        raise DomainError("contraction requires a > 0 or delta > 1")
    return factor


def settle_steps(gap0: float, eps: float, params: XiParams) -> float:
    """Steps after which the envelope ``gap0 * lam**t`` of
    ``|xi_t - xi(delta)|``, with ``lam = contraction_factor(params)``,
    reaches ``eps``: ``log(eps / gap0) / log(lam)``, not rounded.

    Returns 0 when ``gap0 <= eps``, and 1 when ``lam == 0`` (``delta`` is
    infinite and one step lands on the fixed point).
    """
    if gap0 <= eps:
        return 0.0
    lam = contraction_factor(params)
    if lam == 0.0:
        return 1.0
    return math.log(eps / gap0) / math.log(lam)
