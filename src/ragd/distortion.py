"""Curvature-dependent distortion rates for projected distances.

On a manifold whose sectional curvature is bounded below by ``-kappa``,
moving the base point of a projected squared distance from ``x`` to a
point at distance ``r`` inflates it by at most a computable factor.  This
module provides the three nested factors

    s_kappa(r) <= ... ,  t_kappa_hat(r) <= t_kappa(r),

together with the law-of-cosines coefficient ``trig_coeff`` they are built
from, and the combined rates used by the solver on Hadamard manifolds and
on the sphere.  All functions reduce to 1 at ``r = 0`` or ``kappa = 0``.
The rate selectors return the bare rate; the bound behind it depends only on
the run's settings, and ``XiParams`` checks that the rate is ``>= 1``.
"""

from __future__ import annotations

import math

from ._scalars import coth_ratio as _coth_ratio
from ._scalars import sinch as _sinch
from .errors import DomainError

__all__ = [
    "s_kappa",
    "trig_coeff",
    "t_kappa",
    "t_kappa_hat",
    "valid_rate_hadamard",
    "valid_rate_nonhadamard",
]

def _check_args(kappa: float, r: float) -> None:
    if math.isnan(kappa) or kappa < 0.0:
        raise DomainError(f"curvature bound kappa must be >= 0, got {kappa}")
    if math.isnan(r) or r < 0.0:
        raise DomainError(f"distance must be >= 0, got {r}")


def s_kappa(kappa: float, r: float) -> float:
    """Squared Rauch expansion factor ``(sinh(sqrt(kappa) r) / (sqrt(kappa) r))**2``."""
    _check_args(kappa, r)
    if math.isinf(r):
        return math.inf
    return _sinch(math.sqrt(kappa) * r) ** 2


def trig_coeff(kappa: float, c: float) -> float:
    """Law-of-cosines coefficient ``sqrt(kappa) c / tanh(sqrt(kappa) c)``.

    For a geodesic triangle with side lengths ``a`` (opposite the vertex
    ``x``), ``b``, ``c`` and angle ``A`` at ``x``, curvature bounded below
    by ``-kappa`` gives ``a**2 <= trig_coeff(kappa, c) * b**2 + c**2
    - 2 b c cos(A)``.
    """
    _check_args(kappa, c)
    if math.isinf(c):
        return math.inf
    return _coth_ratio(math.sqrt(kappa) * c)


def t_kappa(kappa: float, r: float) -> float:
    """Improved distortion factor.

    ``max(1 + 4 (sqrt(k) r / tanh(sqrt(k) r) - 1), (sinh(2 sqrt(k) r) /
    (2 sqrt(k) r))**2)``; tighter than ``s_kappa`` applied to the worst
    pair distance, and quadratically close to 1 near ``r = 0``.
    """
    _check_args(kappa, r)
    if math.isinf(r):
        return math.inf
    # The t_kappa_hat objective at the split eps = 1.
    return _t_hat_objective(1.0, math.sqrt(kappa) * r)


# Search interval of the free split eps in t_kappa_hat.
_EPS_LO = 1e-3
_EPS_HI = 10.0
# The root search stops once its lower and upper bound on the minimum agree
# to half an ulp; a geometric bisection after every third step that keeps
# the same end bounds the step count well below _ROOT_ITERS.
_ROOT_RTOL = 2.0**-53
_ROOT_ITERS = 200


def _t_hat_branches(eps: float, w: float, excess: float) -> tuple[float, float]:
    """Decreasing and increasing branch of the ``t_kappa_hat`` objective;
    ``excess`` is ``coth_ratio(w) - 1``."""
    return 1.0 + (1.0 + 1.0 / eps) ** 2 * excess, _sinch((1.0 + eps) * w) ** 2


def _t_hat_objective(eps: float, w: float) -> float:
    if (1.0 + eps) * w > 350.0:
        return math.inf
    return max(_t_hat_branches(eps, w, _coth_ratio(w) - 1.0))


def _crossing(w: float, lo: float, hi: float) -> tuple[float, float]:
    """Bracket ``(a, b)`` around the crossing of the two branches of the
    ``t_kappa_hat`` objective on ``[lo, hi]``.

    The first branch decreases and the second increases in ``eps``, so
    their difference ``h`` has one sign change.  Illinois (regula falsi)
    steps narrow the bracket, with a geometric bisection after every third
    step that keeps the same end.  The first step tries ``eps = 1``, where
    the crossing tends as ``w -> 0``.  The minimum lies between
    ``max(first(b), second(a))`` and ``min(first(a), second(b))``; the
    search stops when these agree to ``_ROOT_RTOL``, when ``h`` vanishes,
    when the ends are adjacent floats, or after ``_ROOT_ITERS`` steps.  A
    crossing outside ``[lo, hi]`` gives the nearer end twice.
    """
    excess = _coth_ratio(w) - 1.0

    def branches(eps: float) -> tuple[float, float, float]:
        first, second = _t_hat_branches(eps, w, excess)
        return first, second, first - second

    a, b = lo, hi
    fa, sa, ha = branches(a)
    if ha <= 0.0:
        return a, a
    fb, sb, hb = branches(b)
    if hb >= 0.0:
        return b, b
    side = kept = 0
    for step in range(_ROOT_ITERS):
        upper = min(fa, sb)
        if upper - max(fb, sa) <= _ROOT_RTOL * upper:
            break
        if step == 0 and a < 1.0 < b:
            c = 1.0
        elif kept >= 3:
            c = math.sqrt(a * b)
            kept = 0
        else:
            c = b - hb * (b - a) / (hb - ha)
        if not a < c < b:
            c = a + 0.5 * (b - a)
            if not a < c < b:
                break
        fc, sc, hc = branches(c)
        if hc == 0.0:
            return c, c
        if hc > 0.0:
            if side > 0:
                hb *= 0.5
                kept += 1
            else:
                kept = 1
            a, fa, sa, ha = c, fc, sc, hc
            side = 1
        else:
            if side < 0:
                ha *= 0.5
                kept += 1
            else:
                kept = 1
            b, fb, sb, hb = c, fc, sc, hc
            side = -1
    return a, b


def t_kappa_hat(kappa: float, r: float) -> float:
    """Sharpened distortion factor, minimized over the free split ``eps > 0``.

    ``min_eps max(1 + (1 + 1/eps)**2 (coth term - 1), (sinh((1+eps) w) /
    ((1+eps) w))**2)`` with ``w = sqrt(kappa) r``.  The first branch
    decreases and the second increases in ``eps``, so the minimum sits at
    their crossing.  The crossing is bracketed by a root search on
    ``eps`` in ``[1e-3, min(10, 350/w - 1)]`` (past ``350/w - 1`` the
    objective counts the sinh term as overflowing); a crossing outside
    that interval gives its nearer end.  The result is the objective evaluated at both ends of the
    final bracket and at ``eps = 1``, the smallest of the three.  Choosing
    ``eps = 1`` recovers ``t_kappa``, so the result never exceeds it.
    """
    _check_args(kappa, r)
    w = math.sqrt(kappa) * r
    if w == 0.0:
        return 1.0
    if math.isinf(r):
        return math.inf
    plain = _t_hat_objective(1.0, w)
    hi = min(_EPS_HI, 350.0 / w - 1.0)
    if not _EPS_LO <= hi:
        return plain
    a, b = _crossing(w, _EPS_LO, hi)
    return min(_t_hat_objective(a, w), _t_hat_objective(b, w), plain)


def valid_rate_hadamard(kappa: float, d_xz: float, sharp: bool = False) -> float:
    """Distortion rate for one solver step on a Hadamard manifold.

    Uses the improved factor ``t_kappa`` of the distance between the
    current iterate and the mirror point, or its sharpened variant when
    ``sharp`` is set.
    """
    if d_xz == 0.0 or kappa == 0.0:
        return 1.0
    return t_kappa_hat(kappa, d_xz) if sharp else t_kappa(kappa, d_xz)


def valid_rate_nonhadamard(kappa: float, d_xz: float, d_yz: float) -> float:
    """Distortion rate when positive curvature is present.

    Combines the lower-bound factor with the projection penalty of
    positive curvature: ``t_kappa(d(x, z)) * (1 + 2 d(y, z)**2)``.
    """
    if math.isnan(d_yz) or d_yz < 0.0:
        raise DomainError(f"distance must be >= 0, got {d_yz}")
    base = 1.0 if (d_xz == 0.0 or kappa == 0.0) else t_kappa(kappa, d_xz)
    return base * (1.0 + 2.0 * d_yz * d_yz)
