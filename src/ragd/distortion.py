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
    try:
        return _sinch(math.sqrt(kappa) * r) ** 2
    except OverflowError:
        # past sqrt(kappa) r of about 357 the factor exceeds the float range
        return math.inf


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
# The crossing search stops once its lower and upper bound on the minimum
# agree to half an ulp; _ROOT_ITERS caps its branch evaluations.
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


def _t_hat_log_slope(eps: float, w: float, excess: float, first: float) -> float:
    """Derivative in ``eps`` of ``log(first) - log(second)``, the log ratio of
    the two branches at ``eps``; ``first`` is the first branch there.  It is
    never positive."""
    u = (1.0 + eps) * w
    d_first = -2.0 * (1.0 + 1.0 / eps) * excess / (eps * eps)
    # d/du log(sinch(u)**2) = 2 (coth(u) - 1/u) = 2 (coth_ratio(u) - 1) / u.
    return d_first / first - 2.0 * w * (_coth_ratio(u) - 1.0) / u


def _crossing_min(w: float, hi: float) -> float:
    """Minimum over ``eps`` in ``[_EPS_LO, hi]`` of the larger of the two
    ``t_kappa_hat`` branches, through their crossing.

    The first branch decreases and the second increases in ``eps``.  A split
    ``a`` where the first is larger lies left of the crossing and one ``b``
    where the second is larger lies right of it, so the minimum lies between
    ``max(first(b), second(a))`` and ``min(first(a), second(b))``; the search
    stops when these agree to ``_ROOT_RTOL``, when the branches are equal,
    or when no new split fits between the ends.  The first split is
    ``eps = 1`` (where the crossing tends as ``w -> 0``), or ``hi`` below it.
    Each next one is a Newton step on the log ratio of the branches, which
    stays nearly linear where the sinh branch grows exponentially.  A step
    below the float spacing tries the neighbouring float instead; a step
    that leaves the bracket tries the end of the interval it points to, if
    that end is still untried, and otherwise bisects the bracket.  A
    crossing outside the interval gives its nearer end.  The result is the
    smaller of ``first(a)`` and ``second(b)``, the objective at the best
    split tried, so it never exceeds the objective at ``eps = 1``.
    """
    excess = _coth_ratio(w) - 1.0
    lo = _EPS_LO
    # An end that is still untried counts as unbounded in the bounds above.
    a, fa, sa = lo, math.inf, -math.inf
    b, fb, sb = hi, -math.inf, math.inf
    c = min(1.0, hi)
    for _ in range(_ROOT_ITERS):
        first, second = _t_hat_branches(c, w, excess)
        if first == second:
            return first
        if first > second:
            a, fa, sa = c, first, second
            if c == hi:
                break
        else:
            b, fb, sb = c, first, second
            if c == lo:
                break
        upper = min(fa, sb)
        if upper - max(fb, sa) <= _ROOT_RTOL * upper:
            break
        slope = _t_hat_log_slope(c, w, excess, first)
        nxt = c - math.log(first / second) / slope if slope < 0.0 else math.nan
        if nxt == c:
            nxt = math.nextafter(c, b if c == a else a)
        if not a < nxt < b:
            if nxt <= a and fa == math.inf:
                nxt = a
            elif nxt >= b and sb == math.inf:
                nxt = b
            else:
                nxt = 0.5 * (a + b)
                if not a < nxt < b:
                    break
        c = nxt
    return min(fa, sb)


def t_kappa_hat(kappa: float, r: float) -> float:
    """Sharpened distortion factor, minimized over the free split ``eps > 0``.

    ``min_eps max(1 + (1 + 1/eps)**2 (coth term - 1), (sinh((1+eps) w) /
    ((1+eps) w))**2)`` with ``w = sqrt(kappa) r``.  The first branch
    decreases and the second increases in ``eps``, so the minimum sits at
    their crossing, found by safeguarded Newton steps from ``eps = 1`` on
    ``[1e-3, min(10, 350/w - 1)]`` (past ``350/w - 1`` the objective counts
    the sinh term as overflowing); a crossing outside that interval gives
    its nearer end.  The result is the objective at the best split tried.
    ``eps = 1`` is tried whenever it lies in the interval, and gives
    ``t_kappa``, so the result never exceeds it.
    """
    _check_args(kappa, r)
    w = math.sqrt(kappa) * r
    if w == 0.0:
        return 1.0
    if math.isinf(r):
        return math.inf
    hi = min(_EPS_HI, 350.0 / w - 1.0)
    if not _EPS_LO <= hi:
        # Every split overflows, eps = 1 included.
        return math.inf
    return _crossing_min(w, hi)


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

    Combines the lower-bound factor of :func:`valid_rate_hadamard` with the
    projection penalty of positive curvature:
    ``t_kappa(d(x, z)) * (1 + 2 d(y, z)**2)``.
    """
    if math.isnan(d_yz) or d_yz < 0.0:
        raise DomainError(f"distance must be >= 0, got {d_yz}")
    return valid_rate_hadamard(kappa, d_xz) * (1.0 + 2.0 * d_yz * d_yz)
