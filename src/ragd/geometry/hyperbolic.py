"""Hyperboloid model of hyperbolic space with curvature ``-kappa``.

Points live on the upper sheet of ``<x, x>_L = -1/kappa`` inside Minkowski
space ``R^{dim, 1}``; the last coordinate is the timelike one.  Logarithms
and distances are computed through the chordal direction

    u = (y - x) - (c - 1) x,      c = -kappa <x, y>_L,

which keeps small distances accurate to a few ulps instead of the
``sqrt(eps)`` floor of the plain ``arccosh`` formula.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .._scalars import acosh_ratio, sinch
from ..errors import DomainError, NonFiniteError
from .base import Bases, Manifold, ManifoldPoint, row_dots

__all__ = ["Hyperbolic"]

_POINT_TOL = 1e-9
_TANGENT_TOL = 1e-8

# cosh overflows near 710 and membership checks square coordinates, so
# geodesic arguments are capped at half that.
_MAX_ARG = 352.0

# Above this magnitude of kappa * |x| * |y| the Minkowski form of a
# near-unit result is dominated by cancellation noise, so renormalizing
# by it would inject more error than the drift it removes.
_RENORM_SCALE = 1e6

# Far field: exp returns no point with sqrt(kappa) x[-1] > _MAX_TIME (~92.8 /
# sqrt(kappa) from the base point); the chord kernels need (1 + c) x[-1]
# <= _MAX_CHORD_SCALE, c = -kappa <x, p>_L, so no square they form overflows.
_MAX_TIME = 1e40
_MAX_CHORD_SCALE = 1e140

_EPS = float(np.finfo(float).eps)


def _check_chord_scale(cm1: float, x_time: float) -> None:
    """Raise unless ``(1 + cm1) * x_time <= _MAX_CHORD_SCALE``, for the largest
    ``c - 1`` of a call and the timelike coordinate of its base point."""
    if not (1.0 + cm1) * x_time <= _MAX_CHORD_SCALE:
        raise DomainError("points too far apart for the double-precision range")


class Hyperbolic(Manifold):
    """dim-dimensional hyperbolic space embedded in R^{dim+1}."""

    name = "hyperbolic"
    is_hadamard = True

    def __init__(self, dim: int, kappa: float = 1.0) -> None:
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        if not kappa > 0.0 or not math.isfinite(kappa):
            raise DomainError(f"kappa must be positive, got {kappa}")
        self.dim = int(dim)
        self.kappa = float(kappa)

    def __repr__(self) -> str:
        return f"Hyperbolic(dim={self.dim}, kappa={self.kappa})"

    # ----- Minkowski helpers ------------------------------------------

    @staticmethod
    def _mdot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a[:-1], b[:-1]) - a[-1] * b[-1])

    def _scale_sq(self, a: np.ndarray, b: np.ndarray) -> float:
        """Magnitude scale of the cancellation inside ``_mdot(a, b)``."""
        return float(np.dot(np.abs(a), np.abs(b)))

    # ----- membership --------------------------------------------------

    def check_point(self, coords: np.ndarray) -> None:
        self._check_coords(coords, (self.dim + 1,))
        resid = self.kappa * self._mdot(coords, coords) + 1.0
        tol = _POINT_TOL * (1.0 + self.kappa * self._scale_sq(coords, coords))
        if abs(resid) > tol:
            raise DomainError(
                f"point is off the hyperboloid: constraint residual {resid:.3e}"
            )
        if coords[-1] <= 0.0:
            raise DomainError("point lies on the lower sheet")

    def check_tangent(self, x: ManifoldPoint, coords: np.ndarray) -> None:
        self._check_coords(coords, x.coords.shape)
        resid = self._mdot(x.coords, coords)
        tol = _TANGENT_TOL * (1.0 + self._scale_sq(x.coords, coords))
        if abs(resid) > tol:
            raise DomainError(
                f"vector is not tangent: <x, v>_L = {resid:.3e}"
            )

    def _project_point(self, coords: np.ndarray) -> ManifoldPoint:
        # One pass over the coordinates: the spatial square and the timelike
        # coordinate give the Minkowski square (bit-equal to _mdot), the
        # renormalization scale and, through that scale, finiteness.  The
        # far field is ruled out first, so the squares do not overflow.
        t = float(coords[-1])
        if not abs(t) * math.sqrt(self.kappa) <= _MAX_TIME:
            if not np.all(np.isfinite(coords)):
                raise NonFiniteError("projection target has non-finite coordinates")
            raise DomainError("exp left the double-precision range of the hyperboloid")
        sp = float(np.dot(coords[:-1], coords[:-1]))
        scale = sp + t * t
        if not math.isfinite(scale) and not np.all(np.isfinite(coords)):
            raise NonFiniteError("projection target has non-finite coordinates")
        if self.kappa * scale > _RENORM_SCALE:
            return ManifoldPoint(coords)
        return self._normalize_point(coords, sp - t * t)

    def _normalize_point(self, coords: np.ndarray, mdot: float) -> ManifoldPoint:
        """Scale a timelike vector of Minkowski square ``mdot`` onto the
        hyperboloid, at any magnitude."""
        s = -self.kappa * mdot
        if not s > 0.0:
            raise NonFiniteError("projection target left the timelike cone")
        return ManifoldPoint(coords / math.sqrt(s))

    def _project_mean(self, mean: np.ndarray) -> ManifoldPoint:
        # The mean of upper-sheet points is strictly timelike, so it is
        # normalized at any magnitude.  ``_project_point`` leaves large
        # vectors as they are, which suits only exp's near-unit results.
        return self._normalize_point(mean, self._mdot(mean, mean))

    def _project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v + (self.kappa * self._mdot(x, v)) * x

    # ----- metric -------------------------------------------------------

    def _inner(self, x: ManifoldPoint, u: np.ndarray, v: np.ndarray) -> float:
        return self._mdot(u, v)

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        w = math.sqrt(self.kappa) * math.sqrt(max(self._mdot(v, v), 0.0))
        if w > _MAX_ARG:
            raise DomainError(
                f"geodesic argument {w:.1f} exceeds the double-precision range"
            )
        y = math.cosh(w) * x.coords + sinch(w) * v
        return self._project_point(y)

    def _chord_scalars(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """``c - 1`` for the pair (x, y), clamped at 0 and checked against the
        double-precision range, and its ``acosh_ratio(c - 1)``."""
        cm1 = max(-self.kappa * self._mdot(x, y) - 1.0, 0.0)
        _check_chord_scale(cm1, float(x[-1]))
        return cm1, acosh_ratio(cm1)

    def _chord(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Chordal direction u for the pair (x, y) and the
        ``acosh_ratio(c - 1)`` that scales it to the logarithm."""
        cm1, ratio = self._chord_scalars(x, y)
        return (y - x) - cm1 * x, ratio

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        u, ratio = self._chord(x.coords, y.coords)
        return self._project_tangent(x.coords, ratio * u)

    def _geodesic(self, y: ManifoldPoint, z: ManifoldPoint, t: float) -> ManifoldPoint:
        # The two-point formula (sinh((1 - t) theta) y + sinh(t theta) z) / sinh(theta),
        # theta = sqrt(kappa) d(y, z), with theta / sinh(theta) = acosh_ratio(c - 1):
        # one Minkowski product where exp(y, t * log(y, z)) takes four, and it
        # stays accurate far out, where the composition loses its chord to
        # cancellation.  sinch is even, so any t works.
        cm1, ratio = self._chord_scalars(y.coords, z.coords)
        theta = ratio * math.sqrt(cm1 * (cm1 + 2.0))
        w = max(abs(t), abs(1.0 - t)) * theta
        if w > _MAX_ARG:
            raise DomainError(
                f"geodesic argument {w:.1f} exceeds the double-precision range"
            )
        a = (1.0 - t) * sinch(abs((1.0 - t) * theta)) * ratio
        b = t * sinch(abs(t * theta)) * ratio
        return self._project_point(a * y.coords + b * z.coords)

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        u, ratio = self._chord(x.coords, y.coords)
        return ratio * math.sqrt(max(self._mdot(u, u), 0.0))

    # ----- stacked kernels --------------------------------------------------
    # The shape of the base picks the Minkowski product.  A shared base takes
    # one matrix-vector product, the fast path of the Karcher gradient
    # (``_log_sum``, and so of the oracle), its one caller in a run; its rows
    # may differ from the single-pair method in the last bits, and with the
    # stack height.  One base per row takes ``row_dots``, so every row equals
    # the single-pair method bit for bit.

    def _prepare_bases(self, xs: Bases) -> np.ndarray:
        return self._base_coords(xs)

    @staticmethod
    def _mdot_many(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``_mdot(x_t, y_t)`` for every row t of the stack ``y``; ``x`` is one
        vector shared by every row or a stack like ``y``."""
        if x.ndim == 1:
            flipped = x.copy()
            flipped[-1] = -flipped[-1]
            return y @ flipped
        return row_dots(x[:, :-1], y[:, :-1]) - x[:, -1] * y[:, -1]

    def _chord_many(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_chord` for every row: the rows ``u_t`` and the
        ``acosh_ratio(c_t - 1)`` that scale them to logarithms."""
        cm1 = np.maximum(-self.kappa * self._mdot_many(x, y) - 1.0, 0.0)
        cms = cm1.tolist()
        x_time = float(x[-1]) if x.ndim == 1 else max(x[:, -1].tolist())
        _check_chord_scale(max(cms), x_time)
        u = (y - x) - cm1[:, None] * x
        return u, np.array([acosh_ratio(c) for c in cms])

    def _dist_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        u, ratio = self._chord_many(self._base_coords(xs), ys)
        return ratio * self._norm_many(xs, u)

    def _dist_table(self, xs: Sequence[ManifoldPoint], targets: np.ndarray) -> np.ndarray:
        # The default's one base per (point, target) row, as repeated
        # coordinate rows: the same row_dots path, so the same bits.
        k = len(targets)
        rows = np.repeat(self._base_coords(xs), k, axis=0)
        return self._dist_many(rows, np.tile(targets, (len(xs), 1))).reshape(len(xs), k)

    def _log_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        x = self._base_coords(xs)
        u, ratio = self._chord_many(x, ys)
        v = ratio[:, None] * u
        # _project_tangent applied to every row.
        return v + (self.kappa * self._mdot_many(x, v))[:, None] * x

    def _log_sum(self, x: ManifoldPoint, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        # Before projection, row i of _log_many is r_i u_i: the chord rows,
        # weighted and summed in one product, then projected once, as
        # projection is linear.
        u, r = self._chord_many(x.coords, ys)
        return self._project_tangent(x.coords, (w * r) @ u)

    def _norm_many(self, xs: Bases, vs: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self._mdot_many(vs, vs), 0.0))

    def _norm_resolved(self, v: np.ndarray, tol: float) -> bool:
        # Far out, a tangent's spacelike and timelike squares nearly cancel.
        # The dim + 1 products and sums of ``_mdot`` round by up to about
        # (dim + 1) * eps / 2 times the sum of their magnitudes; the test
        # allows twice that.  A tangent's Minkowski square
        # |v_s|^2 - v_t^2 is at most its Euclidean one |v|^2, so a tangent
        # with |v| <= tol has a norm of at most tol however <v, v> rounds
        # (a gradient of 1e-32 at the optimum rounds to a negative <v, v>).
        scale_sq = self._scale_sq(v, v)
        return scale_sq <= tol * tol or not self._mdot(v, v) < (self.dim + 1) * _EPS * scale_sq

    # ----- sampling -------------------------------------------------------

    def base_point(self) -> ManifoldPoint:
        coords = np.zeros(self.dim + 1)
        coords[-1] = 1.0 / math.sqrt(self.kappa)
        return ManifoldPoint(coords)
