"""Point and tangent containers plus the manifold interface."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError

__all__ = ["ManifoldPoint", "TangentVector", "Manifold"]


def require_base(x: ManifoldPoint, v: "TangentVector") -> None:
    """Raise DomainError unless ``v`` is anchored at ``x``."""
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise DomainError("tangent vector is anchored at a different point")


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[t], b[t])`` for every row t of two ``(k, d)`` stacks.

    A stack of ``(1, d) @ (d, 1)`` products reaches the same BLAS dot
    product as ``np.dot``, so each entry rounds as the single-pair call does;
    ``einsum`` and a matrix-vector product sum in other orders.
    """
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """Read-only coordinate holder for a point on a manifold.

    A trusted container: construction only marks ``coords`` read-only, so
    the caller hands over a float array it no longer writes to.  Validation
    (copy, shape, finiteness, membership) happens in :meth:`Manifold.point`;
    values computed inside the library are checked where non-finite values
    can arise, not on every construction.  Because ``coords`` never changes,
    a manifold may cache data derived from it on the instance (SPD keeps the
    matrix square root there).
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        self.coords.setflags(write=False)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Read-only tangent vector anchored at a base point.

    A trusted container like :class:`ManifoldPoint`; validation happens in
    :meth:`Manifold.tangent`, and a problem's gradients are checked in
    ``Problem.grad``.  Supports sums and scalar multiples; operands must
    share the same base point.
    """

    base: ManifoldPoint
    coords: np.ndarray

    def __post_init__(self) -> None:
        self.coords.setflags(write=False)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        require_base(self.base, other)
        return TangentVector(self.base, self.coords + other.coords)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        require_base(self.base, other)
        return TangentVector(self.base, self.coords - other.coords)

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, float(scalar) * self.coords)

    __rmul__ = __mul__


# The bases of a stacked kernel: one point shared by every row, or one per row.
Bases = ManifoldPoint | Sequence[ManifoldPoint]


class Manifold(abc.ABC):
    """Riemannian manifold with closed-form exponential and logarithm maps.

    Concrete manifolds advertise the curvature data consumed by the
    distortion module: ``curv_lower_mag`` is ``kappa >= 0`` such that the
    sectional curvature is ``>= -kappa``, ``curv_upper`` is an upper bound
    (positive only on the sphere), and ``is_hadamard`` states whether
    geodesics are globally unique.
    """

    name: str = "manifold"
    dim: int = 0
    curv_lower_mag: float = 0.0
    curv_upper: float = 0.0
    is_hadamard: bool = True

    # ----- membership ------------------------------------------------

    @staticmethod
    def _check_coords(coords: np.ndarray, shape: tuple[int, ...]) -> None:
        """Shape and finiteness prologue shared by every membership check."""
        if coords.shape != shape:
            raise DomainError(f"expected shape {shape}, got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise DomainError("coordinates must be finite")

    @abc.abstractmethod
    def check_point(self, coords: np.ndarray) -> None:
        """Raise DomainError if the coordinates do not describe a point."""

    @abc.abstractmethod
    def check_tangent(self, x: ManifoldPoint, coords: np.ndarray) -> None:
        """Raise DomainError if the coordinates are not tangent at ``x``."""

    def point(self, coords: Iterable[float]) -> ManifoldPoint:
        """Validated point: copies ``coords`` and runs :meth:`check_point`."""
        arr = np.array(coords, dtype=float)
        self.check_point(arr)
        return ManifoldPoint(arr)

    def tangent(self, x: ManifoldPoint, coords: Iterable[float]) -> TangentVector:
        """Validated tangent at ``x``: copies ``coords`` and runs
        :meth:`check_tangent`."""
        arr = np.array(coords, dtype=float)
        self.check_tangent(x, arr)
        return TangentVector(x, arr)

    # ----- metric: typed methods check anchoring, then call the kernels ----

    def exp(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        """Geodesic endpoint ``exp_x(v)``; ``v`` must be anchored at ``x``."""
        require_base(x, v)
        return self._exp(x, v.coords)

    def inner(self, x: ManifoldPoint, u: TangentVector, v: TangentVector) -> float:
        """Riemannian inner product of two tangents anchored at ``x``."""
        require_base(x, u)
        require_base(x, v)
        return self._inner(x, u.coords, v.coords)

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        """Initial velocity of the geodesic from ``x`` to ``y``."""
        return TangentVector(x, self._log(x, y))

    @abc.abstractmethod
    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        """``exp_x(v)`` for the coordinates ``v`` of a tangent at ``x``.

        Returns a point with finite coordinates or raises
        :class:`~ragd.errors.NonFiniteError` (or another library error); the
        solvers rely on this and do not re-check the points they step to.
        """

    @abc.abstractmethod
    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        """Coordinates of ``log(x, y)``, a tangent at ``x``."""

    @abc.abstractmethod
    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        """Geodesic distance; equals ``norm(x, log(x, y))``."""

    @abc.abstractmethod
    def _inner(self, x: ManifoldPoint, u: np.ndarray, v: np.ndarray) -> float:
        """Inner product at ``x`` of the coordinates of two tangents at ``x``."""

    def _log_dist(self, x: ManifoldPoint, y: ManifoldPoint) -> tuple[np.ndarray, float]:
        """``(_log(x, y), distance(x, y))``, from one evaluation where they share work."""
        return self._log(x, y), self.distance(x, y)

    def norm(self, x: ManifoldPoint, v: TangentVector) -> float:
        return float(np.sqrt(max(self.inner(x, v, v), 0.0)))

    def projected_distance(
        self, x: ManifoldPoint, y: ManifoldPoint, z: ManifoldPoint
    ) -> float:
        """Distance between ``y`` and ``z`` seen from the tangent space at ``x``.

        ``|| log_x(y) - log_x(z) ||_x``; coincides with ``distance(y, z)``
        in the flat case and is the quantity the potential function tracks.
        """
        return self.norm(x, TangentVector(x, self._log(x, y) - self._log(x, z)))

    # ----- stacked kernels ----------------------------------------------
    # Row t pairs the base x_t with row t of a stack of shape
    # ``(k, *point_shape)``; ``xs`` is one point shared by every row or a
    # sequence of k points, or what ``_prepare_bases`` built from either.
    # The defaults loop over the single-pair methods and are the reference:
    # overrides equal them bit for bit, except on the hyperbolic shared base
    # (see there).

    @staticmethod
    def _base_coords(xs: Bases | np.ndarray) -> np.ndarray:
        """Coordinates of a shared base, or one row per base (``np.array`` of
        the list, which copies the same values as ``np.stack`` in about half
        the time); coordinates already stacked pass through."""
        if isinstance(xs, np.ndarray):
            return xs
        return xs.coords if isinstance(xs, ManifoldPoint) else np.array([x.coords for x in xs])

    def _prepare_bases(self, xs: Bases) -> object:
        """The bases in the form the stacked kernels derive from them, which
        they also accept in place of ``xs``: a caller that passes the same
        bases to several kernels builds it once.  The default keeps the
        points; manifolds whose kernels stack the bases' data override it."""
        return xs

    @staticmethod
    def _pairs(xs: Bases, rows: np.ndarray) -> Iterable[tuple[ManifoldPoint, np.ndarray]]:
        """``(x_t, rows[t])`` for every row t."""
        return zip([xs] * len(rows) if isinstance(xs, ManifoldPoint) else xs, rows)

    def _dist_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        """``distance(x_t, y_t)`` for every row t of the point stack ``ys``."""
        return np.array([self.distance(x, ManifoldPoint(y)) for x, y in self._pairs(xs, ys)])

    def _log_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        """Coordinates of ``log(x_t, y_t)``, stacked like ``ys``."""
        return np.stack([self._log(x, ManifoldPoint(y)) for x, y in self._pairs(xs, ys)])

    def _norm_many(self, xs: Bases, vs: np.ndarray) -> np.ndarray:
        """``norm`` at ``x_t`` of row t of the tangent stack ``vs``."""
        return np.array([self.norm(x, TangentVector(x, v)) for x, v in self._pairs(xs, vs)])

    def _projected_distances(
        self, xs: Bases, zs: Sequence[ManifoldPoint], p: ManifoldPoint
    ) -> np.ndarray:
        """``projected_distance(x_t, z_t, p)`` for every row t, that is
        ``|| log_{x_t}(z_t) - log_{x_t}(p) ||``."""
        bases = self._prepare_bases(xs)
        z = self._base_coords(zs)
        diff = self._log_many(bases, z) - self._log_many(bases, np.broadcast_to(p.coords, z.shape))
        return self._norm_many(bases, diff)

    # ----- sampling ---------------------------------------------------

    @abc.abstractmethod
    def base_point(self) -> ManifoldPoint:
        """A canonical point used as the default center for sampling."""

    def _project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Tangent coordinates at the point ``x`` (coordinates) nearest to the
        ambient coordinates ``v``; the identity unless overridden."""
        return v

    def random_tangent(
        self, rng: np.random.Generator, x: ManifoldPoint, scale: float = 1.0
    ) -> TangentVector:
        """Projected Gaussian tangent vector, rescaled so its norm is uniform
        on ``(0, scale]``."""
        g = self._project_tangent(x.coords, rng.normal(size=x.coords.shape))
        nrm = math.sqrt(max(self._inner(x, g, g), 0.0))
        if nrm < 1e-12:
            g = self._project_tangent(x.coords, np.ones(x.coords.shape))
            nrm = math.sqrt(max(self._inner(x, g, g), 0.0))
        return TangentVector(x, (scale * rng.uniform() / nrm) * g)

    def random_point(
        self,
        rng: np.random.Generator,
        center: ManifoldPoint | None = None,
        radius: float = 1.0,
    ) -> ManifoldPoint:
        """Point at uniform random distance in ``(0, radius]`` from ``center``."""
        if center is None:
            center = self.base_point()
        return self.exp(center, self.random_tangent(rng, center, radius))
