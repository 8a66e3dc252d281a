"""Round sphere of curvature ``sigma > 0`` (radius ``1/sqrt(sigma)``).

Uniquely geodesic only up to the antipode; the logarithm raises
InjectivityError / AntipodalError at the boundary of its domain.  Small
distances go through the chordal direction, as on the hyperboloid.  The
stacked kernels are ``Manifold``'s defaults, which loop over the
single-pair methods here.
"""

from __future__ import annotations

import math

import numpy as np

from .._scalars import acos_ratio, sin_ratio
from ..errors import AntipodalError, DomainError, InjectivityError, NonFiniteError
from .base import Manifold, ManifoldPoint

__all__ = ["Sphere"]

_POINT_TOL = 1e-9
_TANGENT_TOL = 1e-8
_ANTIPODAL_TOL = 1e-12


class Sphere(Manifold):
    """dim-dimensional sphere embedded in R^{dim+1}."""

    name = "sphere"
    is_hadamard = False

    def __init__(self, dim: int, sigma: float = 1.0) -> None:
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        if not sigma > 0.0 or not math.isfinite(sigma):
            raise DomainError(f"sigma must be positive, got {sigma}")
        self.dim = int(dim)
        self.sigma = float(sigma)

    def __repr__(self) -> str:
        return f"Sphere(dim={self.dim}, sigma={self.sigma})"

    # ----- membership --------------------------------------------------

    def check_point(self, coords: np.ndarray) -> None:
        self._check_coords(coords, (self.dim + 1,))
        resid = self.sigma * float(np.dot(coords, coords)) - 1.0
        if abs(resid) > _POINT_TOL:
            raise DomainError(
                f"point is off the sphere: constraint residual {resid:.3e}"
            )

    def check_tangent(self, x: ManifoldPoint, coords: np.ndarray) -> None:
        self._check_coords(coords, x.coords.shape)
        resid = float(np.dot(x.coords, coords))
        tol = _TANGENT_TOL * (
            1.0 + float(np.linalg.norm(x.coords)) * float(np.linalg.norm(coords))
        )
        if abs(resid) > tol:
            raise DomainError(f"vector is not tangent: <x, v> = {resid:.3e}")

    def _project_point(self, coords: np.ndarray) -> ManifoldPoint:
        nrm = float(np.linalg.norm(coords))
        if not nrm > 0.0 or not math.isfinite(nrm):
            raise NonFiniteError("projection target degenerated")
        return ManifoldPoint(coords / (math.sqrt(self.sigma) * nrm))

    _project_mean = _project_point

    def _project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v - (self.sigma * float(np.dot(x, v))) * x

    # ----- metric -------------------------------------------------------

    def _inner(self, x: ManifoldPoint, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        r = float(np.linalg.norm(v))
        root_sigma = math.sqrt(self.sigma)
        if r >= math.pi / root_sigma:
            raise InjectivityError(
                f"tangent norm {r:.6g} reaches past the injectivity radius "
                f"{math.pi / root_sigma:.6g}"
            )
        w = root_sigma * r
        y = math.cos(w) * x.coords + sin_ratio(w) * v
        return self._project_point(y)

    def _cos_angle(self, x: np.ndarray, y: np.ndarray) -> float:
        return min(1.0, max(-1.0, self.sigma * float(np.dot(x, y))))

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        c = self._cos_angle(x.coords, y.coords)
        if 1.0 + c <= _ANTIPODAL_TOL:
            raise AntipodalError("logarithm is undefined between antipodal points")
        u = (y.coords - x.coords) + (1.0 - c) * x.coords
        v = acos_ratio(1.0 - c) * u
        return self._project_tangent(x.coords, v)

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        c = self._cos_angle(x.coords, y.coords)
        if 1.0 + c <= _ANTIPODAL_TOL:
            return math.pi / math.sqrt(self.sigma)
        u = (y.coords - x.coords) + (1.0 - c) * x.coords
        return acos_ratio(1.0 - c) * float(np.linalg.norm(u))

    # ----- sampling -------------------------------------------------------

    def base_point(self) -> ManifoldPoint:
        coords = np.zeros(self.dim + 1)
        coords[-1] = 1.0 / math.sqrt(self.sigma)
        return ManifoldPoint(coords)
