"""Flat space; exponential and logarithm reduce to vector arithmetic."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DomainError, NonFiniteError
from .base import Manifold, ManifoldPoint, TangentVector, require_base, row_dots

__all__ = ["Euclidean"]


class Euclidean(Manifold):
    """R^dim with the standard inner product."""

    name = "euclidean"
    curv_lower_mag = 0.0
    curv_upper = 0.0
    is_hadamard = True

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)

    def __repr__(self) -> str:
        return f"Euclidean(dim={self.dim})"

    def check_point(self, coords: np.ndarray) -> None:
        self._check_coords(coords, (self.dim,))

    def check_tangent(self, x: ManifoldPoint, coords: np.ndarray) -> None:
        self._check_coords(coords, x.coords.shape)

    def exp(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        require_base(x, v)
        coords = x.coords + v.coords
        if not np.isfinite(coords).all():
            raise NonFiniteError("exponential map left the finite range")
        return ManifoldPoint(coords)

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        return TangentVector(x, y.coords - x.coords)

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        return float(np.linalg.norm(y.coords - x.coords))

    def _log_dist(
        self, x: ManifoldPoint, y: ManifoldPoint
    ) -> tuple[TangentVector, float]:
        diff = y.coords - x.coords
        return TangentVector(x, diff), float(np.linalg.norm(diff))

    def inner(self, x: ManifoldPoint, u: TangentVector, v: TangentVector) -> float:
        require_base(x, u)
        require_base(x, v)
        return float(np.dot(u.coords, v.coords))

    # ----- stacked kernels ------------------------------------------------
    # Row norms are square roots of row dot products, as in np.linalg.norm
    # and norm(inner(v, v)), so each row equals the single-pair method.

    def _dist_many(self, x: ManifoldPoint, anchors: np.ndarray) -> np.ndarray:
        diff = anchors - x.coords
        return np.sqrt(row_dots(diff, diff))

    def _projected_distances(
        self,
        xs: Sequence[ManifoldPoint],
        zs: Sequence[ManifoldPoint],
        p: ManifoldPoint,
    ) -> np.ndarray:
        x = np.stack([pt.coords for pt in xs])
        z = np.stack([pt.coords for pt in zs])
        diff = (z - x) - (p.coords - x)
        return np.sqrt(row_dots(diff, diff))

    def base_point(self) -> ManifoldPoint:
        return ManifoldPoint(np.zeros(self.dim))

    def random_tangent(
        self, rng: np.random.Generator, x: ManifoldPoint, scale: float = 1.0
    ) -> TangentVector:
        g = rng.normal(size=self.dim)
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            g = np.ones(self.dim)
            nrm = np.linalg.norm(g)
        return TangentVector(x, (scale * rng.uniform() / nrm) * g)
