"""Flat space; exponential and logarithm reduce to vector arithmetic."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, NonFiniteError
from .base import Bases, Manifold, ManifoldPoint, all_finite, row_dots

__all__ = ["Euclidean"]


class Euclidean(Manifold):
    """R^dim with the standard inner product."""

    name = "euclidean"
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

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        coords = x.coords + v
        if not all_finite(coords):
            raise NonFiniteError("exponential map left the finite range")
        return ManifoldPoint(coords)

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        return y.coords - x.coords

    def _geodesic(self, y: ManifoldPoint, z: ManifoldPoint, t: float) -> ManifoldPoint:
        # The default's arithmetic in its order, y + t * (z - y), in one kernel.
        coords = y.coords + t * (z.coords - y.coords)
        if not all_finite(coords):
            raise NonFiniteError("exponential map left the finite range")
        return ManifoldPoint(coords)

    # sqrt(d.dot(d)) is what np.linalg.norm computes for a real vector.
    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        d = y.coords - x.coords
        return math.sqrt(d.dot(d))

    def _inner(self, x: ManifoldPoint, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    # ----- stacked kernels ------------------------------------------------
    # Row norms are square roots of row dot products, as in np.linalg.norm
    # and norm(inner(v, v)), so each row equals the single-pair method.

    def _prepare_bases(self, xs: Bases) -> np.ndarray:
        return self._base_coords(xs)

    def _log_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        return ys - self._base_coords(xs)

    def _norm_many(self, xs: Bases, vs: np.ndarray) -> np.ndarray:
        return np.sqrt(row_dots(vs, vs))

    def _dist_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        return self._norm_many(xs, self._log_many(xs, ys))

    def base_point(self) -> ManifoldPoint:
        return ManifoldPoint(np.zeros(self.dim))
