"""Symmetric positive definite matrices with the affine-invariant metric.

A Hadamard manifold; its sectional curvature lies in ``[-1/2, 0]`` after
the usual normalization, so the distortion bounds apply with
``kappa = 1/2`` (overridable).  All matrix functions go through symmetric
eigendecompositions.

Every map at a point ``x`` starts from the square root of ``x`` and its
inverse (Pennec, Fillard & Ayache, "A Riemannian framework for tensor
computing", IJCV 2006).  Points are immutable, so that pair is computed
once, on the first call that needs it, and kept on the point itself.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConvergenceError, DomainError, NonFiniteError
from .base import Manifold, ManifoldPoint, TangentVector, require_base, row_dots

__all__ = ["SPD"]

_SYM_TOL = 1e-12
_EIG_FLOOR = 1e-12


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


class SPD(Manifold):
    """n x n symmetric positive definite matrices."""

    name = "spd"
    curv_upper = 0.0
    is_hadamard = True

    def __init__(self, n: int, kappa: float = 0.5) -> None:
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if not kappa >= 0.0 or not math.isfinite(kappa):
            raise DomainError(f"kappa must be >= 0, got {kappa}")
        self.n = int(n)
        self.dim = n * (n + 1) // 2
        self.kappa = float(kappa)
        self.curv_lower_mag = float(kappa)

    def __repr__(self) -> str:
        return f"SPD(n={self.n}, kappa={self.kappa})"

    # ----- linear algebra helpers ----------------------------------------

    @staticmethod
    def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        try:
            return np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc

    def _sqrt_pair(self, x: ManifoldPoint) -> tuple[np.ndarray, np.ndarray]:
        """Matrix square root of ``x`` and its inverse, cached on ``x``.

        The pair goes into the point's own instance dict, read-only, after
        the first successful factorization; a failed ``eigh`` or a non-PD
        input caches nothing and raises again on the next call.
        """
        pair = x.__dict__.get("_spd_sqrt_pair")
        if pair is not None:
            return pair
        w, q = self._eigh(x.coords)
        if w[0] <= 0.0:
            raise ConvergenceError("matrix square root of a non-PD input")
        root = np.sqrt(w)
        pair = (q * root) @ q.T, (q / root) @ q.T
        for a in pair:
            a.setflags(write=False)
        object.__setattr__(x, "_spd_sqrt_pair", pair)
        return pair

    # ----- membership ------------------------------------------------------

    def _check_sym(self, coords: np.ndarray) -> None:
        self._check_coords(coords, (self.n, self.n))
        scale = 1.0 + float(np.max(np.abs(coords)))
        if float(np.max(np.abs(coords - coords.T))) > _SYM_TOL * scale:
            raise DomainError("matrix is not symmetric within tolerance")

    def check_point(self, coords: np.ndarray) -> None:
        self._check_sym(coords)
        w = np.linalg.eigvalsh(_sym(coords))
        if w[0] <= _EIG_FLOOR * max(1.0, w[-1]):
            raise DomainError(
                f"matrix is not positive definite beyond tolerance: "
                f"min eigenvalue {w[0]:.3e}"
            )

    def check_tangent(self, x: ManifoldPoint, coords: np.ndarray) -> None:
        self._check_sym(coords)

    # ----- metric -----------------------------------------------------------

    def inner(self, x: ManifoldPoint, u: TangentVector, v: TangentVector) -> float:
        require_base(x, u)
        require_base(x, v)
        _, isqrt = self._sqrt_pair(x)
        a = isqrt @ u.coords @ isqrt
        b = isqrt @ v.coords @ isqrt
        return float(np.sum(a * b))

    def exp(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        require_base(x, v)
        root, isqrt = self._sqrt_pair(x)
        s = _sym(isqrt @ v.coords @ isqrt)
        w, q = self._eigh(s)
        if w[-1] > 700.0:
            raise DomainError(
                f"geodesic argument {w[-1]:.1f} exceeds the double-precision range"
            )
        e = (q * np.exp(w)) @ q.T
        coords = _sym(root @ e @ root)
        if not np.isfinite(coords).all():
            raise NonFiniteError("exponential map left the finite range")
        return ManifoldPoint(coords)

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        return self._log_dist(x, y)[0]

    def _log_dist(
        self, x: ManifoldPoint, y: ManifoldPoint
    ) -> tuple[TangentVector, float]:
        # The eigenvalues that give the logarithm give the distance too.
        root, isqrt = self._sqrt_pair(x)
        s = _sym(isqrt @ y.coords @ isqrt)
        w, q = self._eigh(s)
        if w[0] <= 0.0:
            raise ConvergenceError("logarithm of a non-PD midpoint matrix")
        logs = np.log(w)
        lg = (q * logs) @ q.T
        return TangentVector(x, _sym(root @ lg @ root)), math.sqrt(logs.dot(logs))

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        _, isqrt = self._sqrt_pair(x)
        s = _sym(isqrt @ y.coords @ isqrt)
        w = np.linalg.eigvalsh(s)
        if w[0] <= 0.0:
            raise ConvergenceError("distance to a non-PD midpoint matrix")
        return float(np.linalg.norm(np.log(w)))

    # ----- stacked kernels ------------------------------------------------------
    # One square root of x serves every anchor; the row-paired kernel stacks
    # the cached square roots of its base points.  The batched products,
    # eigendecompositions and row norms round as the single-pair methods
    # do, so each row equals the corresponding distance or log bit for bit.

    def _dist_many(self, x: ManifoldPoint, anchors: np.ndarray) -> np.ndarray:
        _, isqrt = self._sqrt_pair(x)
        w = np.linalg.eigvalsh(_sym(isqrt @ anchors @ isqrt))
        if np.any(w[:, 0] <= 0.0):
            raise ConvergenceError("distance to a non-PD midpoint matrix")
        logs = np.log(w)
        return np.sqrt(row_dots(logs, logs))

    def _logs(self, root: np.ndarray, isqrt: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Stacked logarithms from the square-root pair(s) of the base
        point(s): one base with many ``y``, or one base per row."""
        w, q = self._eigh(_sym(isqrt @ y @ isqrt))
        if np.any(w[:, 0] <= 0.0):
            raise ConvergenceError("logarithm of a non-PD midpoint matrix")
        lg = (q * np.log(w)[:, None, :]) @ q.swapaxes(-1, -2)
        return _sym(root @ lg @ root)

    def _log_many(self, x: ManifoldPoint, anchors: np.ndarray) -> np.ndarray:
        return self._logs(*self._sqrt_pair(x), anchors)

    def _projected_distances(
        self,
        xs: Sequence[ManifoldPoint],
        zs: Sequence[ManifoldPoint],
        p: ManifoldPoint,
    ) -> np.ndarray:
        pairs = [self._sqrt_pair(x) for x in xs]
        root = np.stack([r for r, _ in pairs])
        isqrt = np.stack([i for _, i in pairs])
        z = np.stack([pt.coords for pt in zs])
        diff = self._logs(root, isqrt, z) - self._logs(root, isqrt, p.coords)
        # inner(x, diff, diff): the sum of squares of x^{-1/2} diff x^{-1/2}.
        a = isqrt @ diff @ isqrt
        sq = (a * a).reshape(len(a), -1).sum(axis=1)
        return np.sqrt(np.maximum(sq, 0.0))

    # ----- sampling -----------------------------------------------------------

    def base_point(self) -> ManifoldPoint:
        return ManifoldPoint(np.eye(self.n))

    def random_tangent(
        self, rng: np.random.Generator, x: ManifoldPoint, scale: float = 1.0
    ) -> TangentVector:
        g = _sym(rng.normal(size=(self.n, self.n)))
        nrm = math.sqrt(max(self.inner(x, TangentVector(x, g), TangentVector(x, g)), 0.0))
        if nrm < 1e-12:
            g = np.eye(self.n)
            nrm = math.sqrt(self.inner(x, TangentVector(x, g), TangentVector(x, g)))
        return TangentVector(x, (scale * rng.uniform() / nrm) * g)
