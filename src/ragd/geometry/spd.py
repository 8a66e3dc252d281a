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
from typing import NamedTuple

import numpy as np

from ..errors import ConvergenceError, DomainError, NonFiniteError
from .base import Bases, Manifold, ManifoldPoint, row_dots

__all__ = ["SPD"]

_SYM_TOL = 1e-12
_EIG_FLOOR = 1e-12


class _Roots(NamedTuple):
    """Square root and inverse square root of the bases of a stacked kernel:
    one matrix each for a shared base, one stack each for one base per row."""

    root: np.ndarray
    isqrt: np.ndarray


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

    def _project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _sym(v)

    # ----- metric -----------------------------------------------------------

    def _inner(self, x: ManifoldPoint, u: np.ndarray, v: np.ndarray) -> float:
        _, isqrt = self._sqrt_pair(x)
        a = isqrt @ u @ isqrt
        b = isqrt @ v @ isqrt
        return float(np.sum(a * b))

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        root, isqrt = self._sqrt_pair(x)
        s = _sym(isqrt @ v @ isqrt)
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

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        return self._log_dist(x, y)[0]

    def _log_dist(self, x: ManifoldPoint, y: ManifoldPoint) -> tuple[np.ndarray, float]:
        # The eigenvalues that give the logarithm give the distance too.
        root, isqrt = self._sqrt_pair(x)
        s = _sym(isqrt @ y.coords @ isqrt)
        w, q = self._eigh(s)
        if w[0] <= 0.0:
            raise ConvergenceError("logarithm of a non-PD midpoint matrix")
        logs = np.log(w)
        lg = (q * logs) @ q.T
        return _sym(root @ lg @ root), math.sqrt(logs.dot(logs))

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        _, isqrt = self._sqrt_pair(x)
        s = _sym(isqrt @ y.coords @ isqrt)
        w = np.linalg.eigvalsh(s)
        if w[0] <= 0.0:
            raise ConvergenceError("distance to a non-PD midpoint matrix")
        return float(np.linalg.norm(np.log(w)))

    # ----- stacked kernels ------------------------------------------------------
    # A shared base serves every row with its one square-root pair; one base
    # per row stacks the cached pairs of the bases.  The batched products,
    # eigendecompositions and row norms round as the single-pair methods
    # do, so each row equals the corresponding method bit for bit.

    def _roots(self, xs: Bases | _Roots) -> _Roots:
        """The square-root pair of a shared base, or the stacked pairs of one
        base per row; a pair built before passes through."""
        if isinstance(xs, _Roots):
            return xs
        if isinstance(xs, ManifoldPoint):
            return _Roots(*self._sqrt_pair(xs))
        roots, isqrts = zip(*(self._sqrt_pair(x) for x in xs))
        return _Roots(np.array(roots), np.array(isqrts))

    _prepare_bases = _roots

    def _dist_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        _, isqrt = self._roots(xs)
        w = np.linalg.eigvalsh(_sym(isqrt @ ys @ isqrt))
        if np.any(w[:, 0] <= 0.0):
            raise ConvergenceError("distance to a non-PD midpoint matrix")
        logs = np.log(w)
        return np.sqrt(row_dots(logs, logs))

    def _log_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        root, isqrt = self._roots(xs)
        w, q = self._eigh(_sym(isqrt @ ys @ isqrt))
        if np.any(w[:, 0] <= 0.0):
            raise ConvergenceError("logarithm of a non-PD midpoint matrix")
        lg = (q * np.log(w)[:, None, :]) @ q.swapaxes(-1, -2)
        return _sym(root @ lg @ root)

    def _norm_many(self, xs: Bases, vs: np.ndarray) -> np.ndarray:
        # inner(x, v, v): the sum of squares of x^{-1/2} v x^{-1/2}.
        _, isqrt = self._roots(xs)
        a = isqrt @ vs @ isqrt
        sq = (a * a).reshape(len(a), -1).sum(axis=1)
        return np.sqrt(np.maximum(sq, 0.0))

    # ----- sampling -----------------------------------------------------------

    def base_point(self) -> ManifoldPoint:
        return ManifoldPoint(np.eye(self.n))
