"""Symmetric positive definite matrices with the affine-invariant metric.

A Hadamard manifold; its sectional curvature lies in ``[-1/2, 0]`` after
the usual normalization, so the distortion bounds apply with
``kappa = 1/2``.  All matrix functions go through symmetric
eigendecompositions, which call LAPACK's gufuncs ``eigh_lo`` and
``eigvalsh_lo`` from ``numpy.linalg._umath_linalg`` directly, the kernels
``np.linalg.eigh``/``eigvalsh`` call with their default ``UPLO='L'``, so the
results are the same bits without the wrapper's per-call checks.  A
decomposition of a non-finite matrix (found by ``all_finite`` before LAPACK
runs), or one that LAPACK reports as failed, raises ``ConvergenceError``.

Every map at a point ``x`` starts from the square root of ``x`` and its
inverse, and is a function of the congruence ``x^{-1/2} y x^{-1/2}``
(Pennec, Fillard & Ayache, "A Riemannian framework for tensor computing",
IJCV 2006).  Points are immutable, so that pair is computed once, on the
first call that needs it, and kept on the point itself.  The congruence is
decomposed as it was formed: LAPACK reads its lower triangle, so averaging
in the upper one would only trade one rounding-level perturbation of the
exact product for another.  Tangents a map returns are symmetrized;
``exp`` and the geodesic form their point as ``B B^T``, which comes out
exactly symmetric.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ..errors import ConvergenceError, DomainError, NonFiniteError
from .base import Bases, Manifold, ManifoldPoint, all_finite, row_dots

__all__ = ["SPD"]

_SYM_TOL = 1e-12
_EIG_FLOOR = 1e-12


class _Roots(NamedTuple):
    """Square root and inverse square root of the bases of a stacked kernel:
    one matrix each for a shared base, one stack each for one base per row."""

    root: np.ndarray
    isqrt: np.ndarray


def _check_finite(a: np.ndarray) -> None:
    """Raise ``ConvergenceError`` unless every entry of a matrix or of a
    stack of matrices is finite.

    LAPACK does not check: a NaN entry can come back as finite eigenvalues,
    and a 1 x 1 infinity as an infinite one.
    """
    if not all_finite(a):
        raise ConvergenceError("eigendecomposition of a non-finite matrix")


def _decompose(a: np.ndarray, vectors: bool):
    """The body of ``SPD._eigh`` (``vectors``) and ``SPD._eigvalsh``.

    On failure the gufunc fills its output with NaN and sets the invalid
    flag.  ``-W error::RuntimeWarning`` or ``np.errstate(invalid="raise")``
    turn the flag into an exception, caught here; under the default
    settings the gufunc warns and only the NaN is left to test.
    """
    _check_finite(a)
    try:
        out = _umath_linalg.eigh_lo(a) if vectors else _umath_linalg.eigvalsh_lo(a)
    except (RuntimeWarning, FloatingPointError) as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    w = out[0] if vectors else out
    if w[0] != w[0] if w.ndim == 1 else np.isnan(w[..., 0]).any():
        raise ConvergenceError("eigendecomposition failed to converge")
    return out


def _congruence(isqrt: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``isqrt @ a @ isqrt`` for one matrix or any stack that broadcasts.

    An infinite entry of ``a`` can meet a zero of ``isqrt`` (0 * inf) or an
    infinity of the other sign and set the invalid flag; where the settings
    raise it, the exception ends in ``ConvergenceError`` here, and otherwise
    the non-finite product reaches a check that raises one.
    """
    try:
        return isqrt @ a @ isqrt
    except (RuntimeWarning, FloatingPointError) as exc:
        raise ConvergenceError(f"congruence of a non-finite matrix: {exc}") from exc


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


class SPD(Manifold):
    """n x n symmetric positive definite matrices."""

    name = "spd"
    # The affine-invariant metric's sectional curvature lies in [-1/2, 0].
    kappa = 0.5
    is_hadamard = True

    def __init__(self, n: int) -> None:
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self.dim = n * (n + 1) // 2

    def __repr__(self) -> str:
        return f"SPD(n={self.n})"

    # ----- linear algebra helpers ----------------------------------------

    @staticmethod
    def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of a symmetric matrix or
        of each matrix in a stack, from its lower triangle."""
        return _decompose(a, True)

    @staticmethod
    def _eigvalsh(a: np.ndarray) -> np.ndarray:
        """Eigenvalues (ascending) of a symmetric matrix or of each matrix in
        a stack, from its lower triangle."""
        return _decompose(a, False)

    def _spectrum(self, isqrt: np.ndarray, ys: np.ndarray, vectors: bool):
        """Eigenvalues, all positive, of ``x^{-1/2} y x^{-1/2}`` (with
        ``vectors``, and its eigenvectors) for the inverse square root
        ``isqrt`` of ``x``: one matrix, one base per row of a stack, or
        bases that broadcast over the stack ``ys``.  The product is
        decomposed as formed, from its lower triangle."""
        s = _congruence(isqrt, ys)
        out = self._eigh(s) if vectors else self._eigvalsh(s)
        w = out[0] if vectors else out
        # A scalar test on one matrix's spectrum costs a twentieth of ``min``.
        if w[0] <= 0.0 if w.ndim == 1 else w[..., 0].min() <= 0.0:
            raise ConvergenceError("x^{-1/2} y x^{-1/2} is not positive definite")
        return out

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
        w = self._eigvalsh(_sym(coords))
        if w[0] <= _EIG_FLOOR * max(1.0, w[-1]):
            raise DomainError(
                f"matrix is not positive definite beyond tolerance: "
                f"min eigenvalue {w[0]:.3e}"
            )

    def check_tangent(self, x: ManifoldPoint, coords: np.ndarray) -> None:
        self._check_sym(coords)

    def _project_mean(self, mean: np.ndarray) -> ManifoldPoint:
        return self.point(_sym(mean))

    def _project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _sym(v)

    # ----- metric -----------------------------------------------------------

    def _inner(self, x: ManifoldPoint, u: np.ndarray, v: np.ndarray) -> float:
        _, isqrt = self._sqrt_pair(x)
        a = _congruence(isqrt, u)
        b = a if u is v else _congruence(isqrt, v)
        out = float(np.sum(a * b))
        if not math.isfinite(out):
            raise ConvergenceError("inner product of a non-finite tangent")
        return out

    @staticmethod
    def _exp_congruence(root: np.ndarray, w: np.ndarray, q: np.ndarray) -> ManifoldPoint:
        """The point ``root @ q diag(exp(w)) q^T @ root``, where ``w`` is
        monotone (the ends hold its extremes), formed as ``B @ B.T`` with
        ``B = root @ q diag(exp(w / 2))``: a product of a matrix with its
        own transpose, which NumPy computes exactly symmetric, so it needs
        no symmetrization.  An exponent beyond 700 in magnitude raises
        DomainError: ``exp`` would overflow, or underflow to a singular
        matrix."""
        end = w[-1] if abs(w[-1]) >= abs(w[0]) else w[0]
        if abs(end) > 700.0:
            raise DomainError(
                f"geodesic argument {end:.1f} exceeds the double-precision range"
            )
        b = (root @ q) * np.exp(0.5 * w)
        coords = b @ b.T
        if not all_finite(coords):
            raise NonFiniteError("exponential map left the finite range")
        return ManifoldPoint(coords)

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        root, isqrt = self._sqrt_pair(x)
        w, q = self._eigh(_congruence(isqrt, v))
        return self._exp_congruence(root, w, q)

    def _geodesic(self, y: ManifoldPoint, z: ManifoldPoint, t: float) -> ManifoldPoint:
        # y^{1/2} (y^{-1/2} z y^{-1/2})^t y^{1/2}, the power as exp(t log w):
        # one eigendecomposition where exp(y, t * log(y, z)) takes two.
        root, isqrt = self._sqrt_pair(y)
        w, q = self._spectrum(isqrt, z.coords, True)
        return self._exp_congruence(root, t * np.log(w), q)

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        return self._log_many(x, y.coords)

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        logs = np.log(self._spectrum(self._sqrt_pair(x)[1], y.coords, False))
        return math.sqrt(logs.dot(logs))

    # ----- stacked kernels ------------------------------------------------------
    # A shared base serves every row with its one square-root pair; one base
    # per row stacks the cached pairs of the bases.  The batched products,
    # eigendecompositions and row norms round as the single-pair methods
    # do, so each row equals the corresponding method bit for bit.  The
    # exception is ``_log_sum``, which sums over the anchors in one product.

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
        logs = np.log(self._spectrum(self._roots(xs).isqrt, ys, False))
        return np.sqrt(row_dots(logs, logs))

    def _dist_table(self, xs: Sequence[ManifoldPoint], targets: np.ndarray) -> np.ndarray:
        # Each base's inverse root once, broadcast over the targets: the
        # (T, 1, n, n) @ (k, n, n) product forms every matrix as the per-row
        # stack does.
        isqrt = np.array([self._sqrt_pair(x)[1] for x in xs])[:, None]
        logs = np.log(self._spectrum(isqrt, targets, False)).reshape(-1, self.n)
        return np.sqrt(row_dots(logs, logs)).reshape(len(xs), len(targets))

    def _log_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        root, isqrt = self._roots(xs)
        w, q = self._spectrum(isqrt, ys, True)
        lg = (q * np.log(w)[..., None, :]) @ q.swapaxes(-1, -2)
        return _sym(root @ lg @ root)

    def _log_sum(self, x: ManifoldPoint, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        # sum_i w_i root q_i diag(log l_i) q_i^T root is root S root, with
        # S = Q diag(w (x) log l) Q^T over the eigenvectors of every anchor
        # side by side in Q (n x kn), formed in one product; it rounds
        # otherwise than the default's per-anchor loop.
        root, isqrt = self._sqrt_pair(x)
        lam, q = self._spectrum(isqrt, ys, True)
        cols = q.swapaxes(0, 1).reshape(self.n, -1)
        s = (cols * (w[:, None] * np.log(lam)).reshape(-1)) @ cols.T
        return _sym(root @ s @ root)

    def _norm_many(self, xs: Bases, vs: np.ndarray) -> np.ndarray:
        # inner(x, v, v): the sum of squares of x^{-1/2} v x^{-1/2}.
        a = _congruence(self._roots(xs).isqrt, vs)
        sq = (a * a).reshape(len(a), -1).sum(axis=1)
        out = np.sqrt(np.maximum(sq, 0.0))
        if not all_finite(out):
            raise ConvergenceError("norm of a non-finite tangent")
        return out

    # ----- sampling -----------------------------------------------------------

    def base_point(self) -> ManifoldPoint:
        return ManifoldPoint(np.eye(self.n))
