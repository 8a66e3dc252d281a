"""Symmetric positive definite matrices with the affine-invariant metric.

A Hadamard manifold; its sectional curvature lies in ``[-1/2, 0]`` after
the usual normalization, so the distortion bounds apply with
``kappa = 1/2``.  Every factorization calls one of LAPACK's gufuncs from
``numpy.linalg._umath_linalg`` directly: ``cholesky_lo`` and ``inv``, the
kernels of ``np.linalg.cholesky`` and ``np.linalg.inv``, and ``eigh_lo``
and ``eigvalsh_lo``, the kernels ``np.linalg.eigh``/``eigvalsh`` call with
their default ``UPLO='L'``; so the results are the same bits without the
wrappers' per-call checks.  A factorization of a non-finite matrix (found
by ``all_finite`` before LAPACK runs), or one that LAPACK reports as
failed, raises ``ConvergenceError``.

Every map at a point ``x`` needs only some factor ``L`` with
``x = L L^T``, not ``x^{1/2}`` itself: it is a function of the congruence
``L^{-1} y L^{-T}``, which has the spectrum of ``x^{-1/2} y x^{-1/2}``
(Pennec, Fillard & Ayache, "A Riemannian framework for tensor computing",
IJCV 2006; Bhatia, "Positive Definite Matrices", 2007, ch. 6).  ``L`` is
the Cholesky factor of ``x``.  Points are immutable, so ``L``, ``L^{-1}``
and a contiguous copy of ``L^{-T}`` are computed once, on the first call
that needs them, and kept on the point itself.  The congruence is
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


class _Factors(NamedTuple):
    """Cholesky factor ``L`` of the bases of a stacked kernel, its inverse
    and the transpose of its inverse: one matrix each for a shared base, one
    stack each for one base per row."""

    low: np.ndarray
    inv: np.ndarray
    inv_t: np.ndarray


def _check_finite(a: np.ndarray) -> None:
    """Raise ``ConvergenceError`` unless every entry of a matrix or of a
    stack of matrices is finite.

    LAPACK does not check: a NaN entry can come back as finite eigenvalues,
    and a 1 x 1 infinity as an infinite one.
    """
    if not all_finite(a):
        raise ConvergenceError("factorization of a non-finite matrix")


def _decompose(gufunc, a: np.ndarray):
    """``gufunc(a)`` for one of LAPACK's gufuncs of ``_umath_linalg``, on a
    matrix or a stack, with the failure contract of the module.

    On failure the gufunc fills the output of the failed matrix with NaN and
    sets the invalid flag.  ``-W error::RuntimeWarning`` or
    ``np.errstate(invalid="raise")`` turn the flag into an exception, caught
    here; under the default settings the gufunc warns and only the NaN is
    left to test, in the first entry or column of each output.
    """
    _check_finite(a)
    try:
        out = gufunc(a)
    except (RuntimeWarning, FloatingPointError) as exc:
        raise ConvergenceError(f"LAPACK {gufunc.__name__} failed: {exc}") from exc
    w = out[0] if isinstance(out, tuple) else out
    # A scalar test on one matrix costs a fraction of ``isnan``.
    if w.item(0) != w.item(0) if a.ndim == 2 else np.isnan(w[..., 0]).any():
        raise ConvergenceError(f"LAPACK {gufunc.__name__} failed")
    return out


def _congruence(inv: np.ndarray, a: np.ndarray, inv_t: np.ndarray) -> np.ndarray:
    """``inv @ a @ inv_t`` for one matrix or any stack that broadcasts, where
    ``inv_t`` is the transpose of ``inv`` stored contiguous: ``matmul`` takes
    a slower path for a transposed view, above all over a stack.

    An infinite entry of ``a`` can meet a zero of ``inv`` (0 * inf) or an
    infinity of the other sign and set the invalid flag; where the settings
    raise it, the exception ends in ``ConvergenceError`` here, and otherwise
    the non-finite product reaches a check that raises one.
    """
    try:
        return inv @ a @ inv_t
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
        return _decompose(_umath_linalg.eigh_lo, a)

    @staticmethod
    def _eigvalsh(a: np.ndarray) -> np.ndarray:
        """Eigenvalues (ascending) of a symmetric matrix or of each matrix in
        a stack, from its lower triangle."""
        return _decompose(_umath_linalg.eigvalsh_lo, a)

    def _spectrum(self, inv: np.ndarray, inv_t: np.ndarray, ys: np.ndarray, vectors: bool):
        """Eigenvalues, all positive, of ``L^{-1} y L^{-T}`` (with
        ``vectors``, and its eigenvectors) for the inverse Cholesky factor
        ``inv`` of ``x`` and its transpose ``inv_t``: one matrix, one base
        per row of a stack, or bases that broadcast over the stack ``ys``.
        The product is decomposed as formed, from its lower triangle."""
        s = _congruence(inv, ys, inv_t)
        out = self._eigh(s) if vectors else self._eigvalsh(s)
        w = out[0] if vectors else out
        # A scalar test on one matrix's spectrum costs a twentieth of ``min``.
        if w[0] <= 0.0 if w.ndim == 1 else w[..., 0].min() <= 0.0:
            raise ConvergenceError("L^{-1} y L^{-T} is not positive definite")
        return out

    def _factor(self, x: ManifoldPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cholesky factor ``L`` of ``x`` (``x = L L^T``, lower triangular),
        its inverse and the transpose of its inverse, cached on ``x``.

        The three go into the point's own instance dict, read-only, after
        both factorizations succeed; a failed one (``x`` not positive
        definite, or not finite) caches nothing and raises again on the
        next call.
        """
        factors = x.__dict__.get("_spd_cholesky")
        if factors is not None:
            return factors
        low = _decompose(_umath_linalg.cholesky_lo, x.coords)
        inv = _decompose(_umath_linalg.inv, low)
        factors = low, inv, inv.T.copy()
        for a in factors:
            a.setflags(write=False)
        object.__setattr__(x, "_spd_cholesky", factors)
        return factors

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
        _, inv, inv_t = self._factor(x)
        a = _congruence(inv, u, inv_t)
        b = a if u is v else _congruence(inv, v, inv_t)
        out = float(np.sum(a * b))
        if not math.isfinite(out):
            raise ConvergenceError("inner product of a non-finite tangent")
        return out

    @staticmethod
    def _exp_congruence(low: np.ndarray, w: np.ndarray, q: np.ndarray) -> ManifoldPoint:
        """The point ``low @ q diag(exp(w)) q^T @ low^T``, where ``w`` is
        monotone (the ends hold its extremes), formed as ``B @ B.T`` with
        ``B = low @ q diag(exp(w / 2))``: a product of a matrix with its
        own transpose, which NumPy computes exactly symmetric, so it needs
        no symmetrization.  An exponent beyond 700 in magnitude raises
        DomainError: ``exp`` would overflow, or underflow to a singular
        matrix."""
        end = w[-1] if abs(w[-1]) >= abs(w[0]) else w[0]
        if abs(end) > 700.0:
            raise DomainError(
                f"geodesic argument {end:.1f} exceeds the double-precision range"
            )
        b = (low @ q) * np.exp(0.5 * w)
        coords = b @ b.T
        if not all_finite(coords):
            raise NonFiniteError("exponential map left the finite range")
        return ManifoldPoint(coords)

    def _exp(self, x: ManifoldPoint, v: np.ndarray) -> ManifoldPoint:
        low, inv, inv_t = self._factor(x)
        w, q = self._eigh(_congruence(inv, v, inv_t))
        return self._exp_congruence(low, w, q)

    def _geodesic(self, y: ManifoldPoint, z: ManifoldPoint, t: float) -> ManifoldPoint:
        # L (L^{-1} z L^{-T})^t L^T for y = L L^T, the power as exp(t log w):
        # one eigendecomposition where exp(y, t * log(y, z)) takes two.
        low, inv, inv_t = self._factor(y)
        w, q = self._spectrum(inv, inv_t, z.coords, True)
        return self._exp_congruence(low, t * np.log(w), q)

    def _log(self, x: ManifoldPoint, y: ManifoldPoint) -> np.ndarray:
        return self._log_many(x, y.coords)

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        _, inv, inv_t = self._factor(x)
        logs = np.log(self._spectrum(inv, inv_t, y.coords, False))
        return math.sqrt(logs.dot(logs))

    # ----- stacked kernels ------------------------------------------------------
    # A shared base serves every row with its one set of factors; one base
    # per row stacks the cached factors of the bases.  The batched products,
    # eigendecompositions and row norms round as the single-pair methods
    # do, so each row equals the corresponding method bit for bit.  The
    # exception is ``_log_sum``, which sums over the anchors in one product.

    def _factors(self, xs: Bases | _Factors) -> _Factors:
        """The factors of a shared base, or the stacked factors of one base
        per row; factors built before pass through."""
        if isinstance(xs, _Factors):
            return xs
        if isinstance(xs, ManifoldPoint):
            return _Factors(*self._factor(xs))
        return _Factors(*(np.array(f) for f in zip(*(self._factor(x) for x in xs))))

    _prepare_bases = _factors

    def _dist_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        _, inv, inv_t = self._factors(xs)
        logs = np.log(self._spectrum(inv, inv_t, ys, False))
        return np.sqrt(row_dots(logs, logs))

    def _dist_table(self, xs: Sequence[ManifoldPoint], targets: np.ndarray) -> np.ndarray:
        # Each base's inverse factor once, broadcast over the targets: the
        # (T, 1, n, n) @ (k, n, n) product forms every matrix as the per-row
        # stack does.
        _, inv, inv_t = self._factors(xs)
        lam = self._spectrum(inv[:, None], inv_t[:, None], targets, False)
        logs = np.log(lam).reshape(-1, self.n)
        return np.sqrt(row_dots(logs, logs)).reshape(len(xs), len(targets))

    def _log_many(self, xs: Bases, ys: np.ndarray) -> np.ndarray:
        low, inv, inv_t = self._factors(xs)
        w, q = self._spectrum(inv, inv_t, ys, True)
        lg = (q * np.log(w)[..., None, :]) @ q.swapaxes(-1, -2)
        return _sym(low @ lg @ low.swapaxes(-1, -2))

    def _log_sum(self, x: ManifoldPoint, ys: np.ndarray, w: np.ndarray) -> np.ndarray:
        # sum_i w_i L q_i diag(log l_i) q_i^T L^T is L S L^T, with
        # S = Q diag(w (x) log l) Q^T over the eigenvectors of every anchor
        # side by side in Q (n x kn), formed in one product; it rounds
        # otherwise than the default's per-anchor loop.
        low, inv, inv_t = self._factor(x)
        lam, q = self._spectrum(inv, inv_t, ys, True)
        cols = q.swapaxes(0, 1).reshape(self.n, -1)
        s = (cols * (w[:, None] * np.log(lam)).reshape(-1)) @ cols.T
        return _sym(low @ s @ low.T)

    def _norm_many(self, xs: Bases, vs: np.ndarray) -> np.ndarray:
        # inner(x, v, v): the sum of squares of L^{-1} v L^{-T}.
        _, inv, inv_t = self._factors(xs)
        a = _congruence(inv, vs, inv_t)
        sq = (a * a).reshape(len(a), -1).sum(axis=1)
        out = np.sqrt(np.maximum(sq, 0.0))
        if not all_finite(out):
            raise ConvergenceError("norm of a non-finite tangent")
        return out

    # ----- sampling -----------------------------------------------------------

    def base_point(self) -> ManifoldPoint:
        return ManifoldPoint(np.eye(self.n))
