"""Benchmark problems: strongly convex quadratics and weighted barycenters.

Every problem bundles its manifold, objective/gradient array functions, the
certified strong-convexity and smoothness constants (mu, L), the start
point of every run, and the ball around a reference point on which the
certificates hold.  Builders are deterministic: all randomness flows through a
Philox generator keyed by an explicit seed, and problems round-trip
through plain dictionaries (see :func:`problem_to_dict`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._scalars import tan_ratio
from .distortion import trig_coeff
from .errors import ConvergenceError, DomainError, MissingDataError, NonFiniteError
from .geometry import (
    SPD,
    Euclidean,
    Hyperbolic,
    Manifold,
    ManifoldPoint,
    Sphere,
    TangentVector,
)
from .geometry.base import all_finite, row_dots

__all__ = [
    "Problem",
    "make_quadratic",
    "make_karcher",
    "random_karcher",
    "make_sphere_mean",
    "random_sphere_mean",
    "oracle_optimum",
    "curvature_key",
    "manifold_to_dict",
    "manifold_from_dict",
    "problem_to_dict",
    "problem_from_dict",
    "is_explicit",
]

_WEIGHT_TOL = 1e-12
_SPECTRUM_TOL = 1e-8
# (point, anchor) cells per distance table of a barycenter objective.
# This bounds the call's temporaries, and so the peak memory of a block of
# points; 256-row calls ran as fast as one call per 64-point block.
_OBJECTIVE_ROWS = 256
# Strong convexity of the spherical mean degenerates as the anchor spread
# approaches the quarter-sphere; keep the certified constant positive.
_MU_FLOOR = 1e-6


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator; the same seed yields the same stream on
    every platform, which the byte-identical output contract relies on."""
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass
class Problem:
    """A geodesically strongly convex objective whose certified (mu, L)
    hold on the ball of ``certified_radius`` around ``reference``.
    ``payload`` is its explicit description (see :func:`problem_to_dict`).

    ``values(points)`` is the objective at a sequence of points, a float
    array; ``gradient(x)`` is the gradient's coordinates at ``x``.

    ``certify(radius)`` is the family's certificate: given a ball of
    ``radius`` around ``reference`` that holds the data, the ``(mu, L,
    certified_radius)`` that hold on the ball of ``certified_radius``, or a
    DomainError where it certifies none.  It is None where (mu, L) hold
    everywhere, as on a quadratic."""

    name: str
    manifold: Manifold
    values: Callable[[Sequence[ManifoldPoint]], np.ndarray]
    gradient: Callable[[ManifoldPoint], np.ndarray]
    mu: float
    L: float
    start: ManifoldPoint
    reference: ManifoldPoint
    certified_radius: float = math.inf
    optimum: ManifoldPoint | None = None
    payload: dict = field(default_factory=dict)
    certify: Callable[[float], tuple[float, float, float]] | None = field(
        default=None, repr=False
    )
    _f_opt: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and 0.0 < self.mu <= self.L):
            raise DomainError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")

    def value(self, x: ManifoldPoint) -> float:
        return float(self.values([x])[0])

    def grad(self, x: ManifoldPoint) -> TangentVector:
        """Gradient at ``x`` as a tangent: the typed wrapper around
        :meth:`_grad_coords`, which checks the user callable's output."""
        return TangentVector(x, self._grad_coords(x))

    def _grad_coords(self, x: ManifoldPoint) -> np.ndarray:
        """The gradient's coordinates at ``x``, checked once: DomainError
        unless the user callable returns a float64 array of the point's
        shape, NonFiniteError on a non-finite coordinate.  The solvers step
        with these coordinates and check them no further."""
        g = self.gradient(x)
        if not (isinstance(g, np.ndarray) and g.dtype == np.float64
                and g.shape == x.coords.shape):
            got = (f"a {g.dtype} array of shape {g.shape}" if isinstance(g, np.ndarray)
                   else f"a {type(g).__name__}")
            raise DomainError(
                f"gradient must be a float64 array of shape {x.coords.shape}, got {got}")
        if not all_finite(g):
            raise NonFiniteError("gradient is not finite")
        return g

    def set_optimum(self, x: ManifoldPoint) -> None:
        self.manifold.check_point(x.coords)
        self.optimum = x
        self._f_opt = None

    @property
    def optimum_value(self) -> float:
        if self.optimum is None:
            raise MissingDataError(
                "problem has no optimum; call oracle_optimum first"
            )
        if self._f_opt is None:
            self._f_opt = self.value(self.optimum)
        return self._f_opt


# ----- quadratics ---------------------------------------------------------


def make_quadratic(
    dim: int,
    mu: float,
    L: float,
    seed: int,
    center: np.ndarray | None = None,
    name: str | None = None,
) -> Problem:
    """Random quadratic 0.5 (x-c)' H (x-c) with spectrum spanning [mu, L].

    The extreme eigenvalues equal mu and L exactly; interior eigenvalues
    are uniform on (mu, L).  ``center`` defaults to a standard normal
    draw; passing an explicit center (for instance the origin) makes the
    optimum and optimal value exact in floating point.
    """
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if not (0.0 < mu <= L < math.inf):
        raise DomainError(f"need 0 < mu <= L < inf, got mu={mu}, L={L}")
    if dim == 1 and mu != L:
        raise DomainError("a 1-d quadratic cannot span mu < L")
    rng = rng_from_seed(seed)
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if dim == 1:
        spectrum = np.array([mu])
    else:
        spectrum = np.concatenate(
            [[mu, L], rng.uniform(mu, L, size=dim - 2)]
        )
    hessian = (q * spectrum) @ q.T
    hessian = 0.5 * (hessian + hessian.T)
    c = rng.normal(size=dim) if center is None else np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise DomainError(f"center must have shape ({dim},), got {c.shape}")
    x0 = c + rng.normal(size=dim)
    return quadratic_from_arrays(
        hessian,
        c,
        x0,
        mu=mu,
        L=L,
        name=name or f"quadratic-d{dim}",
    )


def quadratic_from_arrays(
    hessian: np.ndarray,
    center: np.ndarray,
    start: np.ndarray,
    mu: float | None = None,
    L: float | None = None,
    name: str = "quadratic",
) -> Problem:
    """Quadratic problem from explicit data, validating the (mu, L) claim;
    without a claim, (mu, L) are the extreme eigenvalues of ``hessian``.

    Each row of its ``values`` equals ``0.5 * float((x - c) @ H @ (x - c))``
    bit for bit."""
    h = np.asarray(hessian, dtype=float)
    c = np.asarray(center, dtype=float)
    x0 = np.asarray(start, dtype=float)
    dim = c.shape[0]
    if h.shape != (dim, dim) or x0.shape != (dim,):
        raise DomainError("hessian/center/start shapes are inconsistent")
    scale = 1.0 + float(np.max(np.abs(h)))
    if float(np.max(np.abs(h - h.T))) > _SPECTRUM_TOL * scale:
        raise DomainError("hessian must be symmetric")
    w = np.linalg.eigvalsh(h)
    mu_eff = float(w[0])
    l_eff = float(w[-1])
    if mu_eff <= 0.0:
        raise DomainError(f"hessian is not positive definite: {mu_eff:.3e}")
    if mu is not None and abs(mu - mu_eff) > _SPECTRUM_TOL * (1.0 + abs(mu)):
        raise DomainError(f"declared mu={mu} but spectrum gives {mu_eff!r}")
    if L is not None and abs(L - l_eff) > _SPECTRUM_TOL * (1.0 + abs(L)):
        raise DomainError(f"declared L={L} but spectrum gives {l_eff!r}")
    mu = mu_eff if mu is None else mu
    L = l_eff if L is None else L
    m = Euclidean(dim)
    h_ro = h.copy()
    h_ro.setflags(write=False)

    def many(xs: Sequence[ManifoldPoint]) -> np.ndarray:
        # The broadcast (k, 1, n) @ (n, n) product forms each d_t @ H as the
        # one-point vector-matrix product does; a plain ``d @ H`` is one
        # matrix product, which sums in another order.
        d = np.array([x.coords for x in xs]).reshape(len(xs), dim) - c
        return 0.5 * row_dots((d[:, None, :] @ h_ro)[:, 0, :], d)

    def gradient(x: ManifoldPoint) -> np.ndarray:
        return h_ro @ (x.coords - c)

    payload = {
        "kind": "quadratic",
        "hessian": h.tolist(),
        "center": c.tolist(),
        "start": x0.tolist(),
        "mu": mu,
        "L": L,
    }
    return Problem(
        name=name,
        manifold=m,
        values=many,
        gradient=gradient,
        mu=mu,
        L=L,
        start=m.point(x0),
        reference=m.point(c),
        optimum=m.point(c),
        payload=payload,
    )


# ----- weighted barycenters -------------------------------------------------


def _normalized_weights(k: int, weights: Sequence[float] | None) -> np.ndarray:
    if weights is None:
        return np.full(k, 1.0 / k)
    w = np.array(weights, dtype=float)
    if w.shape != (k,):
        raise DomainError(f"expected {k} weights, got shape {w.shape}")
    if not np.all(w > 0.0):
        raise DomainError("weights must be positive")
    if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
        raise DomainError(f"weights must sum to 1, got {float(w.sum())!r}")
    return w


def _barycenter_callables(
    m: Manifold, stack: np.ndarray, w: np.ndarray
) -> tuple[Callable, Callable]:
    # ``stack`` holds the anchors, one per row; the manifold's stacked
    # kernels take every anchor in one call.  The objective sums in anchor
    # order, as a loop over the anchors would, and so does the default
    # ``_log_sum``, so the rounding is that of the per-anchor formula:
    # ``0 - (a + b + ...)`` equals ``((0 - a) - b) - ...`` bit for bit,
    # signed zeros included.  The hyperboloid's and SPD's ``_log_sum`` sum
    # in one product instead: over the chord rows, and over the eigenvectors
    # of every anchor's congruence.
    weights = w.tolist()
    per_call = max(1, _OBJECTIVE_ROWS // len(weights))

    def many(xs: Sequence[ManifoldPoint]) -> np.ndarray:
        # One distance table per chunk of points; its cells round as the
        # single-pair ``distance`` does, whatever the number of points.
        rows = []
        for lo in range(0, len(xs), per_call):
            rows += m._dist_table(xs[lo:lo + per_call], stack).tolist()
        return np.array([0.5 * sum(wi * d**2 for wi, d in zip(weights, row)) for row in rows])

    def gradient(x: ManifoldPoint) -> np.ndarray:
        return 0.0 - m._log_sum(x, stack, w)

    return many, gradient


def _barycenter(
    kind: str,
    manifold: Manifold,
    anchors: Sequence[ManifoldPoint],
    weights: Sequence[float] | None,
    name: str,
    certify: Callable[[float], tuple[float, float, float]],
) -> Problem:
    """The barycenter problem of ``kind`` on ``anchors``, with (mu, L,
    certified radius) = ``certify(spread)``, where ``spread`` is the largest
    anchor distance from the projected anchor mean."""
    anchors = list(anchors)
    if len(anchors) < 1:
        raise DomainError("need at least one anchor")
    w = _normalized_weights(len(anchors), weights)
    stack = np.stack([p.coords for p in anchors])
    stack.setflags(write=False)
    ref = manifold._project_mean(np.mean(stack, axis=0))
    mu, lips, radius = certify(float(manifold._dist_table([ref], stack).max()))
    values, gradient = _barycenter_callables(manifold, stack, w)
    payload = {
        "kind": kind,
        "manifold": manifold_to_dict(manifold),
        "anchors": [p.coords.tolist() for p in anchors],
        "weights": w.tolist(),
    }
    return Problem(
        name=name,
        manifold=manifold,
        values=values,
        gradient=gradient,
        mu=mu,
        L=lips,
        start=anchors[0],
        reference=ref,
        certified_radius=radius,
        payload=payload,
        certify=certify,
    )


def _random_anchors(
    manifold: Manifold, n_anchors: int, radius: float, seed: int
) -> list[ManifoldPoint]:
    """``n_anchors`` anchors drawn in the ``radius`` ball around the
    canonical point; the caller has checked ``radius``."""
    if n_anchors < 1:
        raise DomainError(f"need n_anchors >= 1, got {n_anchors}")
    rng = rng_from_seed(seed)
    center = manifold.base_point()
    return [manifold.random_point(rng, center, radius) for _ in range(n_anchors)]


def make_karcher(
    manifold: Manifold,
    anchors: Sequence[ManifoldPoint],
    weights: Sequence[float] | None = None,
    name: str = "karcher",
) -> Problem:
    """Weighted barycenter objective 0.5 sum_i w_i d(x, p_i)^2.

    On a Hadamard manifold this is 1-strongly convex everywhere and
    L-smooth on the ball of radius R around the anchor mean, where R is
    the largest anchor distance and L is the hyperbolic-cotangent bound
    at separation 2R.
    """
    if not manifold.is_hadamard:
        raise DomainError(
            "make_karcher requires a Hadamard manifold; "
            "use make_sphere_mean for positive curvature"
        )

    def certify(radius: float) -> tuple[float, float, float]:
        return 1.0, trig_coeff(manifold.kappa, 2.0 * radius), radius

    return _barycenter("karcher", manifold, anchors, weights, name, certify)


def random_karcher(
    manifold: Manifold,
    n_anchors: int,
    radius: float,
    seed: int,
    weights: Sequence[float] | None = None,
    name: str | None = None,
) -> Problem:
    """Anchors drawn in the ``radius`` ball around the canonical point."""
    if not 0.0 < radius < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius}")
    name = name or f"karcher-{manifold.name}-k{n_anchors}"
    return make_karcher(manifold, _random_anchors(manifold, n_anchors, radius, seed),
                        weights, name=name)


def make_sphere_mean(
    manifold: Sphere,
    anchors: Sequence[ManifoldPoint],
    weights: Sequence[float] | None = None,
    name: str = "sphere-mean",
) -> Problem:
    """Weighted barycenter on the sphere, certified on a quarter-sphere cap.

    All anchors must lie strictly inside the ball of radius
    ``pi / (4 sqrt(sigma))`` around their projected mean.  That cap is the
    certified ball: there the objective is strongly convex with
    mu = w_max / tan(w_max) at the worst in-ball separation w_max and
    1-smooth.
    """
    if not isinstance(manifold, Sphere):
        raise DomainError("make_sphere_mean requires a Sphere manifold")
    cap = 0.25 * math.pi / math.sqrt(manifold.sigma)

    def certify(spread: float) -> tuple[float, float, float]:
        if not spread < cap:
            raise DomainError(
                f"anchor spread {spread!r} must be strictly below the "
                f"quarter-sphere cap radius {cap!r}"
            )
        w_max = math.sqrt(manifold.sigma) * (cap + spread)
        return max(tan_ratio(w_max), _MU_FLOOR), 1.0, cap

    return _barycenter("sphere_mean", manifold, anchors, weights, name, certify)


def random_sphere_mean(
    manifold: Sphere,
    n_anchors: int,
    radius: float,
    seed: int,
    weights: Sequence[float] | None = None,
    name: str | None = None,
) -> Problem:
    """Random spherical mean; ``radius`` must stay below pi/(8 sqrt(sigma))
    so the anchor spread provably fits inside the quarter-sphere cap."""
    if not isinstance(manifold, Sphere):
        raise DomainError("random_sphere_mean requires a Sphere manifold")
    limit = 0.125 * math.pi / math.sqrt(manifold.sigma)
    if not 0.0 < radius < limit:
        raise DomainError(
            f"radius must lie in (0, {limit!r}) for a certified cap, got {radius}"
        )
    name = name or f"sphere-mean-k{n_anchors}"
    return make_sphere_mean(manifold, _random_anchors(manifold, n_anchors, radius, seed),
                            weights, name=name)


# ----- reference optimum -----------------------------------------------------


# The largest gradient norm of a described ``optimum``: an optimum the
# oracle located at any ``tol`` up to this one loads again.
_OPTIMUM_TOL = 1e-8


def _stationary(m: Manifold, x: ManifoldPoint, g: np.ndarray, tol: float) -> bool:
    """The optimum's stop test: whether the gradient coordinates ``g`` at
    ``x`` have a norm of at most ``tol``.  Raises DomainError when the test
    passes on a norm lost to rounding (a gradient far out on the
    hyperboloid)."""
    if not m._norm(x, g) <= tol:
        return False
    if not m._norm_resolved(g, tol):
        raise DomainError(
            "gradient too far out for its norm to be resolved: "
            f"<g, g> = {m._inner(x, g, g):.3e} lies under its rounding error"
        )
    return True


def oracle_optimum(
    problem: Problem,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
) -> ManifoldPoint:
    """Locate the optimum by plain geodesic gradient descent at step 1/L.

    Independent of the accelerated solver on purpose: its fixed point is
    used as the ground truth the solver traces are judged against.  Starts
    at ``problem.start``, stops when the gradient norm falls below ``tol``
    (:func:`_stationary`, which raises ``DomainError`` when that norm is
    lost to rounding), and stores the result on the problem and returns it.
    """
    m = problem.manifold
    x = problem.start
    step = 1.0 / problem.L
    for _ in range(max_iters):
        g = problem._grad_coords(x)
        if _stationary(m, x, g, tol):
            problem.set_optimum(x)
            return x
        x = m._exp(x, (-step) * g)
    raise ConvergenceError(
        f"gradient norm did not reach {tol!r} within {max_iters} iterations"
    )


# ----- serialization ----------------------------------------------------------


# Manifold kinds: class, size key, curvature key and its default (None where
# the class fixes its curvature: flat space, and SPD's kappa = 1/2).  A
# description takes exactly these keys.
_MANIFOLD_KINDS = {
    "euclidean": (Euclidean, "dim", None, None),
    "hyperbolic": (Hyperbolic, "dim", "kappa", 1.0),
    "sphere": (Sphere, "dim", "sigma", 1.0),
    "spd": (SPD, "n", None, None),
}


def manifold_to_dict(m: Manifold) -> dict:
    for kind, (cls, size_key, curv_key, _) in _MANIFOLD_KINDS.items():
        if isinstance(m, cls):
            out = {"kind": kind, size_key: getattr(m, size_key)}
            if curv_key is not None:
                out[curv_key] = getattr(m, curv_key)
            return out
    raise DomainError(f"cannot serialize manifold {m!r}")


def _manifold_kind(d: dict) -> str:
    try:
        kind = d["kind"]
    except KeyError as exc:
        raise MissingDataError("manifold description needs a 'kind'") from exc
    if not isinstance(kind, str) or kind not in _MANIFOLD_KINDS:
        raise DomainError(f"unknown manifold kind {kind!r}")
    return kind


def curvature_key(d: dict) -> str:
    """The key of a manifold description's curvature parameter: ``sigma``
    on a sphere, ``kappa`` on a hyperbolic space."""
    kind = _manifold_kind(d)
    curv_key = _MANIFOLD_KINDS[kind][2]
    if curv_key is None:
        raise DomainError(f"a {kind!r} manifold has no curvature parameter")
    return curv_key


def manifold_from_dict(d: dict) -> Manifold:
    """Build a manifold from its description; a key its kind does not take
    (``kappa`` on a sphere, a misspelt key) is a DomainError."""
    kind = _manifold_kind(d)
    cls, size_key, curv_key, default = _MANIFOLD_KINDS[kind]
    keys = {"kind", size_key, curv_key} - {None}
    unknown = d.keys() - keys
    if unknown:
        raise DomainError(
            f"a {kind!r} manifold takes no {sorted(unknown)}; its keys are {sorted(keys)}"
        )
    if size_key not in d:
        raise MissingDataError(f"a {kind!r} manifold description needs {size_key!r}")
    if curv_key is None:
        return cls(_integer(d, size_key))
    return cls(_integer(d, size_key), _real(d, curv_key) if curv_key in d else default)


def problem_to_dict(problem: Problem) -> dict:
    out = {**problem.payload, "name": problem.name}
    if problem.optimum is not None:
        out["optimum"] = problem.optimum.coords.tolist()
    return out


def _require(d: dict, key: str) -> object:
    try:
        return d[key]
    except KeyError as exc:
        raise MissingDataError(f"problem description needs {key!r}") from exc


def _is_integer(v: object) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _integer(d: dict, key: str) -> int:
    """The integer under ``key``: not a bool, a float or a string."""
    v = _require(d, key)
    if not _is_integer(v):
        raise DomainError(f"{key!r} must be an integer, got {v!r}")
    return int(v)


def _is_real(v: object) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _real(d: dict, key: str) -> float:
    """The real number under ``key``: not a bool or a string."""
    v = _require(d, key)
    if not _is_real(v):
        raise DomainError(f"{key!r} must be a real number, got {v!r}")
    return float(v)


def _optional_real(d: dict, key: str) -> float | None:
    return None if d.get(key) is None else _real(d, key)


def _reals(d: dict, key: str) -> np.ndarray:
    """The float array under ``key``, whose every entry is a real number:
    ``np.asarray`` alone would also read a bool or a numeric string."""
    v = _require(d, key)
    arr = np.asarray(v, dtype=float)
    bad = [e for e in np.asarray(v, dtype=object).flat if not _is_real(e)]
    if bad:
        raise DomainError(f"{key!r} must hold real numbers only, got {bad[0]!r}")
    return arr


def _optional_reals(d: dict, key: str) -> np.ndarray | None:
    return None if d.get(key) is None else _reals(d, key)


# Problem kinds: the key that marks the explicit form, then the keys of that
# form (those ``problem_to_dict`` writes) and of the generator form (the
# random draw's arguments).  Every form also takes ``kind``, ``name`` and
# ``optimum``.
_BARYCENTER_FORMS = ("anchors", frozenset({"manifold", "anchors", "weights"}),
                     frozenset({"manifold", "n_anchors", "radius", "seed", "weights"}))
_PROBLEM_FORMS = {
    "quadratic": ("hessian", frozenset({"hessian", "center", "start", "mu", "L"}),
                  frozenset({"dim", "mu", "L", "seed", "center"})),
    "karcher": _BARYCENTER_FORMS,
    "sphere_mean": _BARYCENTER_FORMS,
}


def is_explicit(d: dict) -> bool:
    """Whether a problem description is in explicit form: it holds its
    kind's data (a quadratic's ``hessian``, a barycenter's ``anchors``)."""
    kind = d.get("kind")
    return isinstance(kind, str) and kind in _PROBLEM_FORMS and _PROBLEM_FORMS[kind][0] in d


def problem_from_dict(d: dict) -> Problem:
    """Rebuild a problem from its dictionary form.

    The explicit form takes the keys ``problem_to_dict`` writes: a
    quadratic's ``hessian``, ``center``, ``start`` and optional ``mu``/``L``
    claims, or a barycenter's ``manifold``, ``anchors`` and ``weights``.  The
    generator form takes ``(dim, mu, L, seed, center)`` or ``(manifold,
    n_anchors, radius, seed, weights)``.  Any other key is a DomainError, and
    so is an ``optimum`` whose gradient norm exceeds 1e-8 (:func:`_stationary`).
    """
    kind = _require(d, "kind")
    if not isinstance(kind, str) or kind not in _PROBLEM_FORMS:
        raise DomainError(f"unknown problem kind {kind!r}")
    explicit = is_explicit(d)
    keys = {"kind", "name", "optimum"} | _PROBLEM_FORMS[kind][1 if explicit else 2]
    unknown = d.keys() - keys
    if unknown:
        raise DomainError(
            f"a {kind!r} problem in {'explicit' if explicit else 'generator'} form "
            f"takes no {sorted(unknown)}; its keys are {sorted(keys)}"
        )
    name = d.get("name")
    if kind == "quadratic":
        if explicit:
            problem = quadratic_from_arrays(
                _reals(d, "hessian"),
                _reals(d, "center"),
                _reals(d, "start"),
                mu=_optional_real(d, "mu"),
                L=_optional_real(d, "L"),
                name=name or "quadratic",
            )
        else:
            problem = make_quadratic(
                _integer(d, "dim"),
                _real(d, "mu"),
                _real(d, "L"),
                _integer(d, "seed"),
                center=_optional_reals(d, "center"),
                name=name,
            )
    else:
        m = manifold_from_dict(_require(d, "manifold"))
        if explicit:
            anchors = [m.point(a) for a in _reals(d, "anchors")]
            build = make_karcher if kind == "karcher" else make_sphere_mean
            problem = build(m, anchors, _optional_reals(d, "weights"), name=name or kind)
        else:
            build = random_karcher if kind == "karcher" else random_sphere_mean
            problem = build(m, _integer(d, "n_anchors"), _real(d, "radius"),
                            _integer(d, "seed"), weights=_optional_reals(d, "weights"), name=name)
    if d.get("optimum") is not None:
        m = problem.manifold
        opt = m.point(_reals(d, "optimum"))
        g = problem._grad_coords(opt)
        if not _stationary(m, opt, g, _OPTIMUM_TOL):
            raise DomainError(f"'optimum' is not stationary: its gradient norm "
                              f"{m._norm(opt, g)!r} exceeds {_OPTIMUM_TOL!r}")
        problem.set_optimum(opt)
    return problem
