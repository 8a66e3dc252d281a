"""Benchmark problems: strongly convex quadratics and weighted barycenters.

Every problem bundles its manifold, objective/gradient callables, the
certified strong-convexity and smoothness constants (mu, L), the start
point of every run, and the ball around a reference point on which the
certificates hold.  Builders are deterministic: all randomness flows through a
Philox generator keyed by an explicit seed, and problems round-trip
through plain dictionaries (see :func:`problem_to_dict`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
from .geometry.base import require_base

__all__ = [
    "Problem",
    "StackedObjective",
    "make_quadratic",
    "make_karcher",
    "recertified",
    "random_karcher",
    "make_sphere_mean",
    "random_sphere_mean",
    "oracle_optimum",
    "gradient_audit",
    "curvature_key",
    "manifold_to_dict",
    "manifold_from_dict",
    "problem_to_dict",
    "problem_from_dict",
]

_WEIGHT_TOL = 1e-12
_SPECTRUM_TOL = 1e-8
_AUDIT_TOL = 1e-8
_FD_STEP = 1e-5
# (point, anchor) rows per stacked distance call of a barycenter objective.
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


class StackedObjective:
    """An objective defined once, in stacked form: ``many(points)`` evaluates
    a sequence of points in one pass, and calling the objective at one point
    is its one-point case, so both round alike."""

    def __init__(self, many: Callable[[Sequence[ManifoldPoint]], np.ndarray]) -> None:
        self.many = many

    def __call__(self, x: ManifoldPoint) -> float:
        return float(self.many([x])[0])


@dataclass
class Problem:
    """A geodesically strongly convex objective whose certified (mu, L)
    hold on the ball of ``certified_radius`` around ``reference``."""

    name: str
    manifold: Manifold
    objective: Callable[[ManifoldPoint], float]
    gradient: Callable[[ManifoldPoint], TangentVector]
    mu: float
    L: float
    start: ManifoldPoint
    reference: ManifoldPoint
    certified_radius: float = math.inf
    optimum: ManifoldPoint | None = None
    payload: dict = field(default_factory=dict)
    _f_opt: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and 0.0 < self.mu <= self.L):
            raise DomainError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")

    def value(self, x: ManifoldPoint) -> float:
        return float(self.objective(x))

    def values(self, points: Sequence[ManifoldPoint]) -> np.ndarray:
        """``value`` at every point: one stacked pass when ``objective`` is a
        :class:`StackedObjective`, otherwise a loop over ``value``."""
        if isinstance(self.objective, StackedObjective):
            return self.objective.many(points)
        return np.array([self.value(x) for x in points])

    def grad(self, x: ManifoldPoint) -> TangentVector:
        """Gradient at ``x``.  The user callable's output is checked here,
        once: DomainError on a shape mismatch or a gradient anchored at
        another point, NonFiniteError on a non-finite coordinate.  The
        solvers then step with its coordinates unchecked."""
        g = self.gradient(x)
        if g.coords.shape != x.coords.shape:
            raise DomainError(
                f"gradient shape {g.coords.shape} does not match point {x.coords.shape}"
            )
        if not np.isfinite(g.coords).all():
            raise NonFiniteError("gradient is not finite")
        require_base(x, g)
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
    if not (0.0 < mu <= L):
        raise DomainError(f"need 0 < mu <= L, got mu={mu}, L={L}")
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
        seed=seed,
    )


def quadratic_from_arrays(
    hessian: np.ndarray,
    center: np.ndarray,
    start: np.ndarray,
    mu: float | None = None,
    L: float | None = None,
    name: str = "quadratic",
    seed: int | None = None,
) -> Problem:
    """Quadratic problem from explicit data, validating the (mu, L) claim."""
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
    m = Euclidean(dim)
    h_ro = h.copy()
    h_ro.setflags(write=False)

    def objective(x: ManifoldPoint) -> float:
        d = x.coords - c
        return 0.5 * float(d @ h_ro @ d)

    def gradient(x: ManifoldPoint) -> TangentVector:
        return TangentVector(x, h_ro @ (x.coords - c))

    payload: dict = {
        "kind": "quadratic",
        "hessian": h.tolist(),
        "center": c.tolist(),
        "start": x0.tolist(),
    }
    if seed is not None:
        payload["seed"] = int(seed)
    return Problem(
        name=name,
        manifold=m,
        objective=objective,
        gradient=gradient,
        mu=mu if mu is not None else mu_eff,
        L=L if L is not None else l_eff,
        start=m.point(x0),
        reference=m.point(c),
        optimum=m.point(c),
        payload=payload,
    )


# ----- weighted barycenters -------------------------------------------------


def _normalized_weights(k: int, weights: Sequence[float] | None) -> np.ndarray:
    if weights is None:
        return np.full(k, 1.0 / k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,):
        raise DomainError(f"expected {k} weights, got shape {w.shape}")
    if not np.all(w > 0.0):
        raise DomainError("weights must be positive")
    if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
        raise DomainError(f"weights must sum to 1, got {float(w.sum())!r}")
    return w


def _mean_point(m: Manifold, anchors: Sequence[ManifoldPoint]) -> ManifoldPoint:
    """Coordinate-wise anchor mean projected back onto the manifold."""
    mean = np.mean([p.coords for p in anchors], axis=0)
    if isinstance(m, Euclidean):
        return m.point(mean)
    if isinstance(m, Hyperbolic):
        # The mean of upper-sheet points is strictly timelike, so it is
        # normalized at any magnitude.  ``_project_point`` leaves large
        # vectors as they are, which suits only exp's near-unit results.
        return m._normalize_point(mean)
    if isinstance(m, Sphere):
        return m._project_point(mean)
    if isinstance(m, SPD):
        return m.point(0.5 * (mean + mean.T))
    raise DomainError(f"no mean projection for manifold {m!r}")


def _barycenter_callables(
    m: Manifold, anchors: list[ManifoldPoint], w: np.ndarray
) -> tuple[StackedObjective, Callable]:
    # Stacked once here; the manifold's stacked kernels take every anchor in
    # one call.  Both sums run in anchor order, as a loop over the anchors
    # would, so the rounding is that of the per-anchor formula: a running
    # sum adds the rows one after another (``np.sum`` may pair them up, as
    # it does for one-coordinate points), and ``0 - (a + b + ...)`` equals
    # ``((0 - a) - b) - ...`` bit for bit, signed zeros included.
    stack = np.stack([p.coords for p in anchors])
    stack.setflags(write=False)
    weights = w.tolist()
    k = len(weights)
    per_call = max(1, _OBJECTIVE_ROWS // k)
    w_col = np.array(w).reshape((-1,) + (1,) * (stack.ndim - 1))

    def many(xs: Sequence[ManifoldPoint]) -> np.ndarray:
        # One base per (point, anchor) row, so every distance rounds as the
        # single-pair ``distance`` does, whatever the number of points.
        dists = []
        for lo in range(0, len(xs), per_call):
            part = xs[lo:lo + per_call]
            bases = [x for x in part for _ in range(k)]
            dists += m._dist_many(bases, np.concatenate([stack] * len(part))).tolist()
        return np.array([
            0.5 * sum(wi * d**2 for wi, d in zip(weights, dists[i:i + k]))
            for i in range(0, len(dists), k)
        ])

    def gradient(x: ManifoldPoint) -> TangentVector:
        terms = w_col * m._log_many(x, stack)
        return TangentVector(x, 0.0 - np.cumsum(terms, axis=0)[-1])

    return StackedObjective(many), gradient


def _karcher_smoothness(manifold: Manifold, radius: float) -> float:
    """L of a Hadamard barycenter on a ball of ``radius`` that holds its anchors."""
    return trig_coeff(manifold.curv_lower_mag, 2.0 * radius)


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
    anchors = list(anchors)
    if len(anchors) < 1:
        raise DomainError("need at least one anchor")
    w = _normalized_weights(len(anchors), weights)
    ref = _mean_point(manifold, anchors)
    spread = max(manifold.distance(ref, p) for p in anchors)
    objective, gradient = _barycenter_callables(manifold, anchors, w)
    payload = {
        "kind": "karcher",
        "manifold": manifold_to_dict(manifold),
        "anchors": [p.coords.tolist() for p in anchors],
        "weights": w.tolist(),
    }
    return Problem(
        name=name,
        manifold=manifold,
        objective=objective,
        gradient=gradient,
        mu=1.0,
        L=_karcher_smoothness(manifold, spread),
        start=anchors[0],
        reference=ref,
        certified_radius=spread,
        payload=payload,
    )


def recertified(problem: Problem, radius: float) -> Problem | None:
    """``problem`` certified on the larger ball of ``radius``: a Karcher
    problem with L rebuilt for that ball.  None for any other kind, or when
    L would not grow."""
    if problem.payload.get("kind") != "karcher":
        return None
    lips = _karcher_smoothness(problem.manifold, radius)
    if not lips > problem.L:
        return None
    return replace(problem, L=lips, certified_radius=radius)


def random_karcher(
    manifold: Manifold,
    n_anchors: int,
    radius: float,
    seed: int,
    weights: Sequence[float] | None = None,
    name: str | None = None,
) -> Problem:
    """Anchors drawn in the ``radius`` ball around the canonical point."""
    if n_anchors < 1:
        raise DomainError(f"need n_anchors >= 1, got {n_anchors}")
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    rng = rng_from_seed(seed)
    center = manifold.base_point()
    anchors = [manifold.random_point(rng, center, radius) for _ in range(n_anchors)]
    problem = make_karcher(
        manifold,
        anchors,
        weights,
        name=name or f"karcher-{manifold.name}-k{n_anchors}",
    )
    problem.payload["seed"] = int(seed)
    problem.payload["radius"] = float(radius)
    return problem


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
    anchors = list(anchors)
    if len(anchors) < 1:
        raise DomainError("need at least one anchor")
    w = _normalized_weights(len(anchors), weights)
    ref = _mean_point(manifold, anchors)
    cap = 0.25 * math.pi / math.sqrt(manifold.sigma)
    spread = max(manifold.distance(ref, p) for p in anchors)
    if not spread < cap:
        raise DomainError(
            f"anchor spread {spread!r} must be strictly below the "
            f"quarter-sphere cap radius {cap!r}"
        )
    w_max = math.sqrt(manifold.sigma) * (cap + spread)
    mu = max(tan_ratio(w_max), _MU_FLOOR)
    objective, gradient = _barycenter_callables(manifold, anchors, w)
    payload = {
        "kind": "sphere_mean",
        "manifold": manifold_to_dict(manifold),
        "anchors": [p.coords.tolist() for p in anchors],
        "weights": w.tolist(),
    }
    return Problem(
        name=name,
        manifold=manifold,
        objective=objective,
        gradient=gradient,
        mu=mu,
        L=1.0,
        start=anchors[0],
        reference=ref,
        certified_radius=cap,
        payload=payload,
    )


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
    if n_anchors < 1:
        raise DomainError(f"need n_anchors >= 1, got {n_anchors}")
    limit = 0.125 * math.pi / math.sqrt(manifold.sigma)
    if not 0.0 < radius < limit:
        raise DomainError(
            f"radius must lie in (0, {limit!r}) for a certified cap, got {radius}"
        )
    rng = rng_from_seed(seed)
    center = manifold.base_point()
    anchors = [manifold.random_point(rng, center, radius) for _ in range(n_anchors)]
    problem = make_sphere_mean(
        manifold,
        anchors,
        weights,
        name=name or f"sphere-mean-k{n_anchors}",
    )
    problem.payload["seed"] = int(seed)
    problem.payload["radius"] = float(radius)
    return problem


# ----- reference optimum and audits ------------------------------------------


def oracle_optimum(
    problem: Problem,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
) -> ManifoldPoint:
    """Locate the optimum by plain geodesic gradient descent at step 1/L.

    Independent of the accelerated solver on purpose: its fixed point is
    used as the ground truth the solver traces are judged against.  Starts
    at ``problem.start``, stops when the gradient norm falls below ``tol``,
    and stores the result on the problem and returns it.
    """
    m = problem.manifold
    x = problem.start
    step = 1.0 / problem.L
    for _ in range(max_iters):
        g = problem.grad(x)
        if m.norm(x, g) <= tol:
            problem.set_optimum(x)
            return x
        x = m._exp(x, (-step) * g.coords)
    raise ConvergenceError(
        f"gradient norm did not reach {tol!r} within {max_iters} iterations"
    )


def gradient_audit(
    problem: Problem,
    n_points: int = 20,
    n_pairs: int = 40,
    seed: int = 0,
) -> dict:
    """Finite-difference and convexity audit of a problem's callables.

    Checks directional derivatives against central differences and the
    two-point strong-convexity / smoothness inequalities implied by the
    declared (mu, L), sampling inside the certified ball.  Returns a
    report dictionary; violation counts of zero mean the problem data is
    consistent.
    """
    m = problem.manifold
    rng = rng_from_seed(seed)
    radius = problem.certified_radius
    if not math.isfinite(radius):
        radius = 1.0 + 2.0 * m.distance(problem.start, problem.reference)
    samples = [
        m.random_point(rng, problem.reference, radius) for _ in range(n_points)
    ]
    max_fd_err = 0.0
    for x in samples:
        g = problem.grad(x)
        v = m.random_tangent(rng, x, 1.0)
        nrm = m.norm(x, v)
        v = (1.0 / nrm) * v
        plus = problem.value(m.exp(x, _FD_STEP * v))
        minus = problem.value(m.exp(x, (-_FD_STEP) * v))
        fd = (plus - minus) / (2.0 * _FD_STEP)
        exact = m.inner(x, g, v)
        max_fd_err = max(max_fd_err, abs(fd - exact) / (1.0 + abs(exact)))
    sc_violations = 0
    sm_violations = 0
    worst_sc = math.inf
    worst_sm = math.inf
    for _ in range(n_pairs):
        x = samples[int(rng.integers(len(samples)))]
        y = samples[int(rng.integers(len(samples)))]
        d = m.distance(x, y)
        lin = problem.value(x) + m.inner(x, problem.grad(x), m.log(x, y))
        scale = 1.0 + abs(problem.value(x)) + abs(problem.value(y)) + d * d
        sc_margin = problem.value(y) - lin - 0.5 * problem.mu * d * d
        sm_margin = lin + 0.5 * problem.L * d * d - problem.value(y)
        worst_sc = min(worst_sc, sc_margin / scale)
        worst_sm = min(worst_sm, sm_margin / scale)
        if sc_margin < -_AUDIT_TOL * scale:
            sc_violations += 1
        if sm_margin < -_AUDIT_TOL * scale:
            sm_violations += 1
    return {
        "problem": problem.name,
        "n_points": n_points,
        "n_pairs": n_pairs,
        "max_fd_rel_err": max_fd_err,
        "strong_convexity_violations": sc_violations,
        "smoothness_violations": sm_violations,
        "worst_sc_margin": worst_sc,
        "worst_sm_margin": worst_sm,
    }


# ----- serialization ----------------------------------------------------------


# Manifold kinds: class, size key, curvature key and its default (None in
# flat space).  A description takes exactly these keys.
_MANIFOLD_KINDS = {
    "euclidean": (Euclidean, "dim", None, None),
    "hyperbolic": (Hyperbolic, "dim", "kappa", 1.0),
    "sphere": (Sphere, "dim", "sigma", 1.0),
    "spd": (SPD, "n", "kappa", 0.5),
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
    if kind not in _MANIFOLD_KINDS:
        raise DomainError(f"unknown manifold kind {kind!r}")
    return kind


def curvature_key(d: dict) -> str:
    """The key of a manifold description's curvature parameter: ``sigma``
    on a sphere, ``kappa`` on hyperbolic and SPD spaces."""
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
        return cls(int(d[size_key]))
    return cls(int(d[size_key]), float(d.get(curv_key, default)))


def problem_to_dict(problem: Problem) -> dict:
    out = dict(problem.payload)
    out["name"] = problem.name
    out["mu"] = problem.mu
    out["L"] = problem.L
    if problem.optimum is not None:
        out["optimum"] = problem.optimum.coords.tolist()
    return out


def _require(d: dict, key: str) -> object:
    try:
        return d[key]
    except KeyError as exc:
        raise MissingDataError(f"problem description needs {key!r}") from exc


def problem_from_dict(d: dict) -> Problem:
    """Rebuild a problem from its dictionary form.

    Quadratics accept either explicit ``hessian``/``center``/``start``
    arrays or a ``(dim, mu, L, seed)`` generator block; barycenters accept
    explicit ``anchors`` or an ``(n_anchors, radius, seed)`` block.
    """
    kind = _require(d, "kind")
    name = d.get("name")
    if kind == "quadratic":
        if "hessian" in d:
            problem = quadratic_from_arrays(
                np.asarray(_require(d, "hessian"), dtype=float),
                np.asarray(_require(d, "center"), dtype=float),
                np.asarray(_require(d, "start"), dtype=float),
                mu=d.get("mu"),
                L=d.get("L"),
                name=name or "quadratic",
                seed=d.get("seed"),
            )
        else:
            problem = make_quadratic(
                int(_require(d, "dim")),
                float(_require(d, "mu")),
                float(_require(d, "L")),
                int(_require(d, "seed")),
                center=None if d.get("center") is None else np.asarray(d["center"]),
                name=name,
            )
    elif kind in ("karcher", "sphere_mean"):
        m = manifold_from_dict(_require(d, "manifold"))
        builder_explicit = make_karcher if kind == "karcher" else make_sphere_mean
        builder_random = random_karcher if kind == "karcher" else random_sphere_mean
        if "anchors" in d:
            anchors = [m.point(np.asarray(a, dtype=float)) for a in d["anchors"]]
            problem = builder_explicit(
                m, anchors, d.get("weights"), name=name or kind
            )
        else:
            problem = builder_random(
                m,
                int(_require(d, "n_anchors")),
                float(_require(d, "radius")),
                int(_require(d, "seed")),
                weights=d.get("weights"),
                name=name,
            )
    else:
        raise DomainError(f"unknown problem kind {kind!r}")
    if d.get("optimum") is not None:
        problem.set_optimum(
            problem.manifold.point(np.asarray(d["optimum"], dtype=float))
        )
    return problem
