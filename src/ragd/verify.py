"""Seeded property suites behind ``ragd verify``.

Each suite replays the library's mathematical contracts on freshly
sampled data: geometry round-trips, the distortion inequality families,
the momentum recursion (including the pinned staircase values), and
end-to-end potential certification.  Every check is tallied by one rule
from its per-sample residuals, where a positive residual means the
contract is broken by that much: ``count`` is the number of samples,
``violations`` the number whose residual exceeds ``tol`` (a NaN residual
always does), and ``worst`` the largest residual, so
``ok == (violations == 0) == (worst <= tol)``.  The potential checks pass
each step's residual minus its own allowance, from the reports of
:mod:`ragd.potential` (the certificate among them), at ``tol`` 0.
Reports are plain dictionaries so the CLI can emit them as JSON.

These suites are the one home of every check that the acceptance criteria
(``tests/test_acceptance.py``) state; each criterion runs the same checks on
its own pinned data, with the suite's tolerances.  A check function takes a
parameter only where the suite and its criterion pass different values;
every tolerance and sample size is written once, in this module:

- 01-03 (momentum staircase and limit, fixed points, contraction envelope):
  the ``xi`` suite at seed 3, ``ragd verify --suite xi --seed 3``;
- 04 (flat certificates across quadratics): :func:`_flat_family_checks`;
- 05 (curved certificates): the runs of :func:`_certified_karcher` at 500
  steps on hyperbolic seeds 0-19 and SPD seeds 100-109;
- 06 (flat rates against theory): :func:`_flat_rate_checks`;
- 07 (constant-rate momentum lock): :func:`_momentum_lock_checks`;
- 08 (acceleration threshold): :func:`_settle_threshold_checks` on a
  :func:`_long_step_run`;
- 09 (distortion inequality families): the ``distortion`` suite at seed 9,
  ``ragd verify --suite distortion --seed 9``;
- 10 (step-identity audits): :func:`_step_audit_checks`;
- 11 (distance-shrinking bounds): :func:`_shrink_checks` on the same
  long-step run.

The ``potential`` suite runs the checks of 04-08, 10 and 11 on small
instances drawn from its seed, and :func:`_gradient_checks` on the problems
of 10.  Facts that hold exactly are proven or pinned in the tests instead of
sampled here: the step algebra behind each decrease, the fixed point
``xi(1) = sqrt(a)`` and the derivative bound behind the contraction factor
symbolically, by ``tests/test_step_algebra.py``; ``t_kappa_hat <= t_kappa``
at the branches of its search, by ``tests/test_distortion.py``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .distortion import s_kappa, t_kappa, trig_coeff
from .errors import DomainError
from .geometry import SPD, Euclidean, Hyperbolic, Manifold, Sphere
from .potential import (
    acceleration_threshold,
    certify_trace,
    gradient_step_audit,
    mirror_step_audit,
    rate_envelope,
    shrink_bounds,
)
from .problems import (
    make_quadratic,
    oracle_optimum,
    random_karcher,
    random_sphere_mean,
    rng_from_seed,
)
from .solvers import SolverConfig, run
from .trace import estimate_rate
from .xi import XiParams, contraction_factor, fixed_point_xi, iterate_xi, next_xi, step_gain

__all__ = ["VERIFY_SUITES", "run_suite"]

# Pinned staircase values for a = 0.25, delta = 1, xi0 = 0.9.
_STAIRCASE = (0.6625, 0.5748, 0.5360)

_GEOM_TOL = 1e-9
_DISTORTION_SLACK = 1e-8
_XI_SLACK = 1e-12
# The tolerances of the claim checks; each check's docstring says what it bounds.
_RATE_REL_TOL = 0.10
_GAP_RATIO_MIN = 1e3
_LOCK_TOL = 1e-10
_SETTLE_EPS = 1e-3
_SHRINK_FLOOR = 1e-6
_SHRINK_MIN_COMPARED = 100
_FD_TOL = 1e-5

# Sample sizes: points per geometry case, triples per distortion family,
# xi trajectories, the steps of each certified run, and the points and pairs
# of each gradient audit.
_GEOMETRY_SAMPLES = 50
_DISTORTION_TRIPLES = 2000
_XI_TRIPLES = 100
_POTENTIAL_STEPS = 300
_AUDIT_POINTS = 20
_AUDIT_PAIRS = 40

_GEOMETRY_CHECKS = ("exp-log-roundtrip", "distance-vs-norm", "symmetry", "triangle",
                    "identity")


def _check(name: str, residuals, tol: float) -> dict:
    r = np.asarray(residuals, dtype=float)
    violations = int(np.count_nonzero(~(r <= tol)))
    return {
        "name": name,
        "count": int(r.size),
        "violations": violations,
        "worst": float(np.max(r, initial=-math.inf)),
        "tol": float(tol),
        "ok": violations == 0,
    }


# ----- geometry -------------------------------------------------------------


def _geometry_cases() -> list[tuple[str, Manifold, float]]:
    return [
        ("euclidean", Euclidean(12), 5.0),
        ("hyperbolic-k1", Hyperbolic(8, kappa=1.0), 2.0),
        ("hyperbolic-k2", Hyperbolic(5, kappa=2.0), 1.5),
        ("sphere", Sphere(7, sigma=1.0), 0.35),
        ("spd", SPD(4), 2.0),
    ]


def _geometry_checks(seed: int) -> list[dict]:
    rng = rng_from_seed(seed)
    checks: list[dict] = []
    for label, m, scale in _geometry_cases():
        base = m.base_point()
        rows = []
        for _ in range(_GEOMETRY_SAMPLES):
            x = m.random_point(rng, base, scale)
            v = m.random_tangent(rng, x, scale=scale)
            w = m.random_point(rng, base, scale)
            y = m.exp(x, v)
            nv, dxy = m.norm(x, v), m.distance(x, y)
            rows.append((
                m.norm(x, m.log(x, y) - v) / (1.0 + nv),
                abs(dxy - nv) / (1.0 + nv),
                abs(dxy - m.distance(y, x)),
                m.distance(x, w) - (dxy + m.distance(y, w)),
                max(m.distance(x, x), m.norm(x, m.log(x, x))),
            ))
        for check, residuals in zip(_GEOMETRY_CHECKS, zip(*rows)):
            checks.append(_check(f"{label}/{check}", residuals, _GEOM_TOL))
    return checks


# ----- distortion -----------------------------------------------------------


def _distortion_checks(seed: int) -> list[dict]:
    rng = rng_from_seed(seed)
    improved, rauch, trig = [], [], []
    for _ in range(_DISTORTION_TRIPLES):
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        m = Hyperbolic(5, kappa=kappa)
        x = m.random_point(rng, m.base_point(), 1.0)
        y = m.exp(x, m.random_tangent(rng, x, scale=1.5))
        z = m.exp(x, m.random_tangent(rng, x, scale=1.5))
        dxy, dxz, dyz = m.distance(x, y), m.distance(x, z), m.distance(y, z)
        pd = m.projected_distance(x, y, z)
        improved.append(dyz**2 - t_kappa(kappa, dxy) * pd**2)
        rauch.append(dyz**2 - s_kappa(kappa, max(dxy, dxz)) * pd**2)
        if dxy > 1e-12 and dxz > 1e-12:
            cos_a = m.inner(x, m.log(x, y), m.log(x, z)) / (dxy * dxz)
            trig.append(dyz**2 - (trig_coeff(kappa, dxy) * dxz**2 + dxy**2
                                  - 2.0 * dxz * dxy * cos_a))

    small = []
    for _ in range(_DISTORTION_TRIPLES):
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        r = float(rng.uniform(0.0, 0.5 / math.sqrt(kappa)))
        small.append(t_kappa(kappa, r) - (1.0 + 2.0 * kappa * r**2))

    sph = Sphere(5, sigma=1.0)
    cap = math.pi / 4.0
    sphere = []
    for _ in range(_DISTORTION_TRIPLES):
        x, y, z = (sph.random_point(rng, sph.base_point(), cap / 2) for _ in range(3))
        sphere.append(sph.projected_distance(x, y, z) ** 2
                      - (1.0 + 2.0 * sph.distance(x, y) ** 2) * sph.distance(y, z) ** 2)
    return [
        _check("improved-distortion", improved, _DISTORTION_SLACK),
        _check("rauch-distortion", rauch, _DISTORTION_SLACK),
        _check("trigonometric", trig, _DISTORTION_SLACK),
        _check("small-r-quadratic", small, 1e-9),
        _check("sphere-projection", sphere, _DISTORTION_SLACK),
    ]


# ----- xi -------------------------------------------------------------------


def _xi_checks(seed: int) -> list[dict]:
    rng = rng_from_seed(seed)
    xs = iterate_xi(0.9, XiParams(a=0.25, delta=1.0), 200)
    grid = np.linspace(1.0, 40.0, 200)
    rises, below = [], []
    for a in (0.01, 0.25, 0.49):
        vals = np.array([fixed_point_xi(XiParams(a=a, delta=float(d))) for d in grid])
        rises.extend(np.diff(vals))
        # Positive unless the fixed point lies strictly above ``a``.
        below.extend(np.nextafter(a, 1.0) - vals)

    excess = []
    for _ in range(_XI_TRIPLES):
        a = float(rng.uniform(0.0, 0.95))
        delta = float(rng.uniform(1.0, 50.0))
        params = XiParams(a=a, delta=delta)
        star = fixed_point_xi(params)
        lam = contraction_factor(params)
        xi = float(rng.uniform(max(a, 1e-6) + 1e-9, 1.0 - 1e-9))
        env = abs(xi - star)
        for _t in range(100):
            xi = next_xi(xi, params)
            env *= lam
            excess.append(abs(xi - star) - env)
    return [
        _check("staircase", [abs(xs[i + 1] - v) for i, v in enumerate(_STAIRCASE)], 1e-3),
        _check("staircase-limit", [abs(xs[-1] - 0.5)], 1e-8),
        _check("fixed-point-curved",
               [abs(fixed_point_xi(XiParams(a=0.25, delta=2.0)) - 0.366025)], 1e-6),
        _check("fixed-point-monotone", rises, 1e-14),
        _check("fixed-point-above-a", below, 0.0),
        _check("contraction-envelope", excess, _XI_SLACK),
    ]


# ----- potential ------------------------------------------------------------


def _diagnosed_run(prob, mode: str, steps: int, **settings) -> tuple:
    cfg = SolverConfig(mode=mode, mu=prob.mu, L=prob.L, max_iters=steps,
                       record_diagnostics=True, **settings)
    return cfg, run(prob, cfg)


def _certified_quadratic(seed: int, steps: int) -> tuple:
    prob = make_quadratic(20, 1.0, 80.0, seed=seed, center=np.zeros(20))
    return prob, _diagnosed_run(prob, "euclid_nesterov", steps)[1]


def _certified_karcher(manifold: Manifold, seed: int, steps: int) -> tuple:
    prob = random_karcher(manifold, 6, 1.2, seed=seed)
    oracle_optimum(prob)
    # Small steps keep the certified envelope's total decay within what
    # float distances can resolve over the whole run.
    gamma = 5e-5
    _, a = step_gain(prob.mu, prob.L, gamma)
    return prob, _diagnosed_run(prob, "ragd", steps, gamma=gamma, xi0=math.sqrt(a))[1]


def _audit_check(name: str, *reports) -> dict:
    """One check over the steps of every report: each step's residual less
    its allowance, at ``tol`` 0."""
    return _check(name, np.concatenate([r.residuals - r.allowed for r in reports]), 0.0)


def _flat_family_checks(seed: int, count: int, steps: int) -> list[dict]:
    """Criterion 04: Nesterov runs on ``count`` random quadratics drawn from
    ``seed`` are certified at every step.  The coefficients of each step's
    quadratic form are proven, not sampled (``tests/test_step_algebra.py``)."""
    rng = rng_from_seed(seed)
    reports = []
    for i in range(count):
        dim = int(rng.integers(2, 51))
        q = float(rng.uniform(1e-3, 1.0))
        big = float(rng.uniform(1.0, 100.0))
        prob = make_quadratic(dim, q * big, big, seed=1000 + i, center=np.zeros(dim))
        tr = run(prob, SolverConfig(mode="euclid_nesterov", mu=prob.mu, L=prob.L,
                                    max_iters=steps))
        reports.append(certify_trace(tr, prob))
    return [_audit_check("flat-family/certified-decrease", *reports)]


def _flat_rate_checks(seed: int) -> list[dict]:
    """Criterion 06: on a quadratic with L/mu = 100, the fitted error rates
    of Nesterov's method and of gradient descent at gamma = 1/L are within
    ``_RATE_REL_TOL`` of log(1 - sqrt(mu/L)) and log(1 - mu/L), and at step
    300 the descent's gap is ``_GAP_RATIO_MIN`` times Nesterov's or more."""
    prob = make_quadratic(30, 1.0, 100.0, seed=seed, center=np.zeros(30))
    gaps, errors = [], []
    for mode, target in (("euclid_nesterov", math.log(1.0 - math.sqrt(0.01))),
                         ("rgd", math.log(1.0 - 0.01))):
        cfg = SolverConfig(mode=mode, mu=1.0, L=100.0, gamma=0.01, max_iters=500)
        gaps.append(run(prob, cfg).column("f_gap"))
        errors.append(abs(estimate_rate(gaps[-1]).slope / 2.0 - target) / abs(target))
    return [
        _check("flat-rates/rate-vs-theory", errors, _RATE_REL_TOL),
        _check("flat-rates/rgd-gap-ratio", [_GAP_RATIO_MIN * gaps[0][300] - gaps[1][300]], 0.0),
    ]


def _momentum_lock_checks(seed: int) -> list[dict]:
    """Criterion 07: ``ragd_constant_delta`` on a tight hyperbolic barycenter
    with L inflated five-fold, delta = 1 + 0.2 sqrt(mu/L) and xi0 = xi(delta):
    xi stays within ``_LOCK_TOL`` of xi(delta) >= 0.9 sqrt(mu/L), every
    distortion rate is at most delta, and every gradient step decreases f."""
    base = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.02, seed=seed)
    prob = dataclasses.replace(base, L=5.0 * base.L)
    q = prob.mu / prob.L
    delta = 1.0 + 0.2 * math.sqrt(q)
    star = fixed_point_xi(XiParams(a=q, delta=delta))
    _, tr = _diagnosed_run(prob, "ragd_constant_delta", 200, gamma=1.0 / prob.L, xi0=star,
                           delta_const=delta)
    rates = [t_kappa(1.0, d) for d in tr.column("d_xz").tolist()]
    return [
        _check("constant-delta/xi-lock", np.abs(tr.column("xi") - star), _LOCK_TOL),
        _check("constant-delta/lock-level", [0.9 * math.sqrt(q) - star], 0.0),
        _check("constant-delta/distortion-rate", np.array(rates) - delta, 0.0),
        _audit_check("constant-delta/gradient-decrease", gradient_step_audit(tr, prob)),
    ]


def _long_step_run(karcher_seed: int, start_seed: int) -> tuple:
    """``(problem, config, trace)`` of 400 steps at gamma * L = 1.05 on a
    hyperbolic barycenter (H(8), 6 anchors within 2.5), from a unit step off
    the reference.  It is not certified: the certifier has no rounding floor
    for such a run yet (ROADMAP.md, item 2)."""
    prob = random_karcher(Hyperbolic(8, kappa=1.0), 6, 2.5, seed=karcher_seed)
    oracle_optimum(prob)
    m, ref = prob.manifold, prob.reference
    v = m.random_tangent(rng_from_seed(start_seed), ref, 1.0)
    start = m.exp(ref, (1.0 / m.norm(ref, v)) * v)
    return prob, *_diagnosed_run(dataclasses.replace(prob, start=start), "ragd", 400,
                                 gamma=1.05 / prob.L)


def _settle_threshold_checks(prob, cfg: SolverConfig, tr) -> list[dict]:
    """Criterion 08: xi settles within ``_SETTLE_EPS`` below sqrt(a) no later
    than :func:`~ragd.potential.acceleration_threshold` says, and stays above
    a.  The settle step is one past the last row whose xi lies below
    ``sqrt(a) - _SETTLE_EPS`` (0 if none does); the threshold takes the run's
    ``phi_0`` as its ``d0``."""
    xi = tr.column("xi")
    threshold = acceleration_threshold(prob.mu, prob.L, cfg.resolved_gamma, prob.manifold.kappa,
                                       float(tr.column("potential")[0]), eps=_SETTLE_EPS)
    below = np.nonzero(xi < math.sqrt(cfg.a) - _SETTLE_EPS)[0]
    settled = int(below[-1]) + 1 if below.size else 0
    return [
        _check("long-step/settle-threshold", [settled - threshold], 0.0),
        _check("long-step/xi-above-a", np.nextafter(cfg.a, 1.0) - xi[1:], 0.0),
    ]


def _shrink_checks(prob, tr) -> list[dict]:
    """Criterion 11: every bound of :func:`~ragd.potential.shrink_bounds`
    holds where it is at least ``_SHRINK_FLOOR``, on ``_SHRINK_MIN_COMPARED`` rows or more."""
    reports = shrink_bounds(tr, prob, floor=_SHRINK_FLOOR)
    compared = sum(r.compared for r in reports)
    return [
        _audit_check("long-step/shrink-bounds", *reports),
        _check("long-step/shrink-compared", [_SHRINK_MIN_COMPARED - compared], 0.0),
    ]


def _step_audit_cases(quadratic_seed: int, hyperbolic_seed: int, spd_seed: int,
                      sphere_seed: int) -> list[tuple]:
    """Criterion 10's ``(label, problem, mode, steps)`` runs."""
    hyp = random_karcher(Hyperbolic(8, kappa=1.0), 6, 1.2, seed=hyperbolic_seed)
    quad = make_quadratic(20, 1.0, 50.0, seed=quadratic_seed, center=np.zeros(20))
    return [
        ("quadratic", quad, "euclid_nesterov", 100),
        ("hyperbolic", hyp, "ragd", 60),
        ("spd", random_karcher(SPD(4), 6, 1.2, seed=spd_seed), "ragd", 60),
        ("sphere", random_sphere_mean(Sphere(7, sigma=1.0), 6, 0.3, seed=sphere_seed), "ragd", 60),
        ("hyperbolic-rgd", hyp, "rgd", 60),
    ]


def _step_audit_checks(cases: list[tuple]) -> list[dict]:
    """Criterion 10: at the default step size every step keeps the gradient
    step's decrease and, in the accelerated modes, the mirror-step identity."""
    checks = []
    for label, prob, mode, steps in cases:
        if prob.optimum is None:
            oracle_optimum(prob)
        _, tr = _diagnosed_run(prob, mode, steps)
        if mode != "rgd":
            checks.append(_audit_check(f"step-audit/{label}/mirror-identity",
                                       mirror_step_audit(tr, prob)))
        checks.append(_audit_check(f"step-audit/{label}/gradient-decrease",
                                   gradient_step_audit(tr, prob)))
    return checks


def _gradient_checks(prob, seed: int) -> list[dict]:
    """Audit of a problem's callables at points drawn inside its certified
    ball: directional derivatives within ``_FD_TOL`` of central differences,
    and the two-point strong convexity and smoothness of the declared (mu, L)
    over random pairs, relative to 1 + |f(x)| + |f(y)| + d**2 and allowed 1e-8."""
    m, ref, h = prob.manifold, prob.reference, 1e-5
    rng = rng_from_seed(seed)
    radius = prob.certified_radius
    if not math.isfinite(radius):
        radius = 1.0 + 2.0 * m.distance(prob.start, ref)
    samples = [m.random_point(rng, ref, radius) for _ in range(_AUDIT_POINTS)]
    fd = []
    for x in samples:
        v = m.random_tangent(rng, x, 1.0)
        v = (1.0 / m.norm(x, v)) * v
        exact = m.inner(x, prob.grad(x), v)
        diff = (prob.value(m.exp(x, h * v)) - prob.value(m.exp(x, (-h) * v))) / (2.0 * h)
        fd.append(abs(diff - exact) / (1.0 + abs(exact)))
    defects = []
    for _ in range(_AUDIT_PAIRS):
        x, y = (samples[int(rng.integers(_AUDIT_POINTS))] for _ in range(2))
        d, fx, fy = m.distance(x, y), prob.value(x), prob.value(y)
        lin = fx + m.inner(x, prob.grad(x), m.log(x, y))
        scale = 1.0 + abs(fx) + abs(fy) + d * d
        defects.append(((lin + 0.5 * prob.mu * d * d - fy) / scale,
                        (fy - lin - 0.5 * prob.L * d * d) / scale))
    convexity, smoothness = np.array(defects).reshape(-1, 2).T
    name = f"gradient-audit/{prob.name}"
    return [
        _check(f"{name}/fd-gradient", fd, _FD_TOL),
        _check(f"{name}/strong-convexity", convexity, 1e-8),
        _check(f"{name}/smoothness", smoothness, 1e-8),
    ]


def _certified_run_checks(seed: int) -> list[dict]:
    """The suite's certified runs: a quadratic, and the curved runs whose
    builder criterion 05 certifies."""
    checks: list[dict] = []
    runs = [
        ("quadratic", *_certified_quadratic(seed, _POTENTIAL_STEPS)),
        ("hyperbolic", *_certified_karcher(Hyperbolic(8, kappa=1.0), seed, _POTENTIAL_STEPS)),
        ("spd", *_certified_karcher(SPD(4), seed + 100, _POTENTIAL_STEPS)),
    ]
    for label, prob, tr in runs:
        checks.append(_audit_check(f"{label}/certified-decrease", certify_trace(tr, prob)))
        for check, audit in (("mirror-identity", mirror_step_audit),
                             ("gradient-decrease", gradient_step_audit),
                             ("rate-envelope", rate_envelope)):
            checks.append(_audit_check(f"{label}/{check}", audit(tr, prob)))
    return checks


def _potential_checks(seed: int) -> list[dict]:
    checks = _certified_run_checks(seed)
    prob, cfg, tr = _long_step_run(seed, seed)
    cases = _step_audit_cases(seed, seed, seed + 100, seed)
    checks += [
        *_flat_family_checks(seed, 3, _POTENTIAL_STEPS), *_flat_rate_checks(seed),
        *_momentum_lock_checks(seed), *_settle_threshold_checks(prob, cfg, tr),
        *_shrink_checks(prob, tr), *_step_audit_checks(cases),
    ]
    # the four problems of the step audits
    for _, problem, _, _ in cases[:4]:
        checks += _gradient_checks(problem, seed)
    return checks


# ----- dispatcher -----------------------------------------------------------


_SUITES = {
    "geometry": _geometry_checks,
    "distortion": _distortion_checks,
    "xi": _xi_checks,
    "potential": _potential_checks,
}

VERIFY_SUITES = (*_SUITES, "all")


def _report(suite: str, seed: int) -> dict:
    checks = _SUITES[suite](seed)
    return {
        "suite": suite,
        "seed": int(seed),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one named suite (or ``all``) and return its JSON-able report."""
    if suite not in VERIFY_SUITES:
        raise DomainError(
            f"unknown suite {suite!r}; expected one of {VERIFY_SUITES}"
        )
    if suite != "all":
        return _report(suite, seed)
    reports = [_report(name, seed) for name in _SUITES]
    return {
        "suite": "all",
        "seed": int(seed),
        "suites": reports,
        "ok": all(r["ok"] for r in reports),
    }
