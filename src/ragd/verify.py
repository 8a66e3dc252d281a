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
each step's defect minus the certifier's own allowance, at ``tol`` 0.
Reports are plain dictionaries so the CLI can emit them as JSON.

These suites are the one home of the checks that several acceptance
criteria (``tests/test_acceptance.py``) state, so each criterion below can
be re-checked from the command line:

- criteria 01-03 (momentum staircase and limit, fixed points, contraction
  envelope) are the ``xi`` suite at seed 3, ``ragd verify --suite xi
  --seed 3``;
- criterion 05 (curved certificates) certifies the runs of
  :func:`_certified_karcher`, the builder of the ``potential`` suite's
  curved runs, at 500 steps on hyperbolic seeds 0-19 and SPD seeds
  100-109;
- criterion 09 (distortion inequality families) is the ``distortion``
  suite at seed 9, ``ragd verify --suite distortion --seed 9``.
"""

from __future__ import annotations

import math

import numpy as np

from .distortion import s_kappa, t_kappa, t_kappa_hat, trig_coeff
from .errors import DomainError
from .geometry import SPD, Euclidean, Hyperbolic, Manifold, Sphere
from .potential import (
    certify_trace,
    gradient_step_audit,
    mirror_step_audit,
    quadratic_form_audit,
    rate_envelope,
)
from .problems import (
    make_quadratic,
    oracle_optimum,
    random_karcher,
    rng_from_seed,
)
from .solvers import SolverConfig, run
from .xi import XiParams, contraction_factor, fixed_point_xi, iterate_xi, next_xi, step_gain

__all__ = ["VERIFY_SUITES", "run_suite"]

# Pinned staircase values for a = 0.25, delta = 1, xi0 = 0.9.
_STAIRCASE = (0.6625, 0.5748, 0.5360)

_GEOM_TOL = 1e-9
_DISTORTION_SLACK = 1e-8
_XI_SLACK = 1e-12

# Sample sizes: points per geometry case, triples per distortion family,
# xi trajectories, and the steps of each certified run.
_GEOMETRY_SAMPLES = 50
_DISTORTION_TRIPLES = 2000
_XI_TRIPLES = 100
_POTENTIAL_STEPS = 300

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

    sharp = [
        t_kappa_hat(kappa, float(r)) - t_kappa(kappa, float(r))
        for r in np.logspace(-6, math.log10(5.0), 60)
        for kappa in (0.5, 1.0, 2.0)
    ]
    return [
        _check("improved-distortion", improved, _DISTORTION_SLACK),
        _check("rauch-distortion", rauch, _DISTORTION_SLACK),
        _check("trigonometric", trig, _DISTORTION_SLACK),
        _check("small-r-quadratic", small, 1e-9),
        _check("sphere-projection", sphere, _DISTORTION_SLACK),
        _check("sharp-below-plain", sharp, 1e-12),
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
        _check("fixed-point-flat", [
            abs(fixed_point_xi(XiParams(a=a, delta=1.0)) - math.sqrt(a))
            for a in (0.01, 0.09, 0.25)
        ], 1e-12),
        _check("fixed-point-curved",
               [abs(fixed_point_xi(XiParams(a=0.25, delta=2.0)) - 0.366025)], 1e-6),
        _check("fixed-point-monotone", rises, 1e-14),
        _check("fixed-point-above-a", below, 0.0),
        _check("contraction-envelope", excess, _XI_SLACK),
    ]


# ----- potential ------------------------------------------------------------


def _certified_quadratic(seed: int, steps: int) -> tuple:
    prob = make_quadratic(20, 1.0, 80.0, seed=seed, center=np.zeros(20))
    cfg = SolverConfig(
        mode="euclid_nesterov", mu=1.0, L=80.0, max_iters=steps,
        record_diagnostics=True,
    )
    return prob, run(prob, cfg)


def _certified_karcher(manifold: Manifold, seed: int, steps: int) -> tuple:
    prob = random_karcher(manifold, 6, 1.2, seed=seed)
    oracle_optimum(prob)
    # Small steps keep the certified envelope's total decay within what
    # float distances can resolve over the whole run.
    gamma = 5e-5
    _, a = step_gain(prob.mu, prob.L, gamma)
    cfg = SolverConfig(
        mode="ragd", mu=prob.mu, L=prob.L, gamma=gamma, xi0=math.sqrt(a),
        max_iters=steps, record_diagnostics=True,
    )
    return prob, run(prob, cfg)


def _potential_checks(seed: int) -> list[dict]:
    checks: list[dict] = []
    runs = [
        ("quadratic", *_certified_quadratic(seed, _POTENTIAL_STEPS)),
        ("hyperbolic", *_certified_karcher(Hyperbolic(8, kappa=1.0), seed, _POTENTIAL_STEPS)),
        ("spd", *_certified_karcher(SPD(4), seed + 100, _POTENTIAL_STEPS)),
    ]
    for label, prob, tr in runs:
        cert = certify_trace(tr, prob)
        checks.append(_check(f"{label}/certified-decrease",
                             [-(r.margin + r.allowed) for r in cert.records[:-1]], 0.0))
        for check, audit in (("mirror-identity", mirror_step_audit),
                             ("gradient-decrease", gradient_step_audit),
                             ("rate-envelope", rate_envelope)):
            rep = audit(tr, prob)
            checks.append(_check(f"{label}/{check}", rep.residuals - rep.allowed, 0.0))
    _, prob, tr = runs[0]
    rep = quadratic_form_audit(tr, prob)
    checks.append(_check("quadratic/coefficient-form", rep.residuals - rep.allowed, 0.0))
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
