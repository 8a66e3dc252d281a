"""Seeded property suites behind ``ragd verify``.

Each suite replays the library's mathematical contracts on freshly
sampled data and reports per-check margins: geometry round-trips, the
distortion inequality families, the momentum recursion (including the
pinned staircase values), and end-to-end potential certification.
Reports are plain dictionaries so the CLI can emit them as JSON.
"""

from __future__ import annotations

import math

import numpy as np

from .distortion import s_kappa, t_kappa, t_kappa_hat, trig_coeff
from .errors import DomainError
from .geometry import SPD, Euclidean, Hyperbolic, Manifold, Sphere
from .potential import (
    CERT_TOL,
    ENVELOPE_TOL,
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
from .xi import XiParams, contraction_factor, fixed_point_xi, iterate_xi, next_xi

__all__ = ["VERIFY_SUITES", "run_suite"]

VERIFY_SUITES = ("geometry", "distortion", "xi", "potential", "all")

# Pinned staircase values for a = 0.25, delta = 1, xi0 = 0.9.
_STAIRCASE = (0.6625, 0.5748, 0.5360)

_GEOM_TOL = 1e-9
_DISTORTION_SLACK = 1e-8
_XI_SLACK = 1e-12


def _check(name: str, count: int, violations: int, worst: float, tol: float) -> dict:
    return {
        "name": name,
        "count": int(count),
        "violations": int(violations),
        "worst": float(worst),
        "tol": float(tol),
        "ok": violations == 0,
    }


def _finish(suite: str, seed: int, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "seed": int(seed),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
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


def geometry_suite(seed: int, n_samples: int = 50) -> dict:
    rng = rng_from_seed(seed)
    checks: list[dict] = []
    for label, m, scale in _geometry_cases():
        base = m.base_point()
        viol_rt = viol_dn = viol_sym = viol_tri = viol_zero = 0
        worst_rt = worst_dn = worst_sym = worst_tri = worst_zero = 0.0
        for _ in range(n_samples):
            x = m.random_point(rng, base, scale)
            v = m.random_tangent(rng, x, scale=scale)
            y = m.exp(x, v)
            nv = m.norm(x, v)
            back = m.log(x, y)
            err = m.norm(x, back - v) / (1.0 + nv)
            worst_rt = max(worst_rt, err)
            viol_rt += err > _GEOM_TOL
            err = abs(m.distance(x, y) - nv) / (1.0 + nv)
            worst_dn = max(worst_dn, err)
            viol_dn += err > _GEOM_TOL
            err = abs(m.distance(x, y) - m.distance(y, x))
            worst_sym = max(worst_sym, err)
            viol_sym += err > _GEOM_TOL
            w = m.random_point(rng, base, scale)
            err = m.distance(x, w) - (m.distance(x, y) + m.distance(y, w))
            worst_tri = max(worst_tri, err)
            viol_tri += err > _GEOM_TOL
            err = max(m.distance(x, x), m.norm(x, m.log(x, x)))
            worst_zero = max(worst_zero, err)
            viol_zero += err > _GEOM_TOL
        checks.append(
            _check(f"{label}/exp-log-roundtrip", n_samples, viol_rt, worst_rt, _GEOM_TOL)
        )
        checks.append(
            _check(f"{label}/distance-vs-norm", n_samples, viol_dn, worst_dn, _GEOM_TOL)
        )
        checks.append(
            _check(f"{label}/symmetry", n_samples, viol_sym, worst_sym, _GEOM_TOL)
        )
        checks.append(
            _check(f"{label}/triangle", n_samples, viol_tri, worst_tri, _GEOM_TOL)
        )
        checks.append(
            _check(f"{label}/identity", n_samples, viol_zero, worst_zero, _GEOM_TOL)
        )
    return _finish("geometry", seed, checks)


# ----- distortion -----------------------------------------------------------


def distortion_suite(seed: int, n_triples: int = 2000) -> dict:
    rng = rng_from_seed(seed)
    checks: list[dict] = []
    viol = {k: 0 for k in ("improved", "rauch", "trig")}
    worst = {k: math.inf for k in viol}
    n_trig = 0
    for _ in range(n_triples):
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        m = Hyperbolic(5, kappa=kappa)
        x = m.random_point(rng, m.base_point(), 1.0)
        y = m.exp(x, m.random_tangent(rng, x, scale=1.5))
        z = m.exp(x, m.random_tangent(rng, x, scale=1.5))
        dxy, dxz, dyz = m.distance(x, y), m.distance(x, z), m.distance(y, z)
        pd = m.projected_distance(x, y, z)
        s = t_kappa(kappa, dxy) * pd**2 - dyz**2
        worst["improved"] = min(worst["improved"], s)
        viol["improved"] += s < -_DISTORTION_SLACK
        s = s_kappa(kappa, max(dxy, dxz)) * pd**2 - dyz**2
        worst["rauch"] = min(worst["rauch"], s)
        viol["rauch"] += s < -_DISTORTION_SLACK
        if dxy > 1e-12 and dxz > 1e-12:
            n_trig += 1
            cos_a = m.inner(x, m.log(x, y), m.log(x, z)) / (dxy * dxz)
            s = (
                trig_coeff(kappa, dxy) * dxz**2
                + dxy**2
                - 2.0 * dxz * dxy * cos_a
                - dyz**2
            )
            worst["trig"] = min(worst["trig"], s)
            viol["trig"] += s < -_DISTORTION_SLACK
    checks.append(
        _check("improved-distortion", n_triples, viol["improved"], worst["improved"],
               _DISTORTION_SLACK)
    )
    checks.append(
        _check("rauch-distortion", n_triples, viol["rauch"], worst["rauch"],
               _DISTORTION_SLACK)
    )
    checks.append(
        _check("trigonometric", n_trig, viol["trig"], worst["trig"], _DISTORTION_SLACK)
    )

    viol_small = 0
    worst_small = math.inf
    for _ in range(n_triples):
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        r = float(rng.uniform(0.0, 0.5 / math.sqrt(kappa)))
        s = 1.0 + 2.0 * kappa * r**2 + 1e-9 - t_kappa(kappa, r)
        worst_small = min(worst_small, s)
        viol_small += s < 0.0
    checks.append(_check("small-r-quadratic", n_triples, viol_small, worst_small, 1e-9))

    sph = Sphere(5, sigma=1.0)
    cap = math.pi / 4.0
    viol_sph = 0
    worst_sph = math.inf
    for _ in range(n_triples):
        x = sph.random_point(rng, sph.base_point(), cap / 2)
        y = sph.random_point(rng, sph.base_point(), cap / 2)
        z = sph.random_point(rng, sph.base_point(), cap / 2)
        s = (1.0 + 2.0 * sph.distance(x, y) ** 2) * sph.distance(y, z) ** 2
        s -= sph.projected_distance(x, y, z) ** 2
        worst_sph = min(worst_sph, s)
        viol_sph += s < -_DISTORTION_SLACK
    checks.append(
        _check("sphere-projection", n_triples, viol_sph, worst_sph, _DISTORTION_SLACK)
    )

    viol_hat = 0
    worst_hat = math.inf
    for r in np.logspace(-6, math.log10(5.0), 60):
        for kappa in (0.5, 1.0, 2.0):
            s = t_kappa(kappa, float(r)) - t_kappa_hat(kappa, float(r))
            worst_hat = min(worst_hat, s)
            viol_hat += s < -1e-12
    checks.append(_check("sharp-below-plain", 180, viol_hat, worst_hat, 1e-12))
    return _finish("distortion", seed, checks)


# ----- xi -------------------------------------------------------------------


def xi_suite(seed: int, n_triples: int = 100) -> dict:
    rng = rng_from_seed(seed)
    checks: list[dict] = []

    xs = iterate_xi(0.9, XiParams(a=0.25, delta=1.0), 200)
    stair_err = max(abs(xs[i + 1] - v) for i, v in enumerate(_STAIRCASE))
    checks.append(_check("staircase", 3, int(stair_err > 1e-3), stair_err, 1e-3))
    tail_err = abs(xs[-1] - 0.5)
    checks.append(_check("staircase-limit", 1, int(tail_err > 1e-8), tail_err, 1e-8))

    worst_fp = 0.0
    for a in (0.01, 0.09, 0.25):
        worst_fp = max(
            worst_fp, abs(fixed_point_xi(XiParams(a=a, delta=1.0)) - math.sqrt(a))
        )
    checks.append(
        _check("fixed-point-flat", 3, int(worst_fp > 1e-12), worst_fp, 1e-12)
    )
    err = abs(fixed_point_xi(XiParams(a=0.25, delta=2.0)) - 0.366025)
    checks.append(_check("fixed-point-curved", 1, int(err > 1e-6), err, 1e-6))

    grid = np.linspace(1.0, 40.0, 200)
    viol_mono = 0
    viol_above = 0
    for a in (0.01, 0.25, 0.49):
        vals = [fixed_point_xi(XiParams(a=a, delta=float(d))) for d in grid]
        viol_mono += sum(b > x + 1e-14 for x, b in zip(vals, vals[1:]))
        viol_above += sum(v <= a for v in vals)
    checks.append(_check("fixed-point-monotone", 3 * (len(grid) - 1), viol_mono, 0.0, 0.0))
    checks.append(_check("fixed-point-above-a", 3 * len(grid), viol_above, 0.0, 0.0))

    viol_env = 0
    worst_env = -math.inf
    for _ in range(n_triples):
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
            excess = abs(xi - star) - env
            worst_env = max(worst_env, excess)
            viol_env += excess > _XI_SLACK
    checks.append(
        _check("contraction-envelope", n_triples * 100, viol_env, worst_env, _XI_SLACK)
    )
    return _finish("xi", seed, checks)


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
    gamma = 5e-5
    a = 2.0 * prob.mu * gamma * (1.0 - prob.L * gamma / 2.0)
    cfg = SolverConfig(
        mode="ragd", mu=prob.mu, L=prob.L, gamma=gamma, xi0=math.sqrt(a),
        max_iters=steps, record_diagnostics=True,
    )
    return prob, run(prob, cfg)


def potential_suite(seed: int, steps: int = 300) -> dict:
    checks: list[dict] = []
    runs = [
        ("quadratic", *_certified_quadratic(seed, steps)),
        ("hyperbolic", *_certified_karcher(Hyperbolic(8, kappa=1.0), seed, steps)),
        ("spd", *_certified_karcher(SPD(4), seed + 100, steps)),
    ]
    for label, prob, tr in runs:
        rep = certify_trace(tr, prob)
        checks.append(
            _check(f"{label}/certified-decrease", len(rep.records) - 1,
                   rep.violations, -rep.worst_margin, CERT_TOL)
        )
        ma = mirror_step_audit(tr, prob)
        checks.append(
            _check(f"{label}/mirror-identity", len(ma.residuals), ma.violations,
                   ma.worst_excess, CERT_TOL)
        )
        ga = gradient_step_audit(tr, prob)
        checks.append(
            _check(f"{label}/gradient-decrease", len(ga.residuals), ga.violations,
                   ga.worst_excess, CERT_TOL)
        )
        env = rate_envelope(tr, prob)
        checks.append(
            _check(f"{label}/rate-envelope", len(env.residuals), env.violations,
                   env.worst_excess, ENVELOPE_TOL)
        )
    label, prob, tr = runs[0]
    qa = quadratic_form_audit(tr, prob)
    checks.append(
        _check("quadratic/coefficient-form", len(qa.residuals), qa.violations,
               qa.worst_excess, CERT_TOL)
    )
    return _finish("potential", seed, checks)


# ----- dispatcher -----------------------------------------------------------


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one named suite (or ``all``) and return its JSON-able report."""
    if suite not in VERIFY_SUITES:
        raise DomainError(
            f"unknown suite {suite!r}; expected one of {VERIFY_SUITES}"
        )
    if suite == "geometry":
        return geometry_suite(seed)
    if suite == "distortion":
        return distortion_suite(seed)
    if suite == "xi":
        return xi_suite(seed)
    if suite == "potential":
        return potential_suite(seed)
    reports = [
        geometry_suite(seed),
        distortion_suite(seed),
        xi_suite(seed),
        potential_suite(seed),
    ]
    return {
        "suite": "all",
        "seed": int(seed),
        "suites": reports,
        "ok": all(r["ok"] for r in reports),
    }
