"""End-to-end acceptance checks, one test per stated criterion.

Each test is a single pass/fail line under ``pytest -v``.  The checks
pin the momentum recursion values, fixed points and contraction, the
per-step potential certificates in flat and curved space, the measured
convergence rates, the constant-rate momentum lock, the acceleration
entry threshold, the distortion inequality families, the step-identity
audits, and the distance-shrinking bounds.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest

from ragd.distortion import s_kappa, t_kappa, trig_coeff
from ragd.errors import MissingDataError
from ragd.geometry import SPD, Hyperbolic, Sphere
from ragd.potential import (
    acceleration_threshold,
    certify_trace,
    count_shrink_violations,
    gradient_step_audit,
    mirror_step_audit,
    shrink_bounds,
    trace_coefficient_blocks,
)
from ragd.problems import (
    make_quadratic,
    oracle_optimum,
    random_karcher,
    random_sphere_mean,
    rng_from_seed,
)
from ragd.solvers import SolverConfig, run
from ragd.trace import estimate_rate
from ragd.xi import XiParams, contraction_factor, fixed_point_xi, iterate_xi, next_xi

STAIRCASE = (0.6625, 0.5748, 0.5360)
STAIR_TOL = 1e-3
LIMIT_TOL = 1e-8
FIXED_POINT_TOL = 1e-12
CURVED_FP_TOL = 1e-6
ENVELOPE_SLACK = 1e-12
VANISH_TOL = 1e-12
CROSS_TOL = 1e-10
RATE_REL_TOL = 0.10
GAP_RATIO_MIN = 1e3
LOCK_TOL = 1e-10
DISTORTION_SLACK = 1e-8
SHRINK_FLOOR = 1e-6

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


@pytest.fixture(scope="module")
def long_step_run():
    """Hyperbolic barycenter run in the long-step regime, reused by the
    entry-threshold and distance-shrinking criteria."""
    prob = random_karcher(Hyperbolic(8, kappa=1.0), 6, 2.5, seed=2)
    oracle_optimum(prob)
    m = prob.manifold
    rng = rng_from_seed(8)
    v = m.random_tangent(rng, prob.reference, 1.0)
    v = (1.0 / m.norm(prob.reference, v)) * v
    x0 = m.exp(prob.reference, v)
    config = SolverConfig(
        mode="ragd",
        mu=prob.mu,
        L=prob.L,
        gamma=1.05 / prob.L,
        max_iters=400,
        record_diagnostics=True,
    )
    return prob, config, run(dataclasses.replace(prob, start=x0), config)


def test_criterion_01_momentum_staircase_and_limit():
    xs = iterate_xi(0.9, XiParams(a=0.25, delta=1.0), 200)
    for step, value in enumerate(STAIRCASE):
        assert abs(xs[step + 1] - value) <= STAIR_TOL
    assert abs(xs[200] - 0.5) <= LIMIT_TOL


def test_criterion_02_momentum_fixed_points():
    for a in (0.01, 0.09, 0.25):
        star = fixed_point_xi(XiParams(a=a, delta=1.0))
        assert abs(star - math.sqrt(a)) <= FIXED_POINT_TOL
    assert abs(fixed_point_xi(XiParams(a=0.25, delta=2.0)) - 0.366025) <= CURVED_FP_TOL
    grid = np.linspace(1.0, 40.0, 200)
    for a in (0.01, 0.25, 0.49):
        stars = [fixed_point_xi(XiParams(a=a, delta=float(d))) for d in grid]
        assert all(nxt <= cur + 1e-14 for cur, nxt in zip(stars, stars[1:]))
        assert all(star > a for star in stars)


def test_criterion_03_momentum_contraction_envelope():
    rng = rng_from_seed(3)
    for _ in range(100):
        a = float(rng.uniform(0.0, 0.95))
        delta = float(rng.uniform(1.0, 50.0))
        params = XiParams(a=a, delta=delta)
        star = fixed_point_xi(params)
        lam = contraction_factor(params)
        xi = float(rng.uniform(max(a, 1e-6) + 1e-9, 1.0 - 1e-9))
        envelope = abs(xi - star)
        for _step in range(100):
            xi = next_xi(xi, params)
            envelope *= lam
            assert abs(xi - star) <= envelope + ENVELOPE_SLACK


def test_criterion_04_flat_certificates_across_quadratics():
    rng = rng_from_seed(4)
    for i in range(50):
        dim = int(rng.integers(2, 51))
        q = float(rng.uniform(1e-3, 1.0))
        big = float(rng.uniform(1.0, 100.0))
        prob = make_quadratic(dim, q * big, big, seed=1000 + i, center=np.zeros(dim))
        config = SolverConfig(
            mode="euclid_nesterov",
            mu=q * big,
            L=big,
            max_iters=500,
            record_diagnostics=True,
        )
        trace = run(prob, config)
        report = certify_trace(trace, prob)
        assert report.violations == 0
        for block in trace_coefficient_blocks(trace):
            assert block.c1 <= VANISH_TOL
            assert block.c2 <= VANISH_TOL and block.c3 <= VANISH_TOL
            for cross in (block.c4, block.c5, block.c6):
                assert abs(cross) <= CROSS_TOL


def test_criterion_05_curved_certificates_across_instances():
    gamma = 5e-5
    cases = [(Hyperbolic(8, kappa=1.0), seed) for seed in range(20)]
    cases += [(SPD(4), seed) for seed in range(100, 110)]
    for manifold, seed in cases:
        prob = random_karcher(manifold, 6, 1.2, seed=seed)
        oracle_optimum(prob)
        a = 2.0 * prob.mu * gamma * (1.0 - prob.L * gamma / 2.0)
        config = SolverConfig(
            mode="ragd",
            mu=prob.mu,
            L=prob.L,
            gamma=gamma,
            xi0=math.sqrt(a),
            max_iters=500,
            record_diagnostics=True,
        )
        trace = run(prob, config)
        report = certify_trace(trace, prob)
        assert report.violations == 0


def test_criterion_06_flat_rates_match_theory():
    prob = make_quadratic(30, 1.0, 100.0, seed=1, center=np.zeros(30))
    q = 1.0 / 100.0
    gaps = {}
    for mode, target in (
        ("euclid_nesterov", math.log(1.0 - math.sqrt(q))),
        ("rgd", math.log(1.0 - q)),
    ):
        config = SolverConfig(mode=mode, mu=1.0, L=100.0, gamma=0.01, max_iters=500)
        trace = run(prob, config)
        gaps[mode] = trace.column("f_gap")
        measured = estimate_rate(gaps[mode]).slope / 2.0
        assert abs(measured - target) <= RATE_REL_TOL * abs(target)
    assert gaps["rgd"][300] >= GAP_RATIO_MIN * gaps["euclid_nesterov"][300]


def test_criterion_07_constant_rate_momentum_lock():
    base = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.02, seed=7)
    prob = dataclasses.replace(base, L=5.0 * base.L)
    q = prob.mu / prob.L
    delta = 1.0 + 0.2 * math.sqrt(q)
    star = fixed_point_xi(XiParams(a=q, delta=delta))
    config = SolverConfig(
        mode="ragd_constant_delta",
        mu=prob.mu,
        L=prob.L,
        gamma=1.0 / prob.L,
        xi0=star,
        delta_const=delta,
        max_iters=200,
        record_diagnostics=True,
    )
    trace = run(prob, config)
    xi = trace.column("xi")
    assert np.max(np.abs(xi - star)) <= LOCK_TOL
    assert star >= 0.9 * math.sqrt(q)
    worst_rate = max(t_kappa(1.0, float(d)) for d in trace.column("d_xz"))
    assert worst_rate <= delta
    assert gradient_step_audit(trace, prob).violations == 0


def test_criterion_08_acceleration_entry_threshold(long_step_run):
    prob, config, trace = long_step_run
    assert 4.5 <= prob.L <= 5.5
    a = config.a
    flat_limit = math.sqrt(a)
    phi0 = float(trace.column("potential")[0])
    threshold = acceleration_threshold(
        prob.mu, prob.L, config.resolved_gamma, 1.0, phi0, eps=1e-3
    )
    xi = trace.column("xi")
    entered = np.nonzero(xi[1:] >= flat_limit - 1e-3)[0]
    assert entered.size > 0
    assert int(entered[0]) + 1 <= threshold
    assert np.min(xi[1:] - a) > 0.0


def test_criterion_09_distortion_inequality_families():
    rng = rng_from_seed(9)
    for _ in range(2000):
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        m = Hyperbolic(5, kappa=kappa)
        x = m.random_point(rng, m.base_point(), 1.0)
        y = m.exp(x, m.random_tangent(rng, x, scale=1.5))
        z = m.exp(x, m.random_tangent(rng, x, scale=1.5))
        dxy, dxz, dyz = m.distance(x, y), m.distance(x, z), m.distance(y, z)
        pd = m.projected_distance(x, y, z)
        assert t_kappa(kappa, dxy) * pd**2 - dyz**2 >= -DISTORTION_SLACK
        assert s_kappa(kappa, max(dxy, dxz)) * pd**2 - dyz**2 >= -DISTORTION_SLACK
        if dxy > 1e-12 and dxz > 1e-12:
            cos_a = m.inner(x, m.log(x, y), m.log(x, z)) / (dxy * dxz)
            law = trig_coeff(kappa, dxy) * dxz**2 + dxy**2 - 2.0 * dxz * dxy * cos_a
            assert law - dyz**2 >= -DISTORTION_SLACK
    for _ in range(2000):
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        r = float(rng.uniform(0.0, 0.5 / math.sqrt(kappa)))
        assert t_kappa(kappa, r) <= 1.0 + 2.0 * kappa * r**2 + 1e-9
    sph = Sphere(5, sigma=1.0)
    half_cap = math.pi / 8.0
    for _ in range(2000):
        x = sph.random_point(rng, sph.base_point(), half_cap)
        y = sph.random_point(rng, sph.base_point(), half_cap)
        z = sph.random_point(rng, sph.base_point(), half_cap)
        bound = (1.0 + 2.0 * sph.distance(x, y) ** 2) * sph.distance(y, z) ** 2
        assert bound - sph.projected_distance(x, y, z) ** 2 >= -DISTORTION_SLACK


def test_criterion_10_step_identity_audits():
    cases = []
    quad = make_quadratic(20, 1.0, 50.0, seed=10, center=np.zeros(20))
    cases.append((quad, "euclid_nesterov", 100))
    hyp = random_karcher(Hyperbolic(8, kappa=1.0), 6, 1.2, seed=3)
    cases.append((hyp, "ragd", 60))
    spd = random_karcher(SPD(4), 6, 1.2, seed=104)
    cases.append((spd, "ragd", 60))
    sph = random_sphere_mean(Sphere(7, sigma=1.0), 6, 0.3, seed=11)
    cases.append((sph, "ragd", 60))
    for prob, mode, steps in cases:
        if prob.optimum is None:
            oracle_optimum(prob)
        config = SolverConfig(
            mode=mode, mu=prob.mu, L=prob.L, max_iters=steps, record_diagnostics=True
        )
        trace = run(prob, config)
        assert mirror_step_audit(trace, prob).violations == 0
        assert gradient_step_audit(trace, prob).violations == 0
    plain = SolverConfig(
        mode="rgd", mu=hyp.mu, L=hyp.L, max_iters=60, record_diagnostics=True
    )
    plain_trace = run(hyp, plain)
    assert gradient_step_audit(plain_trace, hyp).violations == 0
    with pytest.raises(MissingDataError):
        mirror_step_audit(plain_trace, hyp)


def test_criterion_11_distance_shrinking_bounds(long_step_run):
    prob, config, trace = long_step_run
    records = shrink_bounds(trace, prob)
    summary = count_shrink_violations(records, floor=SHRINK_FLOOR)
    assert summary.violations == 0
    assert summary.checked >= 100
