"""Potential bookkeeping, per-step audits, and distance-shrinking bounds."""

import logging
import math

import numpy as np
import pytest

from ragd.errors import DomainError, HypothesisError, MissingDataError
from ragd.geometry import Hyperbolic
from ragd.potential import (
    CERT_TOL,
    acceleration_threshold,
    certify_trace,
    coefficient_block,
    count_shrink_violations,
    gradient_step_audit,
    mirror_step_audit,
    quadratic_form_audit,
    rate_envelope,
    shrink_bounds,
    shrink_constant,
    trace_coefficient_blocks,
)
from ragd.problems import make_quadratic, oracle_optimum, random_karcher
from ragd.solvers import SolverConfig, run, step_params
from ragd.xi import XiParams, next_xi

VANISH_TOL = 1e-12
BLOCK_TOL = 1e-10

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


def _flat_run(max_iters=80, diagnostics=True):
    prob = make_quadratic(15, 1.0, 30.0, seed=20)
    config = SolverConfig(
        mode="euclid_nesterov",
        mu=prob.mu,
        L=prob.L,
        max_iters=max_iters,
        record_diagnostics=diagnostics,
    )
    return prob, run(prob, config)


def _curved_run(max_iters=120):
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    oracle_optimum(prob)
    config = SolverConfig(
        mode="ragd", mu=prob.mu, L=prob.L, max_iters=max_iters, record_diagnostics=True
    )
    return prob, run(prob, config)


@pytest.mark.parametrize("delta", [1.0, 1.2])
def test_coefficient_block_vanishes_on_consistent_momentum(delta):
    mu, delta_gamma = 1.0, 0.1
    a = 2.0 * mu * delta_gamma
    xi_t = 0.5
    xi_n = next_xi(xi_t, XiParams(a=a, delta=delta))
    a_next = 1.0 / (1.0 - xi_n)
    b_t = xi_t * xi_t / (4.0 * delta_gamma)
    b_next = xi_n * xi_n / (4.0 * delta_gamma) * a_next
    params = step_params(xi_n, mu, delta_gamma)
    c = coefficient_block(1.0, b_t, a_next, b_next, params, mu, delta_gamma, delta)
    assert c.c1 < 0.0
    for small in (c.c2, c.c3, c.c4, c.c5, c.c6):
        assert abs(small) <= VANISH_TOL


def test_coefficient_block_rejects_bad_rate():
    params = step_params(0.5, 1.0, 0.1)
    with pytest.raises(DomainError):
        coefficient_block(1.0, 1.0, 1.0, 1.0, params, 1.0, 0.1, delta_rate=0.5)


def test_trace_coefficient_blocks_structure():
    prob, trace = _flat_run()
    blocks = trace_coefficient_blocks(trace)
    assert len(blocks) == trace.n_iters
    for c in blocks:
        assert c.c1 <= VANISH_TOL
        assert c.c2 <= VANISH_TOL and c.c3 <= VANISH_TOL
        for small in (c.c4, c.c5, c.c6):
            assert abs(small) <= BLOCK_TOL


def test_certify_flat_run_clean():
    prob, trace = _flat_run()
    report = certify_trace(trace, prob)
    assert report.violations == 0
    assert len(report.records) == trace.rows.shape[0]
    assert math.isnan(report.records[-1].margin)
    assert report.records[-1].ok


def test_certify_curved_run_clean():
    # Small steps keep the certified envelope's total decay within what
    # float distances can resolve over the whole run.
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    oracle_optimum(prob)
    gamma = 5e-5
    a = 2.0 * prob.mu * gamma * (1.0 - prob.L * gamma / 2.0)
    config = SolverConfig(
        mode="ragd",
        mu=prob.mu,
        L=prob.L,
        gamma=gamma,
        xi0=math.sqrt(a),
        max_iters=120,
        record_diagnostics=True,
    )
    trace = run(prob, config)
    report = certify_trace(trace, prob)
    assert report.violations == 0


def test_certifier_allowance_uses_the_weight_of_the_xi_column():
    prob, trace = _curved_run()
    xi = trace.column("xi")
    report = certify_trace(trace, prob)
    log_decay = 0.0
    for rec in report.records[:-1]:
        xi_next = float(xi[rec.t + 1])
        log_decay += math.log1p(-xi_next)
        want = CERT_TOL * (math.exp(log_decay) + (1.0 - xi_next) * abs(rec.phi))
        assert rec.allowed == want


def test_certify_detects_corrupted_iterate():
    prob, trace = _flat_run()
    m = prob.manifold
    spoiled = m.point(trace.diagnostics.points_y[40].coords + 5.0)
    trace.diagnostics.points_y[40] = spoiled
    report = certify_trace(trace, prob)
    assert report.violations >= 1


def test_certify_requires_diagnostics():
    prob, trace = _flat_run(diagnostics=False)
    with pytest.raises(MissingDataError):
        certify_trace(trace, prob)


def test_certify_requires_optimum():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    config = SolverConfig(
        mode="ragd", mu=prob.mu, L=prob.L, max_iters=10, record_diagnostics=True
    )
    trace = run(prob, config)
    with pytest.raises(MissingDataError):
        certify_trace(trace, prob)


def test_certify_rejects_plain_gradient_descent():
    prob = make_quadratic(15, 1.0, 30.0, seed=20)
    config = SolverConfig(
        mode="rgd", mu=prob.mu, L=prob.L, max_iters=10, record_diagnostics=True
    )
    trace = run(prob, config)
    with pytest.raises(MissingDataError):
        certify_trace(trace, prob)


def test_gradient_step_audit_passes():
    prob, trace = _flat_run()
    report = gradient_step_audit(trace, prob)
    assert report.name == "gradient_step"
    assert report.ok and report.violations == 0
    assert np.max(report.residuals - report.allowed) <= 0.0


def test_gradient_step_audit_covers_plain_descent():
    prob = make_quadratic(15, 1.0, 30.0, seed=20)
    config = SolverConfig(
        mode="rgd", mu=prob.mu, L=prob.L, max_iters=40, record_diagnostics=True
    )
    trace = run(prob, config)
    assert gradient_step_audit(trace, prob).violations == 0


def test_mirror_step_audit_passes_flat_and_curved():
    prob, trace = _flat_run()
    assert mirror_step_audit(trace, prob).violations == 0
    cprob, ctrace = _curved_run(max_iters=60)
    assert mirror_step_audit(ctrace, cprob).violations == 0


def test_mirror_step_audit_rejects_plain_descent():
    prob = make_quadratic(15, 1.0, 30.0, seed=20)
    config = SolverConfig(
        mode="rgd", mu=prob.mu, L=prob.L, max_iters=10, record_diagnostics=True
    )
    trace = run(prob, config)
    with pytest.raises(MissingDataError):
        mirror_step_audit(trace, prob)


def test_quadratic_form_audit_flat_only():
    prob, trace = _flat_run()
    report = quadratic_form_audit(trace, prob)
    assert report.violations == 0
    cprob, ctrace = _curved_run(max_iters=20)
    with pytest.raises(DomainError):
        quadratic_form_audit(ctrace, cprob)


def test_quadratic_form_audit_checks_flatness_before_solver_and_optimum():
    # a curved input gets DomainError even when it also lacks an optimum
    # or comes from plain gradient descent
    cprob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    for mode in ("ragd", "rgd"):
        config = SolverConfig(
            mode=mode, mu=cprob.mu, L=cprob.L, max_iters=5, record_diagnostics=True
        )
        with pytest.raises(DomainError):
            quadratic_form_audit(run(cprob, config), cprob)


def test_rate_envelope_holds_with_floor():
    prob, trace = _flat_run()
    report = rate_envelope(trace, prob)
    assert report.violations == 0
    prob2 = make_quadratic(15, 1.0, 30.0, seed=20)
    config = SolverConfig(
        mode="rgd", mu=prob2.mu, L=prob2.L, max_iters=10, record_diagnostics=True
    )
    with pytest.raises(MissingDataError):
        rate_envelope(run(prob2, config), prob2)


def _counting_value(monkeypatch, prob):
    """Count calls of ``prob.value``; the optimum value is cached first."""
    prob.optimum_value
    calls = [0]
    value = prob.value

    def counted(x):
        calls[0] += 1
        return value(x)

    monkeypatch.setattr(prob, "value", counted)
    return calls


@pytest.mark.parametrize("check", [certify_trace, rate_envelope])
def test_replay_evaluates_each_row_once(monkeypatch, check):
    prob, trace = _flat_run()
    calls = _counting_value(monkeypatch, prob)
    check(trace, prob)
    assert calls[0] == trace.rows.shape[0]


def _reference_rate_envelope(trace, prob, floor):
    """The envelope check row by row, with the skip floor given explicitly."""
    d = trace.diagnostics
    m = prob.manifold
    xis = trace.column("xi")
    delta_gamma = trace.meta["delta_gamma"]
    pd0 = m.projected_distance(d.points_x[0], d.points_z[0], prob.optimum)
    gap0 = prob.value(d.points_y[0]) - prob.optimum_value
    phi0 = gap0 + (xis[0] ** 2 / (4.0 * delta_gamma)) * pd0 * pd0
    residuals, allowed = [], []
    log_prod = 0.0
    for t in range(trace.rows.shape[0]):
        if t >= 1:
            log_prod += math.log1p(-float(xis[t]))
        bound = phi0 * math.exp(log_prod)
        residuals.append(prob.value(d.points_y[t]) - prob.optimum_value - bound)
        allowed.append(1e-7 * (1.0 + abs(bound)) if bound >= floor else math.inf)
    return np.array(residuals), np.array(allowed)


@pytest.mark.parametrize("max_iters", [80, 400])
def test_rate_envelope_floor_is_100_eps_phi0(max_iters):
    prob, trace = _flat_run(max_iters=max_iters)
    report = rate_envelope(trace, prob)
    floor = 100.0 * np.finfo(float).eps * trace.column("potential")[0]
    residuals, allowed = _reference_rate_envelope(trace, prob, floor)
    assert np.array_equal(report.residuals, residuals)
    assert np.array_equal(report.allowed, allowed)
    skipped = np.count_nonzero(np.isinf(report.allowed))
    assert (skipped > 0) == (max_iters == 400)


def test_shrink_constant_domain():
    assert shrink_constant(1.0, 10.0, 0.105) > 0.0
    with pytest.raises(HypothesisError):
        shrink_constant(1.0, 10.0, 0.1)
    with pytest.raises(DomainError):
        shrink_constant(0.0, 10.0, 0.105)
    with pytest.raises(DomainError):
        shrink_constant(1.0, 10.0, 0.25)


def test_shrink_bounds_hold_along_run():
    prob, trace = _curved_run()
    records = shrink_bounds(trace, prob)
    assert len(records) == trace.rows.shape[0]
    assert records[0].d_xz_bound == 0.0
    summary = count_shrink_violations(records, floor=1e-6)
    assert summary.violations == 0
    assert summary.checked > 100
    assert summary.skipped > 0


def test_shrink_bounds_rejects_diagnostics_missing_rows():
    prob, trace = _curved_run(max_iters=10)
    for points in (
        trace.diagnostics.points_x,
        trace.diagnostics.points_y,
        trace.diagnostics.points_z,
    ):
        points.pop()
    with pytest.raises(MissingDataError, match="do not cover every trace row"):
        shrink_bounds(trace, prob)


def test_count_shrink_violations_floor_skips_everything():
    prob, trace = _curved_run(max_iters=20)
    records = shrink_bounds(trace, prob)
    summary = count_shrink_violations(records, floor=math.inf)
    assert summary.checked == 0
    assert summary.skipped == 5 * len(records)


def test_acceleration_threshold_values():
    n = acceleration_threshold(1.0, 5.0, 1.05 / 5.0, 1.0, 2.0, eps=1e-3)
    assert isinstance(n, int) and n > 0
    finer = acceleration_threshold(1.0, 5.0, 1.05 / 5.0, 1.0, 2.0, eps=1e-5)
    assert finer >= n


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kappa": 0.0},
        {"kappa": -1.0},
        {"d0": 0.0},
        {"eps": 0.0},
    ],
)
def test_acceleration_threshold_domain(kwargs):
    base = {"mu": 1.0, "L": 5.0, "gamma": 1.05 / 5.0, "kappa": 1.0, "d0": 2.0}
    base.update(kwargs)
    with pytest.raises(DomainError):
        acceleration_threshold(**base)


def test_acceleration_threshold_needs_long_steps():
    with pytest.raises(HypothesisError):
        acceleration_threshold(1.0, 5.0, 0.2, 1.0, 2.0)
