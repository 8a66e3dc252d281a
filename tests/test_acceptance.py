"""End-to-end acceptance checks, one test per stated criterion.

Each test is a single pass/fail line under ``pytest -v``.  The checks
pin the momentum recursion values, fixed points and contraction, the
per-step potential certificates in flat and curved space, the measured
convergence rates, the constant-rate momentum lock, the momentum's settle
threshold, the distortion inequality families, the step-identity
audits, and the distance-shrinking bounds.  Every criterion runs the checks
of ``ragd verify`` on its own pinned data, with the suite's tolerances; the
module docstring of ``ragd.verify`` maps each criterion to its suite and checks.
"""

import logging

import pytest

from ragd.geometry import SPD, Hyperbolic
from ragd.potential import certify_trace
from ragd.verify import (
    _certified_karcher,
    _flat_family_checks,
    _flat_rate_checks,
    _long_step_run,
    _momentum_lock_checks,
    _settle_threshold_checks,
    _shrink_checks,
    _step_audit_cases,
    _step_audit_checks,
    run_suite,
)

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


@pytest.fixture(scope="module")
def xi_checks():
    """The checks of the ``xi`` suite at seed 3, by name."""
    return {check["name"]: check for check in run_suite("xi", seed=3)["checks"]}


def _failed(checks):
    return [check for check in checks if not check["ok"]]


@pytest.fixture(scope="module")
def long_step_run():
    """Hyperbolic barycenter run in the long-step regime (Karcher seed 2,
    start direction seed 8), reused by the settle-threshold and
    distance-shrinking criteria."""
    return _long_step_run(2, 8)


def test_criterion_01_momentum_staircase_and_limit(xi_checks):
    assert not _failed(xi_checks[name] for name in ("staircase", "staircase-limit"))


def test_criterion_02_momentum_fixed_points(xi_checks):
    # xi(1) = sqrt(a) is proven and pinned bit for bit in tests/test_step_algebra.py
    names = ("fixed-point-curved", "fixed-point-monotone", "fixed-point-above-a")
    assert not _failed(xi_checks[name] for name in names)


def test_criterion_03_momentum_contraction_envelope(xi_checks):
    assert not _failed([xi_checks["contraction-envelope"]])


def test_criterion_04_flat_certificates_across_quadratics():
    assert not _failed(_flat_family_checks(4, 50, 500))


def test_criterion_05_curved_certificates_across_instances():
    cases = [(Hyperbolic(8, kappa=1.0), seed) for seed in range(20)]
    cases += [(SPD(4), seed) for seed in range(100, 110)]
    for manifold, seed in cases:
        prob, trace = _certified_karcher(manifold, seed, 500)
        assert certify_trace(trace, prob).violations == 0


def test_criterion_06_flat_rates_match_theory():
    assert not _failed(_flat_rate_checks(1))


def test_criterion_07_constant_rate_momentum_lock():
    assert not _failed(_momentum_lock_checks(7))


def test_criterion_08_acceleration_entry_threshold(long_step_run):
    prob, _, _ = long_step_run
    assert 4.5 <= prob.L <= 5.5
    assert not _failed(_settle_threshold_checks(*long_step_run))


def test_criterion_09_distortion_inequality_families():
    report = run_suite("distortion", seed=9)
    assert report["ok"], [check for check in report["checks"] if not check["ok"]]


def test_criterion_10_step_identity_audits():
    assert not _failed(_step_audit_checks(_step_audit_cases(10, 3, 104, 11)))


def test_criterion_11_distance_shrinking_bounds(long_step_run):
    assert not _failed(_shrink_checks(*long_step_run[::2]))
