"""Seeded property suites behind the verify subcommand."""

import dataclasses
import functools
import logging
import math

import numpy as np
import pytest

import ragd.verify
from ragd.errors import DomainError
from ragd.geometry import Hyperbolic
from ragd.potential import gradient_step_audit
from ragd.problems import make_quadratic, random_karcher
from ragd.solvers import run
from ragd.verify import (
    VERIFY_SUITES, _entry_threshold_checks, _flat_family_checks, _flat_rate_checks,
    _gradient_checks, _long_step_run, _momentum_lock_checks, _shrink_checks,
    _step_audit_checks, run_suite,
)
from ragd.xi import _C_THETA, fixed_point_xi

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


@pytest.mark.parametrize("suite", ["geometry", "distortion", "xi"])
def test_suite_passes_and_reports_shape(suite):
    report = run_suite(suite, seed=0)
    assert report["suite"] == suite
    assert report["seed"] == 0
    assert report["ok"] is True
    assert report["checks"]
    for check in report["checks"]:
        assert check["violations"] == 0
        assert check["ok"] is True
        assert check["count"] > 0
        assert "worst" in check and "tol" in check


def test_suite_listing():
    assert VERIFY_SUITES == ("geometry", "distortion", "xi", "potential", "all")


def test_all_suite_aggregates():
    for seed in (0, 1):
        report = run_suite("all", seed=seed)
        assert report["suite"] == "all"
        assert report["ok"] is True
        names = [s["suite"] for s in report["suites"]]
        assert names == ["geometry", "distortion", "xi", "potential"]
        assert all(s["ok"] for s in report["suites"])
        checks = [c for suite in report["suites"] for c in suite["checks"]]
        assert len(checks) == 86
        for check in checks:
            ok_by_worst = check["worst"] <= check["tol"]
            assert check["ok"] == (check["violations"] == 0) == ok_by_worst, check


def test_unknown_suite_is_rejected():
    with pytest.raises(DomainError):
        run_suite("thermodynamics", seed=0)


def test_suites_depend_on_seed_but_stay_clean():
    first = run_suite("xi", seed=1)
    second = run_suite("xi", seed=1)
    assert first == second
    other = run_suite("xi", seed=2)
    assert other["ok"] is True
    assert other != first


def test_broken_inequality_is_reported(monkeypatch):
    monkeypatch.setattr(ragd.verify, "t_kappa", lambda kappa, r: 1.0)
    report = run_suite("distortion", seed=0)
    check = next(c for c in report["checks"] if c["name"] == "improved-distortion")
    assert check["violations"] > 0
    assert check["worst"] > check["tol"]
    assert check["ok"] is False
    assert report["ok"] is False


def test_fixed_point_at_a_is_reported(monkeypatch):
    monkeypatch.setattr(ragd.verify, "fixed_point_xi", lambda params: params.a)
    report = run_suite("xi", seed=0)
    check = next(c for c in report["checks"] if c["name"] == "fixed-point-above-a")
    assert check["violations"] == check["count"] > 0
    assert check["worst"] > check["tol"]
    assert check["ok"] is False


def test_nan_residual_is_a_violation():
    check = ragd.verify._check("probe", [0.0, math.nan], 1.0)
    assert check["count"] == 2
    assert check["violations"] == 1
    assert math.isnan(check["worst"])
    assert check["ok"] is False


def test_potential_suite_logs_no_warning(caplog):
    # The suite's curved runs sit outside the accelerated regime on purpose
    # (gamma = 5e-5); that is no warning about a user's settings.
    caplog.set_level(logging.WARNING, logger="ragd.solvers")
    assert run_suite("potential", seed=0)["ok"]
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


# ----- each claim check fails on a broken input ------------------------------


def _scaled(prob, factor):
    """The problem with its gradient multiplied by ``factor``."""
    grad = prob.gradient
    return dataclasses.replace(prob, gradient=lambda x: factor * grad(x))


@functools.cache
def _long_step():
    return _long_step_run(0, 0)


def _judged_with_mu_at_l():
    # a near 1: the momentum stays below it and never nears sqrt(a)
    prob, cfg, trace = _long_step()
    return _entry_threshold_checks(prob, dataclasses.replace(cfg, mu=cfg.L), trace)


def _ascent_audits():
    # short runs: a run up the gradient soon leaves the hyperboloid's range
    hyp = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=0)
    quad = make_quadratic(6, 1.0, 10.0, seed=0)
    return _step_audit_checks([("quadratic", quad, "euclid_nesterov", 10),
                               ("hyperbolic", hyp, "ragd", 5), ("hyperbolic-rgd", hyp, "rgd", 5)])


def _names(prefix, *checks):
    return [f"{prefix}/{check}" for check in checks]


# case: (the checks to run, the patches they run under, the checks that fail)
_BROKEN = {
    "hessian-beyond-L": (lambda: _flat_family_checks(0, 1, 40), {
        "ragd.verify.make_quadratic": lambda d, mu, big, **kw: dataclasses.replace(
            make_quadratic(d, mu, 4.0 * big, **kw), L=big)}, ["flat-family/certified-decrease"]),
    "coefficients": (lambda: _flat_family_checks(0, 1, 40), {
        "ragd.verify.trace_coefficient_blocks": lambda trace: np.full((2, 6), 1e-9)},
        _names("flat-family", "cross-coefficients", "vanishing-coefficients")),
    "no-acceleration": (lambda: _flat_rate_checks(0), {
        "ragd.verify.run": lambda prob, cfg: run(prob, dataclasses.replace(cfg, mode="rgd"))},
        _names("flat-rates", "rate-vs-theory", "rgd-gap-ratio")),
    "off-the-lock": (lambda: _momentum_lock_checks(0), {
        "ragd.verify.fixed_point_xi": lambda params: 0.5 * fixed_point_xi(params),
        "ragd.verify.t_kappa": lambda kappa, r: 2.0,
        "ragd.verify.gradient_step_audit": lambda tr, prob: gradient_step_audit(
            tr, _scaled(prob, 2.0))},
        _names("constant-delta", "distortion-rate", "gradient-decrease", "lock-level", "xi-lock")),
    "other-config": (_judged_with_mu_at_l, {},
                     _names("long-step", "entry-threshold", "xi-above-a")),
    "zero-shrink-constant": (lambda: _shrink_checks(*_long_step()[::2], floor=0.0), {
        "ragd.potential.shrink_constant": lambda mu, L, gamma: 0.0}, ["long-step/shrink-bounds"]),
    "nothing-compared": (lambda: _shrink_checks(*_long_step()[::2], floor=math.inf), {},
                         ["long-step/shrink-compared"]),
    "ascent": (_ascent_audits, {
        "ragd.verify.run": lambda prob, cfg: run(_scaled(prob, -1.0), cfg)},
        _names("step-audit", "hyperbolic-rgd/gradient-decrease", "hyperbolic/gradient-decrease",
               "hyperbolic/mirror-identity", "quadratic/gradient-decrease",
               "quadratic/mirror-identity")),
    "flipped-gradient": (lambda: _gradient_checks(
        _scaled(random_karcher(Hyperbolic(4, kappa=1.0), 4, 1.0, seed=0), -1.0), 0), {},
        _names("gradient-audit/karcher-hyperbolic-k4", "fd-gradient", "smoothness",
               "strong-convexity")),
    "theta-on-its-strict-bound": (lambda: run_suite("xi", seed=0)["checks"], {
        "ragd.verify.theta": lambda v, a: 1.0 - _C_THETA * v}, ["theta-bound"]),
}


@pytest.mark.parametrize("checks, patches, failing", _BROKEN.values(), ids=_BROKEN)
def test_claim_checks_fail_on_a_broken_input(monkeypatch, checks, patches, failing):
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    assert sorted(c["name"] for c in checks() if not c["ok"]) == failing
