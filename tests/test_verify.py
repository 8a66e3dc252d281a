"""Seeded property suites behind the verify subcommand."""

import dataclasses
import functools
import json
import logging
import math

import pytest

import ragd.cli
import ragd.verify
from ragd.errors import DomainError
from ragd.geometry import Hyperbolic
from ragd.potential import gradient_step_audit
from ragd.problems import make_quadratic, random_karcher
from ragd.solvers import run
from ragd.verify import (
    VERIFY_SUITES, _certified_run_checks, _flat_family_checks, _flat_rate_checks,
    _gradient_checks, _long_step_run, _momentum_lock_checks, _settle_threshold_checks,
    _shrink_checks, _step_audit_checks, run_suite,
)
from ragd.xi import fixed_point_xi

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


def test_suite_listing():
    assert VERIFY_SUITES == ("geometry", "distortion", "xi", "potential", "all")


def _names(prefix, *checks):
    return [f"{prefix}/{check}" for check in checks]


def _product(prefixes, checks):
    return tuple(name for prefix in prefixes for name in _names(prefix, *checks))


# The checks of each suite, in order: a change to the list shows here.
_SUITE_CHECKS = {
    "geometry": _product(("euclidean", "hyperbolic-k1", "hyperbolic-k2", "sphere", "spd"),
                         ("exp-log-roundtrip", "distance-vs-norm", "symmetry", "triangle",
                          "identity")),
    "distortion": ("improved-distortion", "rauch-distortion", "trigonometric",
                   "small-r-quadratic", "sphere-projection"),
    "xi": ("staircase", "staircase-limit", "fixed-point-curved", "fixed-point-monotone",
           "fixed-point-above-a", "contraction-envelope"),
    "potential": (
        *_product(("quadratic", "hyperbolic", "spd"),
                  ("certified-decrease", "mirror-identity", "gradient-decrease",
                   "rate-envelope")),
        "flat-family/certified-decrease",
        *_names("flat-rates", "rate-vs-theory", "rgd-gap-ratio"),
        *_names("constant-delta", "xi-lock", "lock-level", "distortion-rate", "gradient-decrease"),
        *_names("long-step", "settle-threshold", "xi-above-a", "shrink-bounds", "shrink-compared"),
        *_product(("step-audit/quadratic", "step-audit/hyperbolic", "step-audit/spd",
                   "step-audit/sphere"), ("mirror-identity", "gradient-decrease")),
        "step-audit/hyperbolic-rgd/gradient-decrease",
        *_product(("gradient-audit/quadratic-d20", "gradient-audit/karcher-hyperbolic-k6",
                   "gradient-audit/karcher-spd-k6", "gradient-audit/sphere-mean-k6"),
                  ("fd-gradient", "strong-convexity", "smoothness")),
    ),
}


def test_all_suite_aggregates(caplog):
    # The potential suite's curved runs sit outside the accelerated regime on
    # purpose (gamma = 5e-5); that is no warning about a user's settings.
    caplog.set_level(logging.WARNING, logger="ragd.solvers")
    for seed in (0, 1):
        report = run_suite("all", seed=seed)
        assert (report["suite"], report["seed"], report["ok"]) == ("all", seed, True)
        names = {s["suite"]: tuple(c["name"] for c in s["checks"]) for s in report["suites"]}
        assert names == _SUITE_CHECKS
        assert list(names) == ["geometry", "distortion", "xi", "potential"]
        for suite in report["suites"]:
            assert (suite["seed"], suite["ok"]) == (seed, True)
        checks = [c for suite in report["suites"] for c in suite["checks"]]
        assert len(checks) == 80
        for check in checks:
            assert check["count"] > 0 and check["ok"] is True, check
            ok_by_worst = check["worst"] <= check["tol"]
            assert check["ok"] == (check["violations"] == 0) == ok_by_worst, check
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


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


def test_nan_residual_is_a_violation(monkeypatch, capsys):
    check = ragd.verify._check("probe", [0.0, math.nan], 1.0)
    assert check["count"] == 2
    assert check["violations"] == 1
    assert math.isnan(check["worst"])
    assert check["ok"] is False
    # ``ragd verify`` prints RFC 8259 JSON: a NaN or infinite worst is null
    checks = [check, ragd.verify._check("flagged", [math.inf], 0.0)]
    monkeypatch.setattr(ragd.cli, "run_suite", lambda suite, seed: {"checks": checks, "ok": False})
    assert ragd.cli.main(["verify", "--suite", "potential"]) == ragd.cli.EXIT_VIOLATION
    report = json.loads(capsys.readouterr().out, parse_constant=lambda token: pytest.fail(token))
    assert [c["worst"] for c in report["checks"]] == [None, None]


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
    return _settle_threshold_checks(prob, dataclasses.replace(cfg, mu=cfg.L), trace)


def _ascent_audits():
    # short runs: a run up the gradient soon leaves the hyperboloid's range
    hyp = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=0)
    quad = make_quadratic(6, 1.0, 10.0, seed=0)
    return _step_audit_checks([("quadratic", quad, "euclid_nesterov", 10),
                               ("hyperbolic", hyp, "ragd", 5), ("hyperbolic-rgd", hyp, "rgd", 5)])


def _run_scaling(column, row, factor):
    """``run``, with the cell ``row`` of each trace's ``column`` scaled by ``factor``."""
    def scaled_run(prob, cfg):
        trace = run(prob, cfg)
        trace.column(column)[row] *= factor
        return trace
    return scaled_run


def _run_with_y_as_z(row):
    """``run``, with the kept iterates of ``row`` in each trace holding y_t as z_t."""
    def spoiled_run(prob, cfg):
        trace = run(prob, cfg)
        x, y, _ = trace.diagnostics[row]
        trace.diagnostics[row] = (x, y, y)
        return trace
    return spoiled_run


_CERTIFIED_LABELS = ("hyperbolic", "quadratic", "spd")


# case: (the checks to run, the patches they run under, the checks that fail)
_BROKEN = {
    # the recorded margins still pass; they no longer match their potential cells
    "spoiled-potential": (lambda: _certified_run_checks(0), {
        "ragd.verify._POTENTIAL_STEPS": 40,
        "ragd.verify.run": _run_scaling("potential", 5, 1.0 + 1e-12)},
        [f"{label}/certified-decrease" for label in _CERTIFIED_LABELS]),
    "gap-above-envelope": (lambda: _certified_run_checks(0), {
        "ragd.verify._POTENTIAL_STEPS": 40, "ragd.verify.run": _run_scaling("f_gap", 1, 1e3)},
        [f"{label}/rate-envelope" for label in _CERTIFIED_LABELS]),
    # the columns still pass; only the mirror identity reads the kept z_5
    "kept-row-z-is-y": (lambda: _certified_run_checks(0), {
        "ragd.verify._POTENTIAL_STEPS": 40, "ragd.verify.run": _run_with_y_as_z(5)},
        [f"{label}/mirror-identity" for label in _CERTIFIED_LABELS]),
    "hessian-beyond-L": (lambda: _flat_family_checks(0, 1, 40), {
        "ragd.verify.make_quadratic": lambda d, mu, big, **kw: dataclasses.replace(
            make_quadratic(d, mu, 4.0 * big, **kw), L=big)}, ["flat-family/certified-decrease"]),
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
                     _names("long-step", "settle-threshold", "xi-above-a")),
    # xi enters sqrt(a) at step 1 and dips below it again at row 300, far past
    # the threshold; a check of the first entry alone passes this run
    "xi-dips-after-threshold": (lambda: _settle_threshold_checks(*_long_step_run(0, 0)), {
        "ragd.verify.run": _run_scaling("xi", 300, 0.9)}, ["long-step/settle-threshold"]),
    "zero-shrink-constant": (lambda: _shrink_checks(*_long_step()[::2]), {
        "ragd.verify._SHRINK_FLOOR": 0.0,
        "ragd.potential.shrink_constant": lambda mu, L, gamma: 0.0}, ["long-step/shrink-bounds"]),
    "nothing-compared": (lambda: _shrink_checks(*_long_step()[::2]), {
        "ragd.verify._SHRINK_FLOOR": math.inf}, ["long-step/shrink-compared"]),
    "ascent": (_ascent_audits, {
        "ragd.verify.run": lambda prob, cfg: run(_scaled(prob, -1.0), cfg)},
        _names("step-audit", "hyperbolic-rgd/gradient-decrease", "hyperbolic/gradient-decrease",
               "hyperbolic/mirror-identity", "quadratic/gradient-decrease",
               "quadratic/mirror-identity")),
    "flipped-gradient": (lambda: _gradient_checks(
        _scaled(random_karcher(Hyperbolic(4, kappa=1.0), 4, 1.0, seed=0), -1.0), 0), {},
        _names("gradient-audit/karcher-hyperbolic-k4", "fd-gradient", "smoothness",
               "strong-convexity")),
}


@pytest.mark.parametrize("checks, patches, failing", _BROKEN.values(), ids=_BROKEN)
def test_claim_checks_fail_on_a_broken_input(monkeypatch, checks, patches, failing):
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    assert sorted(c["name"] for c in checks() if not c["ok"]) == failing
