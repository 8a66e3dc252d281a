"""Seeded property suites behind the verify subcommand."""

import logging
import math

import pytest

import ragd.verify
from ragd.errors import DomainError
from ragd.verify import VERIFY_SUITES, run_suite

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
        assert len(checks) == 51
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
