"""One-axis sweeps: ordering, predictions, and the documented examples."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from ragd.distortion import trig_coeff
from ragd.errors import DomainError, MissingDataError
from ragd.geometry import Hyperbolic
from ragd.problems import oracle_optimum, random_karcher
from ragd.solvers import SolverConfig, run
from ragd.sweep import (
    SWEEP_COLUMNS, build_sweep, run_enlarging, run_sweep, sweep_point, write_sweep_csv,
)
from ragd.xi import XiParams, fixed_point_xi

GAMMA_XI_REL_TOL = 0.05
CONDITION_EXPONENT_TOL = 0.15

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


def _quadratic_config(**solver):
    entry = {"mode": "ragd_constant_delta", "delta_const": 1.0, "max_iters": 400}
    entry.update(solver)
    return {
        "problem": {"kind": "quadratic", "dim": 12, "mu": 1.0, "L": 25.0, "seed": 7},
        "solvers": [entry],
    }


def _karcher_config(**solver):
    entry = {"mode": "ragd", "max_iters": 300}
    entry.update(solver)
    return {
        "problem": {
            "kind": "karcher",
            "manifold": {"kind": "hyperbolic", "dim": 6, "kappa": 1.0},
            "n_anchors": 5,
            "radius": 1.0,
            "seed": 2,
        },
        "solvers": [entry],
    }


def _sphere_config(manifold=None):
    return {
        "problem": {
            "kind": "sphere_mean",
            "manifold": manifold or {"kind": "sphere", "dim": 4},
            "n_anchors": 4,
            "radius": 0.3,
            "seed": 1,
        },
        "solvers": [{"mode": "ragd", "max_iters": 100}],
    }


def test_delta_const_rates_follow_fixed_point_order():
    values = [1.0, 1.5, 2.0, 4.0]
    points = run_sweep(_quadratic_config(), "delta_const", values)
    assert [p.value for p in points] == values
    rates = [p.rate for p in points]
    preds = [p.pred_rate for p in points]
    assert rates == sorted(rates)
    assert preds == sorted(preds)
    a = points[0].xi_pred**2
    for p in points:
        assert math.isclose(
            p.xi_pred, fixed_point_xi(XiParams(a=a, delta=p.value)), rel_tol=1e-9
        )


def test_gamma_sweep_momentum_matches_flat_limit():
    from ragd.problems import problem_from_dict

    values = [1.01, 1.05, 1.2, 1.5]
    config = _karcher_config()
    points = run_sweep(config, "gamma", values)
    problem = problem_from_dict(dict(config["problem"]))
    assert all(p.solver == "ragd" for p in points)
    for p, gl in zip(points, values):
        assert p.delta_bar < 1.1
        gamma = gl / problem.L
        delta_gamma = gamma * (1.0 - problem.L * gamma / 2.0)
        flat_limit = math.sqrt(2.0 * problem.mu * delta_gamma)
        assert abs(p.xi_pred - flat_limit) <= GAMMA_XI_REL_TOL * flat_limit


def test_condition_number_rate_scales_like_square_root():
    values = [0.1, 0.01, 0.001]
    config = _quadratic_config(mode="euclid_nesterov", max_iters=600)
    del config["solvers"][0]["delta_const"]
    points = run_sweep(config, "condition_number", values)
    qs = np.array(values)
    errs = np.array([1.0 - p.rate for p in points])
    exponent = np.polyfit(np.log(qs), np.log(errs), 1)[0]
    assert abs(exponent - 0.5) <= CONDITION_EXPONENT_TOL


def test_curvature_sweep_rebuilds_manifold():
    points = run_sweep(_karcher_config(max_iters=150), "curvature", [0.5, 2.0])
    assert [p.value for p in points] == [0.5, 2.0]
    assert points[0].delta_bar <= points[1].delta_bar


def test_curvature_sweep_on_a_sphere_rewrites_sigma():
    values = [0.25, 0.5, 1.0]
    cases = build_sweep(_sphere_config(), "curvature", values)
    assert [problem.manifold.sigma for _, problem, _ in cases] == values
    points = run_sweep(_sphere_config(), "curvature", values)
    assert len({p.rate for p in points}) == len(values)


@pytest.mark.parametrize(
    "kind, manifold",
    [
        ("karcher", {"kind": "euclidean", "dim": 4}),
        ("sphere_mean", {"kind": "sphere", "dim": 4, "kappa": 1.0}),
    ],
)
def test_curvature_sweep_rejects_blocks_without_the_swept_key(kind, manifold):
    config = _sphere_config(manifold)
    config["problem"]["kind"] = kind
    with pytest.raises(DomainError):
        build_sweep(config, "curvature", [0.5, 1.0])


def test_sweep_point_reruns_with_enlarged_L_when_iterates_leave_the_ball(caplog):
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.8, seed=1)
    oracle_optimum(prob)
    far = prob.manifold.random_point(np.random.default_rng(0), prob.reference, 3.0)
    prob = dataclasses.replace(prob, start=far)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, xi0=0.3, max_iters=30)
    with caplog.at_level(logging.INFO, logger="ragd.sweep"):
        point = sweep_point("gamma", 1.0, prob, config)
    assert any("L enlarged" in r.getMessage() for r in caplog.records)

    reach = run(prob, config).meta["max_reference_distance"]
    enlarged = dataclasses.replace(config, L=trig_coeff(1.0, 2.0 * reach))
    assert enlarged.L > config.L
    trace = run(dataclasses.replace(prob, L=enlarged.L), enlarged)
    assert point.final_gap == trace.column("f_gap")[-1]
    delta_bar = float(trace.column("delta_rate")[1:].mean())
    assert point.xi_pred == fixed_point_xi(XiParams(a=enlarged.a, delta=delta_bar))


def test_enlarged_rerun_is_certified_on_the_observed_ball(caplog):
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.8, seed=1)
    oracle_optimum(prob)
    far = prob.manifold.random_point(np.random.default_rng(0), prob.reference, 3.0)
    prob = dataclasses.replace(prob, start=far)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, xi0=0.3, max_iters=30)
    with caplog.at_level(logging.WARNING, logger="ragd.solvers"):
        trace, enlarged = run_enlarging(prob, config)
    left = [r for r in caplog.records if "left the certified radius" in r.getMessage()]
    assert len(left) == 1
    assert trace.meta["left_feasible_radius"] is False
    assert trace.meta["enlarged_L"] == enlarged.L > config.L


def test_sweep_rejects_bad_requests():
    with pytest.raises(DomainError):
        run_sweep(_quadratic_config(), "step_size", [1.0])
    with pytest.raises(DomainError):
        run_sweep(_quadratic_config(), "gamma", [])
    with pytest.raises(MissingDataError):
        run_sweep({"problem": _quadratic_config()["problem"]}, "gamma", [1.05])
    with pytest.raises(DomainError):
        run_sweep(_karcher_config(), "condition_number", [0.1])
    with pytest.raises(DomainError):
        run_sweep(_quadratic_config(), "curvature", [1.0])


def test_write_sweep_csv_round_trips(tmp_path):
    points = run_sweep(_quadratic_config(max_iters=80), "delta_const", [1.0, 2.0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "delta_const"
    assert float(row[1]) == points[0].value
    assert float(row[5]) == points[0].rate
