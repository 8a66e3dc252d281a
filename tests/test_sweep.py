"""One-axis sweeps: ordering, predictions, and the documented examples."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from ragd.distortion import trig_coeff
from ragd.errors import DomainError, MissingDataError, RuntimeContainmentError
from ragd.geometry import Hyperbolic, Sphere
from ragd.problems import (
    make_quadratic, oracle_optimum, problem_to_dict, random_karcher, random_sphere_mean,
)
from ragd.solvers import SolverConfig, run
from ragd.sweep import (
    SWEEP_COLUMNS, build_sweep, run_enlarging, sweep_point, write_sweep_csv,
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


def _run_sweep(config, axis, values):
    """Every case of the sweep, measured as ``ragd sweep`` measures it."""
    return [sweep_point(axis, *case) for case in build_sweep(config, axis, values)]


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
    points = _run_sweep(_quadratic_config(), "delta_const", values)
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


def test_delta_const_sweep_drops_the_sharp_bound_of_its_entry():
    # the pinned rate reads no sharp_distortion, which ragd_constant_delta rejects
    (case,) = build_sweep(_karcher_config(sharp_distortion=True), "delta_const", [1.5])
    config = case[2]
    assert (config.mode, config.delta_const, config.sharp_distortion) == (
        "ragd_constant_delta", 1.5, False)


def test_gamma_sweep_momentum_matches_flat_limit():
    from ragd.problems import problem_from_dict

    values = [1.01, 1.05, 1.2, 1.5]
    config = _karcher_config()
    points = _run_sweep(config, "gamma", values)
    problem = problem_from_dict(dict(config["problem"]))
    assert all(p.solver == "ragd" for p in points)
    for p, gl in zip(points, values):
        assert p.delta_bar < 1.1
        gamma = gl / problem.L
        delta_gamma = gamma * (1.0 - problem.L * gamma / 2.0)
        flat_limit = math.sqrt(2.0 * problem.mu * delta_gamma)
        assert abs(p.xi_pred - flat_limit) <= GAMMA_XI_REL_TOL * flat_limit


@pytest.mark.parametrize(
    "config, axis, values, settle",
    [
        (_karcher_config(max_iters=120), "gamma", [1.02, 1.2, 1.45], [0, 7, 14]),
        (_quadratic_config(max_iters=120), "delta_const", [1.0, 1.5, 4.0], [0, 21, 8]),
    ],
)
def test_xi_settle_iters_table(config, axis, values, settle):
    # Literal counts: ceil(log(1e-3 / |xi0 - xi*|) / log(lam)) at delta_bar.
    assert [p.xi_settle_iters for p in _run_sweep(config, axis, values)] == settle


def test_condition_number_rate_scales_like_square_root():
    values = [0.1, 0.01, 0.001]
    config = _quadratic_config(mode="euclid_nesterov", max_iters=600)
    del config["solvers"][0]["delta_const"]
    points = _run_sweep(config, "condition_number", values)
    qs = np.array(values)
    errs = np.array([1.0 - p.rate for p in points])
    exponent = np.polyfit(np.log(qs), np.log(errs), 1)[0]
    assert abs(exponent - 0.5) <= CONDITION_EXPONENT_TOL


def test_sweep_point_for_plain_descent_predicts_without_momentum():
    from ragd.problems import problem_from_dict

    problem = problem_from_dict(_quadratic_config()["problem"])
    config = SolverConfig(mode="rgd", mu=problem.mu, L=problem.L, max_iters=200)
    point = sweep_point("gamma", 1.0, problem, config)
    assert point.solver == "rgd"
    assert point.delta_bar == 1.0
    assert math.isnan(point.xi_pred)
    assert point.pred_rate == 1.0 - config.a
    assert point.xi_settle_iters == 0
    assert 0.0 < point.rate < 1.0


def test_plain_descent_pred_rate_is_the_gap_contraction_at_a_short_step():
    # At gamma = 0.5/L the certified gap contraction 1 - a is 1 - 0.75 mu/L;
    # the error contraction 1 - mu gamma would read 1 - 0.5 mu/L.
    from ragd.problems import problem_from_dict

    problem = problem_from_dict(_quadratic_config()["problem"])
    q = problem.mu / problem.L
    config = SolverConfig(
        mode="rgd", mu=problem.mu, L=problem.L, gamma=0.5 / problem.L, max_iters=200
    )
    point = sweep_point("gamma", 0.5, problem, config)
    assert math.isclose(point.pred_rate, 1.0 - 0.75 * q, rel_tol=1e-15)
    assert point.rate**2 <= point.pred_rate


def test_curvature_sweep_rebuilds_manifold():
    points = _run_sweep(_karcher_config(max_iters=150), "curvature", [0.5, 2.0])
    assert [p.value for p in points] == [0.5, 2.0]
    assert points[0].delta_bar <= points[1].delta_bar


def test_curvature_sweep_on_a_sphere_rewrites_sigma():
    values = [0.25, 0.5, 1.0]
    cases = build_sweep(_sphere_config(), "curvature", values)
    assert [problem.manifold.sigma for _, problem, _ in cases] == values
    points = _run_sweep(_sphere_config(), "curvature", values)
    assert len({p.rate for p in points}) == len(values)


@pytest.mark.parametrize(
    "kind, manifold",
    [
        ("karcher", {"kind": "euclidean", "dim": 4}),
        ("sphere_mean", {"kind": "sphere", "dim": 4, "kappa": 1.0}),
        ("karcher", {"kind": "spd", "n": 3}),
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


def _recorded_runs(monkeypatch):
    """The (problem, config) of every run ``run_enlarging`` starts, and its
    trace once the run returns."""
    runs = []

    def record(problem, config):
        runs.append((problem, config))
        trace = run(problem, config)
        runs[-1] += (trace,)
        return trace

    monkeypatch.setattr("ragd.sweep.run", record)
    return runs


def _far_start_karcher():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.8, seed=1)
    oracle_optimum(prob)
    far = prob.manifold.random_point(np.random.default_rng(0), prob.reference, 3.0)
    return dataclasses.replace(prob, start=far)


def test_run_enlarging_reruns_on_the_problem_certified_for_the_observed_ball(monkeypatch):
    prob = _far_start_karcher()
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, xi0=0.3, max_iters=30)
    runs = _recorded_runs(monkeypatch)
    trace, used = run_enlarging(prob, config)
    (first, _, first_trace), (wider, wider_config, wider_trace) = runs
    assert first is prob
    reach = first_trace.meta["max_reference_distance"]
    assert (wider.mu, wider.L, wider.certified_radius) == prob.certify(reach)
    assert wider.L == trig_coeff(1.0, 2.0 * reach) > prob.L
    assert wider.certified_radius == reach
    assert wider_config is used and used == dataclasses.replace(config, L=wider.L)
    assert trace is wider_trace and trace.meta["enlarged_L"] == wider.L
    assert wider.mu == prob.mu
    assert wider.start is prob.start and wider.reference is prob.reference
    assert wider.payload == prob.payload and wider.certify is prob.certify
    x = prob.manifold.random_point(np.random.default_rng(1), prob.reference, reach)
    assert wider.value(x) == prob.value(x)


def test_run_enlarging_keeps_the_first_trace_when_the_observed_ball_needs_no_larger_L(
    monkeypatch,
):
    # L is already certified for a ball of four times the anchor spread, but
    # the problem claims a smaller radius, which the iterates leave; the
    # certificate of the ball they visit gives no larger L.
    prob = random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.0, seed=6)
    _, lips, _ = prob.certify(4.0 * prob.certified_radius)
    prob = dataclasses.replace(prob, L=lips, certified_radius=1e-3)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=30)
    runs = _recorded_runs(monkeypatch)
    trace, used = run_enlarging(prob, config)
    assert len(runs) == 1
    assert trace.meta["left_feasible_radius"] is True
    assert prob.certify(trace.meta["max_reference_distance"])[1] <= prob.L
    assert "enlarged_L" not in trace.meta
    assert used is config


def _far_start_karcher_h4():
    # L = 1.58; the ball the iterates visit certifies L = 5.48.
    prob = random_karcher(Hyperbolic(4, kappa=1.0), 5, 1.0, seed=2)
    oracle_optimum(prob)
    far = prob.manifold.random_point(np.random.default_rng(0), prob.reference, 3.0)
    return dataclasses.replace(prob, start=far)


def test_run_enlarging_never_lowers_the_L_the_run_used(monkeypatch):
    prob = _far_start_karcher_h4()
    config = SolverConfig(mode="ragd", mu=prob.mu, L=10.0, max_iters=30)
    runs = _recorded_runs(monkeypatch)
    trace, used = run_enlarging(prob, config)
    assert trace.meta["left_feasible_radius"] is True
    assert prob.L < prob.certify(trace.meta["max_reference_distance"])[1] < config.L
    assert len(runs) == 1
    assert used is config and "enlarged_L" not in trace.meta


def test_run_enlarging_rescales_an_explicit_gamma_to_the_new_L(monkeypatch):
    prob = _far_start_karcher_h4()
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, gamma=1.9 / prob.L, max_iters=30)
    runs = _recorded_runs(monkeypatch)
    trace, used = run_enlarging(prob, config)
    assert len(runs) == 2 and runs[1][1] is used
    assert trace.meta["enlarged_L"] == used.L > config.L
    assert used.gamma == config.gamma * (config.L / used.L)
    assert used.gamma * used.L == pytest.approx(1.9, rel=1e-15)
    assert dataclasses.replace(used, L=config.L, gamma=config.gamma) == config


def test_run_enlarging_does_not_rerun_a_sphere_mean_that_leaves_its_cap(monkeypatch):
    # The run ends at its first step out of the cap, before any certificate
    # of a larger ball is asked for: past the cap there is none.
    prob = random_sphere_mean(Sphere(4, sigma=1.0), 4, 0.3, seed=6)
    m = prob.manifold
    v = m.random_tangent(np.random.default_rng(0), prob.reference, scale=1.0)
    far = m.exp(prob.reference, (1.0 / m.norm(prob.reference, v)) * v)
    prob = dataclasses.replace(prob, start=far)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=30)
    runs = _recorded_runs(monkeypatch)
    with pytest.raises(RuntimeContainmentError, match="left the certified ball"):
        run_enlarging(prob, config)
    assert len(runs) == 1


def test_run_enlarging_keeps_the_first_trace_when_the_problem_cannot_be_recertified():
    # A quadratic's (mu, L) hold everywhere, so it carries no certificate; one
    # whose iterates leave its (here artificially small) ball keeps the first run.
    prob = dataclasses.replace(make_quadratic(4, 1.0, 10.0, seed=0), certified_radius=1e-3)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=5)
    trace, used = run_enlarging(prob, config)
    assert trace.meta["left_feasible_radius"] is True
    assert "enlarged_L" not in trace.meta
    assert used is config


def test_sweep_rejects_bad_requests():
    with pytest.raises(DomainError):
        _run_sweep(_quadratic_config(), "step_size", [1.0])
    with pytest.raises(DomainError):
        _run_sweep(_quadratic_config(), "gamma", [])
    with pytest.raises(MissingDataError):
        _run_sweep({"problem": _quadratic_config()["problem"]}, "gamma", [1.05])
    with pytest.raises(DomainError):
        _run_sweep(_karcher_config(), "condition_number", [0.1])
    with pytest.raises(DomainError):
        _run_sweep(_quadratic_config(), "curvature", [1.0])
    no_L = {**_quadratic_config(), "problem": {"kind": "quadratic", "dim": 3, "mu": 0.5, "seed": 0}}
    with pytest.raises(MissingDataError, match="'L'"):
        _run_sweep(no_L, "condition_number", [0.5])
    explicit = [
        ("condition_number", problem_to_dict(make_quadratic(3, 1.0, 2.0, seed=0))),
        ("curvature", problem_to_dict(random_karcher(Hyperbolic(3, kappa=1.0), 4, 1.0, seed=0))),
    ]
    for axis, problem in explicit:
        with pytest.raises(DomainError, match=f"{axis} sweeps need a generator problem block"):
            _run_sweep({**_quadratic_config(), "problem": problem}, axis, [0.5])


def test_write_sweep_csv_round_trips(tmp_path):
    points = _run_sweep(_quadratic_config(max_iters=80), "delta_const", [1.0, 2.0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "delta_const"
    assert float(row[1]) == points[0].value
    assert float(row[5]) == points[0].rate
