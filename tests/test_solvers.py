"""Solver step algebra, configuration validation, and trace conventions."""

import dataclasses
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import ragd.cli as cli
import ragd.geometry.spd as spd_module
from ragd.distortion import valid_rate_hadamard, valid_rate_nonhadamard
from ragd.errors import AntipodalError, DomainError, NonFiniteError, RuntimeContainmentError
from ragd.geometry import SPD, Euclidean, Hyperbolic, Sphere, TangentVector
from ragd.problems import (
    _OBJECTIVE_ROWS,
    Problem,
    make_karcher,
    make_quadratic,
    oracle_optimum,
    quadratic_from_arrays,
    random_karcher,
    random_sphere_mean,
)
from ragd.solvers import (
    _ROW_BLOCK,
    SOLVER_MODES,
    SolverConfig,
    _step,
    normalized_potential,
    run,
    step_params,
)
from ragd.sweep import run_enlarging
from ragd.xi import XiParams, next_xi

COEFF_TOL = 1e-15
GAP_FLOOR = -1e-9
RATE_SLACK = 1e-12

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


def test_step_params_values():
    alpha, beta, eta = step_params(xi=0.5, mu=1.0, delta_gamma=0.08)
    a = 0.16
    assert math.isclose(alpha, (0.5 - a) / (1.0 - a), rel_tol=COEFF_TOL)
    assert math.isclose(beta, 1.0 - a / 0.5, rel_tol=COEFF_TOL)
    assert math.isclose(eta, 2.0 * 0.08 / 0.5, rel_tol=COEFF_TOL)


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.2, 1.3])
def test_step_params_rejects_xi_outside_unit_interval(xi):
    with pytest.raises(DomainError):
        step_params(xi, mu=1.0, delta_gamma=0.1)


def test_step_params_rejects_xi_below_a():
    with pytest.raises(DomainError):
        step_params(0.1, mu=1.0, delta_gamma=0.1)


def test_step_params_infeasible_when_a_reaches_one():
    # gamma = 1 with mu = L = 1 gives delta_gamma = 1/2 and a = 1, so no
    # admissible momentum value exists anywhere in (0, 1).
    delta_gamma = 1.0 * (1.0 - 1.0 * 1.0 / 2.0)
    assert 2.0 * 1.0 * delta_gamma == 1.0
    for xi in (0.01, 0.5, 0.999999):
        with pytest.raises(DomainError):
            step_params(xi, mu=1.0, delta_gamma=delta_gamma)


def test_step_params_boundary_and_zero_mu():
    alpha, beta, eta = step_params(xi=0.2, mu=1.0, delta_gamma=0.1)
    assert alpha == 0.0 and beta == 0.0
    assert math.isclose(eta, 1.0, rel_tol=COEFF_TOL)
    alpha, beta, eta = step_params(xi=0.4, mu=0.0, delta_gamma=0.1)
    assert alpha == 0.4 and beta == 1.0
    assert math.isclose(eta, 2.0 * 0.1 / 0.4, rel_tol=COEFF_TOL)


def test_step_params_critical_step_simplification():
    q = 0.01
    mu, big = q, 1.0
    delta_gamma = (1.0 / big) * (1.0 - 1.0 / 2.0)
    alpha, beta, eta = step_params(math.sqrt(q), mu, delta_gamma)
    assert math.isclose(alpha, math.sqrt(q) / (1.0 + math.sqrt(q)), rel_tol=1e-12)
    assert math.isclose(beta, 1.0 - math.sqrt(q), rel_tol=1e-12)
    assert math.isclose(eta, 1.0 / math.sqrt(mu * big), rel_tol=1e-12)


def _nesterov_step(problem, x, y, z, params, gamma):
    """Classical Nesterov step in plain vector arithmetic, the flat-space
    reference that the solver's step must reproduce bit for bit."""
    alpha, beta, eta = params
    x1 = y + alpha * (z - y)
    g = problem.grad(problem.manifold.point(x1)).coords
    y1 = x1 + (-gamma) * g
    z1 = x1 + (beta * (z - x1) - eta * g)
    return x1, y1, z1, g


def test_single_flat_step_hand_cases():
    hessian = np.array([[1.0]])
    prob = quadratic_from_arrays(hessian, np.zeros(1), np.array([1.0]))
    m = prob.manifold
    one = m.point(np.array([1.0]))
    params = step_params(0.5, 1.0, 0.1)
    x1, y1, z1 = _step(prob, one, one, params, 1.0)
    assert x1.coords[0] == 1.0
    assert prob._grad_coords(x1)[0] == 1.0
    assert y1.coords[0] == 0.0
    zero = m.point(np.zeros(1))
    x1, y1, z1 = _step(prob, zero, zero, params, 1.0)
    assert x1.coords[0] == y1.coords[0] == z1.coords[0] == 0.0


def test_step_matches_closed_form_nesterov_bitwise():
    prob = make_quadratic(8, 1.0, 25.0, seed=5)
    rng = np.random.default_rng(5)
    m = prob.manifold
    x = m.point(rng.standard_normal(8))
    y = m.point(rng.standard_normal(8))
    z = m.point(rng.standard_normal(8))
    params = step_params(0.3, 1.0, 0.01)
    flat = _nesterov_step(prob, x.coords, y.coords, z.coords, params, gamma=0.02)
    x1, y1, z1 = _step(prob, y, z, params, 0.02)
    curved = (x1.coords, y1.coords, z1.coords, prob._grad_coords(x1))
    for want, got in zip(flat, curved):
        assert np.array_equal(want, got)


def _constant_gradient_problem(m, start, coords):
    return Problem(
        name="constant-gradient",
        manifold=m,
        values=lambda xs: np.zeros(len(xs)),
        gradient=lambda x: np.array(coords, dtype=float),
        mu=0.01,
        L=1.0,
        start=m.point(start),
        reference=m.point(start),
        certified_radius=1.0,
    )


def test_run_rejects_overflowing_step_output():
    # finite value and gradient, but eta * grad overflows in the z-update
    prob = _constant_gradient_problem(Euclidean(2), np.zeros(2), np.full(2, 1e308))
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=3)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        run(prob, config)


@pytest.mark.parametrize("mode", ["ragd", "rgd"])
def test_run_rejects_infinite_gradient_on_sphere(mode):
    prob = _constant_gradient_problem(Sphere(2), [1.0, 0.0, 0.0], [0.0, math.inf, 0.0])
    config = SolverConfig(mode=mode, mu=prob.mu, L=prob.L, max_iters=3)
    with pytest.raises(NonFiniteError):
        run(prob, config)


@pytest.mark.parametrize(("step", "bad"), [(5, math.nan), (_ROW_BLOCK + 3, math.inf)],
                         ids=["first-block", "second-block"])
def test_run_rejects_non_finite_objective_value_at_its_step(monkeypatch, step, bad):
    # f(y_t) is evaluated once per block of rows, after the steps of the
    # block; the error names the step, not the block.
    prob = make_quadratic(6, 1.0, 20.0, seed=1)
    prob.optimum_value  # cached, so that every call below is a block of rows
    values = prob.values
    done = []

    def spoiled(points):
        out = np.array(values(points))
        lo = sum(done)
        done.append(len(points))
        if lo <= step < lo + len(points):
            out[step - lo] = bad
        return out

    monkeypatch.setattr(prob, "values", spoiled)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=2 * _ROW_BLOCK)
    with pytest.raises(NonFiniteError, match=f"objective value is not finite at step {step}$"):
        run(prob, config)
    assert done[0] == _ROW_BLOCK


def test_run_rejects_wrong_shape_gradient():
    prob = _constant_gradient_problem(Euclidean(3), np.zeros(3), [1.0])
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=3)
    with pytest.raises(DomainError):
        run(prob, config)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "warp", "mu": 1.0, "L": 2.0},
        {"mode": "ragd", "mu": 1.0, "L": 0.0},
        {"mode": "ragd", "mu": 1.0, "L": math.inf},
        {"mode": "ragd", "mu": -0.5, "L": 2.0},
        {"mode": "ragd", "mu": 3.0, "L": 2.0},
        {"mode": "ragd", "mu": 0.0, "L": 2.0},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "gamma": 0.0},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "gamma": 1.0},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "xi0": 0.0},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "xi0": 1.0},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "max_iters": 0},
        {"mode": "ragd_constant_delta", "mu": 1.0, "L": 2.0},
        {"mode": "ragd_constant_delta", "mu": 1.0, "L": 2.0, "delta_const": 0.5},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "delta_const": 3.0},
        {"mode": "rgd", "mu": 1.0, "L": 2.0, "sharp_distortion": True},
        {"mode": "euclid_nesterov", "mu": 1.0, "L": 2.0, "sharp_distortion": True},
        {"mode": "rgd", "mu": 1.0, "L": 2.0, "xi0": 0.5},
        # bools and numeric strings are not real numbers; at L = 1.5 a
        # gamma of True (1) would lie in (0, 2/L)
        {"mode": "ragd", "mu": 1.0, "L": 1.5, "gamma": True},
        {"mode": "ragd", "mu": True, "L": 2.0},
        {"mode": "ragd", "mu": "1.0", "L": 2.0},
        {"mode": "ragd", "mu": 1.0, "L": "2.0"},
        {"mode": "ragd", "mu": 1.0, "L": 2.0, "xi0": "0.5"},
        {"mode": "ragd_constant_delta", "mu": 1.0, "L": 2.0, "delta_const": True},
    ],
)
def test_solver_config_rejects_bad_settings(kwargs):
    with pytest.raises(DomainError):
        SolverConfig(**kwargs)


def test_solver_config_resolved_defaults():
    accel = SolverConfig(mode="ragd", mu=1.0, L=4.0)
    assert accel.resolved_gamma == 1.05 / 4.0
    assert accel.resolved_xi0 == math.sqrt(1.0 / 4.0)
    plain = SolverConfig(mode="rgd", mu=1.0, L=4.0)
    assert plain.resolved_gamma == 1.0 / 4.0
    nesterov = SolverConfig(mode="euclid_nesterov", mu=1.0, L=4.0)
    assert nesterov.resolved_gamma == 1.0 / 4.0
    g = accel.resolved_gamma
    assert math.isclose(accel.delta_gamma, g * (1.0 - 4.0 * g / 2.0))
    assert math.isclose(accel.a, 2.0 * accel.delta_gamma)


def test_solver_modes_listing():
    assert set(SOLVER_MODES) == {
        "rgd",
        "ragd",
        "ragd_constant_delta",
        "euclid_nesterov",
    }


def test_euclid_mode_requires_euclidean_manifold():
    prob = random_karcher(Hyperbolic(4, kappa=1.0), 3, 0.5, seed=0)
    config = SolverConfig(mode="euclid_nesterov", mu=prob.mu, L=prob.L, max_iters=5)
    with pytest.raises(DomainError):
        run(prob, config)


def test_sphere_run_requires_containment_radius():
    prob = random_sphere_mean(Sphere(5, sigma=1.0), 4, 0.3, seed=0)
    loose = dataclasses.replace(prob, certified_radius=math.inf)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=5)
    with pytest.raises(DomainError):
        run(loose, config)


def test_rgd_trace_conventions():
    prob = make_quadratic(6, 1.0, 10.0, seed=2)
    config = SolverConfig(mode="rgd", mu=prob.mu, L=prob.L, max_iters=80)
    trace = run(prob, config)
    assert np.all(trace.column("xi") == config.a)
    assert np.all(trace.column("delta_rate") == 1.0)
    assert np.all(np.isnan(trace.column("potential")))
    assert np.all(np.isnan(trace.column("decrease_margin")))
    gap = trace.column("f_gap")
    assert gap[-1] < gap[0] * 1e-6
    assert np.all(gap >= GAP_FLOOR)
    assert math.isnan(trace.meta["xi0"])


def test_accelerated_trace_invariants():
    prob = make_quadratic(10, 1.0, 40.0, seed=3)
    config = SolverConfig(mode="euclid_nesterov", mu=prob.mu, L=prob.L, max_iters=80)
    trace = run(prob, config)
    t = trace.column("t")
    assert np.array_equal(t, np.arange(81.0))
    assert np.all(trace.column("f_gap") >= GAP_FLOOR)
    xi = trace.column("xi")
    assert np.all((xi > 0.0) & (xi < 1.0))
    assert np.all(trace.column("delta_rate") == 1.0)
    phi = trace.column("potential")
    assert np.all(np.isfinite(phi)) and np.all(phi >= GAP_FLOOR)
    assert trace.meta["solver"] == "euclid_nesterov"
    assert trace.meta["xi0"] == config.resolved_xi0


def test_decrease_margin_matches_columns():
    prob = make_quadratic(10, 1.0, 40.0, seed=3)
    config = SolverConfig(mode="euclid_nesterov", mu=prob.mu, L=prob.L, max_iters=60)
    trace = run(prob, config)
    xi = trace.column("xi")
    phi = trace.column("potential")
    margin = trace.column("decrease_margin")
    expect = (1.0 - xi[1:]) * phi[:-1] - phi[1:]
    assert np.array_equal(margin[:-1], expect)
    assert math.isnan(margin[-1])


def test_curved_run_uses_distortion_rates_above_one():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    oracle_optimum(prob)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=60)
    trace = run(prob, config)
    delta = trace.column("delta_rate")
    assert np.all(delta >= 1.0 - RATE_SLACK)
    assert delta.max() > 1.0
    assert np.all(trace.column("f_gap") >= GAP_FLOOR)
    assert np.all(np.isfinite(trace.column("potential")))


def test_constant_delta_mode_pins_rate():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    config = SolverConfig(
        mode="ragd_constant_delta", mu=prob.mu, L=prob.L, delta_const=1.5, max_iters=30
    )
    trace = run(prob, config)
    delta = trace.column("delta_rate")
    assert np.all(delta[1:] == 1.5)
    assert delta[0] == 1.0
    assert trace.meta["delta_const"] == 1.5


@pytest.mark.parametrize("case", ["hyperbolic", "hyperbolic-sharp", "spd", "sphere", "constant"])
def test_rate_provenance_recorded_distances_set_each_rate(case):
    # The step loop measures the distances it charges the rate on, and the
    # block pass records d_xz and d_yz with separate stacked calls: each
    # rate must be the bound of the recorded distances of the row it leaves,
    # bit for bit.
    if case == "sphere":
        prob = random_sphere_mean(Sphere(7), 6, 0.3, seed=11)
    else:
        m, seed = (SPD(4), 104) if case == "spd" else (Hyperbolic(8, kappa=1.0), 3)
        prob = random_karcher(m, 6, 1.2, seed=seed)
    sharp = case == "hyperbolic-sharp"
    mode, delta_const = ("ragd_constant_delta", 1.3) if case == "constant" else ("ragd", None)
    config = SolverConfig(
        mode=mode, mu=prob.mu, L=prob.L, max_iters=80,
        sharp_distortion=sharp, delta_const=delta_const,
    )
    trace = run(prob, config)
    kappa = prob.manifold.kappa
    d_xz = trace.column("d_xz")[:-1].tolist()
    d_yz = trace.column("d_yz")[:-1].tolist()
    if case == "constant":
        want = [delta_const] * len(d_xz)
    elif case == "sphere":
        want = [valid_rate_nonhadamard(kappa, a, b) for a, b in zip(d_xz, d_yz)]
    else:
        want = [valid_rate_hadamard(kappa, a, sharp) for a in d_xz]
    assert trace.column("delta_rate")[1:].tolist() == want
    assert max(want) > 1.0


def test_gap_without_optimum_uses_best_seen_value():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    assert prob.optimum is None
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=40)
    trace = run(prob, config)
    gap = trace.column("f_gap")
    assert np.all(gap >= 0.0)
    assert gap.min() == 0.0
    assert np.all(np.isnan(trace.column("d_yopt")))


def test_containment_abort_on_sphere():
    prob = random_sphere_mean(Sphere(5, sigma=1.0), 5, 0.3, seed=0)
    rng = np.random.default_rng(3)
    x0 = prob.manifold.random_point(rng, prob.reference, 0.3)
    tight = dataclasses.replace(prob, certified_radius=0.05, start=x0)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=50)
    with pytest.raises(RuntimeContainmentError):
        run(tight, config)


def test_feasible_radius_flag_in_meta():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.8, seed=1)
    rng = np.random.default_rng(0)
    far = prob.manifold.random_point(rng, prob.reference, 3.0)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=30)
    trace = run(dataclasses.replace(prob, start=far), config)
    assert trace.meta["left_feasible_radius"] is True
    assert trace.meta["max_reference_distance"] > prob.certified_radius
    near = run(prob, config)
    assert near.meta["left_feasible_radius"] is False


@pytest.mark.parametrize("manifold,n_anchors,radius,seed", [
    (Hyperbolic(5, kappa=1.0), 6, 2.0, 28),
    (SPD(3), 5, 1.5, 5),
], ids=["hyperbolic", "spd"])
def test_a_start_on_the_farthest_anchor_stays_in_the_certified_ball(
    manifold, n_anchors, radius, seed, caplog
):
    # The start, anchor 0, sets the certified radius.  Measured by another
    # kernel than the radius was, or as a recomputed x+, it read a few ulps
    # beyond it at step 1, and run_enlarging re-solved with a larger L.
    problem = random_karcher(manifold, n_anchors, radius, seed=seed)
    assert problem.manifold.distance(problem.reference, problem.start) == problem.certified_radius
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=5)
    with caplog.at_level(logging.WARNING, logger="ragd.solvers"):
        trace = run(problem, config)
        rerun, same = run_enlarging(problem, config)
    assert trace.meta["left_feasible_radius"] is False
    assert not [r for r in caplog.records if "left the certified radius" in r.getMessage()]
    assert same is config
    assert "enlarged_L" not in rerun.meta


def test_leaving_the_certified_ball_warns_once_on_a_hadamard_manifold(caplog):
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.8, seed=1)
    far = prob.manifold.random_point(np.random.default_rng(0), prob.reference, 3.0)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=30)
    with caplog.at_level(logging.WARNING, logger="ragd.solvers"):
        trace = run(dataclasses.replace(prob, start=far), config)
    left = [r for r in caplog.records if "left the certified radius" in r.getMessage()]
    assert len(left) == 1
    assert trace.n_iters == 30
    assert trace.meta["left_feasible_radius"] is True


def test_run_is_deterministic():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 1.0, seed=4)
    oracle_optimum(prob)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=50)
    first = run(prob, config)
    second = run(prob, config)
    assert np.array_equal(first.rows, second.rows, equal_nan=True)


def test_x0_override_changes_start():
    prob = make_quadratic(6, 1.0, 10.0, seed=2)
    shifted = prob.manifold.point(prob.start.coords + 1.0)
    config = SolverConfig(mode="euclid_nesterov", mu=prob.mu, L=prob.L, max_iters=5)
    base = run(prob, config)
    moved = run(dataclasses.replace(prob, start=shifted), config)
    assert moved.column("f_gap")[0] != base.column("f_gap")[0]
    assert moved.column("f_gap")[0] == prob.value(shifted) - prob.optimum_value


class _CholeskyCounter:
    """Stands in for ``_umath_linalg`` in ``ragd.geometry.spd``: the real
    gufuncs, and a record of every matrix ``cholesky_lo`` factors."""

    def __init__(self):
        self.factored = []
        self.eigh_lo = _umath_linalg.eigh_lo
        self.eigvalsh_lo = _umath_linalg.eigvalsh_lo
        self.inv = _umath_linalg.inv

    def cholesky_lo(self, a):
        self.factored.append(a)
        return _umath_linalg.cholesky_lo(a)


def test_spd_run_factors_each_base_point_once(monkeypatch):
    problem = random_karcher(SPD(3), 5, 1.0, seed=4)
    oracle_optimum(problem)
    counter = _CholeskyCounter()
    monkeypatch.setattr(spd_module, "_umath_linalg", counter)
    for steps in (10, _ROW_BLOCK + 10):
        counter.factored.clear()
        run(problem, SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=steps))
        # Only a point's own coordinates, read-only, reach the factorization,
        # each point's once: the start, reference and optimum keep theirs
        # from the oracle, so x+ and y+ of each step but the first step's x+,
        # which is the start.
        assert all(not a.flags.writeable for a in counter.factored)
        assert len({id(a) for a in counter.factored}) == len(counter.factored)
        assert len(counter.factored) == 2 * steps - 1


def test_run_makes_one_geometry_pass_per_step(monkeypatch):
    steps = _ROW_BLOCK + 10
    problem = random_karcher(Hyperbolic(5, kappa=1.0), 6, 1.0, seed=3)
    oracle_optimum(problem)
    assert math.isfinite(problem.certified_radius)  # containment is checked
    names = ("distance", "_log", "_exp", "_geodesic", "log", "exp", "_dist_many",
             "_projected_distances")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        method = getattr(Hyperbolic, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Hyperbolic, name, counted)
    values = []
    value = Problem.value
    monkeypatch.setattr(Problem, "value", lambda self, x: values.append(x) or value(self, x))
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=steps)
    run(problem, config)
    # f(x*) only; f(y_t) goes through Problem.values.
    assert values == [problem.optimum]
    rows = steps + 1
    blocks = 2
    # f(y_t) of a block: one _dist_many per _OBJECTIVE_ROWS (row, anchor)
    # pairs, here ceil(64 / 42) + ceil(11 / 42).
    per_call = _OBJECTIVE_ROWS // 6
    f_calls = -(-_ROW_BLOCK // per_call) + -(-(rows - _ROW_BLOCK) // per_call)
    # Per step: d(x, z) for the rate, then x+ in closed form (the first
    # step's is the start), two exp and log_{x+}(z), all through the
    # coordinate kernels.  Per block of rows:
    # f(y_t) (above), d(x_t, z_t), d(y_t, z_t), d(y_t, x*) and the
    # containment distances (one _dist_many each) and the projected
    # distances.  Once: f(x*).
    assert calls == {
        "distance": steps,
        "_log": steps,
        "_exp": 2 * steps,
        "_geodesic": steps - 1,
        "log": 0,
        "exp": 0,
        "_dist_many": f_calls + 4 * blocks + 1,
        "_projected_distances": blocks,
    }


def test_ragd_stays_on_a_sharply_curved_hyperboloid_far_out():
    # kappa 20, radius 3: the start, anchor 0, has kappa |x|^2 ~ 3e8.  An x+
    # composed as exp(y, alpha log(y, z)) sat off the hyperboloid by the
    # Minkowski round-off at that size, and the z update's exp amplified the
    # drift until its target was spacelike (NonFiniteError at step 2).
    problem = random_karcher(Hyperbolic(4, kappa=20.0), 4, 3.0, seed=2)
    oracle_optimum(problem)
    trace = run(problem, SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=60))
    gap = trace.column("f_gap")
    assert gap[-1] <= 1e-12 * gap[0]


def test_first_step_takes_the_start_as_x_plus():
    # At the start z is y, so Exp_y(alpha * Log_y(z)) is the start itself.
    problem = random_karcher(Hyperbolic(5, kappa=1.0), 6, 1.0, seed=3)
    config = SolverConfig(
        mode="ragd", mu=problem.mu, L=problem.L, max_iters=3, record_diagnostics=True
    )
    trace = run(problem, config)
    assert trace.diagnostics[1][0] is problem.start


def test_spd_run_eigendecomposition_budget(monkeypatch):
    problem = random_karcher(SPD(3), 5, 1.0, seed=4)
    oracle_optimum(problem)
    problem.optimum_value  # f(x*) is evaluated once per problem, here
    calls = {"_eigh": 0, "_eigvalsh": 0}
    for name in calls:
        method = getattr(SPD, name)

        def counted(a, _name=name, _method=method):
            calls[_name] += 1
            return _method(a)

        monkeypatch.setattr(SPD, name, staticmethod(counted))
    per_call = _OBJECTIVE_ROWS // 5
    for steps in (10, _ROW_BLOCK + 10):
        calls.update(dict.fromkeys(calls, 0))
        run(problem, SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=steps))
        sizes = [min(_ROW_BLOCK, steps + 1 - lo) for lo in range(0, steps + 1, _ROW_BLOCK)]
        f_calls = sum(-(-size // per_call) for size in sizes)
        # eigh, per step: x+ (one for the whole geodesic), the gradient's
        # batched logarithm, two Exp and Log_{x+}(z); the first step's x+ is
        # the start and takes no geodesic.  The bases are factored by
        # Cholesky, not by eigh.  Per block: the two logarithm batches of the
        # projected distances.  eigvalsh: the start's membership check, d(x, z)
        # per step, and per block f(y_t) (one per _OBJECTIVE_ROWS (row, anchor)
        # pairs), d(x_t, z_t), d(y_t, z_t), d(y_t, x*) and the containment.
        assert calls == {
            "_eigh": 5 * steps - 1 + 2 * len(sizes),
            "_eigvalsh": 1 + steps + f_calls + 4 * len(sizes),
        }


def test_spd_oracle_eigendecomposition_budget(monkeypatch):
    problem = random_karcher(SPD(3), 5, 1.0, seed=4)
    grads = []
    gradient = problem.gradient
    problem.gradient = lambda x: grads.append(x) or gradient(x)
    calls = {"_eigh": 0, "_eigvalsh": 0}
    for name in calls:
        method = getattr(SPD, name)

        def counted(a, _name=name, _method=method):
            calls[_name] += 1
            return _method(a)

        monkeypatch.setattr(SPD, name, staticmethod(counted))
    oracle_optimum(problem)
    # eigh, per iteration: the gradient's batched logarithm and, but at the
    # last iterate, the Exp step; each iterate is factored by Cholesky.
    # eigvalsh: the optimum's membership check.
    assert len(grads) > 10
    assert calls == {"_eigh": 2 * len(grads) - 1, "_eigvalsh": 1}


def test_spd_run_symmetrization_budget(monkeypatch):
    # A congruence goes to LAPACK as formed (it reads the lower triangle);
    # only a point or tangent that a map returns is symmetrized.
    problem = random_karcher(SPD(3), 5, 1.0, seed=4)
    oracle_optimum(problem)
    problem.optimum_value
    calls = []
    sym = spd_module._sym
    monkeypatch.setattr(spd_module, "_sym", lambda a: calls.append(1) or sym(a))
    for steps in (10, _ROW_BLOCK + 10):
        calls.clear()
        run(problem, SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=steps))
        blocks = -(-(steps + 1) // _ROW_BLOCK)
        # Per step: the gradient's one _log_sum and Log_{x+}(z); the two Exp
        # and x+ form B B^T, exactly symmetric.  Once: the start's membership
        # check.  Per block: the two logarithm batches of the projected
        # distances.
        assert len(calls) == 2 * steps + 1 + 2 * blocks


_FLAT_MODES = (("euclid_nesterov", {}), ("ragd", {}),
               ("ragd_constant_delta", {"delta_const": 1.05}))


def test_run_builds_no_tangent_vector(monkeypatch):
    steps = 50
    problem = make_quadratic(16, 1.0, 50.0, seed=2)
    built = []
    post_init = TangentVector.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TangentVector, "__post_init__", counted)
    for mode, extra in _FLAT_MODES + (("rgd", {}),):
        config = SolverConfig(mode=mode, mu=problem.mu, L=problem.L, max_iters=steps, **extra)
        run(problem, config)
        # The loop steps with the gradient's checked coordinates.
        assert built == []


def _public_reference_rows(problem, config):
    """The trace rows of a flat accelerated run, from a loop written with
    the typed calls ``Problem.grad``, ``Manifold.exp`` and ``Manifold.log``
    and the single-pair distances."""
    m, opt = problem.manifold, problem.optimum
    gamma, dg = config.resolved_gamma, config.delta_gamma
    delta = config.delta_const if config.mode == "ragd_constant_delta" else 1.0
    xi, xis, rates = config.resolved_xi0, [config.resolved_xi0], [1.0]
    x = y = z = problem.start
    points = [(x, y, z)]
    for _ in range(config.max_iters):
        xi = next_xi(xi, XiParams(a=config.a, delta=delta))
        alpha, beta, eta = step_params(xi, config.mu, dg)
        x = m.exp(y, alpha * m.log(y, z))
        g = problem.grad(x)
        y, z = m.exp(x, (-gamma) * g), m.exp(x, beta * m.log(x, z) - eta * g)
        points.append((x, y, z))
        xis.append(xi)
        rates.append(delta)
    gap = np.array([problem.value(y) - problem.optimum_value for _, y, _ in points])
    pd = np.array([m.projected_distance(x, z, opt) for x, _, z in points])
    phi = normalized_potential(gap, np.array(xis), pd, dg)
    rows = np.column_stack([
        np.arange(len(points), dtype=float), gap, xis, rates,
        [m.distance(x, z) for x, _, z in points],
        [m.distance(y, z) for _, y, z in points],
        [m.distance(y, opt) for _, y, _ in points],
        phi,
        np.append((1.0 - np.array(xis[1:])) * phi[:-1] - phi[1:], math.nan),
    ])
    return rows, points


@pytest.mark.parametrize("mode,extra", _FLAT_MODES, ids=[m for m, _ in _FLAT_MODES])
def test_flat_run_equals_the_public_reference_loop_bitwise(mode, extra):
    # Long enough for three row blocks and a partial one.
    problem = make_quadratic(12, 1.0, 40.0, seed=4)
    config = SolverConfig(mode=mode, mu=problem.mu, L=problem.L,
                          max_iters=3 * _ROW_BLOCK + 10, record_diagnostics=True, **extra)
    trace = run(problem, config)
    rows, points = _public_reference_rows(problem, config)
    assert trace.rows.tobytes() == rows.tobytes()
    for got, want in zip(trace.diagnostics, points, strict=True):
        for a, b in zip(got, want):
            assert a.coords.tobytes() == b.coords.tobytes()


_BAD_GRADIENTS = pytest.mark.parametrize(
    "wrap",
    [
        lambda x, g: TangentVector(x, g),
        lambda x, g: g.tolist(),
        lambda x, g: g.astype(np.float32),
        lambda x, g: g[:, None],
    ],
    ids=["tangent-vector", "list", "float32", "column"],
)


@_BAD_GRADIENTS
def test_gradient_that_is_not_a_coordinate_array_raises_domain_error(wrap):
    # A gradient returns the float64 coordinates of the point's shape;
    # Problem.grad builds the tangent itself.
    problem = make_quadratic(4, 1.0, 10.0, seed=3)
    gradient = problem.gradient
    stray = dataclasses.replace(problem, gradient=lambda x: wrap(x, gradient(x)))
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=5)
    with pytest.raises(DomainError, match="gradient must be a float64 array"):
        run(stray, config)
    with pytest.raises(DomainError, match="gradient must be a float64 array"):
        oracle_optimum(stray)


def test_grad_wraps_the_checked_coordinates_bitwise():
    problem = make_quadratic(6, 1.0, 30.0, seed=8)
    m = problem.manifold
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = m.point(rng.standard_normal(6))
        g = problem.grad(x)
        assert g.base is x
        assert g.coords.tobytes() == problem._grad_coords(x).tobytes()
    spoiled = dataclasses.replace(problem, gradient=lambda x: np.full(6, math.nan))
    for method in (spoiled.grad, spoiled._grad_coords):
        with pytest.raises(NonFiniteError, match="gradient is not finite"):
            method(x)


@_BAD_GRADIENTS
def test_grad_and_checked_coordinates_raise_the_same_errors(wrap):
    problem = make_quadratic(4, 1.0, 10.0, seed=3)
    gradient = problem.gradient
    stray = dataclasses.replace(problem, gradient=lambda x: wrap(x, gradient(x)))
    x = problem.start
    with pytest.raises(DomainError) as typed:
        stray.grad(x)
    with pytest.raises(DomainError) as checked:
        stray._grad_coords(x)
    assert str(typed.value) == str(checked.value)
    assert str(typed.value).startswith("gradient must be a float64 array of shape (4,), got a ")


def _far_line_problem(radius=20.0):
    """Karcher problem on H(8) with 6 anchors alternating at +-radius along
    one geodesic, with 1% jitter."""
    m = Hyperbolic(8, kappa=1.0)
    rng = np.random.default_rng(1)
    o = m.base_point()
    anchors = []
    for i in range(6):
        v = np.zeros(9)
        v[0] = (-1) ** i * radius * (1.0 + 0.01 * rng.normal())
        v[1:-1] = 0.01 * rng.normal(size=7)
        anchors.append(m.exp(o, TangentVector(o, v)))
    return make_karcher(m, anchors)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_field_divergence_ends_in_a_typed_error(tmp_path, caplog):
    # The run drifts out along the line until its points leave the double
    # range of the hyperboloid; that must end in a library error, not in a
    # floating-point overflow.  The oracle cannot resolve the gradient norm
    # this far out, so the run goes without an optimum.
    problem = _far_line_problem()
    with pytest.raises(DomainError, match="too far out"):
        oracle_optimum(problem)
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=300)
    with pytest.raises(DomainError, match="double-precision range"):
        run(problem, config)

    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 8},
                    "anchors": problem.payload["anchors"]},
        "solvers": [{"mode": "ragd", "max_iters": 300}],
    }))
    with caplog.at_level(logging.ERROR, logger="ragd.cli"):
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_ABORT
    assert any("DomainError" in r.getMessage() and "too far out" in r.getMessage()
               for r in caplog.records)


def test_first_excursion_in_a_later_block_warns_at_its_step(caplog):
    # A slow gradient run from a far start drifts steadily out of a ball
    # around that start; the radius puts the first excursion in the second
    # block of rows.
    prob = random_karcher(SPD(3), 5, 0.8, seed=1)
    m = prob.manifold
    far = m.random_point(np.random.default_rng(0), prob.reference, 3.0)
    config = SolverConfig(
        mode="rgd", mu=prob.mu, L=50.0 * prob.L, max_iters=2 * _ROW_BLOCK,
        record_diagnostics=True,
    )
    free = dataclasses.replace(prob, start=far, reference=far, certified_radius=math.inf)
    # Each step's check, one stacked call on (x_t, y_t, z_t).
    worst = [
        float(m._dist_many(far, np.stack([p.coords for p in pts])).max())
        for pts in run(free, config).diagnostics
    ]
    k = _ROW_BLOCK + 6
    radius = 0.5 * (worst[k - 1] + worst[k])
    step = next(t for t in range(1, len(worst)) if worst[t] > radius)
    assert step >= _ROW_BLOCK
    with caplog.at_level(logging.WARNING, logger="ragd.solvers"):
        trace = run(dataclasses.replace(free, certified_radius=radius), config)
    left = [r.getMessage() for r in caplog.records if "left the certified radius" in r.getMessage()]
    assert len(left) == 1
    assert f" at step {step} (distance {worst[step]!r})" in left[0]
    assert trace.meta["left_feasible_radius"] is True
    assert trace.meta["max_reference_distance"] == max(worst[1:])


def _reach(m, reference, diagnostics):
    """Each row's largest distance of x_t, y_t and z_t from ``reference``."""
    return [
        float(m._dist_table([reference], np.stack([p.coords for p in pts])).max())
        for pts in diagnostics
    ]


def test_first_excursion_in_a_later_block_on_the_sphere_raises_at_its_block(caplog):
    # The sphere twin of the Hadamard test above: the same slow drift out of
    # a ball around a far start, with the first excursion in the second
    # block of rows.  Off a Hadamard manifold it ends the run at the end of
    # that block, after the block's last step and before its f(y_t), and
    # logs no warning.
    prob = random_sphere_mean(Sphere(4), 6, 0.3, seed=17)
    m = prob.manifold
    far = m.random_point(np.random.default_rng(0), prob.reference, 1.0)
    config = SolverConfig(
        mode="rgd", mu=prob.mu, L=50.0 * prob.L, max_iters=2 * _ROW_BLOCK,
        record_diagnostics=True,
    )
    free = dataclasses.replace(prob, start=far, reference=far, certified_radius=math.inf)
    worst = _reach(m, far, run(free, config).diagnostics)
    k = _ROW_BLOCK + 6
    radius = 0.5 * (worst[k - 1] + worst[k])
    step = next(t for t in range(1, len(worst)) if worst[t] > radius)
    assert step >= _ROW_BLOCK
    stacked, grads = [], []

    def counting(points):
        stacked.append(len(points))
        return prob.values(points)

    def counting_grad(x):
        grads.append(x)
        return prob.gradient(x)

    tight = dataclasses.replace(
        free, certified_radius=radius, values=counting, gradient=counting_grad
    )
    with caplog.at_level(logging.WARNING, logger="ragd.solvers"):
        with pytest.raises(RuntimeContainmentError) as err:
            run(tight, config)
    assert str(err.value) == (
        f"iterate left the certified ball at step {step}: "
        f"distance {worst[step]!r} exceeds radius {radius!r}"
    )
    assert stacked == [_ROW_BLOCK]
    assert len(grads) == 2 * _ROW_BLOCK - 1
    assert not [r for r in caplog.records if r.name == "ragd.solvers"]


def test_sphere_run_in_its_cap_reports_its_largest_reach():
    prob = random_sphere_mean(Sphere(5), 5, 0.3, seed=0)
    oracle_optimum(prob)
    config = SolverConfig(
        mode="ragd", mu=prob.mu, L=prob.L, max_iters=2 * _ROW_BLOCK + 10,
        record_diagnostics=True,
    )
    trace = run(prob, config)
    worst = _reach(prob.manifold, prob.reference, trace.diagnostics)
    assert trace.meta["left_feasible_radius"] is False
    assert trace.meta["max_reference_distance"] == max(worst[1:])
    assert max(worst[1:]) <= prob.certified_radius


def test_run_keeps_at_most_one_block_of_iterates():
    problem = make_quadratic(64, 1.0, 50.0, seed=1)

    def peak(steps):
        config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=steps)
        tracemalloc.start()
        try:
            trace = run(problem, config)
            return tracemalloc.get_traced_memory()[1], trace.rows.nbytes
        finally:
            tracemalloc.stop()

    peak(200)  # warm-up
    short, _ = peak(200)
    long, rows_bytes = peak(2000)
    block_bytes = _ROW_BLOCK * 3 * problem.start.coords.nbytes
    assert long - short <= rows_bytes + block_bytes


def test_trace_only_error_surfaces_at_the_end_of_its_block():
    # With the optimum antipodal to the start, Log_x(x*) in the projected
    # distance of row 0 is undefined; the steps themselves never need it.
    prob = random_sphere_mean(Sphere(4), 6, 0.3, seed=17)
    prob.set_optimum(prob.manifold.point(-prob.start.coords))
    stacked = []

    def counting(points):
        stacked.append(len(points))
        return prob.values(points)

    counted = dataclasses.replace(prob, values=counting)
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=3 * _ROW_BLOCK)
    with pytest.raises(AntipodalError):
        run(counted, config)
    # f(x*), then f(y_t) for every row of the first block in one stacked pass.
    assert stacked == [1, _ROW_BLOCK]
