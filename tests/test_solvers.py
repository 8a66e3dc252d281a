"""Solver step algebra, configuration validation, and trace conventions."""

import dataclasses
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

import ragd.cli as cli
from ragd.errors import AntipodalError, DomainError, NonFiniteError, RuntimeContainmentError
from ragd.geometry import SPD, Euclidean, Hyperbolic, Sphere, TangentVector
from ragd.problems import (
    _OBJECTIVE_ROWS,
    Problem,
    StackedObjective,
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
    ragd_step,
    run,
    step_params,
)

COEFF_TOL = 1e-15
GAP_FLOOR = -1e-9
RATE_SLACK = 1e-12

logging.getLogger("ragd.solvers").setLevel(logging.ERROR)


def test_step_params_values():
    p = step_params(xi=0.5, mu=1.0, delta_gamma=0.08)
    a = 0.16
    assert math.isclose(p.alpha, (0.5 - a) / (1.0 - a), rel_tol=COEFF_TOL)
    assert math.isclose(p.beta, 1.0 - a / 0.5, rel_tol=COEFF_TOL)
    assert math.isclose(p.eta, 2.0 * 0.08 / 0.5, rel_tol=COEFF_TOL)


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
    low = step_params(xi=0.2, mu=1.0, delta_gamma=0.1)
    assert low.alpha == 0.0 and low.beta == 0.0
    assert math.isclose(low.eta, 1.0, rel_tol=COEFF_TOL)
    free = step_params(xi=0.4, mu=0.0, delta_gamma=0.1)
    assert free.alpha == 0.4 and free.beta == 1.0
    assert math.isclose(free.eta, 2.0 * 0.1 / 0.4, rel_tol=COEFF_TOL)


def test_step_params_critical_step_simplification():
    q = 0.01
    mu, big = q, 1.0
    delta_gamma = (1.0 / big) * (1.0 - 1.0 / 2.0)
    p = step_params(math.sqrt(q), mu, delta_gamma)
    assert math.isclose(p.alpha, math.sqrt(q) / (1.0 + math.sqrt(q)), rel_tol=1e-12)
    assert math.isclose(p.beta, 1.0 - math.sqrt(q), rel_tol=1e-12)
    assert math.isclose(p.eta, 1.0 / math.sqrt(mu * big), rel_tol=1e-12)


def _nesterov_step(problem, x, y, z, params, gamma):
    """Classical Nesterov step in plain vector arithmetic, the flat-space
    reference that ragd_step must reproduce bit for bit."""
    x1 = y + params.alpha * (z - y)
    g = problem.grad(problem.manifold.point(x1)).coords
    y1 = x1 + (-gamma) * g
    z1 = x1 + (params.beta * (z - x1) - params.eta * g)
    return x1, y1, z1, g


def test_single_flat_step_hand_cases():
    hessian = np.array([[1.0]])
    prob = quadratic_from_arrays(hessian, np.zeros(1), np.array([1.0]))
    m = prob.manifold
    one = m.point(np.array([1.0]))
    params = step_params(0.5, 1.0, 0.1)
    x1, y1, z1, g = ragd_step(prob, one, one, one, params, gamma=1.0)
    assert x1.coords[0] == 1.0
    assert g.coords[0] == 1.0
    assert y1.coords[0] == 0.0
    zero = m.point(np.zeros(1))
    x1, y1, z1, g = ragd_step(prob, zero, zero, zero, params, gamma=1.0)
    assert x1.coords[0] == y1.coords[0] == z1.coords[0] == 0.0


def test_ragd_step_matches_closed_form_nesterov_bitwise():
    prob = make_quadratic(8, 1.0, 25.0, seed=5)
    rng = np.random.default_rng(5)
    m = prob.manifold
    x = m.point(rng.standard_normal(8))
    y = m.point(rng.standard_normal(8))
    z = m.point(rng.standard_normal(8))
    params = step_params(0.3, 1.0, 0.01)
    flat = _nesterov_step(prob, x.coords, y.coords, z.coords, params, gamma=0.02)
    curved = ragd_step(prob, x, y, z, params, gamma=0.02)
    for want, got in zip(flat, curved):
        assert np.array_equal(want, got.coords)


def _constant_gradient_problem(m, start, coords):
    return Problem(
        name="constant-gradient",
        manifold=m,
        objective=lambda x: 0.0,
        gradient=lambda x: TangentVector(x, np.array(coords, dtype=float)),
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


def test_spd_run_factors_each_base_point_once(monkeypatch):
    steps = 10
    problem = random_karcher(SPD(3), 5, 1.0, seed=4)
    oracle_optimum(problem)
    eigh = SPD._eigh
    misses = []

    def counting_eigh(a):
        # A point's own coordinates are the only read-only matrices that
        # reach eigh; every intermediate matrix is a fresh writable array.
        if not a.flags.writeable:
            misses.append(a)
        return eigh(a)

    monkeypatch.setattr(SPD, "_eigh", staticmethod(counting_eigh))
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=steps)
    run(problem, config)
    # The start, reference and optimum, then x+ and y+ of each step.
    assert 0 < len(misses) <= 2 * steps + 4


def test_run_makes_one_geometry_pass_per_step(monkeypatch):
    steps = _ROW_BLOCK + 10
    problem = random_karcher(Hyperbolic(5, kappa=1.0), 6, 1.0, seed=3)
    oracle_optimum(problem)
    assert math.isfinite(problem.certified_radius)  # containment is checked
    names = ("distance", "_log_dist", "_log", "_exp", "log", "exp", "_dist_many",
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
    # Per row: d(x, z), and log_y(z) with d(y, z).  Per step: three exp and
    # log_{x+}(z), all through the coordinate kernels.  Per block of rows:
    # f(y_t) (above), d(y_t, x*) and the containment distances (one
    # _dist_many each) and the projected distances.  Once: f(x*).
    assert calls == {
        "distance": rows,
        "_log_dist": rows,
        "_log": steps,
        "_exp": 3 * steps,
        "log": 0,
        "exp": 0,
        "_dist_many": f_calls + 2 * blocks + 1,
        "_projected_distances": blocks,
    }


def test_flat_run_builds_one_tangent_vector_per_step(monkeypatch):
    steps = 50
    problem = make_quadratic(16, 1.0, 50.0, seed=2)
    built = []
    post_init = TangentVector.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TangentVector, "__post_init__", counted)
    for mode, extra in (("euclid_nesterov", {}), ("ragd", {}),
                        ("ragd_constant_delta", {"delta_const": 1.05})):
        built.clear()
        config = SolverConfig(mode=mode, mu=problem.mu, L=problem.L, max_iters=steps, **extra)
        run(problem, config)
        # The gradient's, one per step; the step itself runs on coordinates.
        assert len(built) == steps


def test_gradient_anchored_elsewhere_raises_domain_error():
    problem = make_quadratic(4, 1.0, 10.0, seed=3)
    m = problem.manifold
    elsewhere = m.point(np.zeros(4))
    h = np.asarray(problem.payload["hessian"])
    c = np.asarray(problem.payload["center"])
    stray = dataclasses.replace(
        problem, gradient=lambda x: TangentVector(elsewhere, h @ (x.coords - c))
    )
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=5)
    with pytest.raises(DomainError, match="anchored"):
        run(stray, config)
    with pytest.raises(DomainError, match="anchored"):
        oracle_optimum(stray)


def _far_line_problem(radius=18.0):
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
    # floating-point overflow.
    problem = _far_line_problem()
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
    assert any("DomainError" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("kind", ["flat", "spd", "hyperbolic", "sphere"])
def test_trace_only_columns_match_row_by_row_reference(kind):
    # 2 * _ROW_BLOCK + 1 rows: two full blocks and a one-row block.
    if kind == "flat":
        problem, mode = make_quadratic(12, 1.0, 50.0, seed=7), "euclid_nesterov"
    else:
        if kind == "spd":
            problem = random_karcher(SPD(3), 5, 1.5, seed=13)
        elif kind == "hyperbolic":
            problem = random_karcher(Hyperbolic(5, kappa=1.0), 6, 2.0, seed=11)
        else:
            problem = random_sphere_mean(Sphere(4), 6, 0.3, seed=17)
        mode = "ragd"
        oracle_optimum(problem)
    config = SolverConfig(
        mode=mode,
        mu=problem.mu,
        L=problem.L,
        max_iters=2 * _ROW_BLOCK,
        record_diagnostics=True,
    )
    trace = run(problem, config)
    m, opt, d = problem.manifold, problem.optimum, trace.diagnostics
    assert trace.rows.shape[0] == 2 * _ROW_BLOCK + 1
    d_yopt, phi = [], []
    for x, y, z, xi in zip(d.points_x, d.points_y, d.points_z, trace.column("xi")):
        gap = problem.value(y) - problem.optimum_value
        d_yopt.append(m.distance(y, opt))
        phi.append(gap + xi * xi / (4.0 * config.delta_gamma) * m.projected_distance(x, z, opt) ** 2)
    assert np.array_equal(trace.column("d_yopt"), d_yopt)
    assert np.array_equal(trace.column("potential"), phi)


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
    d = run(free, config).diagnostics
    # Each step's check, one stacked call on (x_t, y_t, z_t).
    worst = [
        float(m._dist_many(far, np.stack([p.coords for p in pts])).max())
        for pts in zip(d.points_x, d.points_y, d.points_z)
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
        return prob.objective.many(points)

    counted = dataclasses.replace(prob, objective=StackedObjective(counting))
    config = SolverConfig(mode="ragd", mu=prob.mu, L=prob.L, max_iters=3 * _ROW_BLOCK)
    with pytest.raises(AntipodalError):
        run(counted, config)
    # f(x*), then f(y_t) for every row of the first block in one stacked pass.
    assert stacked == [1, _ROW_BLOCK]
