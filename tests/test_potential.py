"""Potential bookkeeping, per-step audits, and distance-shrinking bounds."""

import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest

from ragd.errors import DomainError, HypothesisError, MissingDataError
from ragd.geometry import SPD, Hyperbolic, Sphere
from ragd.potential import (
    CERT_TOL,
    ENVELOPE_TOL,
    StepAuditReport,
    acceleration_threshold,
    certify_trace,
    gradient_step_audit,
    mirror_step_audit,
    rate_envelope,
    shrink_bounds,
    shrink_constant,
)
from ragd.problems import make_quadratic, oracle_optimum, random_karcher, random_sphere_mean
from ragd.solvers import _ROW_BLOCK, SolverConfig, normalized_potential, run, step_params
from ragd.trace import NOISE_FLOOR, TRACE_COLUMNS, ConvergenceTrace
from ragd.verify import (
    _SHRINK_FLOOR, _SHRINK_MIN_COMPARED, _certified_karcher, _certified_quadratic,
)

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


def test_certify_flat_run_clean():
    prob, trace = _flat_run()
    report = certify_trace(trace, prob)
    assert isinstance(report, StepAuditReport) and report.name == "certificate"
    assert report.violations == 0 and report.ok
    assert report.compared == trace.n_iters == report.residuals.size
    assert len(report.records) == trace.rows.shape[0]
    assert report.records.dtype.names == ("t", "phi", "margin", "allowed", "ok")
    assert math.isnan(report.records[-1].margin)
    assert math.isnan(report.records[-1].allowed)
    assert report.records[-1].ok


def test_certificate_residual_is_the_negated_recorded_margin():
    prob, trace = _flat_run()
    report = certify_trace(trace, prob)
    margins = trace.column("decrease_margin")[:-1]
    assert np.array_equal(report.residuals, -margins)
    assert np.array_equal(report.margin, margins)
    assert np.array_equal(report.phi, trace.column("potential"))
    records = report.records
    assert np.array_equal(records.t, np.arange(trace.rows.shape[0]))
    assert np.array_equal(records.ok[:-1], -margins <= report.allowed)
    with pytest.raises(ValueError, match="read-only"):
        records.phi[0] = 0.0


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
    # The certifier reads the recorded columns: a spoiled potential cell is
    # its to flag, in both steps that cell enters.  A spoiled iterate leaves
    # the columns as they are, and the bookkeeping guard catches it.
    prob, trace = _flat_run()
    clean = certify_trace(trace, prob)
    spoiled = ConvergenceTrace(rows=trace.rows.copy(), meta=trace.meta)
    spoiled.rows[40, TRACE_COLUMNS.index("potential")] += 5.0
    report = certify_trace(spoiled, prob)
    assert [r.t for r in report.records if not r.ok] == [39, 40]
    assert np.flatnonzero(np.isnan(report.residuals)).tolist() == [39, 40]
    m = prob.manifold
    x, y, z = trace.diagnostics[40]
    trace.diagnostics[40] = (x, m.point(y.coords + 5.0), z)
    _assert_same_records(certify_trace(trace, prob), _record_columns(clean))
    recomputed = _bookkeeping_columns(trace, prob)
    for name in ("f_gap", "d_yopt", "potential"):
        differs = np.flatnonzero(trace.column(name) != recomputed[name])
        assert differs.tolist() == [40], name


def test_certify_needs_no_diagnostics():
    prob, with_diagnostics = _flat_run()
    _, trace = _flat_run(diagnostics=False)
    assert trace.diagnostics is None
    want = _record_columns(certify_trace(with_diagnostics, prob))
    _assert_same_records(certify_trace(trace), want)
    envelope, want = rate_envelope(trace), rate_envelope(with_diagnostics, prob)
    assert np.array_equal(envelope.residuals, want.residuals)
    assert np.array_equal(envelope.allowed, want.allowed)


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


def test_shrink_bounds_rejects_plain_gradient_descent():
    # rgd traces have no momentum schedule behind the accelerated bounds.
    prob = make_quadratic(6, 1.0, 20.0, seed=0, center=np.zeros(6))
    config = SolverConfig(
        mode="rgd", mu=prob.mu, L=prob.L, max_iters=20, record_diagnostics=True
    )
    trace = run(prob, config)
    with pytest.raises(MissingDataError, match="plain gradient descent"):
        shrink_bounds(trace, prob)


def test_audits_name_the_input_they_miss():
    prob, trace = _flat_run()
    _, bare = _flat_run(diagnostics=False)
    # one kept row missing, and one too many
    short = dataclasses.replace(trace, diagnostics=trace.diagnostics[:-1])
    extra = dataclasses.replace(trace, diagnostics=trace.diagnostics + trace.diagnostics[-1:])
    for audit in (gradient_step_audit, mirror_step_audit, shrink_bounds):
        with pytest.raises(MissingDataError, match="trace has no diagnostics"):
            audit(bare, prob)
        for uneven in (short, extra):
            with pytest.raises(MissingDataError, match="do not cover every trace row"):
                audit(uneven, prob)
    unknown = dataclasses.replace(prob, optimum=None)
    for audit in (mirror_step_audit, shrink_bounds):
        with pytest.raises(MissingDataError, match="problem has no optimum"):
            audit(trace, unknown)


def test_gradient_step_audit_passes():
    prob, trace = _flat_run()
    report = gradient_step_audit(trace, prob)
    assert report.name == "gradient_step"
    assert report.ok and report.violations == 0
    assert np.max(report.residuals - report.allowed) <= 0.0
    spoiled = StepAuditReport("gradient_step", np.append(report.residuals, math.nan),
                              np.append(report.allowed, math.inf))
    assert spoiled.violations == 1
    assert spoiled.ok is False


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


@pytest.mark.parametrize("xi", [1.0, 0.01])
def test_mirror_step_audit_rejects_out_of_domain_momentum(xi):
    # a = 2 * mu * Delta; the bad value sits in the second step, so a check
    # that reads only the first step fails.
    prob, trace = _flat_run()
    assert xi == 1.0 or xi < 2.0 * trace.meta["mu"] * trace.meta["delta_gamma"]
    spoiled = dataclasses.replace(trace, rows=trace.rows.copy())
    spoiled.rows[2, TRACE_COLUMNS.index("xi")] = xi
    with pytest.raises(DomainError, match="xi must lie in" if xi == 1.0 else "is below a"):
        mirror_step_audit(spoiled, prob)


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


def _counting_rows(monkeypatch, prob):
    """Count the points passed to ``prob.values``, the stacked pass behind
    ``value`` too; the optimum value is cached first."""
    prob.optimum_value
    rows = [0]
    many = prob.values

    def counted(xs):
        rows[0] += len(xs)
        return many(xs)

    monkeypatch.setattr(prob, "values", counted)
    return rows


@pytest.mark.parametrize(
    "check, n_rows",
    [(certify_trace, 0), (rate_envelope, 0), (shrink_bounds, 1)],
    ids=["certify_trace", "rate_envelope", "shrink_bounds"],
)
def test_checks_evaluate_the_objective_at_counted_rows(monkeypatch, check, n_rows):
    # The certifier and the envelope read the recorded columns; the shrink
    # bounds evaluate f at y_0 alone, for phi_0.
    prob, trace = _flat_run()
    rows = _counting_rows(monkeypatch, prob)
    check(trace, prob)
    assert rows[0] == n_rows


def _reference_rate_envelope(trace, prob, floor):
    """The envelope check row by row, with the skip floor given explicitly."""
    xs, ys, zs = zip(*trace.diagnostics)
    m = prob.manifold
    xis = trace.column("xi")
    delta_gamma = trace.meta["delta_gamma"]
    pd0 = m.projected_distance(xs[0], zs[0], prob.optimum)
    gap0 = prob.value(ys[0]) - prob.optimum_value
    phi0 = gap0 + (xis[0] ** 2 / (4.0 * delta_gamma)) * pd0 * pd0
    residuals, allowed = [], []
    log_prod = 0.0
    for t in range(trace.rows.shape[0]):
        if t >= 1:
            log_prod += math.log1p(-float(xis[t]))
        bound = phi0 * math.exp(log_prod)
        residuals.append(prob.value(ys[t]) - prob.optimum_value - bound)
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


def _reference_gradient_step(trace, prob):
    """The gradient-step audit row by row through the typed single-pair API."""
    xs, ys, _ = zip(*trace.diagnostics)
    m = prob.manifold
    plain = trace.meta["solver"] == "rgd"
    residuals, allowed = [], []
    for t in range(trace.n_iters):
        base = ys[t] if plain else xs[t + 1]
        f_base = prob.value(base)
        decrease = trace.meta["delta_gamma"] * m.norm(base, prob.grad(base)) ** 2
        residuals.append((prob.value(ys[t + 1]) - f_base) + decrease)
        allowed.append(CERT_TOL * ((1.0 + abs(f_base)) + decrease))
    return np.array(residuals), np.array(allowed)


def _reference_mirror_step(trace, prob):
    """The mirror-step audit row by row through the typed single-pair API."""
    xs, _, zs = zip(*trace.diagnostics)
    m = prob.manifold
    opt = prob.optimum
    xis = trace.column("xi")
    delta_gamma = trace.meta["delta_gamma"]
    residuals, allowed = [], []
    for t in range(trace.n_iters):
        u = xs[t + 1]
        _, beta, s = step_params(float(xis[t + 1]), trace.meta["mu"], delta_gamma)
        v = beta * m.log(u, zs[t])
        g = prob.grad(u)
        lo = m.log(u, opt)
        lhs = m.projected_distance(u, zs[t + 1], opt) ** 2 - m.norm(u, v - lo) ** 2
        rhs = s * s * m.norm(u, g) ** 2 + 2.0 * s * m.inner(u, g, lo - v)
        residuals.append(abs(lhs - rhs))
        allowed.append(CERT_TOL * ((1.0 + abs(lhs)) + abs(rhs)))
    return np.array(residuals), np.array(allowed)


def _reference_shrink_distances(trace, prob):
    """The distances ``shrink_bounds`` observes, row by row through the typed
    single-pair API."""
    xs, ys, zs = zip(*trace.diagnostics)
    m = prob.manifold
    opt = prob.optimum
    return {
        "proj_z_opt": [m.projected_distance(x, z, opt) for x, z in zip(xs, zs)],
        "d_y_opt": [m.distance(y, opt) for y in ys],
        "proj_yz": list(map(m.projected_distance, xs, ys, zs)),
        "d_yz": list(map(m.distance, ys, zs)),
        "d_xz": list(map(m.distance, xs, zs)),
    }


def _audited_run(case, steps=200):
    """A run at the default step size: in the long-step regime for ``ragd``, so
    every step hypothesis of the shrink bounds can hold; ``flat-nesterov`` runs
    the flat problem in Nesterov's mode."""
    if case.startswith("flat"):
        prob = make_quadratic(20, 1.0, 50.0, seed=10)
    elif case == "sphere":
        prob = random_sphere_mean(Sphere(7), 6, 0.3, seed=11)
    else:
        manifold, seed = (SPD(4), 104) if case == "spd" else (Hyperbolic(8), 3)
        prob = random_karcher(manifold, 6, 1.2, seed=seed)
    oracle_optimum(prob)
    config = SolverConfig(
        mode={"hyperbolic-rgd": "rgd", "flat-nesterov": "euclid_nesterov"}.get(case, "ragd"),
        mu=prob.mu,
        L=prob.L,
        max_iters=steps,
        record_diagnostics=True,
    )
    return prob, run(prob, config)


_RECORD_FIELDS = ("phi", "margin", "allowed", "ok")


def _record_columns(report):
    """The certificate records as one array per field of ``_RECORD_FIELDS``."""
    return [report.records[k] for k in _RECORD_FIELDS]


def _assert_same_records(report, columns):
    for name, got, want in zip(_RECORD_FIELDS, _record_columns(report), columns):
        assert np.array_equal(got, want, equal_nan=True), name


def _replayed_potential(trace, prob):
    """f(y_t) - f*, phi_t and prod_{j<=t} (1 - xi_j) of every row, with f and
    pd re-evaluated from the stored iterates through the stacked kernels."""
    xs, ys, zs = zip(*trace.diagnostics)
    xis = trace.column("xi")
    gap = prob.values(ys) - prob.optimum_value
    pd = prob.manifold._projected_distances(xs, zs, prob.optimum)
    phi = normalized_potential(gap, xis, pd, float(trace.meta["delta_gamma"]))
    logs = itertools.accumulate((math.log1p(-float(xi)) for xi in xis[1:]), initial=0.0)
    return gap, phi, np.array([math.exp(s) for s in logs])


def _reference_certify(trace, prob):
    """The certifier as a replay of the stored iterates: the record columns
    and the violation count."""
    xis = trace.column("xi")
    _, phi, decay = _replayed_potential(trace, prob)
    shrink = 1.0 - xis[1:]
    margins = shrink * phi[:-1] - phi[1:]
    allowed = CERT_TOL * (decay[1:] + shrink * np.abs(phi[:-1]))
    oks = margins >= -allowed
    columns = [phi, np.append(margins, math.nan), np.append(allowed, math.nan),
               np.append(oks, True)]
    return columns, int(np.count_nonzero(~oks))


def _reference_envelope(trace, prob):
    """The rate envelope as a replay of the stored iterates."""
    gap, phi, decay = _replayed_potential(trace, prob)
    bounds = phi[0] * decay
    compared = np.isfinite(bounds) & (bounds >= NOISE_FLOOR * phi[0])
    return gap - bounds, np.where(compared, ENVELOPE_TOL * (1.0 + np.abs(bounds)), math.inf)


def _bookkeeping_columns(trace, prob):
    """``f_gap``, ``d_xz``, ``d_yz``, ``d_yopt``, ``potential`` and
    ``decrease_margin`` recomputed from the stored iterates one pair at a
    time through the typed API, with libm squares."""
    xs, ys, zs = zip(*trace.diagnostics)
    m = prob.manifold
    opt = prob.optimum
    xis = trace.column("xi").tolist()
    four_delta = 4.0 * trace.meta["delta_gamma"]
    gap = [prob.value(y) - prob.optimum_value for y in ys]
    phi = [
        g + (xi * xi / four_delta) * m.projected_distance(x, z, opt) ** 2
        for g, xi, x, z in zip(gap, xis, xs, zs)
    ]
    return {
        "f_gap": np.array(gap),
        "d_xz": np.array([m.distance(x, z) for x, z in zip(xs, zs)]),
        "d_yz": np.array([m.distance(y, z) for y, z in zip(ys, zs)]),
        "d_yopt": np.array([m.distance(y, opt) for y in ys]),
        "potential": np.array(phi),
        "decrease_margin": np.array(
            [(1.0 - xn) * p - pn for xn, p, pn in zip(xis[1:], phi, phi[1:])] + [math.nan]
        ),
    }


@pytest.mark.parametrize("case", ["flat", "hyperbolic", "spd", "sphere", "hyperbolic-rgd"])
def test_audits_match_row_by_row_reference(case):
    # The array audits square norms as Python floats and take one base per
    # row, so they equal the single-pair loops bit for bit.
    prob, trace = _audited_run(case)
    audits = [(gradient_step_audit, _reference_gradient_step)]
    if case != "hyperbolic-rgd":
        audits.append((mirror_step_audit, _reference_mirror_step))
    for audit, reference in audits:
        report = audit(trace, prob)
        residuals, allowed = reference(trace, prob)
        assert np.array_equal(report.residuals, residuals), audit.__name__
        assert np.array_equal(report.allowed, allowed), audit.__name__
    if case == "hyperbolic-rgd":
        return
    observed = _reference_shrink_distances(trace, prob)
    # With f* at +inf, phi_0 is negative and every bound is 0 where its step
    # hypotheses hold (+inf elsewhere), so a finite residual is the observed
    # distance itself.
    prob._f_opt = math.inf
    for report in shrink_bounds(trace, prob):
        finite = np.isfinite(report.residuals)
        assert np.count_nonzero(finite) >= trace.n_iters, report.name
        want = np.array(observed[report.name])
        assert np.array_equal(report.residuals[finite], want[finite]), report.name


def _replay_case_run(case):
    """The runs of the ``ragd verify`` potential suite at seeds 0-2, or a
    200-step run at gamma * L = 1.05 (``_audited_run``)."""
    if not case.startswith("verify-"):
        return _audited_run(case)
    _, label, seed = case.split("-")
    if label == "quadratic":
        return _certified_quadratic(int(seed), 300)
    if label == "hyperbolic":
        return _certified_karcher(Hyperbolic(8, kappa=1.0), int(seed), 300)
    return _certified_karcher(SPD(4), int(seed) + 100, 300)


@pytest.mark.parametrize("case", ["flat", "hyperbolic", "spd", "sphere"] + [
    f"verify-{label}-{seed}" for label in ("quadratic", "hyperbolic", "spd") for seed in range(3)
])
def test_certify_and_envelope_match_replay_reference(case):
    # Reading the recorded columns gives the reports that a replay of the
    # stored iterates through the same kernels gives, bit for bit.
    prob, trace = _replay_case_run(case)
    columns, violations = _reference_certify(trace, prob)
    report = certify_trace(trace, prob)
    _assert_same_records(report, columns)
    assert report.violations == violations
    envelope = rate_envelope(trace, prob)
    residuals, allowed = _reference_envelope(trace, prob)
    assert np.array_equal(envelope.residuals, residuals)
    assert np.array_equal(envelope.allowed, allowed)


@pytest.mark.parametrize(("case", "steps"), [
    *[pytest.param(case, 200, id=case) for case in ("flat", "hyperbolic", "spd", "sphere")],
    # two full row blocks and a one-row block
    *[pytest.param(case, 2 * _ROW_BLOCK, id=f"{case}-one-row-block")
      for case in ("flat-nesterov", "hyperbolic", "spd", "sphere")],
])
def test_trace_bookkeeping_matches_single_pair_recompute(case, steps):
    # The certifier trusts these columns; they must be what the stored
    # iterates give, one pair at a time.
    prob, trace = _audited_run(case, steps)
    for name, want in _bookkeeping_columns(trace, prob).items():
        assert np.array_equal(trace.column(name), want, equal_nan=True), name


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
    reports = shrink_bounds(trace, prob, floor=_SHRINK_FLOOR)
    assert [r.name for r in reports] == ["proj_z_opt", "d_y_opt", "proj_yz", "d_yz", "d_xz"]
    n_rows = trace.rows.shape[0]
    assert all(r.residuals.shape == r.allowed.shape == (n_rows,) for r in reports)
    d_xz = reports[-1]
    x0, _, z0 = trace.diagnostics[0]
    assert d_xz.residuals[0] == prob.manifold.distance(x0, z0)
    assert sum(r.violations for r in reports) == 0
    compared = sum(r.compared for r in reports)
    assert compared > _SHRINK_MIN_COMPARED
    assert compared < 5 * n_rows


def test_shrink_bounds_rejects_diagnostics_missing_rows():
    prob, trace = _curved_run(max_iters=10)
    short = dataclasses.replace(trace, diagnostics=trace.diagnostics[:-1])
    with pytest.raises(MissingDataError, match="do not cover every trace row"):
        shrink_bounds(short, prob)


def test_shrink_bounds_floor_skips_everything():
    prob, trace = _curved_run(max_iters=20)
    reports = shrink_bounds(trace, prob, floor=math.inf)
    assert len(reports) == 5
    assert sum(r.compared for r in reports) == 0
    assert all(np.all(np.isinf(r.allowed)) for r in reports)


def test_acceleration_threshold_values():
    n = acceleration_threshold(1.0, 5.0, 1.05 / 5.0, 1.0, 2.0, eps=1e-3)
    assert isinstance(n, int) and n > 0
    finer = acceleration_threshold(1.0, 5.0, 1.05 / 5.0, 1.0, 2.0, eps=1e-5)
    assert finer >= n


# acceleration_threshold(1, 5, gamma_L / 5, kappa, d0, eps) as literals, keyed
# by (gamma_L, kappa, d0, eps): its tracking term is log(eps / (2 sqrt a)) /
# log(1 - 4 a / (5 + sqrt 5)), and any rewrite must keep these counts.
_THRESHOLD_TABLE = {
    (1.05, 0.5, 0.1, 1e-3): 146, (1.05, 0.5, 0.1, 1e-6): 236,
    (1.05, 0.5, 2.0, 1e-3): 160, (1.05, 0.5, 2.0, 1e-6): 250,
    (1.05, 2.0, 0.1, 1e-3): 152, (1.05, 2.0, 0.1, 1e-6): 243,
    (1.05, 2.0, 2.0, 1e-3): 166, (1.05, 2.0, 2.0, 1e-6): 256,
    (1.3, 0.5, 0.1, 1e-3): 137, (1.3, 0.5, 0.1, 1e-6): 236,
    (1.3, 0.5, 2.0, 1e-3): 152, (1.3, 0.5, 2.0, 1e-6): 251,
    (1.3, 2.0, 0.1, 1e-3): 144, (1.3, 2.0, 0.1, 1e-6): 243,
    (1.3, 2.0, 2.0, 1e-3): 159, (1.3, 2.0, 2.0, 1e-6): 258,
    (1.6, 0.5, 0.1, 1e-3): 181, (1.6, 0.5, 0.1, 1e-6): 325,
    (1.6, 0.5, 2.0, 1e-3): 203, (1.6, 0.5, 2.0, 1e-6): 347,
    (1.6, 2.0, 0.1, 1e-3): 191, (1.6, 2.0, 0.1, 1e-6): 336,
    (1.6, 2.0, 2.0, 1e-3): 213, (1.6, 2.0, 2.0, 1e-6): 357,
}


def test_acceleration_threshold_table():
    got = {
        key: acceleration_threshold(1.0, 5.0, key[0] / 5.0, *key[1:])
        for key in _THRESHOLD_TABLE
    }
    assert got == _THRESHOLD_TABLE


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
