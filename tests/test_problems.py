import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ragd.distortion import trig_coeff
from ragd.errors import ConvergenceError, DomainError, MissingDataError, NonFiniteError
from ragd.geometry import (
    SPD,
    Euclidean,
    Hyperbolic,
    Manifold,
    ManifoldPoint,
    Sphere,
)
from ragd.geometry.hyperbolic import _POINT_TOL, _RENORM_SCALE
from ragd.problems import (
    Problem,
    curvature_key,
    make_karcher,
    make_quadratic,
    make_sphere_mean,
    manifold_from_dict,
    manifold_to_dict,
    oracle_optimum,
    problem_from_dict,
    problem_to_dict,
    quadratic_from_arrays,
    random_karcher,
    random_sphere_mean,
    rng_from_seed,
)
from ragd.verify import _gradient_checks

tol = 1e-9


def test_rng_is_reproducible():
    a = rng_from_seed(42).normal(size=5)
    b = rng_from_seed(42).normal(size=5)
    assert np.array_equal(a, b)
    c = rng_from_seed(43).normal(size=5)
    assert not np.array_equal(a, c)


def test_quadratic_spectrum_and_optimum():
    prob = make_quadratic(12, 2.0, 30.0, seed=0)
    h = np.asarray(prob.payload["hessian"])
    eigs = np.linalg.eigvalsh(h)
    assert abs(eigs.min() - 2.0) < 1e-10
    assert abs(eigs.max() - 30.0) < 1e-10
    assert prob.optimum is not None
    g = prob.grad(prob.optimum)
    assert np.linalg.norm(g.coords) < tol
    assert prob.value(prob.optimum) <= prob.value(prob.start)


def _audit_failures(prob, seed):
    """The checks of the ``ragd verify`` gradient audit that fail."""
    return [c for c in _gradient_checks(prob, seed) if not c["ok"]]


def test_quadratic_gradient_audit():
    prob = make_quadratic(8, 1.0, 10.0, seed=1)
    assert not _audit_failures(prob, seed=1)


@pytest.mark.parametrize("kind", ["quadratic", "hyperbolic-karcher"])
def test_gradient_audit_flags_nan_objective(kind):
    if kind == "quadratic":
        prob = make_quadratic(5, 1.0, 10.0, seed=0)
    else:
        prob = random_karcher(Hyperbolic(4, kappa=1.0), 4, 1.0, seed=0)
    nan_values = dataclasses.replace(prob, values=lambda xs: np.full(len(xs), math.nan))
    checks = _gradient_checks(nan_values, seed=0)
    assert [c["name"].rsplit("/", 1)[1] for c in checks] == [
        "fd-gradient", "strong-convexity", "smoothness"]
    for check in checks:
        # every point and every pair is a violation, and the worst is NaN
        assert check["violations"] == check["count"] > 0
        assert math.isnan(check["worst"])
        assert check["ok"] is False


def test_karcher_constants():
    m = Hyperbolic(6, kappa=1.0)
    prob = random_karcher(m, 5, 1.5, seed=2)
    assert prob.mu == 1.0
    spread = prob.certified_radius
    assert abs(prob.L - trig_coeff(1.0, 2.0 * spread)) < tol
    assert not _audit_failures(prob, seed=2)


@pytest.mark.parametrize("kappa", [1.0, 5.0, 20.0])
def test_hyperbolic_karcher_reference_is_on_the_hyperboloid(kappa):
    m = Hyperbolic(4, kappa=kappa)
    prob = random_karcher(m, 4, 3.0, seed=2)
    ref = prob.reference.coords
    assert abs(kappa * m._mdot(ref, ref) + 1.0) <= _POINT_TOL
    m.check_point(ref)
    assert prob.certified_radius > 0.0
    anchors = [m.point(a) for a in prob.payload["anchors"]]
    spread = max(m.distance(prob.reference, p) for p in anchors)
    assert prob.certified_radius == spread
    assert prob.L == trig_coeff(kappa, 2.0 * spread)
    mean = np.mean([p.coords for p in anchors], axis=0)
    if kappa * m._scale_sq(mean, mean) <= _RENORM_SCALE:
        # Below the renormalization guard the reference is what the
        # exponential map's projection gives, bit for bit.
        assert np.array_equal(ref, m._project_point(mean).coords)


def test_karcher_certify_moves_L_and_radius_together():
    kappa = 2.0
    prob = random_karcher(Hyperbolic(5, kappa=kappa), 4, 1.0, seed=6)
    r = 1.5 * prob.certified_radius
    mu, lips, radius = prob.certify(r)
    assert lips == trig_coeff(kappa, 2.0 * r) > prob.L
    assert radius == r
    assert mu == prob.mu


def test_certify_gives_no_larger_L_without_a_larger_karcher_ball():
    prob = random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.0, seed=6)
    assert prob.certify(prob.certified_radius)[1] == prob.L
    assert prob.certify(0.5 * prob.certified_radius)[1] < prob.L
    # A quadratic's (mu, L) hold everywhere: it has no certificate to ask.
    assert make_quadratic(4, 1.0, 10.0, seed=6).certify is None


def test_sphere_mean_certify_raises_at_or_past_its_cap():
    prob = random_sphere_mean(Sphere(4, sigma=2.0), 4, 0.2, seed=6)
    cap = prob.certified_radius
    assert prob.certify(0.5 * cap)[1:] == (1.0, cap)
    for radius in (cap, 2.0 * cap):
        with pytest.raises(DomainError, match="quarter-sphere cap"):
            prob.certify(radius)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_karcher(Hyperbolic(5, kappa=2.0), 4, 1.0, seed=6),
        lambda: random_karcher(SPD(3), 5, 1.5, seed=13),
        lambda: random_karcher(Euclidean(3), 4, 1.0, seed=2),
        lambda: random_sphere_mean(Sphere(4), 6, 0.3, seed=17),
    ],
    ids=["hyperbolic", "spd", "euclidean", "sphere_mean"],
)
def test_build_time_certificate_is_certify_of_the_anchor_spread(build):
    # The constants a barycenter is built with are its certificate at the
    # largest anchor distance from the reference, bit for bit, and a
    # problem loaded from its dictionary carries the same certificate.
    prob = build()
    anchors = np.array(prob.payload["anchors"])
    spread = float(prob.manifold._dist_table([prob.reference], anchors).max())
    assert (prob.mu, prob.L, prob.certified_radius) == prob.certify(spread)
    assert problem_from_dict(problem_to_dict(prob)).certify(spread) == prob.certify(spread)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_karcher(Hyperbolic(4), 0, 1.0, seed=0),
        lambda: random_sphere_mean(Sphere(4), 0, 0.3, seed=0),
    ],
    ids=["karcher", "sphere_mean"],
)
def test_random_barycenters_need_an_anchor(build):
    with pytest.raises(DomainError, match=re.escape("need n_anchors >= 1, got 0")):
        build()


def test_karcher_audit_spd():
    prob = random_karcher(SPD(3), 5, 1.0, seed=3)
    assert not _audit_failures(prob, seed=3)


def _golden_barycenters():
    """The barycenter problem descriptions of the pinned golden traces."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.py"
    spec = importlib.util.spec_from_file_location("ragd_bench_golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return [desc for desc, _ in golden.GOLDEN_CONFIGS.values() if desc["kind"] != "quadratic"]


@pytest.mark.parametrize("desc", _golden_barycenters(), ids=lambda d: d["manifold"]["kind"])
def test_barycenter_certificates_from_the_dist_table_are_bitwise(desc, monkeypatch):
    # The anchor spread comes from one distance table; it must round as the
    # single-pair distances do, so mu, L and the certified radius keep their bits.
    got = problem_from_dict(desc)
    manifold = type(got.manifold)
    monkeypatch.setattr(manifold, "_dist_table", lambda self, xs, targets: np.array(
        [[self.distance(x, ManifoldPoint(p)) for p in targets] for x in xs]))
    want = problem_from_dict(desc)
    assert (got.mu, got.L, got.certified_radius) == (want.mu, want.L, want.certified_radius)


def test_spd_karcher_matches_per_anchor_formula_bitwise():
    m = SPD(4)
    rng = rng_from_seed(5)
    anchors = [m.random_point(rng, m.base_point(), 1.5) for _ in range(6)]
    weights = [0.05, 0.1, 0.15, 0.2, 0.22, 0.28]
    prob = make_karcher(m, anchors, weights)
    for _ in range(5):
        x = m.random_point(rng, m.base_point(), 1.5)
        value = 0.5 * sum(wi * m.distance(x, p) ** 2 for wi, p in zip(weights, anchors))
        grad = np.zeros_like(x.coords)
        for wi, p in zip(weights, anchors):
            grad = grad - wi * m.log(x, p).coords
        assert prob.value(x) == value
        # SPD's _log_sum sums in one product over every anchor's
        # eigenvectors, so the gradient meets the loop within twice the
        # bound both keep against 50-digit mpmath (tests/test_geometry.py):
        # 8 n eps ||x||_2 sum_i w_i lambda_max / lambda_min of the congruence
        # x^{-1/2} p_i x^{-1/2}.
        lam = m._spectrum(*m._factor(x)[1:], np.stack([p.coords for p in anchors]), False)
        ratio = np.dot(weights, lam[:, -1] / lam[:, 0])
        bound = 8 * m.n * np.finfo(float).eps * np.linalg.norm(x.coords, 2) * ratio
        assert np.max(np.abs(prob.grad(x).coords - grad)) <= 2.0 * bound


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_quadratic(9, 1.0, 20.0, seed=4),
        lambda: random_sphere_mean(Sphere(4), 6, 0.3, seed=17),
        lambda: random_karcher(SPD(3), 5, 1.5, seed=13),
        lambda: random_karcher(Hyperbolic(5, kappa=1.0), 6, 2.0, seed=11),
    ],
    ids=["quadratic", "sphere_mean", "spd", "hyperbolic"],
)
def test_values_equal_a_loop_of_value_bitwise(build):
    prob = build()
    m = prob.manifold
    rng = rng_from_seed(8)
    points = [m.random_point(rng, prob.reference, 1.0) for _ in range(9)]
    for n in (1, 2, 9):
        got = prob.values(points[:n])
        want = np.array([prob.value(x) for x in points[:n]])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 16, 41])
def test_hyperbolic_karcher_value_is_the_per_anchor_formula_bitwise(k):
    m = Hyperbolic(6, kappa=1.5)
    rng = rng_from_seed(k)
    anchors = [m.random_point(rng, m.base_point(), 2.5) for _ in range(k)]
    weights = rng.uniform(0.1, 1.0, size=k)
    weights = (weights / weights.sum()).tolist()
    prob = make_karcher(m, anchors, weights)
    # Nine points: more than one stacked call's worth at 41 anchors.
    points = [m.random_point(rng, m.base_point(), 3.0) for _ in range(8)] + anchors[:1]
    want = [0.5 * sum(wi * m.distance(x, p) ** 2 for wi, p in zip(weights, anchors))
            for x in points]
    assert [prob.value(x) for x in points] == want
    assert prob.values(points).tolist() == want


@pytest.mark.parametrize(
    "m,make",
    [
        (Sphere(5), make_sphere_mean),
        (Euclidean(2), make_karcher),
        (Euclidean(1), make_karcher),
    ],
    ids=["sphere_mean", "euclidean", "euclidean-1d"],
)
def test_barycenter_gradient_matches_per_anchor_loop_bitwise(m, make):
    # The default Manifold._log_sum; the hyperboloid's one-pass sum is held
    # to a derived bound in tests/test_geometry.py instead.
    rng = rng_from_seed(6)
    for trial in range(24):
        k = 1 + trial % 12
        anchors = [m.random_point(rng, m.base_point(), 0.4) for _ in range(k)]
        if isinstance(m, Euclidean):
            # Signed zeros in the anchors give signed-zero log rows.
            anchors[0] = m.point([-0.0] + [0.0] * (m.dim - 1))
        weights = rng.uniform(0.1, 1.0, size=k)
        weights /= weights.sum()
        prob = make(m, anchors, weights.tolist())
        stack = np.stack([p.coords for p in anchors])
        # An anchor itself gives zero log rows, so signed zeros are covered.
        for x in (m.random_point(rng, m.base_point(), 0.4), anchors[0]):
            want = np.zeros_like(x.coords)
            for wi, row in zip(weights.tolist(), m._log_many(x, stack)):
                want = want - wi * row
            got = prob.grad(x).coords
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sphere_mean_constants_and_audit():
    m = Sphere(6, sigma=1.0)
    prob = random_sphere_mean(m, 5, 0.3, seed=4)
    assert prob.L == 1.0
    assert 0.0 < prob.mu < 1.0
    assert abs(prob.certified_radius - math.pi / 4.0) < tol
    assert not _audit_failures(prob, seed=4)


def test_oracle_optimum_matches_gradient_zero():
    prob = random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.0, seed=5)
    opt = oracle_optimum(prob, tol=1e-12)
    assert prob.optimum is opt
    g = prob.grad(opt)
    assert prob.manifold.norm(opt, g) < 1e-10
    # optimum value caches and lower-bounds nearby values
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = prob.manifold.random_point(rng, opt, 0.5)
        assert prob.value(x) >= prob.optimum_value - 1e-12


def _counting_gradient(prob):
    """``prob`` with a gradient callable that records each point it is
    called at."""
    calls = []
    gradient = prob.gradient
    return dataclasses.replace(prob, gradient=lambda x: calls.append(x) or gradient(x)), calls


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_quadratic(9, 1.0, 20.0, seed=4),
        lambda: random_karcher(Hyperbolic(5, kappa=1.0), 6, 2.0, seed=11),
        lambda: random_karcher(SPD(3), 5, 1.5, seed=13),
        lambda: random_sphere_mean(Sphere(4), 6, 0.3, seed=17),
    ],
    ids=["quadratic", "hyperbolic", "spd", "sphere"],
)
def test_oracle_equals_a_loop_of_the_typed_methods_bitwise(build):
    # The oracle steps on the gradient coordinates Problem._grad_coords
    # checked; this loop states it through the typed grad, norm and exp.
    prob, calls = _counting_gradient(build())
    got = oracle_optimum(prob)
    ref, ref_calls = _counting_gradient(build())
    m = ref.manifold
    x = ref.start
    while True:
        g = ref.grad(x)
        if m.norm(x, g) <= 1e-10:
            break
        x = m.exp(x, (-1.0 / ref.L) * g)
    assert np.array_equal(got.coords, x.coords)
    assert len(calls) == len(ref_calls) > 1


def _far_line_karcher(seed, n_anchors):
    """Karcher problem on H(8) with anchors near +-18 along one geodesic,
    1% jitter, and anchor 0 at exactly 18 from the base point."""
    m = Hyperbolic(8)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-18.0, 18.0, n_anchors)
    ts[0] = 18.0 * np.sign(ts[0])
    base = m.base_point()
    anchors = []
    for t in ts:
        v = np.zeros(9)
        v[0] = t * (1.0 + 0.01 * rng.normal())
        v[1:8] = 0.01 * abs(t) * rng.normal(size=7)
        anchors.append(m.exp(base, m.tangent(base, v)))
    return make_karcher(m, anchors)


@pytest.mark.parametrize("seed", [2, 4, 5])
def test_oracle_accepts_a_start_that_is_the_optimum(seed):
    # One anchor: the gradient at the start is about 1e-32, and its
    # Minkowski square rounds to a negative number under its own rounding
    # error; its coordinates are within tol, so the start is the optimum.
    prob = random_karcher(Hyperbolic(5), 1, 1.2, seed=seed)
    g = prob.grad(prob.start).coords
    m = prob.manifold
    assert m._mdot(g, g) < (m.dim + 1) * np.finfo(float).eps * m._scale_sq(g, g)
    assert oracle_optimum(prob) is prob.start
    assert prob.optimum is prob.start


@pytest.mark.parametrize("seed, n_anchors", [(22, 4), (16, 2)])
def test_oracle_rejects_a_gradient_norm_lost_to_rounding(seed, n_anchors):
    # At the start the gradient's coordinates reach ~7e7, and its Minkowski
    # square is within 100 times its own rounding error, so the norm is
    # mostly rounding.  Within the oracle's first steps the square falls
    # under that error, and the stop test passes though x is not the optimum.
    prob = _far_line_karcher(seed, n_anchors)
    m = prob.manifold
    g = prob.grad(prob.start).coords
    assert np.max(np.abs(g)) > 1e7
    assert m._mdot(g, g) < 100.0 * (m.dim + 1) * np.finfo(float).eps * m._scale_sq(g, g)
    with pytest.raises(DomainError, match="too far out"):
        oracle_optimum(prob)
    assert prob.optimum is None


@pytest.mark.parametrize(
    "consumer",
    [
        lambda prob: oracle_optimum(prob, max_iters=10),
        lambda prob: _gradient_checks(prob, 0),
    ],
    ids=["oracle_optimum", "gradient_audit"],
)
def test_non_finite_gradient_is_rejected(consumer):
    m = Euclidean(3)
    prob = Problem(
        name="nan-gradient",
        manifold=m,
        values=lambda xs: np.zeros(len(xs)),
        gradient=lambda x: np.full(3, np.nan),
        mu=1.0,
        L=1.0,
        start=m.point(np.ones(3)),
        reference=m.point(np.zeros(3)),
    )
    with pytest.raises(NonFiniteError):
        consumer(prob)
    assert prob.optimum is None


@pytest.mark.parametrize("k", [1, 3, 64, 65])
@pytest.mark.parametrize("dim", [1, 2, 16, 64, 128])
def test_stacked_quadratic_objective_matches_the_one_point_formula(dim, k):
    rng = np.random.default_rng(dim * 100 + k)
    g = rng.normal(size=(dim, dim))
    h = g @ g.T + dim * np.eye(dim)
    h = 0.5 * (h + h.T)
    c = rng.normal(size=dim)
    prob = quadratic_from_arrays(h, c, c + rng.normal(size=dim))
    m = prob.manifold
    points = [m.point(c + 3.0 * rng.normal(size=dim)) for _ in range(k)]
    want = np.array([0.5 * float((x.coords - c) @ h @ (x.coords - c)) for x in points])
    assert np.array_equal(prob.values(points), want)
    assert [prob.value(x) for x in points] == want.tolist()


def test_optimum_required_before_use():
    prob = random_karcher(Hyperbolic(4, kappa=1.0), 4, 1.0, seed=6)
    with pytest.raises(MissingDataError):
        _ = prob.optimum_value


# The keys ``problem_to_dict`` writes besides ``name`` and a set ``optimum``:
# exactly those of the explicit form.
_QUADRATIC_DOC_KEYS = {"kind", "hessian", "center", "start", "mu", "L"}
_BARYCENTER_DOC_KEYS = {"kind", "manifold", "anchors", "weights"}


def _assert_round_trips(prob, keys):
    """``problem_to_dict(prob)`` holds exactly ``keys`` plus ``name`` (and
    ``optimum`` once set), and loads back, through JSON, as the same problem."""
    doc = problem_to_dict(prob)
    assert doc.keys() == keys | {"name"} | ({"optimum"} if prob.optimum is not None else set())
    again = problem_from_dict(json.loads(json.dumps(doc)))
    assert (again.name, again.mu, again.L) == (prob.name, prob.mu, prob.L)
    assert again.certified_radius == prob.certified_radius
    assert np.array_equal(again.start.coords, prob.start.coords)
    assert np.array_equal(again.reference.coords, prob.reference.coords)
    assert again.payload == prob.payload
    if prob.optimum is not None:
        assert np.array_equal(again.optimum.coords, prob.optimum.coords)
    return again


def test_problem_dict_roundtrip_quadratic():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(6, 6))
    explicit = quadratic_from_arrays(g @ g.T + np.eye(6), np.ones(6), np.zeros(6))
    for prob in (make_quadratic(6, 1.0, 9.0, seed=7), explicit):
        again = _assert_round_trips(prob, _QUADRATIC_DOC_KEYS)
        x = prob.manifold.point(np.linspace(-1.0, 1.0, 6))
        assert abs(prob.value(x) - again.value(x)) < tol


def _explicit_barycenter(build, m, radius):
    rng = rng_from_seed(3)
    anchors = [m.random_point(rng, m.base_point(), radius) for _ in range(3)]
    return build(m, anchors, [0.5, 0.3, 0.2])


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.2, seed=8),
        lambda: random_karcher(SPD(3), 5, 1.5, seed=13),
        lambda: random_sphere_mean(Sphere(4), 6, 0.3, seed=17),
        lambda: _explicit_barycenter(make_karcher, Hyperbolic(5, kappa=2.0), 1.2),
        lambda: _explicit_barycenter(make_karcher, SPD(3), 1.5),
        lambda: _explicit_barycenter(make_sphere_mean, Sphere(4, sigma=0.5), 0.3),
    ],
    ids=["hyperbolic", "spd", "sphere_mean", "hyperbolic-explicit", "spd-explicit",
         "sphere_mean-explicit"],
)
def test_problem_dict_roundtrip_karcher(build):
    prob = build()
    again = _assert_round_trips(prob, _BARYCENTER_DOC_KEYS)
    x = prob.start
    assert abs(prob.value(x) - again.value(x)) < tol
    oracle_optimum(prob, tol=1e-8)
    _assert_round_trips(prob, _BARYCENTER_DOC_KEYS)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.2, seed=8),
        lambda: _explicit_barycenter(make_karcher, SPD(3), 1.5),
    ],
    ids=["hyperbolic", "spd-explicit"],
)
def test_karcher_optimum_of_the_default_oracle_round_trips(build):
    prob = build()
    oracle_optimum(prob)
    _assert_round_trips(prob, _BARYCENTER_DOC_KEYS)


def test_problem_from_dict_rejects_an_optimum_that_is_not_stationary():
    doc = {"kind": "quadratic", "dim": 2, "mu": 1.0, "L": 2.0, "seed": 3}
    prob = problem_from_dict(doc)
    x = prob.manifold.point([1.0, 0.0])
    norm = prob.manifold.norm(x, prob.grad(x))
    with pytest.raises(DomainError) as err:
        problem_from_dict({**doc, "optimum": [1.0, 0.0]})
    assert str(err.value) == (
        f"'optimum' is not stationary: its gradient norm {norm!r} exceeds 1e-08"
    )
    # With the center at the origin the gradient norm at (t, 0) is at most 2t.
    at_origin = {**doc, "center": [0.0, 0.0]}
    with pytest.raises(DomainError, match="is not stationary"):
        problem_from_dict({**at_origin, "optimum": [1e-7, 0.0]})
    for t in (0.0, 1e-9):
        loaded = problem_from_dict({**at_origin, "optimum": [t, 0.0]})
        assert np.array_equal(loaded.optimum.coords, [t, 0.0])


def test_problem_from_generator_block():
    doc = {
        "kind": "karcher",
        "manifold": {"kind": "hyperbolic", "dim": 5, "kappa": 1.0},
        "n_anchors": 4,
        "radius": 1.2,
        "seed": 8,
    }
    a = problem_from_dict(doc)
    b = problem_from_dict(doc)
    assert abs(a.value(a.start) - b.value(b.start)) < tol
    with pytest.raises(DomainError):
        problem_from_dict({"kind": "mystery"})


@pytest.mark.parametrize(
    "manifold",
    [Euclidean(3), Hyperbolic(4, kappa=2.0), Sphere(5, sigma=0.5), SPD(3)],
)
def test_manifold_dict_roundtrip(manifold):
    again = manifold_from_dict(manifold_to_dict(manifold))
    assert repr(again) == repr(manifold)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"kind": "hyperbolic", "dim": 4}, "kappa"),
        ({"kind": "sphere", "dim": 4}, "sigma"),
    ],
)
def test_curvature_key_names_each_kinds_own_parameter(doc, key):
    assert curvature_key(doc) == key
    assert getattr(manifold_from_dict({**doc, key: 3.0}), key) == 3.0


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "sphere", "dim": 4, "kappa": 2.0},
        {"kind": "hyperbolic", "dim": 4, "kapa": 2.0},
        {"kind": "euclidean", "dim": 4, "sigma": 1.0},
        {"kind": "torus", "dim": 4},
        {"kind": "spd", "n": 3, "kappa": 0.5},
        {"kind": ["spd"], "n": 3},
        # The size is an integer, not a float, a bool or a string.
        {"kind": "hyperbolic", "dim": 3.9},
        {"kind": "euclidean", "dim": 3.0},
        {"kind": "sphere", "dim": True},
        {"kind": "spd", "n": "3"},
    ],
)
def test_manifold_from_dict_rejects_keys_its_kind_does_not_take(doc):
    with pytest.raises(DomainError):
        manifold_from_dict(doc)


def test_manifold_description_needs_kind_and_size():
    with pytest.raises(MissingDataError):
        manifold_from_dict({"dim": 4})
    with pytest.raises(MissingDataError):
        manifold_from_dict({"kind": "spd"})
    with pytest.raises(DomainError):
        curvature_key({"kind": "euclidean", "dim": 4})
    with pytest.raises(DomainError):
        curvature_key({"kind": "spd", "n": 3})


def test_declared_constants_validated():
    with pytest.raises(DomainError):
        make_quadratic(4, -1.0, 2.0, seed=0)
    with pytest.raises(DomainError):
        random_karcher(Hyperbolic(4, kappa=1.0), 0, 1.0, seed=0)
    with pytest.raises(DomainError):
        random_karcher(Hyperbolic(4, kappa=1.0), 3, -2.0, seed=0)
    with pytest.raises(DomainError, match="requires a Hadamard manifold"):
        random_karcher(Sphere(4), 3, 0.1, seed=0)
    with pytest.raises(DomainError, match="requires a Sphere manifold"):
        random_sphere_mean(Hyperbolic(4, kappa=1.0), 3, 0.1, seed=0)


class _Unlisted(Manifold):
    """A manifold outside the serialization table."""

    check_point = check_tangent = _exp = _log = distance = _inner = base_point = None


def _two_anchors(angle):
    """Two points of Sphere(2) at ``angle`` either side of the north pole."""
    m = Sphere(2)
    s, c = math.sin(angle), math.cos(angle)
    return m, [m.point([s, 0.0, c]), m.point([-s, 0.0, c])]


_H3 = Hyperbolic(3, kappa=1.0)
_H3_ANCHORS = [_H3.base_point(), _H3.random_point(rng_from_seed(0), _H3.base_point(), 1.0)]
_DIAG = np.diag([1.0, 4.0])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Problem("p", Euclidean(1), abs, None, 2.0, 1.0, None, None), DomainError,
         "need 0 < mu <= L"),
        (lambda: make_quadratic(0, 1.0, 1.0, seed=0), DomainError, "dim must be >= 1"),
        (lambda: make_quadratic(1, 1.0, 2.0, seed=0), DomainError, "cannot span"),
        (lambda: make_quadratic(3, 1.0, 2.0, seed=0, center=np.zeros(2)), DomainError,
         "center must have shape"),
        (lambda: quadratic_from_arrays(np.eye(3), np.zeros(2), np.zeros(2)), DomainError,
         "inconsistent"),
        (lambda: quadratic_from_arrays([[1.0, 1.0], [0.0, 1.0]], np.zeros(2), np.ones(2)),
         DomainError, "must be symmetric"),
        (lambda: quadratic_from_arrays(np.diag([1.0, -1.0]), np.zeros(2), np.ones(2)),
         DomainError, "not positive definite"),
        (lambda: quadratic_from_arrays(_DIAG, np.zeros(2), np.ones(2), mu=2.0), DomainError,
         "declared mu"),
        (lambda: quadratic_from_arrays(_DIAG, np.zeros(2), np.ones(2), L=3.0), DomainError,
         "declared L"),
        (lambda: make_karcher(_H3, _H3_ANCHORS, [1.0]), DomainError, "expected 2 weights"),
        (lambda: make_karcher(_H3, _H3_ANCHORS, [1.5, -0.5]), DomainError, "must be positive"),
        (lambda: make_karcher(_H3, _H3_ANCHORS, [0.3, 0.3]), DomainError, "sum to 1"),
        (lambda: make_karcher(_H3, []), DomainError, "at least one anchor"),
        (lambda: make_sphere_mean(_H3, _H3_ANCHORS), DomainError, "requires a Sphere manifold"),
        (lambda: make_sphere_mean(*_two_anchors(0.8)), DomainError, "quarter-sphere cap"),
        (lambda: random_sphere_mean(Sphere(4), 0, 0.3, seed=0), DomainError,
         "n_anchors >= 1"),
        (lambda: random_sphere_mean(Sphere(4), 3, 0.5, seed=0), DomainError,
         "radius must lie in"),
        (lambda: oracle_optimum(make_quadratic(4, 1.0, 10.0, seed=0), max_iters=1),
         ConvergenceError, "did not reach"),
        (lambda: manifold_to_dict(_Unlisted()), DomainError, "cannot serialize"),
        (lambda: problem_from_dict({"kind": ["quadratic"]}), DomainError,
         "unknown problem kind"),
        (lambda: make_quadratic(4, 1.0, math.inf, seed=0), DomainError, "L < inf"),
        (lambda: make_quadratic(4, math.nan, 2.0, seed=0), DomainError, "L < inf"),
        (lambda: random_karcher(_H3, 3, math.inf, seed=0), DomainError,
         "positive and finite"),
        (lambda: random_karcher(_H3, 3, math.nan, seed=0), DomainError,
         "positive and finite"),
        # int() would truncate 3.9 to 3 and take True as 1: a problem not asked for.
        (lambda: problem_from_dict({**_QUADRATIC_GENERATOR, "dim": 3.9}), DomainError,
         "'dim' must be an integer, got 3.9"),
        (lambda: problem_from_dict({**_QUADRATIC_GENERATOR, "dim": "3"}), DomainError,
         "'dim' must be an integer, got '3'"),
        (lambda: problem_from_dict({**_QUADRATIC_GENERATOR, "seed": 1.7}), DomainError,
         "'seed' must be an integer, got 1.7"),
        (lambda: problem_from_dict({**_QUADRATIC_GENERATOR, "seed": False}), DomainError,
         "'seed' must be an integer, got False"),
        (lambda: problem_from_dict({**_KARCHER_GENERATOR, "n_anchors": True}), DomainError,
         "'n_anchors' must be an integer, got True"),
        (lambda: problem_from_dict({**_KARCHER_GENERATOR, "n_anchors": 4.0}), DomainError,
         "'n_anchors' must be an integer, got 4.0"),
    ],
    ids=[
        "problem-mu-above-L", "quadratic-dim-0", "quadratic-1d-span", "quadratic-center-shape",
        "arrays-shapes", "arrays-asymmetric", "arrays-not-pd", "arrays-declared-mu",
        "arrays-declared-L", "weights-length", "weights-sign", "weights-sum", "no-anchors",
        "sphere-mean-manifold", "sphere-mean-cap", "random-sphere-mean-anchors",
        "random-sphere-mean-radius", "oracle-max-iters", "manifold-to-dict-unlisted",
        "problem-kind-unhashable", "quadratic-L-infinite", "quadratic-mu-nan",
        "karcher-radius-infinite", "karcher-radius-nan", "dim-float", "dim-string",
        "seed-float", "seed-bool", "n-anchors-bool", "n-anchors-float",
    ],
)
def test_builders_reject_bad_input(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_one_dimensional_quadratic_builds_at_mu_equal_L():
    prob = make_quadratic(1, 2.0, 2.0, seed=0)
    assert (prob.mu, prob.L) == (2.0, 2.0)


# The message's list of a form's keys, per (kind family, form).
_FORM_KEYS = {
    ("quadratic", "explicit"):
        "['L', 'center', 'hessian', 'kind', 'mu', 'name', 'optimum', 'start']",
    ("quadratic", "generator"): "['L', 'center', 'dim', 'kind', 'mu', 'name', 'optimum', 'seed']",
    ("barycenter", "explicit"): "['anchors', 'kind', 'manifold', 'name', 'optimum', 'weights']",
    ("barycenter", "generator"):
        "['kind', 'manifold', 'n_anchors', 'name', 'optimum', 'radius', 'seed', 'weights']",
}
_QUADRATIC_GENERATOR = {"kind": "quadratic", "dim": 3, "mu": 1.0, "L": 2.0, "seed": 0}
_QUADRATIC_EXPLICIT = {"kind": "quadratic", "hessian": [[1.0, 0.0], [0.0, 2.0]],
                       "center": [0.0, 0.0], "start": [1.0, 1.0]}
_KARCHER_GENERATOR = {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 3},
                      "n_anchors": 4, "radius": 1.0, "seed": 0}
_KARCHER_EXPLICIT = {"kind": "karcher", "manifold": {"kind": "euclidean", "dim": 2},
                     "anchors": [[0.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 5.0, "seed": 0,
          "centre": [0.0] * 4}, "centre"),
        ({"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 5.0, "seed": 0,
          "manifold": {"kind": "euclidean", "dim": 4}}, "manifold"),
        ({"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 3}, "n_anchors": 4,
          "radius": 1.0, "seed": 0, "weight": [0.7, 0.1, 0.1, 0.1]}, "weight"),
        ({"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 3}, "n_anchors": 4,
          "radius": 1.0, "seed": 0, "hessian": [[1.0]]}, "hessian"),
        ({"kind": "sphere_mean", "manifold": {"kind": "sphere", "dim": 3}, "n_anchor": 4,
          "radius": 0.3, "seed": 0}, "n_anchor"),
        ({**_QUADRATIC_GENERATOR, "start": [5.0, 5.0, 5.0]}, "start"),
        ({**_QUADRATIC_EXPLICIT, "dim": 2}, "dim"),
        ({**_KARCHER_EXPLICIT, "n_anchors": 2}, "n_anchors"),
        ({**_QUADRATIC_EXPLICIT, "seed": 0}, "seed"),
        ({**_KARCHER_EXPLICIT, "mu": 1.0}, "mu"),
        ({**_KARCHER_EXPLICIT, "L": 1.0}, "L"),
        ({**_KARCHER_EXPLICIT, "seed": 0}, "seed"),
        ({**_KARCHER_EXPLICIT, "radius": 1.0}, "radius"),
        ({**_KARCHER_GENERATOR, "mu": 1.0}, "mu"),
        ({**_KARCHER_GENERATOR, "L": 123.0}, "L"),
        ({"kind": "sphere_mean", "manifold": {"kind": "sphere", "dim": 3}, "n_anchors": 4,
          "radius": 0.3, "seed": 0, "L": 1.0}, "L"),
    ],
    ids=["quadratic-centre", "quadratic-manifold", "karcher-weight", "karcher-hessian",
         "sphere-mean-n-anchor", "quadratic-generator-start", "quadratic-explicit-dim",
         "karcher-explicit-n-anchors", "quadratic-explicit-seed", "karcher-explicit-mu",
         "karcher-explicit-L", "karcher-explicit-seed", "karcher-explicit-radius",
         "karcher-generator-mu", "karcher-generator-L", "sphere-mean-generator-L"],
)
def test_problem_from_dict_rejects_keys_its_kind_does_not_take(doc, key):
    family = "quadratic" if doc["kind"] == "quadratic" else "barycenter"
    form = "explicit" if ("hessian" if family == "quadratic" else "anchors") in doc else "generator"
    message = (f"a '{doc['kind']}' problem in {form} form takes no ['{key}']; "
               f"its keys are {_FORM_KEYS[family, form]}")
    with pytest.raises(DomainError, match=re.escape(message)):
        problem_from_dict(doc)
