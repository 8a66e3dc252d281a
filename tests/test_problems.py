import dataclasses
import math

import numpy as np
import pytest

from ragd.distortion import trig_coeff
from ragd.errors import DomainError, MissingDataError, NonFiniteError
from ragd.geometry import SPD, Euclidean, Hyperbolic, Sphere, TangentVector
from ragd.geometry.hyperbolic import _POINT_TOL, _RENORM_SCALE
from ragd.problems import (
    Problem,
    curvature_key,
    gradient_audit,
    make_karcher,
    make_quadratic,
    make_sphere_mean,
    manifold_from_dict,
    manifold_to_dict,
    oracle_optimum,
    problem_from_dict,
    problem_to_dict,
    random_karcher,
    random_sphere_mean,
    recertified,
    rng_from_seed,
)

tol = 1e-9
audit_tol = 1e-5


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


def test_quadratic_gradient_audit():
    prob = make_quadratic(8, 1.0, 10.0, seed=1)
    rep = gradient_audit(prob, seed=1)
    assert rep["max_fd_rel_err"] < audit_tol
    assert rep["strong_convexity_violations"] == 0
    assert rep["smoothness_violations"] == 0


def test_karcher_constants():
    m = Hyperbolic(6, kappa=1.0)
    prob = random_karcher(m, 5, 1.5, seed=2)
    assert prob.mu == 1.0
    spread = prob.certified_radius
    assert abs(prob.L - trig_coeff(1.0, 2.0 * spread)) < tol
    rep = gradient_audit(prob, seed=2)
    assert rep["max_fd_rel_err"] < audit_tol
    assert rep["strong_convexity_violations"] == 0
    assert rep["smoothness_violations"] == 0


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


def test_recertified_moves_L_and_radius_together():
    kappa = 2.0
    prob = random_karcher(Hyperbolic(5, kappa=kappa), 4, 1.0, seed=6)
    r = 1.5 * prob.certified_radius
    wider = recertified(prob, r)
    assert wider.L == trig_coeff(kappa, 2.0 * r) > prob.L
    assert wider.certified_radius == r
    assert wider.mu == prob.mu
    assert wider.start is prob.start and wider.reference is prob.reference
    assert wider.payload == prob.payload
    x = prob.manifold.random_point(rng_from_seed(1), prob.reference, r)
    assert wider.value(x) == prob.value(x)


def test_recertified_is_none_without_a_larger_karcher_ball():
    prob = random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.0, seed=6)
    assert recertified(prob, prob.certified_radius) is None
    assert recertified(prob, 0.5 * prob.certified_radius) is None
    sphere = random_sphere_mean(Sphere(4, sigma=1.0), 4, 0.3, seed=6)
    assert recertified(sphere, 2.0 * sphere.certified_radius) is None
    quadratic = make_quadratic(4, 1.0, 10.0, seed=6)
    assert recertified(quadratic, 10.0) is None


def test_karcher_audit_spd():
    prob = random_karcher(SPD(3), 5, 1.0, seed=3)
    rep = gradient_audit(prob, seed=3)
    assert rep["max_fd_rel_err"] < audit_tol
    assert rep["strong_convexity_violations"] == 0
    assert rep["smoothness_violations"] == 0


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
        assert np.array_equal(prob.grad(x).coords, grad)


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


def test_values_follow_a_replaced_objective():
    prob = random_karcher(Hyperbolic(4), 5, 1.0, seed=2)
    swapped = dataclasses.replace(prob, objective=lambda x: float(x.coords[-1]))
    points = [prob.start, prob.reference]
    assert swapped.values(points).tolist() == [float(x.coords[-1]) for x in points]


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
        (Hyperbolic(6, kappa=1.5), make_karcher),
        (Sphere(5), make_sphere_mean),
        (Euclidean(2), make_karcher),
        (Euclidean(1), make_karcher),
    ],
    ids=["hyperbolic", "sphere_mean", "euclidean", "euclidean-1d"],
)
def test_barycenter_gradient_matches_per_anchor_loop_bitwise(m, make):
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
    rep = gradient_audit(prob, seed=4)
    assert rep["max_fd_rel_err"] < audit_tol
    assert rep["strong_convexity_violations"] == 0
    assert rep["smoothness_violations"] == 0


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


@pytest.mark.parametrize(
    "consumer",
    [
        lambda prob: oracle_optimum(prob, max_iters=10),
        lambda prob: gradient_audit(prob, n_points=2, n_pairs=2),
    ],
    ids=["oracle_optimum", "gradient_audit"],
)
def test_non_finite_gradient_is_rejected(consumer):
    m = Euclidean(3)
    prob = Problem(
        name="nan-gradient",
        manifold=m,
        objective=lambda x: 0.0,
        gradient=lambda x: TangentVector(x, np.full(3, np.nan)),
        mu=1.0,
        L=1.0,
        start=m.point(np.ones(3)),
        reference=m.point(np.zeros(3)),
    )
    with pytest.raises(NonFiniteError):
        consumer(prob)
    assert prob.optimum is None


def test_optimum_required_before_use():
    prob = random_karcher(Hyperbolic(4, kappa=1.0), 4, 1.0, seed=6)
    with pytest.raises(MissingDataError):
        _ = prob.optimum_value


def test_problem_dict_roundtrip_quadratic():
    prob = make_quadratic(6, 1.0, 9.0, seed=7)
    doc = problem_to_dict(prob)
    again = problem_from_dict(doc)
    x = prob.manifold.point(np.linspace(-1.0, 1.0, 6))
    assert abs(prob.value(x) - again.value(x)) < tol
    assert np.allclose(prob.optimum.coords, again.optimum.coords)


def test_problem_dict_roundtrip_karcher():
    prob = random_karcher(Hyperbolic(5, kappa=1.0), 4, 1.2, seed=8)
    doc = problem_to_dict(prob)
    again = problem_from_dict(doc)
    assert again.mu == prob.mu
    assert abs(again.L - prob.L) < tol
    x = prob.start
    assert abs(prob.value(x) - again.value(x)) < tol


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
    [Euclidean(3), Hyperbolic(4, kappa=2.0), Sphere(5, sigma=0.5), SPD(3, kappa=0.7)],
)
def test_manifold_dict_roundtrip(manifold):
    again = manifold_from_dict(manifold_to_dict(manifold))
    assert repr(again) == repr(manifold)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"kind": "hyperbolic", "dim": 4}, "kappa"),
        ({"kind": "sphere", "dim": 4}, "sigma"),
        ({"kind": "spd", "n": 3}, "kappa"),
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
    ],
)
def test_manifold_from_dict_rejects_keys_its_kind_does_not_take(doc):
    with pytest.raises(DomainError):
        manifold_from_dict(doc)


def test_manifold_description_needs_kind_and_size():
    with pytest.raises(MissingDataError):
        manifold_from_dict({"dim": 4})
    with pytest.raises(MissingDataError):
        manifold_from_dict({"kind": "spd", "kappa": 1.0})
    with pytest.raises(DomainError):
        curvature_key({"kind": "euclidean", "dim": 4})


def test_declared_constants_validated():
    with pytest.raises(DomainError):
        make_quadratic(4, -1.0, 2.0, seed=0)
    with pytest.raises(DomainError):
        random_karcher(Hyperbolic(4, kappa=1.0), 0, 1.0, seed=0)
    with pytest.raises(DomainError):
        random_karcher(Hyperbolic(4, kappa=1.0), 3, -2.0, seed=0)
