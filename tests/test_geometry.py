import math

import numpy as np
import pytest

from ragd.errors import AntipodalError, ConvergenceError, DomainError, NonFiniteError
from ragd.geometry import SPD, Euclidean, Hyperbolic, Manifold, ManifoldPoint, Sphere, TangentVector
from ragd.geometry.hyperbolic import _RENORM_SCALE
from ragd.problems import manifold_from_dict, manifold_to_dict

tol = 1e-9

CASES = [
    ("euclidean", Euclidean(12), 5.0),
    ("hyperbolic", Hyperbolic(8, kappa=1.0), 2.0),
    ("hyperbolic-k2", Hyperbolic(5, kappa=2.0), 1.5),
    ("sphere", Sphere(7, sigma=1.0), 0.35),
    ("spd", SPD(4), 2.0),
]


def sample(m, scale, seed=0, n=30):
    rng = np.random.default_rng(seed)
    base = m.base_point()
    for _ in range(n):
        x = m.random_point(rng, base, scale)
        v = m.random_tangent(rng, x, scale=scale)
        yield x, v


@pytest.mark.parametrize("label,m,scale", CASES)
def test_exp_log_roundtrip(label, m, scale):
    for x, v in sample(m, scale):
        y = m.exp(x, v)
        back = m.log(x, y)
        err = m.norm(x, back - v) / (1.0 + m.norm(x, v))
        assert err < tol


@pytest.mark.parametrize("label,m,scale", CASES)
def test_distance_matches_tangent_norm(label, m, scale):
    for x, v in sample(m, scale):
        y = m.exp(x, v)
        nv = m.norm(x, v)
        assert abs(m.distance(x, y) - nv) < tol * (1.0 + nv)


@pytest.mark.parametrize("label,m,scale", CASES)
def test_distance_symmetry_and_triangle(label, m, scale):
    rng = np.random.default_rng(1)
    base = m.base_point()
    for _ in range(30):
        x = m.random_point(rng, base, scale)
        y = m.random_point(rng, base, scale)
        z = m.random_point(rng, base, scale)
        assert abs(m.distance(x, y) - m.distance(y, x)) < tol
        assert m.distance(x, z) <= m.distance(x, y) + m.distance(y, z) + tol


@pytest.mark.parametrize("label,m,scale", CASES)
def test_identity_point(label, m, scale):
    for x, _ in sample(m, scale, n=5):
        assert m.distance(x, x) < tol
        assert m.norm(x, m.log(x, x)) < tol


@pytest.mark.parametrize("label,m,scale", CASES)
def test_log_outputs_are_tangent(label, m, scale):
    for x, v in sample(m, scale, n=10):
        y = m.exp(x, v)
        m.check_tangent(x, m.log(x, y).coords)


@pytest.mark.parametrize("label,m,scale", CASES)
def test_projected_distance_is_tangent_gap(label, m, scale):
    rng = np.random.default_rng(2)
    base = m.base_point()
    for _ in range(20):
        x = m.random_point(rng, base, scale)
        y = m.random_point(rng, base, scale)
        z = m.random_point(rng, base, scale)
        pd = m.projected_distance(x, y, z)
        direct = m.norm(x, m.log(x, y) - m.log(x, z))
        assert abs(pd - direct) < tol * (1.0 + direct)
        assert m.projected_distance(x, y, y) < tol


@pytest.mark.parametrize("label,m,scale", CASES)
def test_point_rejects_bad_shape_and_non_finite(label, m, scale):
    good = m.base_point().coords
    with pytest.raises(DomainError):
        m.point(np.zeros(good.size + 1))
    for bad in (np.nan, np.inf, -np.inf):
        coords = good.copy()
        coords.flat[0] = bad
        with pytest.raises(DomainError):
            m.point(coords)


@pytest.mark.parametrize("label,m,scale", CASES)
def test_stacked_kernels_match_per_anchor_loop(label, m, scale):
    rng = np.random.default_rng(10)
    base = m.base_point()
    for _ in range(10):
        x = m.random_point(rng, base, scale)
        anchors = [m.random_point(rng, base, scale) for _ in range(5)]
        bases = [m.random_point(rng, base, scale) for _ in range(5)]
        stack = np.stack([p.coords for p in anchors])
        dists = np.array([m.distance(x, p) for p in anchors])
        logs = np.stack([m.log(x, p).coords for p in anchors])
        pair_dists = np.array([m.distance(b, p) for b, p in zip(bases, anchors)])
        pair_logs = np.stack([m.log(b, p).coords for b, p in zip(bases, anchors)])
        norms = np.array([m.norm(x, TangentVector(x, v)) for v in logs])
        pair_norms = np.array([m.norm(b, TangentVector(b, v)) for b, v in zip(bases, pair_logs)])
        pds = np.array([m.projected_distance(b, p, x) for b, p in zip(bases, anchors)])
        # The base-class loop is the reference every override must match.
        assert np.array_equal(Manifold._dist_many(m, x, stack), dists)
        assert np.array_equal(Manifold._log_many(m, x, stack), logs)
        assert np.array_equal(Manifold._dist_many(m, bases, stack), pair_dists)
        assert np.array_equal(Manifold._log_many(m, bases, stack), pair_logs)
        assert np.array_equal(Manifold._norm_many(m, x, logs), norms)
        assert np.array_equal(Manifold._norm_many(m, bases, pair_logs), pair_norms)
        # One base per row, and every norm, equal the loop on every manifold.
        assert np.array_equal(m._dist_many(bases, stack), pair_dists)
        assert np.array_equal(m._log_many(bases, stack), pair_logs)
        assert np.array_equal(m._norm_many(x, logs), norms)
        assert np.array_equal(m._norm_many(bases, pair_logs), pair_norms)
        assert np.array_equal(m._projected_distances(bases, anchors, x), pds)
        got_d, got_l = m._dist_many(x, stack), m._log_many(x, stack)
        if isinstance(m, Hyperbolic):
            # A shared base forms every Minkowski inner product in one
            # matrix product, which sums in another order than the
            # per-anchor dot product.
            assert np.all(np.abs(got_d - dists) <= 1e-13 * dists)
            row_scale = np.max(np.abs(logs), axis=1)
            assert np.all(np.max(np.abs(got_l - logs), axis=1) <= 1e-13 * row_scale)
        else:
            assert np.array_equal(got_d, dists)
            assert np.array_equal(got_l, logs)


@pytest.mark.parametrize("label,m,scale", CASES)
def test_log_dist_matches_log_and_distance(label, m, scale):
    rng = np.random.default_rng(11)
    base = m.base_point()
    for _ in range(20):
        x = m.random_point(rng, base, scale)
        y = m.random_point(rng, base, scale)
        for a, b in ((x, y), (x, x)):
            log, dist = m._log_dist(a, b)
            assert np.array_equal(log, m.log(a, b).coords)
            want = m.distance(a, b)
            if isinstance(m, SPD):
                # eigh eigenvalues here, eigvalsh ones in distance; d(x, x)
                # is pure round-off, so it gets an absolute bound
                assert abs(dist - want) <= 1e-14 * (want if a is not b else 1.0)
            else:
                assert dist == want


@pytest.mark.parametrize("label,m,scale", CASES)
def test_coordinate_kernels_equal_the_typed_maps(label, m, scale):
    rng = np.random.default_rng(13)
    for x, v in sample(m, scale, seed=13, n=10):
        y = m.random_point(rng, m.base_point(), scale)
        assert np.array_equal(m._exp(x, v.coords).coords, m.exp(x, v).coords)
        assert np.array_equal(m._log(x, y), m.log(x, y).coords)


def test_euclidean_distance_equals_numpy_norm():
    rng = np.random.default_rng(14)
    m = Euclidean(7)
    for mag in (1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150, 1e160, 1e300):
        for _ in range(20):
            d = mag * rng.normal(size=7)
            with np.errstate(over="ignore", under="ignore"):
                want = float(np.linalg.norm(d))
                got = m.distance(m.base_point(), ManifoldPoint(d))
                log, dist = m._log_dist(m.base_point(), ManifoldPoint(d))
            assert got == want
            assert dist == got and np.array_equal(log, d)


@pytest.mark.parametrize("m", [Euclidean(3), SPD(2)], ids=["euclidean", "spd"])
def test_exp_raises_on_overflow(m):
    x = m.point(1e200 * np.eye(2)) if isinstance(m, SPD) else m.point(np.full(3, 1e308))
    # A tangent whose endpoint exceeds the double range: e^699 * 1e200 on SPD.
    v = m.tangent(x, 699.0 * x.coords if isinstance(m, SPD) else x.coords)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        m.exp(x, v)


def test_spd_stacked_kernels_reject_non_pd_midpoint():
    m = SPD(3)
    x = m.base_point()
    stack = np.stack([np.eye(3), np.diag([1.0, -1.0, 2.0])])
    with pytest.raises(ConvergenceError):
        m._dist_many(x, stack)
    with pytest.raises(ConvergenceError):
        m._log_many(x, stack)


@pytest.mark.parametrize("label,m,scale", [c for c in CASES if isinstance(c[1], SPD)])
def test_spd_cached_square_root_is_exact_and_read_only(label, m, scale):
    rng = np.random.default_rng(12)
    base = m.base_point()
    for _ in range(5):
        x = m.random_point(rng, base, scale)
        y = m.random_point(rng, base, scale)
        u = m.random_tangent(rng, x, scale)
        v = m.random_tangent(rng, x, scale)
        stack = np.stack([m.random_point(rng, base, scale).coords for _ in range(4)])
        m.inner(x, u, v)  # warms the cache on x

        def cold():
            # A copy of x carries no cached factorization.
            return ManifoldPoint(x.coords.copy())

        c = cold()
        assert np.array_equal(m.exp(x, u).coords, m.exp(c, TangentVector(c, u.coords)).coords)
        assert np.array_equal(m.log(x, y).coords, m.log(cold(), y).coords)
        assert m.distance(x, y) == m.distance(cold(), y)
        c = cold()
        cu, cv = TangentVector(c, u.coords), TangentVector(c, v.coords)
        assert m.inner(x, u, v) == m.inner(c, cu, cv)
        assert np.array_equal(m._dist_many(x, stack), m._dist_many(cold(), stack))
        assert np.array_equal(m._log_many(x, stack), m._log_many(cold(), stack))

        root, isqrt = m._sqrt_pair(x)
        assert m._sqrt_pair(x)[0] is root and m._sqrt_pair(x)[1] is isqrt
        assert not root.flags.writeable and not isqrt.flags.writeable
        with pytest.raises(ValueError):
            root[0, 0] = 0.0


def test_spd_non_pd_trusted_point_raises_on_every_call():
    m = SPD(3)
    bad = ManifoldPoint(np.diag([1.0, -1.0, 2.0]))  # trusted, never validated
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            m.distance(bad, m.base_point())


def test_sphere_stacked_kernels_at_the_antipode():
    m = Sphere(3, sigma=4.0)
    x = m.base_point()
    stack = np.stack([m.random_point(np.random.default_rng(11), x, 0.2).coords, -x.coords])
    assert m._dist_many(x, stack)[1] == math.pi / math.sqrt(m.sigma)
    with pytest.raises(AntipodalError):
        m._log_many(x, stack)


def test_euclidean_projected_distance_equals_distance():
    m = Euclidean(6)
    rng = np.random.default_rng(3)
    base = m.base_point()
    for _ in range(20):
        x = m.random_point(rng, base, 4.0)
        y = m.random_point(rng, base, 4.0)
        z = m.random_point(rng, base, 4.0)
        assert abs(m.projected_distance(x, y, z) - m.distance(y, z)) < tol


def test_small_distance_accuracy_hyperbolic():
    # chordal formulation keeps tiny separations far below the ~sqrt(eps)
    # absolute floor of the plain arccosh formula
    m = Hyperbolic(4, kappa=1.0)
    rng = np.random.default_rng(4)
    x = m.random_point(rng, m.base_point(), 1.0)
    for h in (1e-3, 1e-6, 1e-9):
        v = m.random_tangent(rng, x, scale=1.0)
        v = (h / m.norm(x, v)) * v
        y = m.exp(x, v)
        assert abs(m.distance(x, y) - h) < 1e-13


def test_hyperbolic_membership_and_far_points():
    m = Hyperbolic(6, kappa=1.0)
    rng = np.random.default_rng(5)
    b = m.base_point()
    x = m.random_point(rng, b, 2.0)
    m.check_point(x.coords)
    # far excursions keep finite coordinates and a scale-relative membership
    v = m.random_tangent(rng, x, scale=25.0)
    y = m.exp(x, v)
    m.check_point(y.coords)
    assert np.all(np.isfinite(y.coords))
    w = m.log(x, y)
    assert abs(m.norm(x, w) - m.norm(x, v)) < 1e-6 * m.norm(x, v)


def test_hyperbolic_rejects_overlong_geodesics():
    m = Hyperbolic(4, kappa=1.0)
    x = m.base_point()
    rng = np.random.default_rng(6)
    v = m.random_tangent(rng, x, scale=1.0)
    v = (400.0 / m.norm(x, v)) * v
    with pytest.raises(DomainError):
        m.exp(x, v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hyperbolic_far_field_raises_typed_errors():
    m = Hyperbolic(3, kappa=1.0)

    def at(t):  # the point at signed distance t along the first axis
        return m.point([math.sinh(t), 0.0, 0.0, math.cosh(t)])

    # Valid points whose chord rows would overflow when squared.
    x = at(250.0)
    stack = np.stack([at(-250.0).coords, x.coords])
    with pytest.raises(DomainError, match="double-precision range"):
        m._dist_many(x, stack)
    with pytest.raises(DomainError, match="double-precision range"):
        m._log_many(x, stack)
    # The single-pair maps and the row-paired kernel share the same bound.
    y = at(-250.0)
    for single_pair in (m.distance, m.log, m._log_dist):
        with pytest.raises(DomainError, match="double-precision range"):
            single_pair(x, y)
    with pytest.raises(DomainError, match="double-precision range"):
        m._projected_distances([x], [y], x)
    # exp stops at a timelike coordinate of 1e40, distance ~92.8 from the
    # base point.
    o = m.base_point()
    assert m.exp(o, m.tangent(o, [92.0, 0.0, 0.0, 0.0])).coords[-1] < 1e40
    with pytest.raises(DomainError, match="double-precision range"):
        m.exp(o, m.tangent(o, [94.0, 0.0, 0.0, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, -1], ids=["spatial", "timelike"])
def test_hyperbolic_projection_rejects_non_finite_targets(bad, where):
    m = Hyperbolic(3, kappa=2.0)
    coords = m.base_point().coords.copy()
    coords[where] = bad
    with pytest.raises(NonFiniteError, match="non-finite"):
        m._project_point(coords)
    # Non-finiteness is reported before the far field.
    coords[-1 - where] = 1e200
    with pytest.raises(NonFiniteError, match="non-finite"):
        m._project_point(coords)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hyperbolic_projection_far_field_cone_and_rounding():
    m = Hyperbolic(3, kappa=2.0)
    # Finite targets past the timelike limit, also where their squares overflow.
    for t in (1e40, 1e200, 1e300):
        with pytest.raises(DomainError, match="double-precision range"):
            m._project_point(np.array([t, 0.0, 0.0, t]))
    with pytest.raises(NonFiniteError, match="timelike cone"):
        m._project_point(np.array([2.0, 0.0, 0.0, 1.0]))
    # Near unit scale the target is renormalized by its Minkowski square,
    # bit for bit; far out it is kept as it is.
    rng = np.random.default_rng(3)
    o = m.base_point()
    for scale in (0.5, 3.0, 9.0):
        for _ in range(20):
            v = m.random_tangent(rng, o, scale).coords
            target = math.cosh(math.sqrt(2.0) * math.sqrt(m._mdot(v, v))) * o.coords + v
            got = m._project_point(target).coords
            if 2.0 * m._scale_sq(target, target) > _RENORM_SCALE:
                assert np.array_equal(got, target)
            else:
                want = target / math.sqrt(-2.0 * m._mdot(target, target))
                assert np.array_equal(got, want)


def test_sphere_antipodal_guard():
    m = Sphere(3, sigma=1.0)
    x = m.base_point()
    y = m.point(-x.coords)
    with pytest.raises(DomainError):
        m.log(x, y)


def test_spd_outputs_symmetric():
    m = SPD(4)
    rng = np.random.default_rng(7)
    x = m.random_point(rng, m.base_point(), 2.0)
    v = m.random_tangent(rng, x, scale=2.0)
    y = m.exp(x, v)
    mat = y.coords
    assert np.allclose(mat, mat.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(mat) > 0.0)


def test_tangent_algebra_requires_shared_base():
    m = Euclidean(3)
    rng = np.random.default_rng(8)
    b = m.base_point()
    x = m.random_point(rng, b, 1.0)
    y = m.random_point(rng, b, 1.0)
    u = m.random_tangent(rng, x)
    v = m.random_tangent(rng, x)
    w = m.random_tangent(rng, y)
    s = u + v - v
    assert np.allclose(s.coords, u.coords, atol=1e-15)
    with pytest.raises(DomainError):
        _ = u + w


@pytest.mark.parametrize("label,m,scale", CASES)
def test_random_point_respects_radius(label, m, scale):
    rng = np.random.default_rng(9)
    base = m.base_point()
    for _ in range(20):
        x = m.random_point(rng, base, scale)
        assert m.distance(base, x) <= scale + tol


@pytest.mark.parametrize("label,m,scale", CASES)
def test_manifold_dict_roundtrip(label, m, scale):
    again = manifold_from_dict(manifold_to_dict(m))
    assert repr(again) == repr(m)
