import math
import warnings

import numpy as np
import pytest

from ragd.errors import (
    AntipodalError,
    ConvergenceError,
    DomainError,
    InjectivityError,
    NonFiniteError,
)
from ragd.geometry import SPD, Euclidean, Hyperbolic, Manifold, ManifoldPoint, Sphere, TangentVector
from ragd.geometry.base import all_finite
from ragd.geometry.hyperbolic import _RENORM_SCALE
from ragd.geometry.spd import _check_finite
from ragd.problems import Problem, manifold_from_dict, manifold_to_dict
from ragd.verify import _geometry_cases

tol = 1e-9

# The manifolds and scales of the ``geometry`` property suite, which checks
# the exp/log roundtrip, distance against tangent norm, symmetry, the
# triangle inequality and the identity point on them.
CASES = _geometry_cases()


def _cases_where(keep):
    """The CASES whose manifold ``keep`` accepts, each with the id it has in
    the full list, so that filtering does not renumber them."""
    return [pytest.param(*c, id=f"{c[0]}-m{i}-{c[2]}") for i, c in enumerate(CASES) if keep(c[1])]


def sample(m, scale, seed=0, n=30):
    rng = np.random.default_rng(seed)
    base = m.base_point()
    for _ in range(n):
        x = m.random_point(rng, base, scale)
        v = m.random_tangent(rng, x, scale=scale)
        yield x, v


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
        targets = anchors[1:] + anchors[:1]
        pair_pds = np.array([
            m.projected_distance(b, p, q) for b, p, q in zip(bases, anchors, targets)
        ])
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
        assert np.array_equal(m._projected_distances(bases, anchors, targets), pair_pds)
        # The distance table, a one-point table included, equals the
        # base-class default, which equals a loop over ``distance``.
        points = [x] + bases
        table = Manifold._dist_table(m, points, stack)
        assert np.array_equal(table, [[m.distance(b, p) for p in anchors] for b in points])
        assert np.array_equal(m._dist_table(points, stack), table)
        assert np.array_equal(m._dist_table([x], stack), dists[None])
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
            assert got == want


@pytest.mark.parametrize("m", [Euclidean(3), SPD(2)], ids=["euclidean", "spd"])
def test_exp_raises_on_overflow(m):
    x = m.point(1e200 * np.eye(2)) if isinstance(m, SPD) else m.point(np.full(3, 1e308))
    # A tangent whose endpoint exceeds the double range: e^699 * 1e200 on SPD.
    v = m.tangent(x, 699.0 * x.coords if isinstance(m, SPD) else x.coords)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        m.exp(x, v)


def test_spd_exp_rejects_arguments_past_700_at_either_end():
    m = SPD(3)
    x = m.base_point()
    # exp(-800) underflows to 0: the "point" would be singular.
    for diag in ((-800.0, 0.1, 0.2), (0.1, 0.2, 800.0)):
        with pytest.raises(DomainError, match="double-precision range"):
            m.exp(x, m.tangent(x, np.diag(diag)))
    assert m.exp(x, m.tangent(x, np.diag([-699.0, 0.0, 699.0]))).coords[0, 0] > 0.0


def _geodesic_pairs(n, scale, seed, count):
    m = SPD(n)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield m, m.random_point(rng, m.base_point(), scale), m.random_point(rng, m.base_point(), scale)


GEODESIC_TS = (0.0, 0.25, 0.7, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [0.5, 1.5, 3.0])
def test_spd_geodesic_matches_exp_of_log(n, scale):
    for m, y, z in _geodesic_pairs(n, scale, seed=20 + n, count=10):
        for t in GEODESIC_TS:
            got = m._geodesic(y, z, t).coords
            want = Manifold._geodesic(m, y, z, t).coords
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # The endpoints: y at t = 0 and z at t = 1.
        for t, end in ((0.0, y), (1.0, z)):
            got = m._geodesic(y, z, t).coords
            assert np.max(np.abs(got - end.coords)) <= 1e-14 * np.max(np.abs(end.coords))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spd_exp_and_geodesic_are_bitwise_symmetric(n):
    # Both form their point as B B^T and symmetrize nothing afterwards.
    rng = np.random.default_rng(40 + n)
    for m, y, z in _geodesic_pairs(n, 2.0, seed=30 + n, count=20):
        points = [m.exp(y, m.random_tangent(rng, y, scale=2.0))]
        points += [m._geodesic(y, z, t) for t in GEODESIC_TS]
        for p in points:
            assert np.array_equal(p.coords, p.coords.T)


def _mp_fn(mp, a, *fs):
    """``f`` of the symmetric mpmath matrix ``a`` for each ``f`` in ``fs``,
    through one eigendecomposition, and the eigenvalues of ``a``."""
    w, q = mp.eigsy(a)
    out = [q * mp.diag([f(w[i]) for i in range(a.rows)]) * q.T for f in fs]
    return (*out, [w[i] for i in range(a.rows)])


def _mp_roots(mp, y):
    """The square root of the stored coordinates ``y`` and its inverse."""
    root, isqrt, _ = _mp_fn(mp, mp.matrix(y.tolist()), mp.sqrt, lambda s: 1 / mp.sqrt(s))
    return root, isqrt


def _mp_congruence(mp, isqrt, a):
    """The symmetric part of ``isqrt a isqrt`` for the stored coordinates ``a``."""
    mid = isqrt * mp.matrix(a.tolist()) * isqrt
    return (mid + mid.T) / 2


def _mp_float(a):
    return np.array([[float(a[i, j]) for j in range(a.cols)] for i in range(a.rows)])


def _mp_geodesic(mp, y, z, t):
    """y^{1/2} (y^{-1/2} z y^{-1/2})^t y^{1/2} in the working precision of ``mp``."""
    root, isqrt = _mp_roots(mp, y)
    mid = _mp_congruence(mp, isqrt, z)
    return root * _mp_fn(mp, mid, lambda s: s ** mp.mpf(t))[0] * root


def test_spd_geodesic_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for n, scale in ((2, 1.5), (3, 3.0), (4, 1.5)):
        for m, y, z in _geodesic_pairs(n, scale, seed=40 + n, count=3):
            for t in (0.25, 0.7):
                ref = _mp_geodesic(mp, y.coords, z.coords, t)
                want = np.array([[float(ref[i, j]) for j in range(n)] for i in range(n)])
                got = m._geodesic(y, z, t).coords
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# The SPD maps decompose the congruence C = L^{-1} a L^{-T} (x = L L^T) as formed,
# with no symmetrization.  Each bound below is a first-order model of the
# rounding: the products of the congruence and the products that map the
# result back, each off by about n eps of the magnitudes they sum, plus
# LAPACK's backward error, a small multiple of n eps ||C||.  The matrix
# function then amplifies a perturbation of C by at most the norm of its
# derivative: 1 / lambda_min(C) for log, exp(lambda_max(C)) for exp.  The
# bounds allow 8 n eps where the stages sum to a few n eps; the largest
# ratio of error to bound seen over these cases was 0.19.  They are stated
# in absolute terms: near x the congruence is near I, so it carries an
# error of about eps whatever the distance, and a bound relative to the
# result alone (log_x(y) or d(x, y)) cannot hold at small scales.

_EPS = float(np.finfo(float).eps)
SPD_MP_SCALES = (0.01, 0.3, 1.0, 3.0)


def _spd_log_bound(n, x, lam):
    """8 n eps ||x||_2 lambda_max(C) / lambda_min(C) for the exact
    eigenvalues ``lam`` of the congruence of one anchor: its log rounds by
    about n eps ||C|| / lambda_min(C), and x^{1/2} . x^{1/2} scales that by
    ||x||_2."""
    return 8 * n * _EPS * np.linalg.norm(x, 2) * float(max(lam) / min(lam))


@pytest.mark.parametrize("scale", SPD_MP_SCALES)
def test_spd_exp_against_mpmath(scale):
    # exp_x(v) = x^{1/2} exp(V) x^{1/2}, V = x^{-1/2} v x^{-1/2}: V rounds by
    # about n eps ||V||, exp's derivative has norm exp(lambda_max(V)), and
    # the products back round by n eps ||x|| exp(lambda_max(V)).
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for n in (1, 2, 3, 4, 5):
        m = SPD(n)
        rng = np.random.default_rng(60 + n + int(10 * scale))
        for _ in range(4):
            x = m.random_point(rng, m.base_point(), scale)
            v = m.random_tangent(rng, x, scale).coords
            root, isqrt = _mp_roots(mp, x.coords)
            e, lam = _mp_fn(mp, _mp_congruence(mp, isqrt, v), mp.exp)
            want = _mp_float(root * e * root)
            top, size = float(max(lam)), float(max(abs(s) for s in lam))
            bound = 8 * n * _EPS * np.linalg.norm(x.coords, 2) * math.exp(top) * (1.0 + size)
            assert np.max(np.abs(m._exp(x, v).coords - want)) <= bound


@pytest.mark.parametrize("scale", SPD_MP_SCALES)
def test_spd_log_and_log_many_against_mpmath(scale):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for n in (1, 2, 3, 4, 5):
        m = SPD(n)
        rng = np.random.default_rng(70 + n + int(10 * scale))
        x = m.random_point(rng, m.base_point(), scale)
        ys = np.stack([m.random_point(rng, m.base_point(), scale).coords for _ in range(4)])
        shared = m._log_many(x, ys)
        per_row = m._log_many([x] * len(ys), ys)
        root, isqrt = _mp_roots(mp, x.coords)
        for y, got_shared, got_row in zip(ys, shared, per_row):
            lg, lam = _mp_fn(mp, _mp_congruence(mp, isqrt, y), mp.log)
            want = _mp_float(root * lg * root)
            bound = _spd_log_bound(n, x.coords, lam)
            for got in (m._log(x, ManifoldPoint(y)), got_shared, got_row):
                assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("scale", SPD_MP_SCALES)
def test_spd_distance_and_dist_table_against_mpmath(scale):
    # Each eigenvalue of C moves by at most n eps ||C|| (Weyl), so each of
    # its logs by n eps lambda_max / lambda_min, and the norm of the n logs
    # by sqrt(n) times that; the log and the square root add eps d.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for n in (1, 2, 3, 4, 5):
        m = SPD(n)
        rng = np.random.default_rng(80 + n + int(10 * scale))
        xs = [m.random_point(rng, m.base_point(), scale) for _ in range(2)]
        ys = np.stack([m.random_point(rng, m.base_point(), scale).coords for _ in range(3)])
        table = m._dist_table(xs, ys)
        for x, row in zip(xs, table):
            isqrt = _mp_roots(mp, x.coords)[1]
            for y, cell in zip(ys, row):
                lam = _mp_fn(mp, _mp_congruence(mp, isqrt, y))[0]
                want = float(mp.sqrt(sum(mp.log(s) ** 2 for s in lam)))
                bound = 8 * n * _EPS * (math.sqrt(n) * float(max(lam) / min(lam)) + want)
                assert abs(m.distance(x, ManifoldPoint(y)) - want) <= bound
                assert abs(cell - want) <= bound


@pytest.mark.parametrize("scale", SPD_MP_SCALES)
def test_spd_log_sum_against_mpmath_and_per_anchor_loop(scale):
    # _log_sum forms sum_i w_i log_x(y_i) as x^{1/2} Q diag(w (x) log l) Q^T
    # x^{1/2}, one product over the eigenvectors of every anchor, so it is
    # not the per-anchor loop bit for bit.  Each term is held to the bound
    # of one log, so the sum to sum_i w_i times it; the loop is held to the
    # same bound, and the two agree within twice it.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for n in (2, 3, 4, 5):
        m = SPD(n)
        rng = np.random.default_rng(90 + n + int(10 * scale))
        for k in (1, 5, 16):
            ys = np.stack([m.random_point(rng, m.base_point(), scale).coords for _ in range(k)])
            w = rng.uniform(0.1, 1.0, k)
            w /= w.sum()
            x = m.random_point(rng, m.base_point(), scale)
            root, isqrt = _mp_roots(mp, x.coords)
            total, bound = mp.zeros(n, n), 0.0
            for wi, y in zip(w.tolist(), ys):
                lg, lam = _mp_fn(mp, _mp_congruence(mp, isqrt, y), mp.log)
                total += mp.mpf(wi) * lg
                bound += wi * _spd_log_bound(n, x.coords, lam)
            want = _mp_float(root * total * root)
            got = m._log_sum(x, ys, w)
            loop = Manifold._log_sum(m, x, ys, w)
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - want)) <= bound
            assert np.max(np.abs(loop - want)) <= bound
            assert np.max(np.abs(got - loop)) <= 2.0 * bound


# The default geodesic, and Euclidean's closed form, which does the default's
# arithmetic in one kernel.
@pytest.mark.parametrize(
    "label,m,scale",
    _cases_where(lambda m: type(m)._geodesic is Manifold._geodesic or isinstance(m, Euclidean)),
)
def test_default_geodesic_is_exp_of_log_bitwise(label, m, scale):
    rng = np.random.default_rng(21)
    for _ in range(10):
        y = m.random_point(rng, m.base_point(), scale)
        z = m.random_point(rng, m.base_point(), scale)
        for t in GEODESIC_TS:
            want = m._exp(y, t * m._log(y, z)).coords
            assert np.array_equal(m._geodesic(y, z, t).coords, want)


@pytest.mark.parametrize("dim", [1, 5, 64])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e150])
def test_euclidean_geodesic_is_exp_of_log_bitwise(dim, scale):
    m = Euclidean(dim)
    rng = np.random.default_rng(dim)
    for _ in range(20):
        y, z = (m.point(scale * rng.standard_normal(dim)) for _ in range(2))
        for t in (0.0, 0.3, 0.95, 1.0):
            want = m._exp(y, t * m._log(y, z))
            got = m._geodesic(y, z, t)
            assert got.coords.tobytes() == want.coords.tobytes()


def test_euclidean_geodesic_raises_on_overflow():
    # z - y overflows to an infinity, and so does the point it steps to.
    m = Euclidean(3)
    far = np.array([1e308, -1.5e308, 1.7e308])
    for y, z, t in ((-far, far, 0.75), (far, -far, 0.5), (far, -far, 1.0)):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            m._geodesic(m.point(y), m.point(z), t)


# ----- the hyperboloid's closed forms against 50-digit references ---------------


def _mp_minkowski(a, b):
    return sum(p * q for p, q in zip(a[:-1], b[:-1])) - a[-1] * b[-1]


def _model_error(m, points):
    """(dim + 1) eps kappa max_p sum_i p_i**2: the rounding error of the
    Minkowski squares of the points (or vectors) ``points``, relative to
    their own scale.  Coordinates far out leave the hyperboloid by that
    much, so no evaluation from them is more accurate, and projecting a
    result onto the hyperboloid rescales it by as much."""
    return (m.dim + 1) * _EPS * m.kappa * max(m._scale_sq(p, p) for p in points)


def _mp_hyperbolic_geodesic(mp, kappa, y, z, t):
    """(sinh((1 - t) theta) y + sinh(t theta) z) / sinh(theta) on the stored
    coordinates, theta = acosh(-kappa <y, z>), in the precision of ``mp``."""
    y, z = [mp.mpf(float(a)) for a in y], [mp.mpf(float(a)) for a in z]
    theta = mp.acosh(-mp.mpf(kappa) * _mp_minkowski(y, z))
    a, b = mp.sinh((1 - t) * theta), mp.sinh(t * theta)
    return np.array([float((a * p + b * q) / mp.sinh(theta)) for p, q in zip(y, z)])


@pytest.mark.parametrize("label,m,scale", _cases_where(lambda m: isinstance(m, Hyperbolic)))
def test_hyperbolic_geodesic_matches_exp_of_log(label, m, scale):
    # The composition rounds through the chord and a tangent of length
    # t d(y, z); at these scales the two forms agreed to 3e-14 of the
    # largest coordinate.
    rng = np.random.default_rng(21)
    for _ in range(10):
        y = m.random_point(rng, m.base_point(), scale)
        z = m.random_point(rng, m.base_point(), scale)
        for t in GEODESIC_TS:
            got = m._geodesic(y, z, t).coords
            want = Manifold._geodesic(m, y, z, t).coords
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for t, end in ((0.0, y), (1.0, z)):
            got = m._geodesic(y, z, t).coords
            assert np.max(np.abs(got - end.coords)) <= 1e-14 * np.max(np.abs(end.coords))


@pytest.mark.parametrize("scale", [1.0, 3.0, 6.0, 10.0])
def test_hyperbolic_geodesic_against_mpmath(scale):
    # Far out the composition exp(y, t log(y, z)) loses the chord to
    # cancellation: at scale 6 it was off by up to 5e-3 of the largest
    # coordinate, and at scale 10 by more than the coordinates themselves,
    # or it raised.  The closed form stays within the points' own error.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for kappa in (1.0, 2.0):
        for dim in (4, 8, 16):
            m = Hyperbolic(dim, kappa)
            rng = np.random.default_rng(dim + int(10 * scale))
            for _ in range(3):
                y = m.random_point(rng, m.base_point(), scale)
                z = m.random_point(rng, m.base_point(), scale)
                for t in (-0.5, 0.05, 0.25, 0.7, 1.5):
                    want = _mp_hyperbolic_geodesic(mp, kappa, y.coords, z.coords, mp.mpf(t))
                    got = m._geodesic(y, z, t).coords
                    bound = _model_error(m, (y.coords, z.coords, want))
                    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _mp_log_sum(mp, kappa, x, ys, w):
    """sum_i w_i log_x(y_i) on the stored coordinates, projected onto the
    tangent space at ``x``, in the precision of ``mp``."""
    k = mp.mpf(kappa)
    x = [mp.mpf(float(a)) for a in x]
    v = [mp.mpf(0)] * len(x)
    for wi, y in zip(w.tolist(), ys):
        y = [mp.mpf(float(a)) for a in y]
        c = -k * _mp_minkowski(x, y)
        ratio = mp.acosh(c) / mp.sqrt(c * c - 1) if c > 1 else mp.mpf(1)
        v = [vj + mp.mpf(wi) * ratio * (yj - c * xj) for vj, yj, xj in zip(v, y, x)]
    kv = k * _mp_minkowski(x, v)
    return np.array([float(vj + kv * xj) for vj, xj in zip(v, x)])


@pytest.mark.parametrize("scale", [1e-8, 0.01, 1.0, 3.0, 6.0, 10.0])
def test_hyperbolic_log_sum_against_mpmath_and_per_anchor_loop(scale):
    # The bound is _model_error of x and the anchors, times the size
    # sum_i w_i |log_x(y_i)| of the terms (the sum itself may cancel to
    # zero at the barycenter): each c_i - 1 is a Minkowski product of
    # stored coordinates, and the chord rows, the weighted sum and the
    # projection round on that scale.  The per-anchor loop is held to the
    # same bound, so the two agree within twice it.  At scale 1e-8 and 0.01
    # the anchors cluster round a center 2 out; there the bound would fail
    # if the weighted rows were summed before differencing against x.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for kappa in (1.0, 2.0):
        for dim in (4, 8, 16):
            m = Hyperbolic(dim, kappa)
            rng = np.random.default_rng(dim + int(10 * scale))
            center = m.base_point() if scale >= 1.0 else m.random_point(rng, m.base_point(), 2.0)
            for k in (1, 4, 11):
                ys = np.stack([m.random_point(rng, center, scale).coords for _ in range(k)])
                w = rng.uniform(0.1, 1.0, k)
                w /= w.sum()
                x = m.random_point(rng, center, scale)
                rows = w[:, None] * m._log_many(x, ys)
                loop = Manifold._log_sum(m, x, ys, w)
                got = m._log_sum(x, ys, w)
                want = _mp_log_sum(mp, kappa, x.coords, ys, w)
                bound = _model_error(m, [x.coords, *ys]) * np.max(np.sum(np.abs(rows), axis=0))
                assert np.max(np.abs(got - want)) <= bound
                assert np.max(np.abs(loop - want)) <= bound
                assert np.max(np.abs(got - loop)) <= 2.0 * bound


def test_spd_geodesic_and_dist_table_failures():
    m = SPD(3)
    y = m.base_point()
    for bad in (np.diag([1.0, -1.0, 2.0]), np.diag([1.0, np.nan, 2.0])):
        with pytest.raises(ConvergenceError):
            m._geodesic(y, ManifoldPoint(bad), 0.5)
        with pytest.raises(ConvergenceError):
            m._dist_table([y, m.point(2.0 * np.eye(3))], np.stack([np.eye(3), bad]))
    # log w = 1 at every eigenvalue, times t: past 700 at either sign of t.
    z = ManifoldPoint(math.e * np.eye(3))
    for t in (701.0, -701.0):
        with pytest.raises(DomainError, match="double-precision range"):
            m._geodesic(y, z, t)
    want = math.exp(-699.0) * np.eye(3)
    assert np.allclose(m._geodesic(y, z, -699.0).coords, want, rtol=1e-12, atol=0.0)


def test_spd_stacked_kernels_reject_non_pd_midpoint():
    m = SPD(3)
    x = m.base_point()
    stack = np.stack([np.eye(3), np.diag([1.0, -1.0, 2.0])])
    with pytest.raises(ConvergenceError):
        m._dist_many(x, stack)
    with pytest.raises(ConvergenceError):
        m._log_many(x, stack)


# all_finite sums the squares with np.vdot, which must not warn when they
# overflow; every all_finite test runs with warnings as errors to hold it to that.


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("shape", [(1,), (7,), (4, 4), (10, 4, 4)])
def test_all_finite_rejects_any_non_finite_entry(bad, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fill in (1.0, 1e200):
            a = np.full(shape, fill)
            assert all_finite(a)
            for i in {0, a.size // 2, a.size - 1}:
                b = a.copy()
                b.flat[i] = bad
                assert not all_finite(b)


def test_all_finite_accepts_squares_that_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (
            np.full(5, 1e200),
            np.full((3, 4), -1e200),
            np.full((10, 4, 4), np.finfo(float).max),
            np.array([1e-300, 1e200, 0.0, -1e155]),
        ):
            assert all_finite(a)


def test_all_finite_on_empty_arrays_and_views():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(np.empty(0))
        assert all_finite(np.empty((0, 4, 4)))
        a = np.ones((6, 8))
        a[2, 1] = np.nan
        a[4, 3] = 1e200
        # The view skips the odd columns, which hold the NaN and the 1e200.
        view = a[:, ::2]
        assert not view.flags.c_contiguous
        assert all_finite(view)
        assert all_finite(a[::2, 1::2].T) is False
        assert all_finite(a[:, 1]) is False
        assert all_finite(a[::2, ::2])


def test_all_finite_call_sites_accept_finite_values_at_1e200():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = Euclidean(3)
        x = m.point(np.full(3, 1e200))
        y = m.exp(x, m.tangent(x, np.full(3, -5e199)))
        assert np.array_equal(y.coords, np.full(3, 5e199))
        prob = Problem(
            name="large-gradient",
            manifold=m,
            values=lambda xs: np.zeros(len(xs)),
            gradient=lambda x: np.full(3, 1e200),
            mu=1.0,
            L=1.0,
            start=x,
            reference=x,
        )
        assert np.array_equal(prob.grad(x).coords, np.full(3, 1e200))
        _check_finite(np.full((10, 4, 4), 1e200))
        with pytest.raises(ConvergenceError):
            _check_finite(np.full((10, 4, 4), 1e200) * np.array([1.0, np.nan, 1.0, 1.0]))


@pytest.mark.parametrize("label,m,scale", [c for c in CASES if isinstance(c[1], SPD)])
def test_spd_cached_cholesky_factor_is_exact_and_read_only(label, m, scale):
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

        factors = m._factor(x)
        assert all(a is b for a, b in zip(m._factor(x), factors))
        assert not any(a.flags.writeable for a in factors)
        with pytest.raises(ValueError):
            factors[0][0, 0] = 0.0


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
    # The closed-form geodesic caps the same argument, here t * d(x, z) = 400.
    z = m.exp(x, v * 0.125)
    with pytest.raises(DomainError, match="double-precision range"):
        m._geodesic(x, z, 8.0)


@pytest.mark.parametrize("r, resolved", [(16.0, True), (17.5, False), (20.0, False)])
def test_hyperbolic_norm_resolution_bound(r, resolved):
    # A unit tangent along a geodesic at distance r from the base point has
    # Minkowski square 1 and magnitude scale 2 cosh(r)**2; on H(8) the
    # rounding bound 9 eps times that scale passes 1 near r = 17.3.
    m = Hyperbolic(8)
    v = np.zeros(9)
    v[0], v[-1] = math.cosh(r), math.sinh(r)
    assert m._norm_resolved(v, 0.0) is resolved
    assert m._norm_resolved(np.zeros(9), 0.0)


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
    for single_pair in (m.distance, m.log, lambda a, b: m._geodesic(a, b, 0.5)):
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
    assert m.distance(x, y) == math.pi


_H, _S, _P = Hyperbolic(3, kappa=1.0), Sphere(3, sigma=1.0), SPD(2)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: _H.point([0.0, 0.0, 0.5, 1.0]), DomainError, "off the hyperboloid"),
        (lambda: _H.point([0.0, 0.0, 0.0, -1.0]), DomainError, "lower sheet"),
        (lambda: _H.tangent(_H.base_point(), [0.0, 0.0, 0.0, 1.0]), DomainError, "not tangent"),
        (lambda: _S.point([0.0, 0.0, 0.0, 2.0]), DomainError, "off the sphere"),
        (lambda: _S.tangent(_S.base_point(), [0.0, 0.0, 0.0, 1.0]), DomainError, "not tangent"),
        (lambda: _S._project_point(np.zeros(4)), NonFiniteError, "degenerated"),
        (lambda: _S._exp(_S.base_point(), np.array([4.0, 0.0, 0.0, 0.0])), InjectivityError,
         "injectivity radius"),
        (lambda: _P.point([[1.0, 0.5], [0.0, 1.0]]), DomainError, "not symmetric"),
        (lambda: _P.point([[1.0, 1.0], [1.0, 1.0]]), DomainError, "not positive definite"),
    ],
    ids=[
        "hyperbolic-off", "hyperbolic-lower-sheet", "hyperbolic-tangent", "sphere-off",
        "sphere-tangent", "sphere-project-zero", "sphere-exp-injectivity", "spd-asymmetric",
        "spd-not-pd",
    ],
)
def test_membership_checks_raise_typed_errors(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


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
