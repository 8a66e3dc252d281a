"""SPD factorizations through LAPACK's gufuncs: the reference against
``np.linalg`` and the failure contract.

``SPD._eigh``, ``SPD._eigvalsh`` and ``SPD._factor`` (a point's Cholesky
factor and its inverse) call ``numpy.linalg._umath_linalg`` directly.
``np.linalg.eigh``/``eigvalsh``/``cholesky``/``inv`` stay here as the
reference they must equal bit for bit.  A non-finite input or a failed
factorization must end in ``ConvergenceError``, also under
``-W error::RuntimeWarning`` and ``np.errstate(invalid="raise")``, and in
exit code 3 from ``ragd run``; so must a non-finite entry of a point or
tangent that reaches an SPD map.
"""

import contextlib
import json
import logging
import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import ragd.cli as cli
import ragd.geometry.spd as spd_module
from ragd.errors import ConvergenceError
from ragd.geometry import SPD, ManifoldPoint, TangentVector
from ragd.problems import oracle_optimum, random_karcher
from ragd.solvers import SolverConfig, run

HELPERS = ("_eigh", "_eigvalsh")
HEIGHTS = (None, 1, 2, 17, 256)  # None: a single matrix
CONDITIONS = (1.0, 1e3, 1e6, 1e9, 1e12)


def _sym(a):
    return 0.5 * (a + a.swapaxes(-1, -2))


def _spd(rng, n, cond):
    """A random SPD matrix with condition number ``cond`` at a random scale."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, 1.0 / cond, n) * math.exp(rng.uniform(-3.0, 3.0))
    return _sym((q * rng.permutation(lam)) @ q.T)


def _indefinite(rng, n):
    """A symmetric matrix that is not positive definite, as a kernel's
    midpoint matrix can be."""
    while True:
        a = _sym(rng.standard_normal((n, n)))
        if n == 1:
            return -np.abs(a)
        if np.linalg.eigvalsh(a)[0] < 0.0:
            return a


def _matrices(rng, n, count):
    kinds = [lambda c=c: _spd(rng, n, c) for c in CONDITIONS] + [lambda: _indefinite(rng, n)]
    return [kinds[i % len(kinds)]() for i in range(count)]


@pytest.mark.parametrize("height", HEIGHTS, ids=lambda h: "single" if h is None else f"stack{h}")
@pytest.mark.parametrize("n", range(1, 7))
def test_lapack_reference_helpers_equal_numpy_linalg(n, height):
    rng = np.random.default_rng(1000 * n + (height or 0))
    if height is None:
        inputs = _matrices(rng, n, 12)
    else:
        inputs = [np.stack(_matrices(rng, n, height)) for _ in range(2)]
    for a in inputs:
        w, q = SPD._eigh(a)
        want_w, want_q = np.linalg.eigh(a)
        assert np.array_equal(w, want_w)
        assert np.array_equal(q, want_q)
        assert np.array_equal(SPD._eigvalsh(a), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("n", range(1, 7))
def test_lapack_reference_cholesky_factor_equals_numpy_linalg(n):
    m = SPD(n)
    rng = np.random.default_rng(2000 + n)
    for cond in CONDITIONS:
        for _ in range(4):
            x = ManifoldPoint(_spd(rng, n, cond))
            low, inv, inv_t = m._factor(x)
            want = np.linalg.cholesky(x.coords)
            assert np.array_equal(low, want)
            assert np.array_equal(inv, np.linalg.inv(want))
            assert np.array_equal(inv_t, inv.T) and inv_t.flags.c_contiguous
            assert not np.triu(low, 1).any()


# ----- failure modes -----------------------------------------------------------


SETTINGS = ("default", "warning-error", "errstate-raise")
# The cause a LAPACK failure's ConvergenceError carries under each setting.
CAUSES = {"default": type(None), "warning-error": RuntimeWarning,
          "errstate-raise": FloatingPointError}


@contextlib.contextmanager
def _setting(name):
    """The floating-point error settings a failure must survive: the default
    warning filters, RuntimeWarning as an error (``-W error::RuntimeWarning``)
    and ``np.errstate(invalid="raise")``.  Yields the warnings recorded."""
    with warnings.catch_warnings(record=True) as seen, \
            np.errstate(invalid="raise" if name == "errstate-raise" else "warn"):
        warnings.simplefilter("error" if name == "warning-error" else "always", RuntimeWarning)
        yield seen


def _bases(rng, n):
    # A diagonal base decouples LAPACK's blocks: a NaN entry there leaves
    # other eigenvalues finite, and in eigvalsh can leave all of them finite.
    return {"diagonal": np.diag(rng.uniform(1.0, 4.0, n)), "dense": _spd(rng, n, 1e3),
            "indefinite": _indefinite(rng, n)}


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("helper", HELPERS)
def test_lapack_failure_non_finite_input_raises(helper, bad, setting):
    fn = getattr(SPD, helper)
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for base in _bases(rng, n).values():
            for i in range(n):
                for j in range(i + 1):
                    a = base.copy()
                    a[i, j] = a[j, i] = bad
                    stacks = [a]
                    for h in (1, 2, 17):
                        for at in {0, (h - 1) // 2, h - 1}:
                            stacks.append(np.stack([base] * h))
                            stacks[-1][at] = a
                    for s in stacks:
                        with _setting(setting) as seen, pytest.raises(ConvergenceError):
                            fn(s)
                        # Non-finite input never reaches LAPACK, so it warns of nothing.
                        assert seen == []


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_lapack_failure_non_finite_entry_in_every_map(bad, setting):
    # Points and tangents are trusted, so nothing checks their entries
    # before the congruence x^{-1/2} y x^{-1/2}.  There an infinite entry
    # can meet a zero of x^{-1/2} (a diagonal base) or an infinity of the
    # other sign (an off-diagonal pair) and set the invalid flag, which
    # the raising settings turn into an exception inside the product.
    m = SPD(3)
    rng = np.random.default_rng(8)
    diagonal = ManifoldPoint(np.diag([1.0, 4.0, 2.0]))
    good = _spd(rng, 3, 10.0)
    for base in (diagonal, ManifoldPoint(_spd(rng, 3, 1e3))):
        for i, j in ((1, 1), (0, 2)):
            a = good.copy()
            a[i, j] = a[j, i] = bad
            y, stack = ManifoldPoint(a), np.stack([good, a])
            v = TangentVector(base, a)
            maps = [
                lambda: m.distance(base, y),
                lambda: m.log(base, y),
                lambda: m._geodesic(base, y, 0.5),
                lambda: m.exp(base, TangentVector(base, a)),
                lambda: m._dist_many(base, stack),
                lambda: m._dist_table([base, base], stack),
                lambda: m._log_many([base, base], stack),
                # A non-finite base fails in its Cholesky factorization.
                lambda: m.distance(y, base),
                lambda: m._geodesic(y, base, 0.5),
                lambda: m._log_many([base, y], np.stack([good, good])),
                lambda: m.inner(y, TangentVector(y, good), TangentVector(y, good)),
                # inner and the norms decompose no congruence: a finiteness test
                # on their result stops them, NaN included.
                lambda: m.inner(base, v, v),
                lambda: m.norm(base, v),
                lambda: m._norm_many(base, stack),
            ]
            for fn in maps:
                with _setting(setting) as seen, pytest.raises(ConvergenceError):
                    fn()
                if setting != "default":
                    assert seen == []


class _FailingLapack:
    """Stands in for ``_umath_linalg``: the real gufuncs up to call
    ``fail_from`` (counting every call), then a failed factorization, of
    every gufunc or of the one named ``only``.  LAPACK fails matrix by
    matrix, so the output of the one matrix, or of the last matrix of a
    stack, comes back all NaN.  With ``flag`` the NaN comes from 0/0, which
    raises the invalid flag as LAPACK's failure does."""

    def __init__(self, fail_from=math.inf, flag=False, only=None):
        self.fail_from = fail_from
        self.flag = flag
        self.only = only
        self.calls = 0

    def _spoil(self, name, a, *outs):
        self.calls += 1
        if self.calls >= self.fail_from and self.only in (None, name):
            for out in outs:
                target = out if a.ndim == 2 else out[-1]
                nan = np.divide(np.zeros(target.shape), 0.0) if self.flag else math.nan
                target[...] = nan
        return outs if len(outs) > 1 else outs[0]

    def eigh_lo(self, a):
        return self._spoil("eigh_lo", a, *_umath_linalg.eigh_lo(a))

    def eigvalsh_lo(self, a):
        return self._spoil("eigvalsh_lo", a, _umath_linalg.eigvalsh_lo(a))

    def cholesky_lo(self, a):
        return self._spoil("cholesky_lo", a, _umath_linalg.cholesky_lo(a))

    def inv(self, a):
        return self._spoil("inv", a, _umath_linalg.inv(a))


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("height", [None, 1, 17], ids=lambda h: "single" if h is None else f"stack{h}")
@pytest.mark.parametrize("helper", HELPERS)
def test_lapack_failure_of_the_decomposition_raises(monkeypatch, helper, height, setting):
    rng = np.random.default_rng(6)
    a = _spd(rng, 4, 10.0)
    if height is not None:
        a = np.stack([a] * height)
    fake = _FailingLapack(fail_from=1, flag=True)
    monkeypatch.setattr(spd_module, "_umath_linalg", fake)
    with _setting(setting), pytest.raises(ConvergenceError) as info:
        getattr(SPD, helper)(a)
    assert fake.calls == 1
    assert isinstance(info.value.__cause__, CAUSES[setting])


def test_lapack_failure_anywhere_in_a_solve_raises(monkeypatch):
    problem = random_karcher(SPD(3), 5, 1.0, seed=4)
    oracle_optimum(problem)
    config = SolverConfig(mode="ragd", mu=problem.mu, L=problem.L, max_iters=20)
    want = run(problem, config)
    counter = _FailingLapack()
    monkeypatch.setattr(spd_module, "_umath_linalg", counter)
    assert np.array_equal(run(problem, config).rows, want.rows, equal_nan=True)
    total = counter.calls
    assert total > 20
    # Every decomposition of the run, the first to the last, in turn.  The
    # problem's own points keep their factorizations from the runs above,
    # so every run makes the same calls in the same order.
    for k in range(1, total + 1):
        fake = _FailingLapack(fail_from=k)
        monkeypatch.setattr(spd_module, "_umath_linalg", fake)
        with pytest.raises(ConvergenceError):
            run(problem, config)
        assert fake.calls == k


def _abort_argv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "karcher", "manifold": {"kind": "spd", "n": 3},
                    "n_anchors": 5, "radius": 1.5, "seed": 13},
        "solvers": [{"mode": "ragd", "max_iters": 30}],
        "seed": 3,
    }))
    return ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]


def _parse_phase_calls(monkeypatch, argv):
    """The LAPACK calls of the parse phase, which builds the problem, so
    that a failure can be put in the work after it."""
    counter = _FailingLapack()
    monkeypatch.setattr(spd_module, "_umath_linalg", counter)
    args = cli._build_parser().parse_args(argv)
    args.func(args)
    return counter.calls


def _assert_abort(rc, tmp_path, caplog, capsys):
    assert rc == cli.EXIT_ABORT
    errors = [r for r in caplog.records if r.name == "ragd.cli" and r.levelno == logging.ERROR]
    assert len(errors) == 1
    assert "ConvergenceError" in errors[0].getMessage()
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("late", [False, True], ids=["first", "later"])
def test_lapack_failure_in_ragd_run_is_abort(tmp_path, monkeypatch, caplog, capsys, late):
    argv = _abort_argv(tmp_path)
    fake = _FailingLapack(fail_from=_parse_phase_calls(monkeypatch, argv) + (100 if late else 1))
    monkeypatch.setattr(spd_module, "_umath_linalg", fake)
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        rc = cli.main(argv)
    assert fake.calls == fake.fail_from
    _assert_abort(rc, tmp_path, caplog, capsys)


# ----- the Cholesky factor of a point --------------------------------------------

FACTOR_GUFUNCS = ("cholesky_lo", "inv")


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("gufunc", FACTOR_GUFUNCS)
def test_lapack_failure_of_the_cholesky_factor_raises(monkeypatch, gufunc, setting):
    m = SPD(4)
    rng = np.random.default_rng(7)
    x, y = ManifoldPoint(_spd(rng, 4, 10.0)), ManifoldPoint(_spd(rng, 4, 10.0))
    fake = _FailingLapack(fail_from=1, flag=True, only=gufunc)
    monkeypatch.setattr(spd_module, "_umath_linalg", fake)
    for _ in range(2):
        with _setting(setting), pytest.raises(ConvergenceError) as info:
            m.distance(x, y)
        assert isinstance(info.value.__cause__, CAUSES[setting])
        # A failed factorization caches nothing: the next call factors again.
        assert "_spd_cholesky" not in x.__dict__
    assert fake.calls == 2 * (1 + FACTOR_GUFUNCS.index(gufunc))
    monkeypatch.setattr(spd_module, "_umath_linalg", _umath_linalg)
    assert m.distance(x, y) == m.distance(ManifoldPoint(x.coords.copy()), y)


@pytest.mark.parametrize("setting", SETTINGS)
def test_lapack_failure_non_pd_point_raises_on_every_call(setting):
    # A trusted point that is not positive definite (indefinite, or
    # semidefinite with an exact zero pivot) fails in its Cholesky factor.
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        m = SPD(n)
        singular = np.diag(np.arange(n, dtype=float))
        for coords in (_indefinite(rng, n), singular):
            bad = ManifoldPoint(coords)
            for _ in range(2):
                with _setting(setting) as seen, pytest.raises(ConvergenceError):
                    m.distance(bad, m.base_point())
                assert "_spd_cholesky" not in bad.__dict__
                if setting != "default":
                    assert seen == []


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("gufunc", FACTOR_GUFUNCS)
def test_lapack_failure_of_the_cholesky_factor_in_ragd_run_is_abort(
        tmp_path, monkeypatch, caplog, capsys, gufunc, setting):
    argv = _abort_argv(tmp_path)
    fake = _FailingLapack(fail_from=_parse_phase_calls(monkeypatch, argv) + 1, flag=True,
                          only=gufunc)
    monkeypatch.setattr(spd_module, "_umath_linalg", fake)
    capsys.readouterr()
    with _setting(setting), caplog.at_level(logging.ERROR):
        rc = cli.main(argv)
    _assert_abort(rc, tmp_path, caplog, capsys)
