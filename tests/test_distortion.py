import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragd.distortion import (
    s_kappa,
    t_kappa,
    t_kappa_hat,
    trig_coeff,
    valid_rate_hadamard,
    valid_rate_nonhadamard,
)
from ragd.errors import DomainError
from ragd.xi import XiParams

tol = 1e-6


def test_s_kappa_values():
    assert s_kappa(1.0, 0.0) == 1.0
    assert s_kappa(0.0, 5.0) == 1.0
    assert abs(s_kappa(1.0, 1.0) - math.sinh(1.0) ** 2) < tol


def test_trig_coeff_values():
    assert trig_coeff(1.0, 0.0) == 1.0
    assert trig_coeff(0.0, 3.0) == 1.0
    assert abs(trig_coeff(1.0, 1.0) - 1.0 / math.tanh(1.0)) < tol


def test_t_kappa_values():
    assert t_kappa(1.0, 0.0) == 1.0
    assert t_kappa(0.0, 2.0) == 1.0
    both = max(
        1.0 + 4.0 * (1.0 / math.tanh(1.0) - 1.0),
        (math.sinh(2.0) / 2.0) ** 2,
    )
    assert abs(t_kappa(1.0, 1.0) - both) < 1e-5
    assert abs(t_kappa(1.0, 1.0) - 3.288527) < 1e-5


# w = sqrt(kappa) r across the scales t_kappa_hat meets, with the overflow
# edges on both sides: 11 w (eps = 10) crossing 350 between 31 and 32, 2 w
# (eps = 1) crossing 350 between 174 and 176, and every split overflowing
# once w exceeds 350 / 1.001 ~ 349.65.
_HAT_W = (1e-6, 1e-3, 0.5, 1.0, 3.0, 6.0, 12.0, 31.0, 32.0, 100.0, 174.0, 176.0, 400.0)


@pytest.mark.parametrize("kappa", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("w", _HAT_W)
def test_t_kappa_hat_matches_dense_grid(kappa, w):
    from scipy.optimize import minimize_scalar

    r = w / math.sqrt(kappa)
    grid = np.linspace(1e-3, 10.0, 10_000)
    w = math.sqrt(kappa) * r
    def bound(eps):
        first = 1.0 + (1.0 + 1.0 / eps) ** 2 * (w / math.tanh(w) - 1.0)
        arg = (1.0 + eps) * w
        if arg > 350.0:
            # math.sinh overflows near 710; like t_kappa_hat, treat the
            # branch as unbounded past 350.
            return math.inf
        second = (math.sinh(arg) / arg) ** 2
        return max(first, second)
    vals = [bound(e) for e in grid]
    i = int(np.argmin(vals))
    brute = vals[i]
    if math.isfinite(brute):
        res = minimize_scalar(
            bound,
            bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        brute = min(brute, float(res.fun))
    got = t_kappa_hat(kappa, r)
    assert math.isfinite(got) == math.isfinite(brute)
    if math.isfinite(brute):
        assert abs(got - brute) < 1e-4
        assert got <= brute * (1 + 4 * 2**-52)


def _t_hat_reference(w: float) -> tuple:
    """50-digit minimum of the t_kappa_hat objective over the split interval
    ``t_kappa_hat`` searches at ``w``, and ``(1 + eps*) w`` at the minimizer."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    wm = mp.mpf(w)
    excess = wm * mp.coth(wm) - 1

    def first(e):
        return 1 + (1 + 1 / e) ** 2 * excess

    def second(e):
        u = (1 + e) * wm
        return (mp.sinh(u) / u) ** 2

    lo, hi = mp.mpf(1e-3), mp.mpf(min(10.0, 350.0 / w - 1.0))
    if first(lo) <= second(lo):
        e = lo
    elif first(hi) >= second(hi):
        e = hi
    else:
        for _ in range(120):
            mid = (lo + hi) / 2
            if first(mid) > second(mid):
                lo = mid
            else:
                hi = mid
        e = lo
    return max(first(e), second(e)), float((1 + e) * wm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", (0.5, 1.0, 2.0))
def test_t_kappa_hat_against_high_precision_minimum(kappa):
    # The result is the objective at a float split, evaluated in floats.
    # Near the crossing that split is within float resolution of the best
    # one, and each branch carries a few roundings; the sinh branch also
    # carries the rounding of its argument u = (1 + eps) w, which its log
    # derivative 2 (u coth u - 1) <= 2 u amplifies.  So the result lies
    # within (4 + 2 u) eps of the exact minimum m*, and never above t_kappa.
    eps = 2.0**-52
    for w in np.geomspace(1e-12, 349.6, 61):
        r = float(w) / math.sqrt(kappa)
        got = t_kappa_hat(kappa, r)
        m_star, u = _t_hat_reference(math.sqrt(kappa) * r)
        assert abs(got - m_star) <= (4.0 + 2.0 * u) * eps * m_star
        assert got <= t_kappa(kappa, r)


def test_t_kappa_hat_newton_search_is_short(monkeypatch):
    # Branch evaluations per call over a log grid of w, the seed at eps = 1
    # included (about 3.1 on this grid).
    from ragd import distortion

    calls = []
    branches = distortion._t_hat_branches
    monkeypatch.setattr(
        distortion, "_t_hat_branches", lambda *args: calls.append(1) or branches(*args)
    )
    grid = np.geomspace(1e-12, 349.6, 400)
    for w in grid:
        t_kappa_hat(1.0, float(w))
    assert len(calls) <= 5 * len(grid)


def test_t_kappa_hat_at_zero():
    assert t_kappa_hat(1.0, 0.0) == 1.0
    assert t_kappa_hat(2.0, 0.0) == 1.0


def test_valid_rate_hadamard():
    assert valid_rate_hadamard(1.0, 0.0) == 1.0
    assert valid_rate_hadamard(0.0, 7.0) == 1.0
    rate = valid_rate_hadamard(1.0, 1.0)
    assert abs(rate - 3.288527) < 1e-5
    sharp = valid_rate_hadamard(1.0, 1.0, sharp=True)
    assert sharp <= rate


def test_valid_rate_nonhadamard():
    assert valid_rate_nonhadamard(1.0, 0.0, 0.0) == 1.0
    assert abs(valid_rate_nonhadamard(1.0, 0.0, 0.5) - 1.5) < 1e-9
    assert abs(valid_rate_nonhadamard(1.0, 1.0, 0.5) - 4.932791) < 1e-5


@pytest.mark.parametrize("kappa", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("d_xz", [0.05, 0.7, 2.5])
def test_rate_selectors_return_the_bound_as_a_float(kappa, d_xz):
    plain = valid_rate_hadamard(kappa, d_xz)
    sharp = valid_rate_hadamard(kappa, d_xz, sharp=True)
    curved = valid_rate_nonhadamard(kappa, d_xz, 0.4)
    assert all(type(r) is float for r in (plain, sharp, curved))
    assert plain == t_kappa(kappa, d_xz)
    assert sharp == t_kappa_hat(kappa, d_xz)
    assert curved == t_kappa(kappa, d_xz) * (1.0 + 2.0 * 0.4 * 0.4)


def test_rate_below_one_is_rejected_where_it_enters_the_recursion():
    for bad in (0.5, math.nan):
        with pytest.raises(DomainError, match="delta must be >= 1"):
            XiParams(a=0.1, delta=bad)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(min_value=1e-3, max_value=4.0),
    r=st.floats(min_value=0.0, max_value=5.0),
)
@example(kappa=1.0, r=0.0)
@example(kappa=1.0, r=5e-324)
@example(kappa=1.0, r=1e-6)
@example(kappa=1.0, r=1.0)
@example(kappa=1.0, r=10.0)
# eps = 1 leaves the search interval [1e-3, min(10, 350/w - 1)] past w = 175,
# and the interval empties past w = 350/1.001 = 349.65...
@example(kappa=1.0, r=math.nextafter(175.0, 0.0))
@example(kappa=1.0, r=175.0)
@example(kappa=1.0, r=math.nextafter(175.0, math.inf))
@example(kappa=1.0, r=349.6)
@example(kappa=1.0, r=349.7)
@example(kappa=1.0, r=400.0)
@example(kappa=1.0, r=math.inf)
def test_scalar_bounds_order(kappa, r):
    # 1 <= That <= T exactly: t_kappa_hat tries the split eps = 1, which is
    # t_kappa, whenever t_kappa is finite; S is also a valid (>= 1) factor
    t_plain = t_kappa(kappa, r)
    t_sharp = t_kappa_hat(kappa, r)
    assert t_plain >= 1.0
    assert 1.0 <= t_sharp <= t_plain
    assert s_kappa(kappa, r) >= 1.0
    assert trig_coeff(kappa, r) >= 1.0


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(min_value=1e-3, max_value=4.0),
    r=st.floats(min_value=0.0, max_value=4.0),
    h=st.floats(min_value=1e-6, max_value=1.0),
)
def test_scalar_monotone_in_r(kappa, r, h):
    assert t_kappa(kappa, r + h) >= t_kappa(kappa, r) - 1e-12
    assert s_kappa(kappa, r + h) >= s_kappa(kappa, r) - 1e-12
    assert trig_coeff(kappa, r + h) >= trig_coeff(kappa, r) - 1e-12


@settings(max_examples=200, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=0.5))
def test_small_r_quadratic_bound(r):
    for kappa in (0.5, 1.0, 2.0):
        rr = r / math.sqrt(kappa)
        assert t_kappa(kappa, rr) <= 1.0 + 2.0 * kappa * rr**2 + 1e-9


def test_taylor_switch_is_seamless():
    # values straddling the small-argument switch agree to high accuracy
    for kappa in (0.5, 1.0, 2.0):
        for r in (9e-5, 1.1e-4):
            w = math.sqrt(kappa) * r
            direct = max(
                1.0 + 4.0 * (w / math.tanh(w) - 1.0),
                (math.sinh(2.0 * w) / (2.0 * w)) ** 2,
            )
            assert abs(t_kappa(kappa, r) - direct) < 1e-12
