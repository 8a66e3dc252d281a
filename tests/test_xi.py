import math

import numpy as np
import pytest

from ragd.errors import DomainError
from ragd.xi import (
    XiParams,
    contraction_factor,
    fixed_point_xi,
    iterate_xi,
    next_xi,
    settle_steps,
    step_gain,
    xi_residual,
)

tol = 1e-12


def test_params_domain():
    XiParams(a=0.0, delta=1.0)
    XiParams(a=0.5, delta=math.inf)
    with pytest.raises(DomainError):
        XiParams(a=1.0, delta=1.0)
    with pytest.raises(DomainError):
        XiParams(a=-0.1, delta=1.0)
    with pytest.raises(DomainError):
        XiParams(a=0.5, delta=0.9)


def test_recursion_residual_is_tiny():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(0.0, 0.9))
        delta = float(rng.uniform(1.0, 30.0))
        xi = float(rng.uniform(max(a, 1e-4) + 1e-9, 0.999))
        params = XiParams(a=a, delta=delta)
        nxt = next_xi(xi, params)
        assert abs(xi_residual(nxt, xi, params)) < 1e-10
        assert a <= nxt < 1.0


def test_fixed_point_curved_value():
    # closed form at delta=2, a=0.25 reduces to (sqrt(3) - 1) / 2
    got = fixed_point_xi(XiParams(a=0.25, delta=2.0))
    assert abs(got - 0.366025) < 1e-6
    assert abs(got - (math.sqrt(3.0) - 1.0) / 2.0) < tol


def test_fixed_point_limits():
    assert fixed_point_xi(XiParams(a=0.25, delta=math.inf)) == pytest.approx(0.25, abs=tol)
    grid = np.linspace(1.0, 50.0, 300)
    for a in (0.04, 0.25, 0.49):
        vals = [fixed_point_xi(XiParams(a=a, delta=float(d))) for d in grid]
        assert all(x >= y - 1e-14 for x, y in zip(vals, vals[1:]))
        assert all(v > a for v in vals)


def test_fixed_point_solves_recursion():
    for a in (0.01, 0.2, 0.6):
        for delta in (1.0, 1.3, 5.0, 40.0):
            params = XiParams(a=a, delta=delta)
            star = fixed_point_xi(params)
            assert abs(next_xi(star, params) - star) < 1e-12


def test_contraction_envelope():
    # The envelope itself is the ``xi`` suite's contraction-envelope check,
    # run at seeds 0-2 by tests/test_verify.py (seed 2 in its seed-dependence
    # test), at seeds 0-2 by CI through the CLI, and at seed 3 by criterion 03;
    # here the factor it contracts by lies in (0, 1).
    rng = np.random.default_rng(1)
    for _ in range(100):
        params = XiParams(a=float(rng.uniform(0.0, 0.95)), delta=float(rng.uniform(1.0, 50.0)))
        assert 0.0 < contraction_factor(params) < 1.0


def test_contraction_factor_flat_form():
    # at delta=1 the factor reduces to 1 - (4 / (5 + sqrt(5))) * a
    a = 0.3
    lam = contraction_factor(XiParams(a=a, delta=1.0))
    assert abs(lam - (1.0 - 4.0 / (5.0 + math.sqrt(5.0)) * a)) < tol


# Reference closed forms, each with its own quadratic formula (next_xi's
# without its clamp and residual check).
def _reference_next_xi(xi_t, a, delta):
    rhs = 0.0 if math.isinf(delta) else xi_t * xi_t / delta
    b = rhs - a
    disc = math.sqrt(b * b + 4.0 * rhs)
    if b > 0.0:
        return 2.0 * rhs / (disc + b)
    return 0.5 * (disc - b)


def _reference_fixed_point(a, d):
    if math.isinf(d):
        return a
    if d == 1.0:
        return math.sqrt(a)
    b = d - 1.0
    disc = math.sqrt(b * b + 4.0 * d * a)
    return 2.0 * d * a / (disc + b)


def test_root_maps_equal_reference_closed_forms_bit_for_bit():
    rng = np.random.default_rng(11)
    a_grid = [0.0, 1e-300, 1e-12, 1e-6, *rng.uniform(0.0, 0.999, 12).tolist()]
    delta_grid = [1.0, math.nextafter(1.0, 2.0), 1.5, 30.0, 1e6, 1e12, math.inf,
                  *(10.0 ** rng.uniform(0.0, 8.0, 6)).tolist()]
    for a in a_grid:
        for delta in delta_grid:
            params = XiParams(a=a, delta=delta)
            assert fixed_point_xi(params) == _reference_fixed_point(a, delta)
            for xi_t in (a, *rng.uniform(max(a, 1e-9), 0.999999, 4).tolist()):
                want = min(max(_reference_next_xi(xi_t, a, delta), a), math.nextafter(1.0, 0.0))
                assert next_xi(xi_t, params) == want


def test_settle_steps_is_the_envelope_count():
    params = XiParams(a=0.2, delta=3.0)
    lam = contraction_factor(params)
    n = settle_steps(0.5, 1e-3, params)
    assert n == math.log(1e-3 / 0.5) / math.log(lam)
    assert 0.5 * lam ** math.ceil(n) <= 1e-3 < 0.5 * lam ** (math.ceil(n) - 1)
    assert settle_steps(1e-3, 1e-3, params) == 0.0
    assert settle_steps(0.5, 1e-3, XiParams(a=0.2, delta=math.inf)) == 1.0
    with pytest.raises(DomainError):
        settle_steps(0.5, 1e-3, XiParams(a=0.0, delta=1.0))


def test_step_gain():
    delta_gamma, a = step_gain(2.0, 5.0, 1.05 / 5.0)
    assert delta_gamma == (1.05 / 5.0) * (1.0 - 5.0 * (1.05 / 5.0) / 2.0)
    assert a == 2.0 * 2.0 * delta_gamma
    assert step_gain(0.0, 4.0, 0.25) == (0.125, 0.0)


def test_iterate_includes_start():
    xs = iterate_xi(0.7, XiParams(a=0.25, delta=1.0), 5)
    assert len(xs) == 6
    assert xs[0] == 0.7
