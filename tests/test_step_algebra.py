"""Symbolic proof of the step algebra behind the potential's decrease.

Each step's potential change is bounded by a six-coefficient quadratic form
(``ragd.xi._form_coefficients``).  These tests pass sympy symbols through
the library's own arithmetic, the functions the solver evaluates on floats,
and prove that with the scheme's ``(alpha, beta, eta)`` and the momentum
recursion, c2..c6 vanish identically and c1 <= 0, for every mu, Delta and
distortion rate; that the recursion's fixed point is the root that
``ragd.xi.fixed_point_xi`` takes, with its limits at delta = 1 and
delta -> inf; and that the derivative of the update map at delta = 1 obeys
the bound behind ``ragd.xi.contraction_factor``.
"""

import math

import sympy as sp

from ragd.xi import (
    _C_THETA, XiParams, _form_coefficients, _recursion_defect, fixed_point_xi, step_gain,
)

MU, DELTA_GAMMA, RATE, XI_T, XI_N = sp.symbols("mu Delta delta xi_t xi_n", positive=True)
# the gain a = 2 mu Delta of ragd.xi.step_gain, checked below
A = 2 * MU * DELTA_GAMMA


def _exact(expr):
    """``expr`` with its float literals (2.0, 0.5, ...) as the exact rationals
    they hold."""
    return sp.nsimplify(expr, rational=True)


def _form():
    """c1..c6 as the library writes them, with xi_t free."""
    return [_exact(c) for c in _form_coefficients(XI_T, XI_N, RATE, MU, DELTA_GAMMA)]


def _on_the_recursion():
    """c1..c6 with xi_t**2 eliminated through the recursion equation."""
    square = sp.Symbol("s")
    defect = _exact(_recursion_defect(XI_N, XI_T, A, RATE)).subs(XI_T**2, square)
    (xi_t_squared,) = sp.solve(defect, square)
    return [sp.simplify(c.subs(XI_T**2, xi_t_squared)) for c in _form()]


def test_the_gain_is_twice_mu_times_the_decrease():
    mu, big, gamma = sp.symbols("mu L gamma", positive=True)
    delta_gamma, a = step_gain(mu, big, gamma)
    assert sp.simplify(_exact(a - 2 * mu * delta_gamma)) == 0


def test_gradient_coefficients_vanish_for_every_momentum():
    c = _form()
    assert [sp.simplify(c[k]) for k in (2, 4, 5)] == [0, 0, 0]


def test_on_the_recursion_only_a_nonpositive_c1_remains():
    c1, *rest = _on_the_recursion()
    assert rest == [0, 0, 0, 0, 0]
    closed = -MU * (1 - A) * (XI_N - A) / (2 * (1 - XI_N) ** 2)
    assert sp.simplify(c1 - closed) == 0
    # on a <= xi_n < 1: xi_n = 1 - v and a = 1 - v - u with u >= 0, v > 0
    u = sp.Symbol("u", nonnegative=True)
    v = sp.Symbol("v", positive=True)
    on_domain = sp.factor(closed.subs({XI_N: 1 - v, DELTA_GAMMA: (1 - u - v) / (2 * MU)}))
    assert on_domain.is_nonpositive is True


def test_the_recursion_fixed_point_and_its_limits():
    # At xi_t = xi_next = xi the defect times delta (1 - xi) is
    # xi (xi**2 + (delta - 1) xi - delta a): a positive fixed point solves
    # the quadratic of ragd.xi.fixed_point_xi.
    xi, a, delta = sp.symbols("xi a delta", positive=True)
    quadratic = xi**2 + (delta - 1) * xi - delta * a
    defect = _exact(_recursion_defect(xi, xi, a, delta))
    assert sp.simplify(defect * delta * (1 - xi) - xi * quadratic) == 0
    root = ((1 - delta) + sp.sqrt((delta - 1) ** 2 + 4 * delta * a)) / 2
    assert sp.simplify(quadratic.subs(xi, root)) == 0
    assert sp.simplify(defect.subs(xi, root)) == 0
    assert sp.simplify(root.subs(delta, 1) - sp.sqrt(a)) == 0
    assert sp.limit(root, delta, sp.oo) == a


def test_fixed_point_at_delta_one_is_the_square_root_exactly():
    # 0.5 * sqrt(4 a): 4 a and the halving are exact, and sqrt is
    # correctly rounded, so the result is sqrt(a) to the bit.
    grid = [k / 1000 for k in range(1000)] + [1 / 3, 1.0 - 2.0**-53]
    for a in grid + [5e-324, 1e-300, 1e-17, 1e-3]:
        assert fixed_point_xi(XiParams(a, 1.0)) == math.sqrt(a)


def test_the_update_map_at_delta_one_has_a_derivative_below_one_minus_c_v():
    # theta(v, a) = d xi_next / d xi_t at delta = 1, from the implicit
    # function theorem on the library's recursion defect at its root
    v, a, x, q = sp.symbols("v a x q", real=True)
    defect = _exact(_recursion_defect(x, v, a, 1.0))
    s = sp.sqrt((v**2 - a) ** 2 + 4 * v**2)
    root = (s - (v**2 - a)) / 2
    assert sp.simplify(defect.subs(x, root)) == 0
    theta = (-sp.diff(defect, v) / sp.diff(defect, x)).subs(x, root)
    closed = v * (v**2 - a + 2) / s - v
    assert sp.simplify(theta - closed) == 0
    # On 0 < v < 1, 0 <= a < 1 both v**2 - a + 2 and s are positive, so
    # theta >= 0 iff (v**2 - a + 2)**2 >= s**2, which reduces to 1 - a >= 0.
    assert sp.expand((v**2 - a + 2) ** 2 - s**2) == 4 * (1 - a)
    # theta < 1 - C v iff v (q + 2) < (1 + (1 - C) v) s, with q = v**2 - a;
    # for C < 1 the right side is positive, so squaring keeps the order:
    # (1 + (1 - C) v)**2 (q**2 + 4 v**2) - v**2 (q + 2)**2 > 0, a quadratic in q.
    c = sp.Rational(_C_THETA)  # the float the library holds, exactly
    assert 0 < c < 1
    gap = sp.Poly((1 + (1 - c) * v) ** 2 * (q**2 + 4 * v**2) - v**2 * (q + 2) ** 2, q)
    lead, mid, low = gap.all_coeffs()
    # a positive leading coefficient on 0 < v < 1 ...
    assert sp.expand(lead - (1 - c * v) * (1 + (2 - c) * v)) == 0
    # ... and a discriminant 16 v**3 times a cubic that keeps its negative
    # sign at v = 0 on all of [0, 1]: the quadratic has no real root in q.
    cubic = sp.Poly(sp.cancel((mid**2 - 4 * lead * low) / (16 * v**3)), v)
    assert cubic.degree() == 3
    assert cubic.eval(0) < 0 and cubic.count_roots(0, 1) == 0
