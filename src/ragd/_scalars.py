"""Stable scalar ratios shared by the distortion and geometry modules, and
the libm squares of the potential.

Each ratio is continuously extended through its removable singularity; the
series branch takes over below a cut where both branches agree to 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sinch", "coth_ratio", "tan_ratio", "sin_ratio", "acosh_ratio", "acos_ratio",
           "libm_squares"]

_TAYLOR_CUT = 1e-4
_SERIES_CUT = 1e-6


def sinch(w: float) -> float:
    """sinh(w) / w."""
    if w < _TAYLOR_CUT:
        w2 = w * w
        return 1.0 + w2 / 6.0 + w2 * w2 / 120.0
    return math.sinh(w) / w


def coth_ratio(w: float) -> float:
    """w / tanh(w)."""
    if w < _TAYLOR_CUT:
        w2 = w * w
        return 1.0 + w2 / 3.0 - w2 * w2 / 45.0
    return w / math.tanh(w)


def tan_ratio(w: float) -> float:
    """w / tan(w) for ``0 <= w < pi/2``."""
    if w < _TAYLOR_CUT:
        w2 = w * w
        return 1.0 - w2 / 3.0 - w2 * w2 / 45.0
    return w / math.tan(w)


def sin_ratio(w: float) -> float:
    """sin(w) / w."""
    if abs(w) < _TAYLOR_CUT:
        w2 = w * w
        return 1.0 - w2 / 6.0 + w2 * w2 / 120.0
    return math.sin(w) / w


def acosh_ratio(cm1: float) -> float:
    """arccosh(1 + e) / sqrt(e (e + 2)) as a function of ``e = c - 1 >= 0``.

    This is the scaling factor that turns the chordal direction on the
    hyperboloid into the geodesic logarithm; it tends to 1 as ``e -> 0``.
    """
    if cm1 < _SERIES_CUT:
        return 1.0 - cm1 / 3.0 + 2.0 * cm1 * cm1 / 15.0
    return math.acosh(1.0 + cm1) / math.sqrt(cm1 * (cm1 + 2.0))


def acos_ratio(omc: float) -> float:
    """arccos(1 - e) / sqrt(e (2 - e)) as a function of ``e = 1 - c >= 0``.

    Spherical counterpart of :func:`acosh_ratio` (equals ``theta / sin
    theta``); tends to 1 as ``e -> 0`` and diverges at the antipode.
    """
    if omc < _SERIES_CUT:
        return 1.0 + omc / 3.0 + 2.0 * omc * omc / 15.0
    return math.acos(1.0 - omc) / math.sqrt(omc * (2.0 - omc))


def libm_squares(values: np.ndarray) -> np.ndarray:
    """``v**2`` of every entry, squared as a Python float (libm pow), which
    rounds differently from NumPy's square (``v * v``) in about one case in
    a thousand; the potential's single-row formulas square this way."""
    return np.array([v**2 for v in values.tolist()])
