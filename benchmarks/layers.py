"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions of each ``ragd`` layer in
place (class methods and module attributes, the names the library looks up
at call time) and ``Tracer.uninstall`` puts the originals back, so an
untraced job runs the unmodified code.  Every wrapped call is a span.  A
span's self time is its duration minus the time of the spans it caused;
spans are aggregated per name as they close (calls, total and self
seconds), which keeps memory flat however many iterations a run makes.

Layers and the spans recorded for them:

- geometry: ``ManifoldPoint``/``TangentVector`` construction (one span,
  ``geometry.containers``), ``exp``, ``log``, ``distance``,
  ``projected_distance``, ``inner`` (``norm`` goes through it) and
  ``check_point`` of every manifold, and ``np.linalg.eigh``/``eigvalsh``
  when called inside a geometry span (``geometry.eigh``);
- problems: ``Problem.value``, ``Problem.grad``, and the job steps
  ``problem_from_dict`` (``problems.build``) and ``oracle_optimum``
  (``problems.oracle``);
- distortion: the rate selectors the solver calls (``distortion.rate``) and
  ``t_kappa_hat``;
- xi: ``next_xi``;
- solvers, potential, trace: the job steps ``solvers.run``,
  ``certify_trace`` and ``write_csv``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ragd import distortion, solvers
from ragd.geometry import SPD, Euclidean, Hyperbolic, Manifold, ManifoldPoint, Sphere, TangentVector
from ragd.problems import Problem

__all__ = ["SpanStats", "Tracer"]

_MANIFOLDS = (Euclidean, Hyperbolic, Sphere, SPD)
_GEOMETRY_METHODS = ("exp", "log", "distance", "inner", "check_point")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span recorder for one process; install around traced jobs only."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        # Calls of each span name made inside each outermost (job step) span.
        self.calls_within: dict[tuple[str, str], int] = {}
        self._child_time: list[float] = []  # one accumulator per open span
        self._outer = ""
        self._geometry_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # ----- spans ---------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._child_time
        if stack:
            key = (self._outer, name)
            self.calls_within[key] = self.calls_within.get(key, 0) + 1
        else:
            self._outer = name
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.calls += 1
            st.total_s += dt
            st.self_s += dt - child

    def _span(self, name: str, fn: Callable, geometry: bool = False) -> Callable:
        call = self.call
        if not geometry:
            def wrapped(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
            return wrapped

        def wrapped_geometry(*args, **kwargs):
            self._geometry_depth += 1
            try:
                return call(name, fn, *args, **kwargs)
            finally:
                self._geometry_depth -= 1
        return wrapped_geometry

    def _eigh_span(self, fn: Callable) -> Callable:
        call = self.call

        def wrapped(*args, **kwargs):
            if self._geometry_depth:
                return call("geometry.eigh", fn, *args, **kwargs)
            return fn(*args, **kwargs)
        return wrapped

    # ----- patching ------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for cls in (ManifoldPoint, TangentVector):
            self._patch(cls, "__init__", self._span("geometry.containers", cls.__init__))
        for cls in _MANIFOLDS:
            for meth in _GEOMETRY_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._span(f"geometry.{meth}", getattr(cls, meth), True))
        self._patch(Manifold, "projected_distance",
                    self._span("geometry.projected_distance", Manifold.projected_distance, True))
        self._patch(np.linalg, "eigh", self._eigh_span(np.linalg.eigh))
        self._patch(np.linalg, "eigvalsh", self._eigh_span(np.linalg.eigvalsh))
        self._patch(Problem, "value", self._span("problems.value", Problem.value))
        self._patch(Problem, "grad", self._span("problems.grad", Problem.grad))
        for fn in ("valid_rate_hadamard", "valid_rate_nonhadamard"):
            self._patch(solvers, fn, self._span("distortion.rate", getattr(solvers, fn)))
        self._patch(distortion, "t_kappa_hat",
                    self._span("distortion.t_kappa_hat", distortion.t_kappa_hat))
        self._patch(solvers, "next_xi", self._span("xi.next_xi", solvers.next_xi))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
