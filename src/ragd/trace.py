"""Convergence traces: in-memory container, CSV/JSON export, rate fits.

The CSV layout is part of the benchmark contract: two leading comment
lines identify the format version and the configuration hash, and the
header row is exactly

    t,f_gap,xi,delta_rate,d_xz,d_yz,d_yopt,potential,decrease_margin

Floats are written with ``repr``, which round-trips exactly, so a given
(config, seed) pair produces byte-identical files.  The JSON export is
RFC 8259 JSON: a NaN or infinite number, such as the last row's
``decrease_margin``, is written as ``null``.  A run made with
``record_diagnostics`` also keeps one list of its T+1 ``(x_t, y_t, z_t)``
rows, which the step audits and the shrink bounds read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import DomainError
from .geometry import ManifoldPoint

__all__ = [
    "TRACE_COLUMNS",
    "ConvergenceTrace",
    "RateEstimate",
    "estimate_rate",
    "NOISE_FLOOR",
]

TRACE_COLUMNS = (
    "t",
    "f_gap",
    "xi",
    "delta_rate",
    "d_xz",
    "d_yz",
    "d_yopt",
    "potential",
    "decrease_margin",
)

NOISE_FLOOR = 100.0 * np.finfo(float).eps
"""Float-noise floor relative to a run's first value: gaps below it are left
out of rate fits, and rate-envelope rows below it are not compared."""


def _strict_json(obj, indent: int) -> str:
    """``obj`` as RFC 8259 JSON with sorted keys: every NaN or infinite
    float, also inside dicts and lists, is written as ``null``."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        return [finite(x) for x in v] if isinstance(v, (list, tuple)) else v
    return json.dumps(finite(obj), indent=indent, sort_keys=True, allow_nan=False)


@dataclass
class ConvergenceTrace:
    """One solver run: a (T+1, 9) array of rows plus metadata, and the
    ``(x_t, y_t, z_t)`` row of every iterate when the run kept them."""

    rows: np.ndarray
    meta: dict
    diagnostics: list[tuple[ManifoldPoint, ManifoldPoint, ManifoldPoint]] | None = None

    @property
    def n_iters(self) -> int:
        return self.rows.shape[0] - 1

    def column(self, name: str) -> np.ndarray:
        try:
            idx = TRACE_COLUMNS.index(name)
        except ValueError as exc:
            raise DomainError(f"unknown trace column {name!r}") from exc
        return self.rows[:, idx]

    # ----- export -------------------------------------------------------

    def _header_lines(self) -> list[str]:
        version = self.meta.get("version", "0")
        lines = [f"# ragd-trace v{version}"]
        for key in ("solver", "config_hash", "seed"):
            if key in self.meta and self.meta[key] is not None:
                lines.append(f"# {key}={self.meta[key]}")
        return lines

    def write_csv(self, fh: IO[str]) -> None:
        lines = self._header_lines()
        lines.append(",".join(TRACE_COLUMNS))
        for t, *cells in self.rows.tolist():
            lines.append(",".join([str(int(t)), *map(repr, cells)]))
        fh.write("\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        meta = {
            k: v
            for k, v in self.meta.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        }
        return {
            "meta": meta,
            "columns": list(TRACE_COLUMNS),
            "rows": [[float(v) for v in row] for row in self.rows],
        }

    def write_json(self, fh: IO[str]) -> None:
        fh.write(_strict_json(self.to_json_dict(), indent=1) + "\n")


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares fit of the convergence rate from a gap column.

    ``slope`` is the per-iteration slope of ``log f_gap``.  Because the
    gap is quadratic in the distance to the optimum, the error norm
    contracts by ``exp(slope / 2)`` per iteration; ``rate`` reports that
    error-contraction factor.  The theory's ``1 - xi`` bounds the
    potential, which is quadratic in the error, so it bounds the gap
    contraction ``exp(slope) = rate**2``; ``rate`` itself compares with
    ``1 - sqrt(mu/L)``.
    """

    slope: float
    rate: float
    n_used: int


def estimate_rate(gaps: Sequence[float]) -> RateEstimate:
    """Fit a linear rate to the trailing half of a gap sequence.

    Rows at or below ``100 * eps * initial_gap`` (float-noise floor) and
    non-positive rows are discarded first; the fit then uses the trailing
    half of the surviving rows, so fast runs that bottom out early are
    still fitted on their pre-floor decay.  Fewer than two rows to fit, as
    in a run of one step, give a NaN estimate.
    """
    g = np.asarray(gaps, dtype=float)
    if g.ndim != 1:
        raise DomainError("need a 1-d gap sequence")
    finite = g[np.isfinite(g) & (g > 0.0)]
    if finite.size == 0:
        return RateEstimate(math.nan, math.nan, 0)
    floor = NOISE_FLOOR * finite[0]
    idx = np.arange(g.size)
    valid = idx[np.isfinite(g) & (g > floor)]
    used = valid[valid.size // 2:]
    if used.size < 2:
        return RateEstimate(math.nan, math.nan, int(used.size))
    t = used.astype(float)
    logs = np.log(g[used])
    slope = float(np.polyfit(t, logs, 1)[0])
    return RateEstimate(slope, math.exp(0.5 * slope), int(used.size))
