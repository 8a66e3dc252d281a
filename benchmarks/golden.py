"""Golden traces: the byte-identity gate for refactors that claim no
behaviour change.

Five pinned configurations are run through the same public calls as a
benchmark job and their CSV traces compared with the files stored next to
this module.  A trace that differs byte for byte but whose every cell agrees
to GOLDEN_RTOL of its column's largest magnitude still passes; the run then
reports ``golden_identical`` false, which a change that alters float
rounding must disclose.  Anything further off fails.

Regenerate the stored files (only for a change that means to alter the
traces) with::

    python3 benchmarks/golden.py --write
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-12

GOLDEN_CONFIGS = {
    "flat_euclid_nesterov": (
        {"kind": "quadratic", "dim": 12, "mu": 1.0, "L": 50.0, "seed": 7},
        {"mode": "euclid_nesterov", "max_iters": 120},
    ),
    "flat_ragd_constant_delta": (
        {"kind": "quadratic", "dim": 12, "mu": 1.0, "L": 50.0, "seed": 7},
        {"mode": "ragd_constant_delta", "delta_const": 1.05, "max_iters": 120},
    ),
    "hyperbolic_ragd": (
        {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 5},
         "n_anchors": 6, "radius": 2.0, "seed": 11},
        {"mode": "ragd", "max_iters": 40},
    ),
    "spd_ragd": (
        {"kind": "karcher", "manifold": {"kind": "spd", "n": 3},
         "n_anchors": 5, "radius": 1.5, "seed": 13},
        {"mode": "ragd", "max_iters": 30},
    ),
    "sphere_mean_ragd": (
        {"kind": "sphere_mean", "manifold": {"kind": "sphere", "dim": 4},
         "n_anchors": 6, "radius": 0.3, "seed": 17},
        {"mode": "ragd", "max_iters": 40},
    ),
}


def golden_csv(name: str) -> str:
    """The CSV trace of one pinned configuration, as the library writes it."""
    from ragd import problems, solvers

    problem_desc, solver = GOLDEN_CONFIGS[name]
    problem = problems.problem_from_dict(problem_desc)
    if problem.optimum is None:
        problems.oracle_optimum(problem)
    trace = solvers.run(problem, solvers.SolverConfig(mu=problem.mu, L=problem.L, **solver))
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


def _rows(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def compare(got: str, want: str) -> tuple[bool, str | None]:
    """(byte_identical, failure reason or None) for one golden trace."""
    if got == want:
        return True, None
    a, b = _rows(got), _rows(want)
    if a.shape != b.shape:
        return False, f"trace shape {a.shape} differs from golden {b.shape}"
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return False, "NaN cells differ from golden"
    scale = np.nanmax(np.abs(b), axis=0)
    diff = np.nan_to_num(np.abs(a - b))
    bad = diff > GOLDEN_RTOL * scale
    if bad.any():
        r, c = np.argwhere(bad)[0]
        return False, (
            f"row {r} column {c}: {a[r, c]!r} vs golden {b[r, c]!r} "
            f"(beyond {GOLDEN_RTOL:g} of the column scale)"
        )
    return False, None


def check_all() -> dict[str, tuple[bool, str | None]]:
    """Run every pinned configuration and compare it with its stored trace."""
    out = {}
    for name in GOLDEN_CONFIGS:
        try:
            got = golden_csv(name)
            want = (GOLDEN_DIR / f"{name}.csv").read_text()
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            out[name] = (False, f"{type(exc).__name__}: {exc}")
            continue
        out[name] = compare(got, want)
    return out


def _write_all() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_CONFIGS:
        text = golden_csv(name)
        (GOLDEN_DIR / f"{name}.csv").write_text(text)
        print(f"wrote {name}.csv ({len(text)} bytes)")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 benchmarks/golden.py --write")
    _write_all()
