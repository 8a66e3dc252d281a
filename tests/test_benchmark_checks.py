"""The benchmark's own output checks, without running a workload.

``benchmarks/workloads.check_trace`` decides whether a job's trace counts
as correct, and ``benchmarks/golden.compare`` whether a golden trace is
byte-identical, within rounding of its stored file, or wrong.  Both are
imported from ``benchmarks/`` as the benchmark imports them.
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import golden  # noqa: E402
import workloads  # noqa: E402
from ragd.problems import problem_from_dict  # noqa: E402
from ragd.trace import TRACE_COLUMNS  # noqa: E402

CSV_BYTES = 10_000


def _good_rows():
    rows = np.ones((5, len(TRACE_COLUMNS)))
    rows[:, 1] = [1.0, 1e-3, 1e-6, 1e-9, 1e-11]
    rows[-1, -1] = math.nan
    return rows


def test_check_trace_passes_a_good_trace():
    assert workloads.check_trace(_good_rows(), CSV_BYTES) is None


def _spoiled(kind):
    rows = _good_rows()
    if kind == "non-finite cell":
        rows[2, 4] = math.inf
    elif kind == "missed accuracy":
        rows[-1, 1] = 1e-6
    elif kind == "wrong shape":
        rows = rows[:, :-1]
    elif kind == "one row":
        rows = rows[-1:]
    elif kind == "finite last margin":
        rows[-1, -1] = 0.0
    return rows


@pytest.mark.parametrize(("kind", "csv_bytes", "reason"), [
    ("non-finite cell", CSV_BYTES, "non-finite d_xz at row 2"),
    ("missed accuracy", CSV_BYTES, "final gap .* misses"),
    ("truncated CSV", 10, "CSV holds only 10 bytes for 5 rows"),
    ("wrong shape", CSV_BYTES, r"trace has shape \(5, 8\)"),
    ("one row", CSV_BYTES, r"trace has shape \(1, 9\)"),
    ("finite last margin", CSV_BYTES, "last decrease_margin should be NaN"),
])
def test_check_trace_rejects_a_broken_trace(kind, csv_bytes, reason):
    why = workloads.check_trace(_spoiled(kind), csv_bytes)
    assert why is not None and re.search(reason, why), why


# ----- golden comparison ---------------------------------------------------------


def _golden_text():
    return (golden.GOLDEN_DIR / "flat_euclid_nesterov.csv").read_text()


def _edit(text, row, col, cell):
    """``text`` with the cell at data row ``row``, column ``col`` replaced."""
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[col] = cell
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _nudged(text, rel):
    """``text`` with the largest-magnitude cell of the ``f_gap`` column moved
    by ``rel`` of itself, so by ``rel`` of the column scale."""
    rows = golden._rows(text)
    r = int(np.argmax(np.abs(rows[:, 1])))
    return _edit(text, r, 1, repr(float(rows[r, 1]) * (1.0 + rel)))


def test_golden_compare_identical_text():
    text = _golden_text()
    assert golden.compare(text, text) == (True, None)


def test_golden_compare_passes_a_rounding_level_nudge():
    text = _golden_text()
    moved = _nudged(text, 1e-14)
    assert moved != text
    assert golden.compare(moved, text) == (False, None)


def test_golden_compare_fails_a_nudge_beyond_its_tolerance():
    text = _golden_text()
    same, why = golden.compare(_nudged(text, 10 * golden.GOLDEN_RTOL), text)
    assert not same
    assert "column 1:" in why and "column scale" in why


def test_golden_compare_fails_a_changed_row_count():
    text = _golden_text()
    shorter = "\n".join(text.splitlines()[:-1]) + "\n"
    same, why = golden.compare(shorter, text)
    assert not same
    assert why.startswith("trace shape")


def test_golden_compare_fails_a_moved_nan():
    text = _golden_text()
    rows = golden._rows(text)
    last = len(rows) - 1
    assert math.isnan(rows[last, -1])
    moved = _edit(_edit(text, last, -1, "0.0"), last - 1, -1, "nan")
    same, why = golden.compare(moved, text)
    assert not same
    assert why == "NaN cells differ from golden"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_job_of_a_cycle_builds(workload):
    # A problem description may hold only its kind's keys; every job the
    # benchmark draws must build as it stands.
    for job in workloads.make_cycles(workload, seed=1, n_cycles=1)[0]:
        problem_from_dict(job.problem)
