import io
import json
import math

import numpy as np
import pytest

from ragd.errors import DomainError
from ragd.trace import TRACE_COLUMNS, ConvergenceTrace, estimate_rate

tol = 1e-12


def make_trace(n=6):
    rows = np.zeros((n, 9))
    rows[:, 0] = np.arange(n)
    rows[:, 1] = np.exp(-0.5 * np.arange(n))
    rows[:, 2] = 0.3
    rows[:, 3] = 1.0
    meta = {"version": "0.1.0", "solver": "euclid_nesterov",
            "config_hash": "abc123", "seed": 7}
    return ConvergenceTrace(rows=rows, meta=meta)


def test_column_names():
    assert TRACE_COLUMNS == (
        "t", "f_gap", "xi", "delta_rate", "d_xz", "d_yz", "d_yopt",
        "potential", "decrease_margin",
    )
    tr = make_trace()
    assert np.allclose(tr.column("f_gap"), tr.rows[:, 1])
    with pytest.raises(DomainError):
        tr.column("nope")


def test_csv_format():
    tr = make_trace()
    buf = io.StringIO()
    tr.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# ragd-trace v")
    assert "# solver=euclid_nesterov" in lines
    assert "# config_hash=abc123" in lines
    assert "# seed=7" in lines
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "t,f_gap,xi,delta_rate,d_xz,d_yz,d_yopt,potential,decrease_margin"
    first = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0


def test_csv_rows_match_per_cell_formatting_byte_for_byte():
    rng = np.random.default_rng(3)
    tr = make_trace(500)
    tr.rows[:, 1:] = rng.normal(size=(500, 8)) * 10.0 ** rng.integers(-300, 300, (500, 8))
    tr.rows[7, 4] = math.nan
    tr.rows[9, 2] = -0.0
    tr.rows[11, 5] = math.inf
    tr.rows[-1, -1] = math.nan
    buf = io.StringIO()
    tr.write_csv(buf)
    want = "".join(line + "\n" for line in tr._header_lines())
    want += ",".join(TRACE_COLUMNS) + "\n"
    for row in tr.rows:
        cells = [str(int(row[0]))] + [repr(float(v)) for v in row[1:]]
        want += ",".join(cells) + "\n"
    assert buf.getvalue() == want
    assert ",-0.0," in want and ",nan," in want


def test_json_mirrors_columns():
    tr = make_trace()
    tr.rows[-1, 8] = math.nan
    tr.rows[0, 7] = -math.inf
    tr.meta["xi0"] = math.nan
    buf = io.StringIO()
    tr.write_json(buf)
    # RFC 8259 JSON: each non-finite number is written as null
    doc = json.loads(buf.getvalue(), parse_constant=lambda token: pytest.fail(token))
    assert doc["columns"] == list(TRACE_COLUMNS)
    assert doc["meta"]["solver"] == "euclid_nesterov"
    assert doc["meta"]["xi0"] is None
    assert len(doc["rows"]) == tr.rows.shape[0]
    assert doc["rows"][-1][8] is None and doc["rows"][0][7] is None
    assert doc["rows"][1] == tr.rows[1].tolist()


def test_estimate_rate_exact_line():
    gaps = np.exp(-0.2 * np.arange(100))
    est = estimate_rate(gaps)
    assert abs(est.slope + 0.2) < tol
    assert abs(est.rate - math.exp(-0.1)) < tol


def test_estimate_rate_ignores_floor_rows():
    # decay for 60 rows, then a flat float-noise floor
    gaps = np.concatenate([
        np.exp(-0.5 * np.arange(60)),
        np.full(60, 1e-18),
    ])
    est = estimate_rate(gaps)
    assert abs(est.slope + 0.5) < 1e-6
    assert est.n_used <= 31


def test_estimate_rate_uses_trailing_half():
    # slope changes midway; the fit must reflect the later regime
    gaps = np.concatenate([
        np.exp(-0.05 * np.arange(50)),
        np.exp(-0.05 * 49 - 0.3 * np.arange(1, 51)),
    ])
    est = estimate_rate(gaps)
    assert abs(est.slope + 0.3) < 1e-2


def test_estimate_rate_degenerate_inputs():
    # A run of one step leaves one row to fit: no estimate, and no error.
    est = estimate_rate([1.0, 0.5])
    assert math.isnan(est.slope) and math.isnan(est.rate)
    with pytest.raises(DomainError):
        estimate_rate([[1.0, 0.5]])
    est = estimate_rate([0.0, 0.0, 0.0, 0.0])
    assert math.isnan(est.slope)
