"""Fast self-test of the benchmark itself (not part of the test suite).

Run from the root of a checkout::

    python3 benchmarks/selftest.py

It checks that the output checks reject broken traces, that the golden
comparison tells identical, rounding-close and wrong traces apart, that one
cycle of every workload prints every metric listed in ``BENCHMARK.json``
with its unit in both trace modes, and that the benchmark fails without a
result when the library sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import golden  # noqa: E402
import workloads  # noqa: E402


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _good_rows() -> np.ndarray:
    rows = np.ones((5, 9))
    rows[:, 1] = [1.0, 1e-3, 1e-6, 1e-9, 1e-11]
    rows[-1, -1] = np.nan
    return rows


def check_output_checks() -> None:
    rows = _good_rows()
    _check(workloads.check_trace(rows, 10_000) is None, "a correct trace passes")
    bad = rows.copy()
    bad[2, 4] = np.inf
    _check(workloads.check_trace(bad, 10_000) is not None, "a non-finite cell fails")
    slow = rows.copy()
    slow[-1, 1] = 1e-6
    _check(workloads.check_trace(slow, 10_000) is not None, "a missed accuracy fails")
    _check(workloads.check_trace(rows, 10) is not None, "a truncated CSV fails")


def check_golden_compare() -> None:
    text = (golden.GOLDEN_DIR / "spd_ragd.csv").read_text()
    _check(golden.compare(text, text) == (True, None), "identical golden trace")
    header, body = text.split("t,f_gap", 1)
    lines = ("t,f_gap" + body).splitlines()
    cells = lines[3].split(",")

    def nudged(factor: float) -> str:
        moved = cells[:2] + [repr(float(cells[2]) * factor)] + cells[3:]
        return header + "\n".join(lines[:3] + [",".join(moved)] + lines[4:]) + "\n"

    same, why = golden.compare(nudged(1 + 1e-14), text)
    _check(not same and why is None, "rounding-level difference passes, not identical")
    same, why = golden.compare(nudged(1 + 1e-9), text)
    _check(not same and why is not None, "difference beyond 1e-12 fails")


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)], ROOT)
            _check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            _check(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace} result line is correct")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(got == want, f"{workload} trace={trace} reports every listed metric and unit")
            printed = {ln.split()[1]: ln for ln in lines if ln.startswith("metric ")}
            _check(all(f" {unit} (" in printed.get(name, "") for name, unit in want.items()),
                   f"{workload} trace={trace} prints each metric with unit and sample count")
            _check(any(ln.startswith("info golden_identical = true") for ln in lines),
                   f"{workload} trace={trace} golden traces byte-identical")


def check_missing_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = _run(["--workload", "flat-quadratic", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
        _check(proc.returncode != 0 and not proc.stdout.strip(),
               "without the library sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    check_output_checks()
    check_golden_compare()
    check_missing_sources()
    check_workloads()
    print("selftest passed")
