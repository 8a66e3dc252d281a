"""The pinned golden traces under benchmarks/ reproduce without failure."""

import importlib.util
from pathlib import Path

_GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.py"


def _load_golden():
    spec = importlib.util.spec_from_file_location("ragd_bench_golden", _GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_traces_match():
    golden = _load_golden()
    results = golden.check_all()
    assert len(results) == 5
    failures = {name: why for name, (_, why) in results.items() if why is not None}
    assert not failures
