"""The README's examples run as written."""

import json
import re
from pathlib import Path

import ragd.cli as cli
from ragd.problems import problem_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang):
    """The README's only fenced code block in ``lang``."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_use_example_runs():
    exec(compile(_block("python"), str(README), "exec"), {})


def test_run_config_example_writes_one_trace_per_solver(tmp_path):
    config = json.loads(_block("json"))
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "traces"
    rc = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 0
    name = problem_from_dict(config["problem"]).name
    for entry in config["solvers"]:
        assert (out / f"{name}_{entry['mode']}.csv").is_file()
