"""Command-line interface: subcommands, exit codes, files, determinism."""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ragd
import ragd.cli as cli
import ragd.sweep
from ragd.errors import InjectivityError, NonFiniteError
from ragd.geometry import Hyperbolic
from ragd.problems import oracle_optimum, random_karcher
from ragd.solvers import SolverConfig, run
from ragd.sweep import SWEEP_COLUMNS
from ragd.xi import XiParams, contraction_factor, fixed_point_xi, iterate_xi


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0, "seed": 3},
        "solvers": [{"mode": "euclid_nesterov"}, {"mode": "rgd"}],
        "seed": 3,
        "emit": "csv",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_xi_trace_stdout(capsys):
    rc = cli.main(
        ["xi-trace", "--a", "0.25", "--delta", "1.0", "--xi0", "0.9", "--steps", "3"]
    )
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,xi,residual,err_fixed_point,envelope"
    assert len(lines) == 5
    params = XiParams(a=0.25, delta=1.0)
    expect = iterate_xi(0.9, params, 3)
    star = fixed_point_xi(params)
    lam = contraction_factor(params)
    for t, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == t
        assert float(fields[1]) == expect[t]
        assert float(fields[3]) == abs(expect[t] - star)
        assert math.isclose(float(fields[4]), abs(0.9 - star) * lam**t, rel_tol=1e-12)
    assert float(lines[1].split(",")[2]) == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["xi-trace", "--a", "0.0", "--delta", "1.0", "--xi0", "0.9", "--steps", "3"],
        ["xi-trace", "--a", "0.25", "--delta", "0.5", "--xi0", "0.9", "--steps", "3"],
        ["xi-trace", "--a", "0.25", "--delta", "1.0", "--xi0", "1.5", "--steps", "3"],
        ["xi-trace", "--a", "0.25", "--delta", "1.0", "--xi0", "0.9", "--steps", "-1"],
    ],
)
def test_xi_trace_rejects_bad_parameters(argv, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG


def test_run_writes_traces_and_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "quadratic-d8_euclid_nesterov.csv").exists()
    assert (out / "quadratic-d8_rgd.csv").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# problem=quadratic-d8 seed=3 config_hash=")
    assert len(lines) == 4


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path, emit="both")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == cli.EXIT_OK
    for stem in ("quadratic-d8_euclid_nesterov", "quadratic-d8_rgd"):
        for ext in (".csv", ".json"):
            first = (out1 / (stem + ext)).read_bytes()
            second = (out2 / (stem + ext)).read_bytes()
            assert first == second


def test_run_emit_both_writes_json(tmp_path):
    cfg = _write_config(tmp_path, emit="both", solvers=[{"mode": "rgd"}])
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    payload = json.loads((out / "quadratic-d8_rgd.json").read_text())
    assert payload["meta"]["solver"] == "rgd"
    assert payload["meta"]["config_hash"]
    assert "f_gap" in payload["columns"]
    assert len(payload["rows"]) == payload["meta"]["max_iters"] + 1


def test_run_duplicate_modes_get_suffixed(tmp_path):
    cfg = _write_config(
        tmp_path, solvers=[{"mode": "rgd"}, {"mode": "rgd", "gamma": 0.02}]
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "quadratic-d8_rgd.csv").exists()
    assert (out / "quadratic-d8_rgd-2.csv").exists()


def test_run_seed_flag_fills_generator_seed(tmp_path):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0},
        solvers=[{"mode": "rgd"}],
        seed=None,
    )
    out5, out6 = tmp_path / "s5", tmp_path / "s6"
    assert cli.main(
        ["run", "--config", str(cfg), "--seed", "5", "--out", str(out5)]
    ) == cli.EXIT_OK
    assert cli.main(
        ["run", "--config", str(cfg), "--seed", "6", "--out", str(out6)]
    ) == cli.EXIT_OK
    a = (out5 / "quadratic-d8_rgd.csv").read_bytes()
    b = (out6 / "quadratic-d8_rgd.csv").read_bytes()
    assert a != b


def test_run_hyperbolic_karcher_at_high_curvature(tmp_path):
    # kappa 20 puts the anchors' coordinate mean above the hyperbolic
    # renormalization guard; the reference point must still be normalized
    # for the certified L and the oracle to be usable.  The adaptive "ragd"
    # mode is left out: from this far start its z step loses the point to
    # hyperboloid round-off and aborts with exit code 3.
    problem = {
        "kind": "karcher",
        "manifold": {"kind": "hyperbolic", "dim": 4, "kappa": 20.0},
        "n_anchors": 4,
        "radius": 3.0,
        "seed": 2,
    }
    solvers = [{"mode": "rgd"}, {"mode": "ragd_constant_delta", "delta_const": 1.0}]
    cfg = _write_config(tmp_path, problem=problem, solvers=solvers)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert len(list((tmp_path / "out").glob("*.csv"))) == 2


def test_run_missing_config_file_is_config_error(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.json")])
    assert rc == cli.EXIT_CONFIG


def test_run_unparseable_config_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG


_BAD_CONFIG_CONTENTS = [
    {"solvers": []},
    {"solvers": [{"mode": "warp"}]},
    {"solvers": [{"mode": "rgd", "bogus": 1}]},
    {"emit": "yaml"},
    {"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0}},
    {"problem": {"kind": "quadratic", "dim": [4], "mu": 1.0, "L": 20.0, "seed": 3}},
    {"solvers": [{"mode": "rgd", "max_iters": 20.5}]},
    {"solvers": [{"mode": "rgd", "max_iters": True}]},
    {"solvers": [{"mode": "ragd", "sharp_distortion": "no"}]},
    {"solvers": [{"mode": "rgd", "record_diagnostics": 1}]},
]


def _argv(command, cfg, out):
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "gamma", "--values", "1.05"]
    return argv


def _cli_errors(caplog):
    return [
        r for r in caplog.records if r.name == "ragd.cli" and r.levelno == logging.ERROR
    ]


@pytest.mark.parametrize(
    "command, overrides",
    [pytest.param("run", o, id=f"overrides{i}") for i, o in enumerate(_BAD_CONFIG_CONTENTS)]
    + [
        pytest.param("sweep", o, id=f"sweep-overrides{i}")
        for i, o in enumerate(_BAD_CONFIG_CONTENTS)
    ],
)
def test_run_bad_config_contents_are_config_errors(tmp_path, caplog, command, overrides):
    cfg = _write_config(tmp_path, seed=None, **overrides)
    out = tmp_path / "out"
    assert cli.main(_argv(command, cfg, out)) == cli.EXIT_CONFIG
    assert len(_cli_errors(caplog)) == 1
    assert not out.exists()


@pytest.mark.parametrize("where", ["nested", "absolute", "parent"])
def test_run_problem_name_cannot_leave_out(tmp_path, monkeypatch, caplog, where):
    escape = tmp_path.parent / f"{tmp_path.name}-escape"
    name = {
        "nested": "sub/dir",
        "absolute": str(escape),
        "parent": f"../../{escape.name}",
    }[where]
    problem = {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0, "seed": 3,
               "name": name}
    cfg = _write_config(tmp_path, problem=problem)
    calls = []
    monkeypatch.setattr(ragd.sweep, "run", lambda *a, **k: calls.append("run"))
    monkeypatch.setattr(cli, "oracle_optimum", lambda *a, **k: calls.append("oracle"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert calls == []
    assert len(_cli_errors(caplog)) == 1
    assert not out.exists()
    assert not list(tmp_path.parent.glob(f"{escape.name}*"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unusable_out_is_config_error_before_any_solve(
    tmp_path, monkeypatch, caplog, command
):
    cfg = _write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    calls = []

    def record(problem, config):
        calls.append(config.mode)
        return run(problem, config)

    monkeypatch.setattr(ragd.sweep, "run", record)
    rc = cli.main(_argv(command, cfg, blocker / "out"))
    assert rc == cli.EXIT_CONFIG
    assert calls == []
    assert len(_cli_errors(caplog)) == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_solver_domain_error_is_abort(tmp_path, monkeypatch, caplog, command):
    cfg = _write_config(tmp_path)

    def explode(problem, config):
        raise InjectivityError("tangent reaches past the injectivity radius")

    monkeypatch.setattr(ragd.sweep, "run", explode)
    rc = cli.main(_argv(command, cfg, tmp_path / "out"))
    assert rc == cli.EXIT_ABORT
    assert len(_cli_errors(caplog)) == 1


def test_run_solver_abort_exit_code(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)

    def explode(problem, config):
        raise NonFiniteError("objective value is not finite at step 3")

    monkeypatch.setattr(ragd.sweep, "run", explode)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_ABORT


def test_maybe_enlarge_grows_L_and_keeps_other_settings():
    prob = random_karcher(Hyperbolic(6, kappa=1.0), 5, 0.8, seed=1)
    oracle_optimum(prob)
    rng = np.random.default_rng(0)
    far = prob.manifold.random_point(rng, prob.reference, 3.0)
    prob = dataclasses.replace(prob, start=far)
    config = SolverConfig(
        mode="ragd",
        mu=prob.mu,
        L=prob.L,
        xi0=0.3,
        max_iters=30,
        sharp_distortion=True,
        record_diagnostics=True,
    )
    trace, new_config = ragd.sweep.run_enlarging(prob, config)
    assert new_config.L > config.L
    assert trace.meta["enlarged_L"] == new_config.L == trace.meta["L"]
    assert np.isfinite(trace.column("potential")).all()  # the optimum was kept
    for field in dataclasses.fields(SolverConfig):
        if field.name != "L":
            assert getattr(new_config, field.name) == getattr(config, field.name)


def test_verify_xi_suite_reports_ok(capsys):
    rc = cli.main(["verify", "--suite", "xi", "--seed", "0"])
    assert rc == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "xi"
    assert report["seed"] == 0
    assert report["ok"] is True
    assert all(c["violations"] == 0 for c in report["checks"])


def test_verify_violation_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_suite", lambda suite, seed: {"suite": suite, "ok": False}
    )
    assert cli.main(["verify", "--suite", "xi"]) == cli.EXIT_VIOLATION


def test_verify_negative_seed_is_config_error(monkeypatch, caplog):
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: pytest.fail("ran"))
    assert cli.main(["verify", "--suite", "xi", "--seed", "-1"]) == cli.EXIT_CONFIG
    assert len(_cli_errors(caplog)) == 1


def test_sweep_writes_axis_csv(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        solvers=[{"mode": "ragd_constant_delta", "delta_const": 1.0, "max_iters": 60}],
    )
    out = tmp_path / "out"
    rc = cli.main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--axis",
            "delta_const",
            "--values",
            "1,2",
            "--out",
            str(out),
        ]
    )
    assert rc == cli.EXIT_OK
    lines = (out / "sweep_delta_const.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    first, second = lines[1].split(","), lines[2].split(",")
    assert float(first[1]) == 1.0 and float(second[1]) == 2.0


def test_curvature_sweep_of_a_flat_block_is_config_error(tmp_path):
    problem = {
        "kind": "karcher", "manifold": {"kind": "euclidean", "dim": 4},
        "n_anchors": 4, "radius": 0.3, "seed": 1,
    }
    cfg = _write_config(tmp_path, problem=problem)
    argv = ["sweep", "--config", str(cfg), "--axis", "curvature", "--values", "0.5,1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_unparseable_values(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(
        ["sweep", "--config", str(cfg), "--axis", "gamma", "--values", "x,y"]
    )
    assert rc == cli.EXIT_CONFIG


def test_unknown_log_level_falls_back(monkeypatch):
    monkeypatch.setenv("RAGD_LOG", "chatty")
    rc = cli.main(
        ["xi-trace", "--a", "0.25", "--delta", "1.0", "--xi0", "0.9", "--steps", "1"]
    )
    assert rc == cli.EXIT_OK


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it at start-up would cost
    # every command about half a second and some 40 MB.
    env = dict(os.environ)
    src = str(Path(ragd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, ragd, ragd.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
