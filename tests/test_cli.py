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
from ragd.problems import oracle_optimum, problem_from_dict, problem_to_dict, random_karcher
from ragd.solvers import SolverConfig, run
from ragd.sweep import SWEEP_COLUMNS
from ragd.trace import estimate_rate
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


@pytest.mark.parametrize("a", ["0.0", "1.0", "1.5", "-0.2", "nan"])
def test_xi_trace_states_one_range_for_a(caplog, a):
    argv = ["xi-trace", "--a", a, "--delta", "1.0", "--xi0", "0.9", "--steps", "3"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    (error,) = _cli_errors(caplog)
    assert f"a must lie in (0, 1), got {float(a)}" in error.getMessage()


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
    text = (out / "quadratic-d8_rgd.json").read_text()
    # RFC 8259 JSON: rgd's xi0, potential and last margin are written as null
    payload = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert payload["meta"]["xi0"] is None and payload["rows"][-1][-1] is None
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


def test_run_reports_the_seed_of_the_generator_block(tmp_path, capsys):
    # The block's seed builds the problem, with or without --seed, so both
    # runs print, record and hash it and write the same bytes.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 5},
                    "n_anchors": 3, "radius": 1.2, "seed": 2},
        "solvers": [{"mode": "ragd", "max_iters": 5}],
    }))
    outs, heads = [tmp_path / "plain", tmp_path / "flag"], []
    for out, extra in zip(outs, ([], ["--seed", "9"])):
        assert cli.main(["run", "--config", str(path), "--out", str(out), *extra]) == cli.EXIT_OK
        heads.append(capsys.readouterr().out.splitlines()[0])
    assert heads[0] == heads[1]
    assert heads[0].startswith("# problem=karcher-hyperbolic-k3 seed=2 config_hash=")
    plain, flag = ((out / "karcher-hyperbolic-k3_ragd.csv").read_bytes() for out in outs)
    assert plain == flag
    assert b"\n# seed=2\n" in plain


def test_run_reports_no_seed_for_an_explicit_block(tmp_path, capsys):
    # No seed builds an explicit block: neither --seed nor the config's top
    # level seed is printed, recorded or hashed.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": {"kind": "quadratic", "hessian": [[1.0, 0.0], [0.0, 4.0]],
                    "center": [0.0, 0.0], "start": [1.0, 1.0]},
        "solvers": [{"mode": "rgd", "max_iters": 5}],
        "seed": 4,
    }))
    outs, heads = [tmp_path / "s9", tmp_path / "s10"], []
    for out, seed in zip(outs, ("9", "10")):
        argv = ["run", "--config", str(path), "--out", str(out), "--seed", seed]
        assert cli.main(argv) == cli.EXIT_OK
        heads.append(capsys.readouterr().out.splitlines()[0])
    assert heads[0] == heads[1]
    assert heads[0].startswith("# problem=quadratic seed=None config_hash=")
    nine, ten = ((out / "quadratic_rgd.csv").read_bytes() for out in outs)
    assert nine == ten


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
    {"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0, "seed": 3,
                 "centre": [0.0] * 8}},
    {"problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4},
                 "n_anchors": 4, "radius": 1.0, "seed": 3, "weight": [0.7, 0.1, 0.1, 0.1]}},
    {"problem": {"kind": "karcher", "manifold": {"kind": "spd", "n": 3, "kappa": 0.5},
                 "n_anchors": 4, "radius": 1.0, "seed": 3}},
    # json.dumps writes these as the constants Infinity and NaN.
    {"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": math.inf, "seed": 3}},
    {"problem": {"kind": "quadratic", "dim": 8, "mu": math.nan, "L": 20.0, "seed": 3}},
    {"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0, "seed": 3},
     "solvers": [{"mode": "rgd", "gamma": -math.inf}]},
    # Integer keys are integers, not bools, floats or strings.
    {"problem": {"kind": "quadratic", "dim": 3.9, "mu": 1.0, "L": 20.0, "seed": 3}},
    {"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0, "seed": 1.7}},
    {"problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4},
                 "n_anchors": True, "radius": 1.0, "seed": 3}},
    {"problem": {"kind": "karcher", "manifold": {"kind": "spd", "n": "3"},
                 "n_anchors": 4, "radius": 1.0, "seed": 3}},
    {"problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4.0},
                 "n_anchors": 4, "radius": 1.0, "seed": 3}},
    # A solver entry takes only the keys its mode reads.
    {"solvers": [{"mode": "ragd", "delta_const": 3.0}]},
    {"solvers": [{"mode": "euclid_nesterov", "delta_const": 1.0}]},
    {"solvers": [{"mode": "rgd", "sharp_distortion": True}]},
    {"solvers": [{"mode": "ragd_constant_delta", "delta_const": 1.5, "sharp_distortion": True}]},
    {"solvers": [{"mode": "rgd", "xi0": 0.5}]},
    # Real-valued keys take real numbers, not bools or numeric strings; at
    # L = 1.5 a gamma of true (1) would lie in (0, 2/L).
    {"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 1.5, "seed": 3},
     "solvers": [{"mode": "ragd", "gamma": True}]},
    {"solvers": [{"mode": "ragd_constant_delta", "delta_const": True}]},
    {"solvers": [{"mode": "ragd", "xi0": "0.5"}]},
    {"solvers": [{"mode": "ragd", "mu": "1.0"}]},
    {"problem": {"kind": "quadratic", "dim": 8, "mu": "1.0", "L": 20.0, "seed": 3}},
    {"problem": {"kind": "quadratic", "dim": 2, "mu": 1.0, "L": 2.0, "seed": 3,
                 "center": [0.0, "1.0"]}},
    {"problem": {"kind": "quadratic", "hessian": [[2.0, 0.0], [0.0, True]],
                 "center": [0.0, 0.0], "start": [1.0, 1.0]}},
    {"problem": {"kind": "quadratic", "hessian": [[1.0, 0.0], [0.0, 2.0]],
                 "center": [0.0, 0.0], "start": [1.0, "1.0"]}},
    {"problem": {"kind": "quadratic", "dim": 2, "mu": 1.0, "L": 2.0, "seed": 3,
                 "optimum": [True, 0.0]}},
    # A described optimum must be stationary.
    {"problem": {"kind": "quadratic", "dim": 2, "mu": 1.0, "L": 2.0, "seed": 3,
                 "optimum": [1.0, 0.0]}},
    {"problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4},
                 "n_anchors": 4, "radius": True, "seed": 3},
     "solvers": [{"mode": "ragd"}]},
    {"problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4, "kappa": True},
                 "n_anchors": 4, "radius": 1.0, "seed": 3},
     "solvers": [{"mode": "ragd"}]},
    {"problem": {"kind": "sphere_mean", "manifold": {"kind": "sphere", "dim": 3, "sigma": "1"},
                 "n_anchors": 4, "radius": 0.3, "seed": 3},
     "solvers": [{"mode": "ragd"}]},
    {"problem": {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4},
                 "n_anchors": 4, "radius": 1.0, "seed": 3, "weights": [0.25, 0.25, 0.25, "0.25"]},
     "solvers": [{"mode": "ragd"}]},
    {"problem": {"kind": "karcher", "manifold": {"kind": "euclidean", "dim": 2},
                 "anchors": [[0.0, 0.0], [1.0, True]]},
     "solvers": [{"mode": "ragd"}]},
    # A config takes only its five top-level keys.
    {"sed": 5, "emitt": "json"},
    {"solver": [{"mode": "ragd", "max_iters": 5}]},
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


@pytest.mark.parametrize(
    "problem, message",
    [
        ('{"kind": "quadratic", "dim": 4, "mu": 1.0, "L": Infinity, "seed": 0}',
         "non-standard JSON constant Infinity"),
        ('{"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 1e999, "seed": 0}',
         "need 0 < mu <= L < inf"),
        ('{"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 4}, "n_anchors": 3, '
         '"radius": 1e999, "seed": 0}', "radius must be positive and finite"),
    ],
    ids=["infinity-constant", "overflowing-literal", "overflowing-radius"],
)
def test_run_non_finite_config_number_is_config_error(tmp_path, caplog, problem, message):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"problem": {problem}, "solvers": [{{"mode": "ragd"}}]}}')
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    errors = _cli_errors(caplog)
    assert len(errors) == 1 and message in errors[0].getMessage()


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


def test_run_trace_only_error_is_abort(tmp_path, caplog, monkeypatch):
    # An optimum antipodal to the start leaves Log_x(x*), which only the
    # potential column needs, undefined at row 0.  The error surfaces at the
    # end of the first block of rows, with its class and exit code 3.  A
    # config cannot name that optimum, which is not stationary, so it is set
    # after the problem is built.
    problem = {
        "kind": "sphere_mean",
        "manifold": {"kind": "sphere", "dim": 4},
        "n_anchors": 6,
        "radius": 0.3,
        "seed": 17,
    }

    def antipodal_optimum(desc):
        built = problem_from_dict(desc)
        built.set_optimum(built.manifold.point(-built.start.coords))
        return built

    monkeypatch.setattr(cli, "problem_from_dict", antipodal_optimum)
    cfg = _write_config(
        tmp_path, problem=problem, solvers=[{"mode": "ragd", "max_iters": 100}]
    )
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_ABORT
    errors = _cli_errors(caplog)
    assert len(errors) == 1
    assert "AntipodalError" in errors[0].getMessage()
    assert not list(out.glob("*.csv"))


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


def test_run_warns_once_at_parse_for_gamma_outside_the_regime(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="ragd.solvers")
    cfg = _write_config(tmp_path, solvers=[{"mode": "ragd", "gamma": 0.5 / 20.0}])

    def regime_warnings():
        return [r for r in caplog.records
                if r.name == "ragd.solvers" and "lies outside (1, " in r.getMessage()]

    logged_before_solve = []

    def record(problem, config):
        logged_before_solve.append(len(regime_warnings()))
        return run(problem, config)

    monkeypatch.setattr(ragd.sweep, "run", record)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert logged_before_solve == [1]
    [warning] = regime_warnings()
    assert warning.levelno == logging.WARNING
    assert warning.getMessage().startswith("gamma * L = 0.5 lies outside (1, ")


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


def _short_config(tmp_path, max_iters):
    return _write_config(tmp_path, solvers=[
        {"mode": "ragd", "max_iters": max_iters}, {"mode": "rgd", "max_iters": max_iters},
    ])


@pytest.mark.parametrize("max_iters", [1, 2])
def test_run_of_one_or_two_steps_prints_its_summary(tmp_path, capsys, max_iters):
    # Too few gap rows to fit a rate give a NaN estimate, not an abort.
    out = tmp_path / "out"
    argv = ["run", "--config", str(_short_config(tmp_path, max_iters)), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    trace = (out / "quadratic-d8_ragd.csv").read_text().splitlines()
    assert len([ln for ln in trace if not ln.startswith("#")]) == max_iters + 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# problem=quadratic-d8 seed=3 config_hash=")
    assert [ln.split()[0] for ln in lines[2:]] == ["ragd", "rgd"]


@pytest.mark.parametrize("max_iters", [1, 2])
def test_sweep_of_one_or_two_steps_prints_its_summary(tmp_path, capsys, max_iters):
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(_short_config(tmp_path, max_iters)), "--axis", "gamma",
            "--values", "1.0,1.05", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len((out / "sweep_gamma.csv").read_text().strip().splitlines()) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == f"# axis=gamma -> {out / 'sweep_gamma.csv'}"
    assert [float(ln.split()[0]) for ln in lines[2:]] == [1.0, 1.05]


def test_run_and_sweep_print_the_fitted_gap_contraction(tmp_path, capsys):
    # `gap_rate` is exp(slope), the contraction of the gap, which is the unit
    # of `pred_rate`; the sweep CSV keeps its `slope` and `rate` columns.
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, solvers=[{"mode": "ragd", "max_iters": 60}])
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split() == ["solver", "final_gap", "gap_rate", "pred_rate"]
    rows = [ln for ln in (out / "quadratic-d8_ragd.csv").read_text().splitlines()
            if not ln.startswith("#")]
    column = rows[0].split(",").index("f_gap")
    gaps = [float(row.split(",")[column]) for row in rows[1:]]
    assert lines[2].split()[2] == f"{math.exp(estimate_rate(gaps).slope):.6f}"

    argv = ["sweep", "--config", str(cfg), "--axis", "gamma", "--values", "1.0,1.05",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split() == [
        "value", "solver", "final_gap", "gap_rate", "xi_pred", "pred_rate", "settle"]
    csv_rows = (out / "sweep_gamma.csv").read_text().strip().splitlines()
    slope = SWEEP_COLUMNS.index("slope")
    assert [ln.split()[3] for ln in lines[2:]] == [
        f"{math.exp(float(row.split(',')[slope])):.6f}" for row in csv_rows[1:]]


def test_run_of_a_karcher_problem_whose_start_is_its_optimum(tmp_path):
    # One anchor: the start is the optimum, where the hyperbolic gradient's
    # Minkowski square rounds below zero.
    problem = {"kind": "karcher", "manifold": {"kind": "hyperbolic", "dim": 5},
               "n_anchors": 1, "radius": 1.2, "seed": 2}
    cfg = _write_config(tmp_path, problem=problem, solvers=[{"mode": "ragd", "max_iters": 5}])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    prob = problem_from_dict(problem)
    anchor = problem_to_dict(prob)["anchors"][0]
    assert np.array_equal(oracle_optimum(prob).coords, np.array(anchor))


def test_curvature_sweep_of_a_flat_block_is_config_error(tmp_path):
    # An SPD block has no curvature key either: the metric fixes kappa = 1/2.
    for manifold in ({"kind": "euclidean", "dim": 4}, {"kind": "spd", "n": 3}):
        problem = {
            "kind": "karcher", "manifold": manifold, "n_anchors": 4, "radius": 0.3, "seed": 1,
        }
        cfg = _write_config(tmp_path, problem=problem)
        argv = ["sweep", "--config", str(cfg), "--axis", "curvature", "--values", "0.5,1",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 2], "DomainError: config root must be a JSON object"),
        ({"problem": {"kind": "quadratic", "dim": 8, "mu": 1.0, "L": 20.0, "seed": 3},
          "solvers": [{"mode": "rgd"}, "rgd"]},
         "DomainError: each solver entry must be a JSON object"),
        ({"solvers": [{"mode": "rgd"}]}, "MissingDataError: config has no 'problem' object"),
    ],
    ids=["root-not-object", "solver-entry-not-object", "no-problem-object"],
)
def test_run_config_shape_errors_name_their_cause(tmp_path, caplog, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    errors = _cli_errors(caplog)
    assert len(errors) == 1 and message in errors[0].getMessage()


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


def _python(*args):
    """Run a fresh interpreter with this checkout's ``src`` on its path."""
    env = dict(os.environ)
    src = str(Path(ragd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it at start-up would cost
    # every command about half a second and some 40 MB.
    code = (
        "import sys, ragd, ragd.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = _python("-c", code)
    assert (out.returncode, out.stdout.strip()) == (0, "[]")


def test_python_dash_m_runs_the_command_line():
    out = _python("-m", "ragd", "--version")
    assert (out.returncode, out.stdout.strip()) == (0, f"ragd {ragd.__version__}")
