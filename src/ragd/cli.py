"""Command-line benchmark harness.

Subcommands: ``run`` (execute configured solvers on a problem and write
traces), ``verify`` (seeded property suites with a JSON report),
``sweep`` (one-axis parameter sweeps), and ``xi-trace`` (momentum
recursion trace as CSV on stdout).

Each subcommand runs in two phases.  The parse phase reads and checks the
whole request (config file, problem, solver entries, sweep values, seed,
output directory) before any oracle or solver work starts and returns the
execute phase, which does the work.  :func:`main` maps errors to exit
codes once, for every subcommand: 0 success, 1 verify violation, 2 a bad
request (an ``OSError``, ``TypeError``, ``ValueError``, ``KeyError`` or
library error raised while parsing), 3 a library error raised while
executing.  A failure logs one error line and no traceback.  The
``RAGD_LOG`` environment variable selects error, info, or debug verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from collections.abc import Callable
from pathlib import Path

from . import __version__
from .distortion import trig_coeff
from .errors import DomainError, RagdError
from .problems import Problem, oracle_optimum, problem_from_dict
from .solvers import SolverConfig, run
from .sweep import (
    SWEEP_AXES, build_sweep, problem_description, solver_config, solver_entries,
    sweep_point, write_sweep_csv,
)
from .trace import ConvergenceTrace, estimate_rate
from .verify import VERIFY_SUITES, run_suite
from .xi import XiParams, contraction_factor, fixed_point_xi, iterate_xi, xi_residual

__all__ = ["main"]

logger = logging.getLogger("ragd.cli")

_EMIT_CHOICES = ("csv", "json", "both")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3

# Errors that make a request bad when raised before any work starts.
_REQUEST_ERRORS = (OSError, TypeError, ValueError, KeyError, RagdError)

# A parsed request's work; returns the exit code.
Execute = Callable[[], int]


def _setup_logging() -> None:
    level_name = os.environ.get("RAGD_LOG", "info").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(level_name)
    if level is None:
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    if level_name not in levels:
        logger.warning("unknown RAGD_LOG value %r; using info", level_name)


def _config_hash(effective: dict) -> str:
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load_config(path: str) -> dict:
    """Read a config file shared by ``run`` and ``sweep``."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError("config root must be a JSON object")
    emit = cfg.get("emit", "csv")
    if emit not in _EMIT_CHOICES:
        raise DomainError(f"emit must be one of {_EMIT_CHOICES}, got {emit!r}")
    return cfg


def _output_dir(out: str | None, cfg: dict) -> Path:
    """Create the output directory: ``--out`` if given, else the config's."""
    path = Path(out if out is not None else cfg.get("out", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _maybe_enlarge(problem: Problem, config: SolverConfig,
                   trace: ConvergenceTrace) -> tuple[Problem, SolverConfig] | None:
    """Karcher smoothness certificates hold on the visited ball; when a run
    leaves it, rebuild (L, gamma) from the largest observed excursion."""
    if not trace.meta.get("left_feasible_radius"):
        return None
    if problem.payload.get("kind") != "karcher":
        return None
    reach = trace.meta.get("max_reference_distance")
    if reach is None:
        return None
    kappa = getattr(problem.manifold, "curv_lower_mag", 0.0)
    new_l = trig_coeff(kappa, 2.0 * float(reach))
    if not new_l > problem.L:
        return None
    new_problem = dataclasses.replace(problem, L=new_l)
    new_problem.set_optimum(problem.optimum)
    return new_problem, dataclasses.replace(config, L=new_l)


def _predicted_rate(config: SolverConfig, trace: ConvergenceTrace) -> float:
    if config.mode == "rgd":
        return 1.0 - config.mu * config.resolved_gamma
    return 1.0 - float(trace.column("xi")[-1])


def _trace_paths(out_dir: Path, problem: Problem, mode: str, counts: dict) -> str:
    counts[mode] = counts.get(mode, 0) + 1
    stem = f"{problem.name}_{mode}"
    if counts[mode] > 1:
        stem += f"-{counts[mode]}"
    return str(out_dir / stem)


def cmd_run(args: argparse.Namespace) -> Execute:
    cfg = _load_config(args.config)
    emit = cfg.get("emit", "csv")
    problem_desc, seed = problem_description(cfg, args.seed)
    problem = problem_from_dict(problem_desc)
    configs = [solver_config(entry, problem) for entry in solver_entries(cfg)]
    effective = {
        "problem": problem_desc,
        "solvers": cfg.get("solvers"),
        "seed": seed,
        "emit": emit,
    }
    chash = _config_hash(effective)
    out_dir = _output_dir(args.out, cfg)

    def execute() -> int:
        if problem.optimum is None:
            logger.info("locating the optimum with the gradient-descent oracle")
            oracle_optimum(problem)
        counts: dict = {}
        summary = []
        for config in configs:
            trace = run(problem, config)
            enlarged = _maybe_enlarge(problem, config, trace)
            if enlarged is not None:
                new_problem, new_config = enlarged
                logger.info(
                    "iterates left the certified ball; re-running with "
                    "L enlarged to %r", new_problem.L,
                )
                trace = run(new_problem, new_config)
                trace.meta["enlarged_L"] = new_problem.L
            trace.meta["config_hash"] = chash
            trace.meta["seed"] = seed
            stem = _trace_paths(out_dir, problem, config.mode, counts)
            if emit in ("csv", "both"):
                with open(stem + ".csv", "w") as fh:
                    trace.write_csv(fh)
            if emit in ("json", "both"):
                with open(stem + ".json", "w") as fh:
                    trace.write_json(fh)
            gaps = trace.column("f_gap")
            est = estimate_rate(gaps)
            summary.append(
                (config.mode, float(gaps[-1]), est.rate, _predicted_rate(config, trace))
            )
            logger.info("wrote %s", stem)

        print(f"# problem={problem.name} seed={seed} config_hash={chash}")
        print(f"{'solver':24s} {'final_gap':>14s} {'rate':>10s} {'pred_rate':>10s}")
        for mode, gap, rate, pred in summary:
            print(f"{mode:24s} {gap:14.6e} {rate:10.6f} {pred:10.6f}")
        return EXIT_OK

    return execute


def cmd_verify(args: argparse.Namespace) -> Execute:
    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")

    def execute() -> int:
        report = run_suite(args.suite, args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK if report["ok"] else EXIT_VIOLATION

    return execute


def cmd_sweep(args: argparse.Namespace) -> Execute:
    cfg = _load_config(args.config)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    cases = build_sweep(cfg, args.axis, values, seed=args.seed)
    path = _output_dir(args.out, cfg) / f"sweep_{args.axis}.csv"

    def execute() -> int:
        points = [sweep_point(args.axis, *case) for case in cases]
        write_sweep_csv(points, path)
        print(f"# axis={args.axis} -> {path}")
        print(f"{'value':>10s} {'solver':20s} {'final_gap':>14s} {'rate':>10s} "
              f"{'xi_pred':>10s} {'pred_rate':>10s} {'settle':>7s}")
        for p in points:
            print(f"{p.value:10.5f} {p.solver:20s} {p.final_gap:14.6e} "
                  f"{p.rate:10.6f} {p.xi_pred:10.6f} {p.pred_rate:10.6f} "
                  f"{p.xi_settle_iters:7d}")
        return EXIT_OK

    return execute


def cmd_xi_trace(args: argparse.Namespace) -> Execute:
    params = XiParams(a=args.a, delta=args.delta)
    if not 0.0 < args.a:
        raise DomainError(f"a must lie in (0, 1), got {args.a}")
    if not 0.0 < args.xi0 < 1.0:
        raise DomainError(f"xi0 must lie in (0, 1), got {args.xi0}")
    if args.steps < 0:
        raise DomainError(f"steps must be >= 0, got {args.steps}")

    def execute() -> int:
        xs = iterate_xi(args.xi0, params, args.steps)
        star = fixed_point_xi(params)
        lam = contraction_factor(params)
        env = abs(args.xi0 - star)
        print("t,xi,residual,err_fixed_point,envelope")
        for t, xi in enumerate(xs):
            resid = 0.0 if t == 0 else xi_residual(xi, xs[t - 1], params)
            print(f"{t},{xi!r},{resid!r},{abs(xi - star)!r},{env!r}")
            env *= lam
        return EXIT_OK

    return execute


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragd",
        description="Benchmark harness for accelerated geodesic optimization.",
    )
    parser.add_argument("--version", action="version", version=f"ragd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured solvers and write traces")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run seeded property suites")
    p_ver.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="sweep one axis of a base config")
    p_sw.add_argument("--config", required=True, help="JSON experiment config")
    p_sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sw.add_argument("--values", required=True, help="comma-separated axis values")
    p_sw.add_argument("--seed", type=int, default=None)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_xi = sub.add_parser("xi-trace", help="trace the momentum recursion as CSV")
    p_xi.add_argument("--a", type=float, required=True)
    p_xi.add_argument("--delta", type=float, required=True)
    p_xi.add_argument("--xi0", type=float, required=True)
    p_xi.add_argument("--steps", type=int, required=True)
    p_xi.set_defaults(func=cmd_xi_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        execute = args.func(args)
    except _REQUEST_ERRORS as exc:
        logger.error("bad %s request: %s: %s", args.command, type(exc).__name__, exc)
        return EXIT_CONFIG
    try:
        return execute()
    except RagdError as exc:
        logger.error("%s aborted: %s: %s", args.command, type(exc).__name__, exc)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
