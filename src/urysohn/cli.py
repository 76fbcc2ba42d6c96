"""Command-line front end: `study` runs a convergence study over a doubling
mesh sequence, `solve` runs a single level and dumps the iterated solution
at the partition points.

Exit codes: 0 success, 2 solver divergence, 3 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import ConfigError, DivergenceError, SingularLinearizationError
from .piecewise import make_mesh
from .problems import RHS_MODES, get_problem
from .solver import METHODS
from .study import (DISCRETE_MODES, OUTPUT_FORMATS, StudyConfig, _level_options, _render_columns,
                    _solve_level, _write, render_report, run_study)

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; that code is reserved for
    # solver divergence here, so usage problems become ConfigError -> 3.
    def error(self, message):
        raise ConfigError(message)


def _n_list(text: str):
    try:
        return [int(piece) for piece in text.split(",") if piece]
    except ValueError as exc:  # argparse reports only this type's message
        raise argparse.ArgumentTypeError(f"bad mesh list {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urysohn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", dest="problem_id", help="built-in problem identifier")
        p.add_argument("--r", type=int, help="polynomial order (degree < r per cell)")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--tol", type=float, help="coefficient-update stopping tolerance")
        p.add_argument("--max-iter", type=int, dest="max_iter")
        p.add_argument("--quad-points", type=int, dest="quad_points",
                       help="Gauss points per panel in the integral operator")
        p.add_argument("--rhs", choices=RHS_MODES, dest="rhs_mode")
        p.add_argument("--mode", choices=DISCRETE_MODES, dest="discrete_mode")
        p.add_argument("--format", choices=OUTPUT_FORMATS, dest="output_format")
        p.add_argument("--out", dest="output_path", help="report file (stdout when omitted)")

    study = sub.add_parser("study", help="convergence study over a doubling mesh sequence")
    study.add_argument("--config", help="JSON file with StudyConfig fields; flags override it")
    study.add_argument("--n", type=_n_list, dest="n_sequence",
                       help="comma-separated doubling mesh sizes, e.g. 20,40,80")
    common(study)

    solve = sub.add_parser("solve", help="single solve; dumps iterated-solution samples")
    solve.add_argument("--n", type=int, dest="n", help="mesh size")
    common(solve)
    return parser


def _study_config(args) -> StudyConfig:
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # not JSON, or an integer of more digits than int() takes
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for f in dataclasses.fields(StudyConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    return StudyConfig.from_dict(data)


def _check_out(path) -> None:
    """Fail before any solve when a report cannot be written: path is a
    directory or its directory does not exist, or without a path stdout is closed."""
    if not path and sys.stdout is None:
        raise ConfigError("cannot write the report to stdout: it is closed")
    if path and os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {path}: its directory does not exist")


def _note(text: str) -> None:
    """One line to stderr.  A closed stderr takes nothing: a note never
    changes the exit code and never lands on stdout."""
    try:
        if sys.stderr is not None:  # fd 2 was closed when Python started
            print(text, file=sys.stderr, flush=True)
    except OSError:
        pass


def _emit(text: str, path, note: str) -> None:
    """The report to the file at path, with the note on stderr, or without a
    path to stdout and nothing else there.  A stdout its reader closed is a
    ConfigError; stdout then points at the null device, so the flush at exit
    is silent."""
    if path:
        _write(path, text)
        _note(note)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # BrokenPipeError, for one
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write the report to stdout: {exc}") from exc


def _run_study(args) -> int:
    config = _study_config(args)
    _check_out(config.output_path)
    report = run_study(config)
    _emit(render_report(report, config.output_format), config.output_path,
          f"wrote {config.output_format} report to {config.output_path}")
    alphas = np.concatenate([v[np.isfinite(v)] for v in report.alpha.values()]) if report.alpha else []
    if len(alphas):
        _note(f"levels n={list(config.n_sequence)}; "
              f"alpha in [{np.min(alphas):.2f}, {np.max(alphas):.2f}]")
    return 0


def _run_solve(args) -> int:
    if not args.problem_id:
        raise ConfigError("solve needs --problem")
    if args.n is None:
        raise ConfigError("solve needs --n")
    r = args.r if args.r is not None else 1
    discrete_mode = args.discrete_mode or "full"
    given = {key: getattr(args, key) for key in ("method", "tol", "max_iter", "quad_points")
             if getattr(args, key) is not None}
    opts = _level_options(args.n, r, discrete_mode, **given)
    prob = get_problem(args.problem_id, rhs_mode=args.rhs_mode or "manufactured")
    _check_out(args.output_path)
    points = make_mesh(args.n).points
    sol, x_s = _solve_level(prob, args.n, r, opts, discrete_mode, points)

    cols = [("t", points), ("x_s", x_s)]
    if prob.exact is not None:
        exact = np.asarray(prob.exact(points), dtype=float)
        cols += [("exact", exact), ("error", np.abs(exact - x_s))]
    _emit(_render_columns(cols, args.output_format or "csv"), args.output_path,
          f"wrote {len(points)} samples to {args.output_path} "
          f"({sol.iterations} iterations, final update {sol.final_update:.2e})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "study":
            return _run_study(args)
        return _run_solve(args)
    except ConfigError as exc:
        _note(f"config error: {exc}")
        return 3
    except (DivergenceError, SingularLinearizationError) as exc:
        verb = "diverged" if isinstance(exc, DivergenceError) else "failed"
        level = f" at level n={exc.level}" if exc.level else ""
        _note(f"solver {verb}{level}: {exc}")
        return 2
