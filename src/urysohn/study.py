"""Convergence studies over doubling mesh sequences.

A study solves the same problem on meshes n, 2n, 4n, ..., measures errors
of the iterated solution at the coarsest mesh's interior partition points
(which nest in every finer mesh), extrapolates consecutive levels, and
estimates empirical orders and the scaled error coefficients.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, SingularLinearizationError
from .piecewise import _order, make_mesh
from .problems import get_problem
from .quadrature import MAX_POINTS, _count, gauss_rule
from .solver import SolveOptions, _extrapolate, iterated_eval, solve_galerkin, solve_paper_discrete

__all__ = [
    "StudyConfig",
    "ConvergenceReport",
    "run_study",
    "estimate_order",
    "zeta_estimate",
    "render_report",
    "emit_report",
]

DISCRETE_MODES = ("full", "paper-discrete")

OUTPUT_FORMATS = ("csv", "json", "md")

# Mesh-refinement factor for the reference solve used when a problem has no
# known exact solution.
_REFERENCE_REFINEMENT = 8

# The most cells of a solve level: at r = 1 and p = 10 the sub-panel nodes
# and weights of 2**20 cells alone take 3.4 GB.
_MAX_CELLS = 2 ** 20

# The most entries of a level's largest dense array, its quadratic one: the
# (n r)^2 Newton matrix of the full scheme, of which a step holds a few
# copies, or the n x n kernel grid of the midpoint scheme.  2**24 float64
# entries take 128 MiB, so a 4,096-unknown Newton level runs and an
# 8,192-cell one fails before it starts.
_MAX_DENSE = 2 ** 24

# The most entries of a level's largest array on its S = n max(r, 10)
# projection nodes: the (S, 2p, r) basis table of the sub-panel nodes, or
# the (S, 32) sub-panels of a manufactured right-hand side.  The cap is that
# of a 2**20-cell level at r = 1 and p = 10, 2.5 GiB of float64.
_MAX_NODE_ENTRIES = 2 ** 20 * 10 * 32


def _level_options(n: int, r: int, discrete_mode: str, **solver) -> SolveOptions:
    """The one check of a solve level: integers 1 <= n <= _MAX_CELLS cells
    and 1 <= r <= MAX_POINTS (the projection rule has max(r, 10) points), a
    known discrete mode that admits r, the SolveOptions built from
    ``solver``, a dense array of at most _MAX_DENSE entries and an array on
    the projection nodes of at most _MAX_NODE_ENTRIES.  Every failure is a
    ConfigError."""
    try:
        n, r = _count(n, "mesh size"), _count(r, "polynomial order")
        opts = SolveOptions(**solver)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if n < 1:
        raise ConfigError(f"mesh sizes must be positive, got {n}")
    if n > _MAX_CELLS:
        raise ConfigError(f"mesh sizes must be at most {_MAX_CELLS} cells, got {n}")
    if not 1 <= r <= MAX_POINTS:
        raise ConfigError(f"polynomial order must be in [1, {MAX_POINTS}], got {r}")
    if discrete_mode not in DISCRETE_MODES:
        raise ConfigError(f"unknown discrete mode {discrete_mode!r}")
    if discrete_mode == "paper-discrete" and r != 1:
        raise ConfigError("the paper-discrete scheme is piecewise constant (r = 1)")
    side = n if discrete_mode == "paper-discrete" else n * r * (opts.method == "newton")
    if side * side > _MAX_DENSE:
        raise ConfigError(f"a level of {n} cells needs a dense array of {side}^2 entries, "
                          f"more than {_MAX_DENSE}")
    entries = n * max(r, 10) * max(2 * opts.quad_points * r, 32)
    if entries > _MAX_NODE_ENTRIES:
        raise ConfigError(f"a level of {n} cells at r = {r} with {opts.quad_points} quadrature "
                          f"points needs an array of {entries} entries, more than "
                          f"{_MAX_NODE_ENTRIES}")
    return opts


@dataclass
class StudyConfig:
    """Everything needed to reproduce a convergence study.

    ``n_sequence`` must be strictly doubling so partition points nest.
    ``r``, ``max_iter``, ``quad_points`` and the ``n_sequence`` entries must
    be integers and ``tol`` a number; strings and bools are rejected, not
    coerced.  Those types and ranges are those of every solve level, checked
    by ``_level_options``.  A ``params`` of None is stored as ``{}``.  JSON
    config files use exactly these field names.
    """

    problem_id: str
    params: dict = field(default_factory=dict)
    r: int = 1
    n_sequence: Sequence[int] = (20, 40, 80)
    method: str = "picard"
    tol: float = 1e-12
    max_iter: int = 200
    quad_points: int = 10
    rhs_mode: str = "manufactured"
    discrete_mode: str = "full"
    output_path: Optional[str] = None
    output_format: str = "csv"

    def __post_init__(self):
        self.params = {} if self.params is None else self.params
        if isinstance(self.n_sequence, (str, bytes)) or not isinstance(self.n_sequence, Iterable):
            raise ConfigError(f"n_sequence must be a list of integers, got {self.n_sequence!r}")
        self.n_sequence = tuple(self.n_sequence)
        if len(self.n_sequence) < 2:
            raise ConfigError("n_sequence needs at least two levels")
        opts = self._solve_options()
        self.n_sequence, self.r = tuple(map(int, self.n_sequence)), int(self.r)
        self.max_iter, self.quad_points = opts.max_iter, opts.quad_points
        for a, b in zip(self.n_sequence, self.n_sequence[1:]):
            if b != 2 * a:
                raise ConfigError(f"n_sequence must double at every step, got {self.n_sequence}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")

    def _levels(self, reference: bool = False) -> tuple:
        """The mesh sizes this study solves, with ``reference`` its 8x-finer
        reference level last."""
        ns = self.n_sequence
        return ns + (ns[-1] * _REFERENCE_REFINEMENT,) if reference else ns

    def _solve_options(self, reference: bool = False) -> SolveOptions:
        """The SolveOptions of this study, with every level it solves checked,
        and with ``reference`` its reference level too."""
        for n in self._levels(reference):
            opts = _level_options(n, self.r, self.discrete_mode, method=self.method,
                                  tol=self.tol, max_iter=self.max_iter,
                                  quad_points=self.quad_points)
        return opts

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "problem_id" not in data:
            raise ConfigError("config needs a problem_id")
        return cls(**data)

    def to_dict(self) -> dict:
        return {**asdict(self), "n_sequence": list(self.n_sequence)}


@dataclass
class ConvergenceReport:
    """Per-point errors, orders, extrapolated errors, and error coefficients.

    ``e1``/``zeta`` are keyed by mesh size n; ``alpha`` by the coarse n of
    the (n, 2n) pair it compares; ``e2`` by the coarse n of the
    extrapolation pair; ``beta`` by the coarse n of the two extrapolated
    levels it compares.  Orders are NaN wherever an error level vanishes.
    """

    points: np.ndarray
    n_levels: tuple
    e1: dict
    alpha: dict
    e2: dict
    beta: dict
    zeta: dict
    zeta_stabilization: dict
    reference_based: bool
    meta: dict

    def columns(self):
        """(name, values) pairs in the canonical emission order.

        Pair columns use a colon (``alpha@(4:8)``) so headers stay free of
        CSV delimiters.
        """
        cols = [("t_i", self.points)]
        cols += [(f"E1@{n}", self.e1[n]) for n in self.n_levels]
        cols += [(f"alpha@({n}:{2 * n})", self.alpha[n]) for n in sorted(self.alpha)]
        cols += [(f"E2@{n}", self.e2[n]) for n in sorted(self.e2)]
        cols += [(f"beta@({n}:{2 * n})", self.beta[n]) for n in sorted(self.beta)]
        cols += [(f"zeta@{n}", self.zeta[n]) for n in self.n_levels]
        return cols


def estimate_order(e_coarse: float, e_fine: float) -> float:
    """log2 of the error ratio between consecutive levels; NaN when either
    error is nonpositive (order undefined, not an error)."""
    if not (e_coarse > 0.0 and e_fine > 0.0):
        return float("nan")
    return float(np.log2(e_coarse / e_fine))


def zeta_estimate(errors: Sequence[np.ndarray], hs: Sequence[float], r: int):
    """Scaled signed errors zeta_n = (phi - x_s)/h^(2r) per level, plus the
    stabilization metric max|zeta_n - zeta_2n| / max|zeta_2n| between
    consecutive levels.  A stabilizing zeta is the observable footprint of
    an h^(2r) leading error term."""
    r = _order(r)
    if len(errors) < 2:
        raise ValueError("need at least two levels")
    if len(errors) != len(hs):
        raise ValueError("one mesh width per error level required")
    zetas = [np.asarray(e, dtype=float) / float(h) ** (2 * r) for e, h in zip(errors, hs)]
    metrics = []
    for z_coarse, z_fine in zip(zetas, zetas[1:]):
        if z_fine.size == 0 or float(np.max(np.abs(z_fine))) == 0.0:
            metrics.append(float("nan"))
            continue
        diff = float(np.max(np.abs(z_coarse - z_fine)))
        metrics.append(diff / float(np.max(np.abs(z_fine))))
    return zetas, metrics


def _solve_level(prob, n, r, opts, discrete_mode, points):
    """The one scheme dispatch: solve on the uniform n-cell mesh and read x_s
    at ``points``.  Returns ``(solution, x_s)``; a DivergenceError or a
    SingularLinearizationError is tagged with the level n."""
    mesh = make_mesh(n)
    try:
        if discrete_mode == "paper-discrete":
            sol = solve_paper_discrete(prob, mesh, opts)
        else:
            sol = solve_galerkin(prob, mesh, r, opts)
    except (DivergenceError, SingularLinearizationError) as exc:
        exc.level = n
        raise
    return sol, iterated_eval(prob, sol, points, gauss_rule(opts.quad_points))


def _orders(errors: dict) -> dict:
    """Pointwise estimate_order between consecutive levels of ``errors``,
    keyed by the coarser one."""
    levels = sorted(errors)
    return {a: np.array([estimate_order(ec, ef) for ec, ef in zip(errors[a], errors[b])])
            for a, b in zip(levels, levels[1:])}


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Solve every level, measure errors at the coarse interior partition
    points, extrapolate consecutive pairs, and estimate orders.

    x_s is read only at those points, which nest in every finer level.
    Endpoints are excluded: for Green's-kernel problems the operator
    contributes nothing at s in {0, 1} and the error there is quadrature
    noise.  Without an exact solution, a solve on an 8x-finer mesh serves
    as reference and the report is flagged accordingly.
    """
    t_start = time.perf_counter()
    prob = get_problem(config.problem_id, config.params, config.rhs_mode)
    reference_based = prob.exact is None
    opts = config._solve_options(reference_based)
    ns = config.n_sequence
    points = make_mesh(ns[0]).points[1:-1]
    solved = {n: _solve_level(prob, n, config.r, opts, config.discrete_mode, points)
              for n in config._levels(reference_based)}
    exact = (solved[max(solved)][1] if reference_based
             else np.asarray(prob.exact(points), dtype=float))

    signed = {n: exact - solved[n][1] for n in ns}
    e1 = {n: np.abs(signed[n]) for n in ns}
    e2 = {a: np.abs(exact - _extrapolate(solved[a][1], solved[b][1], config.r))
          for a, b in zip(ns, ns[1:])}
    zetas, metrics = zeta_estimate([signed[n] for n in ns], [1.0 / n for n in ns], config.r)

    meta = {
        # where the report is written is not part of it
        "config": {key: value for key, value in config.to_dict().items() if key != "output_path"},
        "iterations": {n: solved[n][0].iterations for n in ns},
        "reference_based": reference_based,
        "wall_time_s": time.perf_counter() - t_start,
    }
    return ConvergenceReport(
        points=points,
        n_levels=tuple(ns),
        e1=e1,
        alpha=_orders(e1),
        e2=e2,
        beta=_orders(e2),
        zeta=dict(zip(ns, zetas)),
        zeta_stabilization=dict(zip(ns, metrics)),
        reference_based=reference_based,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Report emission


def _fmt_full(x: float) -> str:
    return repr(float(x))


def _fmt_sci(x: float) -> str:
    return "-" if np.isnan(x) else f"{x:.3e}"


def _fmt_order(x: float) -> str:
    return "-" if np.isnan(x) else f"{x:.2f}"


def _csv_table(cols) -> str:
    lines = [",".join(name for name, _ in cols)]
    for i in range(len(cols[0][1])):
        lines.append(",".join(_fmt_full(values[i]) for _, values in cols))
    return "\n".join(lines) + "\n"


def _md_table(cols, fmt) -> list:
    """Header, rule and one row per sample; ``fmt(name, value)`` formats a cell."""
    names = [name for name, _ in cols]
    lines = ["| " + " | ".join(names) + " |", "|" + "|".join("---" for _ in names) + "|"]
    for i in range(len(cols[0][1])):
        lines.append("| " + " | ".join(fmt(name, values[i]) for name, values in cols) + " |")
    return lines


def _strict(value):
    """value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json(payload) -> str:
    """The one JSON encoder of the reports: RFC 8259, so a non-finite number
    is written as null."""
    return json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n"


def _render_columns(cols, output_format: str) -> str:
    """A bare table of named sample columns (the ``solve`` output): csv and
    json at full precision, md at seven significant digits."""
    if output_format == "json":
        return _json({name: [float(v) for v in vals] for name, vals in cols})
    if output_format == "md":
        return "\n".join(_md_table(cols, lambda _name, v: f"{v:.6e}")) + "\n"
    return _csv_table(cols)


def _render_json(report: ConvergenceReport) -> str:
    cols = report.columns()
    payload = {
        "config": report.meta["config"],
        "reference_based": report.reference_based,
        "iterations": {str(n): it for n, it in report.meta["iterations"].items()},
        "zeta_stabilization": {str(n): v for n, v in report.zeta_stabilization.items()},
        "columns": [name for name, _ in cols],
        "data": {name: [float(v) for v in values] for name, values in cols},
    }
    # wall time stays out of the file so identical configs emit identical bytes
    return _json(payload)


def _md_cell(name: str, v: float) -> str:
    if name == "t_i":
        return f"{v:.2f}"
    if name.startswith(("alpha", "beta")):
        return _fmt_order(v)
    return _fmt_sci(v)


def _render_md(report: ConvergenceReport) -> str:
    cfg = report.meta["config"]
    head = [
        f"# Convergence study: {cfg['problem_id']} (r={cfg['r']}, "
        f"n={','.join(str(n) for n in cfg['n_sequence'])})",
        "",
    ]
    head += _md_table(report.columns(), _md_cell)
    if report.zeta_stabilization:
        head.append("")
        stab = ", ".join(
            f"({n},{2 * n}): {_fmt_sci(v)}" for n, v in report.zeta_stabilization.items()
        )
        head.append(f"zeta stabilization {stab}")
    return "\n".join(head) + "\n"


_RENDERERS = {"csv": lambda report: _csv_table(report.columns()),
              "json": _render_json, "md": _render_md}


def render_report(report: ConvergenceReport, output_format: str) -> str:
    """Render the report without touching the filesystem."""
    if output_format not in _RENDERERS:
        raise ConfigError(f"unknown output format {output_format!r}")
    return _RENDERERS[output_format](report)


def emit_report(report: ConvergenceReport, output_format: str, path: str) -> str:
    """Write the report table to ``path`` and return the rendered text.

    CSV holds the bare table at full precision; JSON mirrors the same
    columns plus the config echo; md renders a human-readable table.  A
    file that cannot be written is a ConfigError.
    """
    text = render_report(report, output_format)
    _write(path, text)
    return text


def _write(path: str, text: str) -> None:
    """Write text to the file at path; an OSError is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
