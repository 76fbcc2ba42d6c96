"""Nonlinear Galerkin solves, the iterated solution at partition points, and
Richardson extrapolation.

The discrete unknown is the coefficient array c of a piecewise polynomial
x_c.  Because the cell basis is orthonormal, the Galerkin equations read
c = P(K(x_c) + f), where P produces projection coefficients by per-cell
quadrature.  Picard iterates that fixed point directly; Newton solves
F(c) = c - P(K(x_c) + f) = 0 with the assembled linearization.

Iterating once more through the operator, x_s = K(x_c) + f, gives the
iterated solution: continuous in s, and superconvergent at the partition
points, where one step of Richardson extrapolation between meshes n and 2n
raises the order further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DivergenceError, MeshMismatchError, SingularLinearizationError
from .piecewise import PiecewisePoly, UniformMesh, basis_table, project
from .quadrature import GaussRule, SplitOperator, gauss_rule
from .problems import UrysohnProblem, apply_K, kernel_eval

__all__ = [
    "SolveOptions",
    "GalerkinSolution",
    "PartitionValues",
    "solve_galerkin",
    "solve_paper_discrete",
    "assemble_linearized",
    "iterated_eval",
    "iterated_at_partition",
    "richardson",
]

METHODS = ("picard", "newton")

INITIAL_GUESSES = ("project-f", "zero")

@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls for the Galerkin solve.

    ``tol`` bounds the sup norm of the coefficient update; ``quad_points``
    sets the Gauss rule used inside the integral operator; ``relax`` is an
    optional damping factor for Picard (1 = undamped).  ``initial_guess``
    is "project-f", "zero", or a PiecewisePoly on the solve mesh.
    """

    method: str = "picard"
    tol: float = 1e-12
    max_iter: int = 200
    quad_points: int = 10
    initial_guess: Union[str, PiecewisePoly] = "project-f"
    relax: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.quad_points < 2:
            raise ValueError("quad_points must be at least 2")
        if not 0.0 < self.relax <= 1.0:
            raise ValueError("relaxation factor must lie in (0, 1]")
        if isinstance(self.initial_guess, str) and self.initial_guess not in INITIAL_GUESSES:
            raise ValueError(f"unknown initial guess {self.initial_guess!r}")


@dataclass(frozen=True)
class GalerkinSolution:
    """A converged solve: the piecewise-polynomial solution plus diagnostics.

    ``final_update`` is the last coefficient-update norm (the convergence
    criterion); ``final_residual`` the sup of the projected residual on the
    per-cell quadrature grid, reported post hoc.  ``scheme`` distinguishes
    the full-quadrature Galerkin solve from the midpoint compatibility one.
    """

    x_g: PiecewisePoly
    iterations: int
    final_update: float
    final_residual: float
    scheme: str = "galerkin"


@dataclass(frozen=True)
class PartitionValues:
    """A function sampled at the partition points t_0..t_n of a mesh."""

    mesh: UniformMesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.mesh.n + 1,):
            raise MeshMismatchError(
                f"expected {self.mesh.n + 1} partition values, got {values.shape}"
            )
        object.__setattr__(self, "values", values)


def _projection_stencil(mesh: UniformMesh, r: int, rule: GaussRule):
    """Per-cell quadrature nodes (flattened) and the map from values at those
    nodes to projection coefficients."""
    nodes = (mesh.points[:-1, None] + mesh.h * rule.nodes).ravel()
    table = basis_table(r, rule.nodes)  # (p, r)

    def to_coeffs(values_flat: np.ndarray) -> np.ndarray:
        vals = values_flat.reshape(mesh.n, rule.p)
        return math.sqrt(mesh.h) * ((vals * rule.weights) @ table)

    return nodes, to_coeffs


def _initial_coeffs(prob, mesh, r, opts, proj_rule) -> np.ndarray:
    guess = opts.initial_guess
    if isinstance(guess, PiecewisePoly):
        if guess.mesh.n != mesh.n or guess.r != r:
            raise ValueError("supplied initial guess lives on a different space")
        return np.array(guess.coeffs)
    if guess == "zero":
        return np.zeros((mesh.n, r))
    return project(prob.f, mesh, r, proj_rule).coeffs.copy()


def _sup_on_rule(poly: PiecewisePoly, rule: GaussRule) -> float:
    """Sup of |poly| sampled on the per-cell quadrature grid plus cell edges."""
    mesh = poly.mesh
    tau = np.concatenate(([0.0], rule.nodes, [1.0]))
    t = mesh.points[:-1, None] + mesh.h * tau
    cells = np.broadcast_to(np.arange(mesh.n)[:, None], t.shape)
    return float(np.max(np.abs(poly.eval_on_cells(t, cells))))


def solve_galerkin(prob: UrysohnProblem, mesh: UniformMesh, r: int,
                   opts: Optional[SolveOptions] = None) -> GalerkinSolution:
    """Solve the projected equation x = P(K(x) + f) on the piecewise space.

    Picard iterates the fixed point; Newton solves the linearized update
    equation and needs the kernel's first u-derivative pieces.  Raises
    DivergenceError when ``max_iter`` is exhausted or, at once, when an
    update is not finite, and SingularLinearizationError when the Newton
    matrix is unusable (a sign that 1 is nearly an eigenvalue of the
    operator derivative).
    """
    if r < 1:
        raise ValueError(f"polynomial order must be positive, got {r}")
    opts = opts if opts is not None else SolveOptions()
    kern = prob.kernel
    inner = gauss_rule(opts.quad_points)
    outer = gauss_rule(max(r, 10))
    nodes, to_coeffs = _projection_stencil(mesh, r, outer)
    applier = SplitOperator(mesh, inner, nodes)

    f_at_nodes = np.broadcast_to(np.asarray(prob.f(nodes), dtype=float), nodes.shape)
    f_coeffs = to_coeffs(f_at_nodes)

    c = _initial_coeffs(prob, mesh, r, opts, outer)

    def picard_value(coeffs):
        x = PiecewisePoly(mesh, r, coeffs)
        k_vals = applier.apply(kern.kappa1, kern.kappa2, x)
        return to_coeffs(k_vals) + f_coeffs

    update = math.inf
    for iteration in range(1, opts.max_iter + 1):
        if opts.method == "picard":
            c_next = picard_value(c)
            if opts.relax != 1.0:
                c_next = (1.0 - opts.relax) * c + opts.relax * c_next
        else:
            resid = c - picard_value(c)
            jac = np.eye(mesh.n * r) - assemble_linearized(
                prob, PiecewisePoly(mesh, r, c), mesh, r, inner
            )
            delta = _solve_newton_step(jac, -resid.ravel())
            c_next = c + delta.reshape(mesh.n, r)
        update = float(np.max(np.abs(c_next - c)))
        if not math.isfinite(update):
            raise _non_finite(iteration, update, PiecewisePoly(mesh, r, c))
        c = c_next
        if update <= opts.tol:
            residual_poly = PiecewisePoly(mesh, r, c - picard_value(c))
            return GalerkinSolution(
                x_g=PiecewisePoly(mesh, r, c),
                iterations=iteration,
                final_update=update,
                final_residual=_sup_on_rule(residual_poly, outer),
            )

    raise DivergenceError(
        f"no convergence after {opts.max_iter} iterations (last update {update:.3e})",
        last_iterate=PiecewisePoly(mesh, r, c),
        update_norm=update,
    )


def _non_finite(iteration: int, update: float, last_iterate: PiecewisePoly) -> DivergenceError:
    """The error for an update that is NaN or infinite; it carries the last
    finite iterate."""
    return DivergenceError(
        f"non-finite update in iteration {iteration} (update {update})",
        last_iterate=last_iterate,
        update_norm=update,
    )


def _solve_newton_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(rhs))):
        return np.full_like(rhs, np.nan)  # reported by the caller as a non-finite update
    cond = np.linalg.cond(jac)
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularLinearizationError(
            f"linearized system is numerically singular (cond ~ {cond:.2e}); "
            "1 may be an eigenvalue of the operator derivative"
        )
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularLinearizationError(f"linear solve failed: {exc}") from exc


def assemble_linearized(prob: UrysohnProblem, x: PiecewisePoly, mesh: UniformMesh,
                        r: int, rule: GaussRule) -> np.ndarray:
    """Matrix of <K'(x) b_col, b_row> over the cell basis, shape (n r, n r).

    The inner integral splits at the diagonal t = s; the outer one is
    per-cell Gauss with the same rule.  Row block j comes from the p outer
    nodes in cell j, which form one group of the split operator: regular
    cells reuse the fixed basis table, and only the sub-panels of cell j
    need their own.
    """
    kern = prob.kernel
    kern.require_first_derivative()
    n, h, p = mesh.n, mesh.h, rule.p
    inv_sqrt_h = 1.0 / math.sqrt(h)
    table = basis_table(r, rule.nodes)  # (p, r)
    op = SplitOperator(mesh, rule, (mesh.points[:-1, None] + h * rule.nodes).ravel())
    sub, blocks = op.pieces(kern.du_kappa1, kern.du_kappa2, x)

    tau = np.clip((op.t_sub - mesh.points[op.cells][:, None]) / h, 0.0, 1.0)
    own = inv_sqrt_h * np.einsum("sk,skq->sq", sub * op.w_sub, basis_table(r, tau))
    regular = inv_sqrt_h * op.w[:, None] * table  # (p, r) weighted column basis
    test = h * inv_sqrt_h * rule.weights[:, None] * table  # (p, r) outer rule x row basis

    mat = np.empty((n * r, n * r))
    for j, rows, left, right in blocks:
        inner = np.empty((rows.size, n, r))
        inner[:, :j] = left @ regular
        inner[:, j] = own[rows]
        inner[:, j + 1:] = right @ regular
        mat[j * r:(j + 1) * r] = test[rows - j * p].T @ inner.reshape(rows.size, n * r)
    return mat


def iterated_eval(prob: UrysohnProblem, sol: GalerkinSolution, s: float,
                  rule: GaussRule) -> float:
    """The iterated solution x_s(s) = K(x_g)(s) + f(s); continuous in s even
    though x_g is not."""
    if sol.scheme == "paper-discrete":
        return float(_iterated_discrete(sol, float(s)))
    return apply_K(prob, sol.x_g, s, rule, sol.x_g.mesh) + float(
        np.asarray(prob.f(float(s)), dtype=float)
    )


def iterated_at_partition(prob: UrysohnProblem, sol: GalerkinSolution,
                          rule: GaussRule) -> PartitionValues:
    """x_s sampled at every partition point of the solve mesh."""
    mesh = sol.x_g.mesh
    if sol.scheme == "paper-discrete":
        values = _iterated_discrete(sol, mesh.points)
        return PartitionValues(mesh, values)
    kern = prob.kernel
    k_vals = SplitOperator(mesh, rule, mesh.points).apply(kern.kappa1, kern.kappa2, sol.x_g)
    f_vals = np.broadcast_to(np.asarray(prob.f(mesh.points), dtype=float), mesh.points.shape)
    return PartitionValues(mesh, k_vals + f_vals)


def richardson(coarse: PartitionValues, fine: PartitionValues, r: int) -> PartitionValues:
    """One extrapolation step at the coarse partition points.

    Combines values on meshes n and 2n with weight 4^r, cancelling the
    leading h^(2r) error term of the iterated solution.
    """
    if fine.mesh.n != 2 * coarse.mesh.n:
        raise MeshMismatchError(
            f"fine mesh must refine the coarse one: {fine.mesh.n} != 2 * {coarse.mesh.n}"
        )
    weight = float(4 ** r)
    vals = (weight * fine.values[::2] - coarse.values) / (weight - 1.0)
    return PartitionValues(coarse.mesh, vals)


# ---------------------------------------------------------------------------
# Midpoint compatibility scheme ("paper-discrete")


def _midpoints(mesh: UniformMesh) -> np.ndarray:
    return mesh.points[:-1] + 0.5 * mesh.h


def solve_paper_discrete(prob: UrysohnProblem, mesh: UniformMesh,
                         opts: Optional[SolveOptions] = None) -> GalerkinSolution:
    """Piecewise-constant solve with every integral replaced by the one-point
    midpoint rule per cell.

    This reproduces the classical hand-discretized system for r = 1 (with
    its 1/sqrt(h) coefficient scaling made consistent); the default
    full-quadrature solve is preferred whenever quadrature error matters.
    """
    opts = opts if opts is not None else SolveOptions()
    n, h = mesh.n, mesh.h
    mids = _midpoints(mesh)
    f_mid = np.broadcast_to(np.asarray(prob.f(mids), dtype=float), mids.shape)
    s_grid, t_grid = np.meshgrid(mids, mids, indexing="ij")

    guess = opts.initial_guess
    if isinstance(guess, PiecewisePoly):
        if guess.mesh.n != n or guess.r != 1:
            raise ValueError("supplied initial guess lives on a different space")
        x = np.asarray(guess(mids), dtype=float).copy()
    elif guess == "zero":
        x = np.zeros(n)
    else:
        x = f_mid.copy()

    def step_value(xv):
        u = np.broadcast_to(xv, (n, n))
        k_mat = kernel_eval(prob.kernel, s_grid, t_grid, u)
        return h * k_mat.sum(axis=1) + f_mid

    sqrt_h = math.sqrt(h)
    update = math.inf
    for iteration in range(1, opts.max_iter + 1):
        if opts.method == "picard":
            x_next = step_value(x)
            if opts.relax != 1.0:
                x_next = (1.0 - opts.relax) * x + opts.relax * x_next
        else:
            prob.kernel.require_first_derivative()
            u = np.broadcast_to(x, (n, n))
            lower = t_grid <= s_grid
            l_mat = np.empty((n, n))
            l_mat[lower] = prob.kernel.du_kappa1(s_grid[lower], t_grid[lower], u[lower])
            l_mat[~lower] = prob.kernel.du_kappa2(s_grid[~lower], t_grid[~lower], u[~lower])
            jac = np.eye(n) - h * l_mat
            delta = _solve_newton_step(jac, -(x - step_value(x)))
            x_next = x + delta
        update = sqrt_h * float(np.max(np.abs(x_next - x)))  # coefficient scale
        if not math.isfinite(update):
            raise _non_finite(iteration, update, PiecewisePoly(mesh, 1, sqrt_h * x[:, None]))
        x = x_next
        if update <= opts.tol:
            resid = float(np.max(np.abs(x - step_value(x))))
            return GalerkinSolution(
                x_g=PiecewisePoly(mesh, 1, sqrt_h * x[:, None]),
                iterations=iteration,
                final_update=update,
                final_residual=resid,
                scheme="paper-discrete",
            )

    raise DivergenceError(
        f"no convergence after {opts.max_iter} iterations (last update {update:.3e})",
        last_iterate=PiecewisePoly(mesh, 1, sqrt_h * x[:, None]),
        update_norm=update,
    )


def _iterated_discrete(sol: GalerkinSolution, s) -> np.ndarray:
    """Partition-point readout of the midpoint scheme.

    The hand-discretized system only produces cell values of the projected
    iterated solution; its classical extraction at a partition point is the
    average of the two adjacent cell values, which is what the comparison
    tables for this scheme tabulate.  Away from partition points the two
    one-sided values coincide and this is just the cell value.
    """
    x_g = sol.x_g
    return 0.5 * (np.asarray(x_g.eval_left(s), dtype=float)
                  + np.asarray(x_g.eval_right(s), dtype=float))
