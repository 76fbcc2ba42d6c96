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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, MeshMismatchError, SingularLinearizationError
from .piecewise import PiecewisePoly, UniformMesh, _order, _projector, basis_table
from .quadrature import MAX_POINTS, GaussRule, _count, _sampled, gauss_rule
from .problems import UrysohnProblem, _bind_galerkin, _like, apply_K

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

# A finite update this many times the first one stops the iteration: no
# converging run of the built-in problems ever took an update above its first.
_GROWTH_LIMIT = 1e6

# An update that has shrunk over the last this many iterations, but at a
# rate that cannot bring it to tol within the iterations left, stops the
# iteration as stagnated.  Updates that grow are left to _GROWTH_LIMIT.
_STALL_WINDOW = 10


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls for the Galerkin solve.

    ``tol`` bounds the sup norm of the coefficient update; ``quad_points``
    sets the Gauss rule used inside the integral operator, at most
    ``MAX_POINTS``.  ``tol`` must be a positive finite number and
    ``max_iter`` and ``quad_points`` integers, stored as ``int``; strings
    and bools are rejected with ValueError.  Every solve starts from the
    projection of f.
    """

    method: str = "picard"
    tol: float = 1e-12
    max_iter: int = 200
    quad_points: int = 10

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol must be a number, got {self.tol!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        object.__setattr__(self, "max_iter", _count(self.max_iter, "max_iter"))
        object.__setattr__(self, "quad_points", _count(self.quad_points, "quad_points"))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 2 <= self.quad_points <= MAX_POINTS:
            raise ValueError(f"quad_points must be in [2, {MAX_POINTS}], got {self.quad_points}")


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


def _sup_on_rule(poly: PiecewisePoly, rule: GaussRule) -> float:
    """Sup of |poly| sampled on the per-cell quadrature grid plus cell edges."""
    table = basis_table(poly.r, np.concatenate(([0.0], rule.nodes, [1.0])))
    return float(np.max(np.abs(poly.eval_on_cells(table, np.arange(poly.mesh.n)[:, None]))))


def solve_galerkin(prob: UrysohnProblem, mesh: UniformMesh, r: int,
                   opts: Optional[SolveOptions] = None) -> GalerkinSolution:
    """Solve the projected equation x = P(K(x) + f) on the piecewise space.

    Picard iterates the fixed point; Newton solves the linearized update
    equation and needs the kernel's first u-derivative pieces.  Raises
    DivergenceError when ``max_iter`` is exhausted or, at once, when an
    update is not finite, keeps growing or stagnates, and
    SingularLinearizationError when the Newton matrix is unusable (a sign
    that 1 is nearly an eigenvalue of the operator derivative).
    """
    opts = opts if opts is not None else SolveOptions()
    outer, nodes, to_coeffs = _projector(mesh, r)
    kern = prob.kernel
    if opts.method == "newton":
        kern.require_first_derivative()

    f_coeffs = to_coeffs(_sampled(prob.f, nodes))
    galerkin, matrix = _bind_galerkin(kern, mesh, r, outer, gauss_rule(opts.quad_points))

    def as_poly(coeffs):
        return PiecewisePoly(mesh, r, coeffs)

    def value(coeffs):
        return galerkin(as_poly(coeffs)) + f_coeffs

    return _iterate(value, lambda coeffs: matrix(as_poly(coeffs)), f_coeffs, opts, 1.0, as_poly,
                    lambda c: _sup_on_rule(as_poly(c - value(c)), outer), "galerkin")


def _iterate(value, jacobian, c0, opts: SolveOptions, scale: float, as_poly, residual,
             scheme: str) -> GalerkinSolution:
    """The one Picard/Newton loop for the fixed point c = value(c), and the
    one place a solve ends.

    Picard takes c <- value(c); Newton solves (I - jacobian(c)) delta =
    value(c) - c.  The update is the sup of the change times ``scale``.
    Float warnings are off in the loop only: an overflow ends in a
    non-finite update, and ``residual(c)`` of the returned solution runs
    with them on.  Every DivergenceError carries ``as_poly`` of the last
    iterate it accepted and the last update.
    """
    c, updates = c0, []

    def stop(message):  # c and update as they stand when it is called
        return DivergenceError(message, last_iterate=as_poly(c), update_norm=update)

    with np.errstate(all="ignore"):
        for iteration in range(1, opts.max_iter + 1):
            if opts.method == "picard":
                c_next = value(c)
            else:
                resid = c - value(c)
                jac = np.eye(c.size) - jacobian(c)
                c_next = c + _solve_newton_step(jac, -resid.ravel()).reshape(c.shape)
            update = scale * float(np.max(np.abs(c_next - c)))
            if not math.isfinite(update):
                raise stop(f"non-finite update in iteration {iteration} (update {update})")
            updates.append(update)
            if update > _GROWTH_LIMIT * updates[0]:
                raise stop(f"update grew to {update:.3e} in iteration {iteration}, more than "
                           f"{_GROWTH_LIMIT:.0e} times the first update {updates[0]:.3e}")
            c = c_next
            if update <= opts.tol:
                break
            if _STALL_WINDOW < iteration < opts.max_iter:
                rate = update / updates[-1 - _STALL_WINDOW]
                left = (opts.max_iter - iteration) / _STALL_WINDOW
                if rate <= 1.0 and update * rate ** left > opts.tol:
                    raise stop(
                        f"update stagnated at {update:.3e} in iteration {iteration}: at its rate "
                        f"over the last {_STALL_WINDOW} iterations ({rate:.3g}) it cannot reach "
                        f"tol {opts.tol:.1e} within max_iter {opts.max_iter}")
        else:
            raise stop(f"no convergence after {iteration} iterations (last update {update:.3e})")
    return GalerkinSolution(as_poly(c), iteration, update, residual(c), scheme)


def _solve_newton_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve jac @ step = rhs, refusing a numerically singular jac.

    The screen is a one-shot estimate of the 1-norm condition number,
    ||jac||_1 max ||jac^-1 v||_1 / ||v||_1 over four fixed +-1 probes v, one
    of them all ones (Higham and Tisseur, SIAM J. Matrix Anal. Appl. 21,
    2000).  The probes get their own solve, so the step is the plain solve
    of rhs.
    """
    if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(rhs))):
        return np.full_like(rhs, np.nan)  # reported by the caller as a non-finite update
    m = rhs.size
    probes = (-1.0) ** (np.arange(m)[:, None] // np.array([m, 1, 2, 3]))
    try:
        images = np.linalg.solve(jac, probes)
    except np.linalg.LinAlgError as exc:
        raise SingularLinearizationError(f"linear solve failed: {exc}") from exc
    cond = np.abs(jac).sum(axis=0).max() * np.abs(images).sum(axis=0).max() / m
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularLinearizationError(
            f"linearized system is numerically singular (cond ~ {cond:.2e}); "
            "1 may be an eigenvalue of the operator derivative"
        )
    return np.linalg.solve(jac, rhs)


def assemble_linearized(prob: UrysohnProblem, x: PiecewisePoly, mesh: UniformMesh,
                        r: int, rule: GaussRule) -> np.ndarray:
    """Matrix of <K'(x) b_col, b_row> over the cell basis, shape (n r, n r):
    the Newton matrix of a solve whose inner and outer rules are ``rule``,
    through the same binding (product integration for a HammersteinKernel,
    else the split panels).
    """
    prob.kernel.require_first_derivative()
    return _bind_galerkin(prob.kernel, mesh, r, rule, rule)[1](x)


def iterated_eval(prob: UrysohnProblem, sol: GalerkinSolution, s, rule: GaussRule):
    """The iterated solution x_s(s) = K(x_g)(s) + f(s); continuous in s even
    though x_g is not.  A float for a scalar s, an array shaped like an
    array s, with one batched operator call for all points."""
    if sol.scheme == "paper-discrete":
        return _like(s, _iterated_discrete(sol, s))
    return _like(s, apply_K(prob, sol.x_g, s, rule, sol.x_g.mesh) + _sampled(prob.f, s))


def iterated_at_partition(prob: UrysohnProblem, sol: GalerkinSolution,
                          rule: GaussRule) -> PartitionValues:
    """x_s sampled at every partition point of the solve mesh."""
    mesh = sol.x_g.mesh
    return PartitionValues(mesh, iterated_eval(prob, sol, mesh.points, rule))


def richardson(coarse: PartitionValues, fine: PartitionValues, r: int) -> PartitionValues:
    """One extrapolation step at the coarse partition points.

    Combines values on meshes n and 2n with weight 4^r, cancelling the
    leading h^(2r) error term of the iterated solution.
    """
    if fine.mesh.n != 2 * coarse.mesh.n:
        raise MeshMismatchError(
            f"fine mesh must refine the coarse one: {fine.mesh.n} != 2 * {coarse.mesh.n}"
        )
    return PartitionValues(coarse.mesh, _extrapolate(coarse.values, fine.values[::2], _order(r)))


def _extrapolate(coarse: np.ndarray, fine: np.ndarray, r: int) -> np.ndarray:
    """(4^r fine - coarse) / (4^r - 1), for x_s on meshes n and 2n at the
    same points."""
    weight = float(4 ** r)
    return (weight * fine - coarse) / (weight - 1.0)


# ---------------------------------------------------------------------------
# Midpoint compatibility scheme ("paper-discrete")


def solve_paper_discrete(prob: UrysohnProblem, mesh: UniformMesh,
                         opts: Optional[SolveOptions] = None) -> GalerkinSolution:
    """Piecewise-constant solve with every integral replaced by the one-point
    midpoint rule per cell.

    This reproduces the classical hand-discretized system for r = 1 (with
    its 1/sqrt(h) coefficient scaling made consistent); the default
    full-quadrature solve is preferred whenever quadrature error matters.
    """
    opts = opts if opts is not None else SolveOptions()
    kern, n, h = prob.kernel, mesh.n, mesh.h
    if opts.method == "newton":
        kern.require_first_derivative()
    mids = mesh.points[:-1] + 0.5 * h
    f_mid = _sampled(prob.f, mids)
    lower = np.tri(n, dtype=bool)  # t_j <= s_i takes kappa1, the diagonal included
    s_grid, t_grid = np.broadcast_to(mids[:, None], (n, n)), np.broadcast_to(mids, (n, n))
    triangles = [(mask, s_grid[mask], t_grid[mask]) for mask in (lower, ~lower)]

    def on_grid(fn1, fn2, xv):  # fn(s_i, t_j, xv[j]), each piece on its own triangle
        out, u_grid = np.empty((n, n)), np.broadcast_to(xv, (n, n))
        for fn, (mask, s, t) in zip((fn1, fn2), triangles):
            out[mask] = fn(s, t, u_grid[mask])
        return out

    def value(xv):
        return h * on_grid(kern.kappa1, kern.kappa2, xv).sum(axis=1) + f_mid

    def jacobian(xv):
        return h * on_grid(kern.du_kappa1, kern.du_kappa2, xv)

    sqrt_h = math.sqrt(h)  # the update is measured on the coefficient scale

    def as_poly(xv):
        return PiecewisePoly(mesh, 1, sqrt_h * xv[:, None])

    return _iterate(value, jacobian, f_mid, opts, sqrt_h, as_poly,
                    lambda x: float(np.max(np.abs(x - value(x)))), "paper-discrete")


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
