"""Uniform meshes of [0, 1], orthonormal shifted-Legendre cell bases, and the
cell-wise L2 projection onto piecewise polynomials.

The approximating space has no continuity constraints at the partition
points: a member is an independent polynomial of degree <= r-1 on every
cell.  Coefficients are stored against cell-mapped basis functions that are
L2-orthonormal on their cell (scaled by 1/sqrt(h)), so the mass matrix is
the identity and projecting is a single quadrature pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import MAX_POINTS, GaussRule, _count, _frozen, _sampled, gauss_rule

__all__ = [
    "UniformMesh",
    "make_mesh",
    "basis_table",
    "PiecewisePoly",
    "project",
]


@dataclass(frozen=True)
class UniformMesh:
    """The partition {t_i = i/n} of [0, 1] into n cells of width h = 1/n."""

    n: int
    h: float = field(init=False, compare=False)
    points: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "cell count"))
        if self.n < 1:
            raise ValueError(f"cell count must be positive, got {self.n}")
        object.__setattr__(self, "h", 1.0 / self.n)
        object.__setattr__(self, "points", _frozen(np.arange(self.n + 1) / self.n)[0])

    def cell_of(self, s):
        """0-based index of the cell containing s (an int, or an array for an
        array s); interior partition points resolve to the left cell (values
        there are left limits)."""
        arr = np.asarray(s, dtype=float)
        self._check_domain(arr)
        cells = self._cells(arr, side="left")
        return int(cells) if arr.ndim == 0 else cells

    def _check_domain(self, s: np.ndarray) -> None:
        if not np.all((s >= 0.0) & (s <= 1.0)):
            raise ValueError("point outside [0, 1]")

    def _cells(self, s: np.ndarray, side: str) -> np.ndarray:
        return np.clip(np.searchsorted(self.points, s, side=side) - 1, 0, self.n - 1)

    def grid(self, tau) -> np.ndarray:
        """The points tau of [0, 1] mapped into every cell, shape (n, len(tau))."""
        return self.points[:-1, None] + self.h * tau

    def local(self, t: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The coordinates of t in the given cells, mapped and clipped to [0, 1]."""
        return np.clip((t - self.points[cells]) / self.h, 0.0, 1.0)


make_mesh = UniformMesh


def basis_table(r: int, tau: np.ndarray) -> np.ndarray:
    """Values of the first r orthonormal basis polynomials, shape tau.shape + (r,)."""
    r, tau = _order(r), np.asarray(tau, dtype=float)
    x = 2.0 * tau - 1.0
    out = np.empty(x.shape + (r,))
    out[..., 0] = 1.0
    if r > 1:
        out[..., 1] = math.sqrt(3.0) * x
    p_km1, p_k = out[..., 0], x
    for k in range(2, r):
        p_km1, p_k = p_k, ((2 * k - 1) * x * p_k - (k - 1) * p_km1) / k
        out[..., k] = math.sqrt(2 * k + 1) * p_k
    return out


@dataclass(frozen=True)
class PiecewisePoly:
    """A piecewise polynomial of degree <= r-1 per cell, as an (n, r) array of
    coefficients against the cell-mapped orthonormal basis.

    The L2[0, 1] norm is the plain Euclidean norm of the coefficients.
    Members are generally discontinuous at partition points; plain calls
    take the left limit there, and one-sided limits are explicit via
    :meth:`eval_left` / :meth:`eval_right`.
    """

    mesh: UniformMesh
    r: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _order(self.r))
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.mesh.n, self.r):
            raise ValueError(
                f"coefficient array must be {(self.mesh.n, self.r)}, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def _eval(self, s, side: str):
        arr = np.asarray(s, dtype=float)
        self.mesh._check_domain(arr)
        cells = self.mesh._cells(arr, side)
        vals = self.eval_on_cells(basis_table(self.r, self.mesh.local(arr, cells)), cells)
        return float(vals) if arr.ndim == 0 else vals

    def eval_on_cells(self, table: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The values at points of ``cells`` whose ``basis_table`` at their
        cell-local coordinates is ``table``; ``cells`` broadcasts against it."""
        return np.einsum("...q,...q->...", self.coeffs[cells], table) / math.sqrt(self.mesh.h)

    def eval_left(self, s):
        """Left limit; at s = 0 this is the value from the first cell."""
        return self._eval(s, "left")

    __call__ = eval_left

    def eval_right(self, s):
        """Right limit; at s = 1 this is the value from the last cell."""
        return self._eval(s, "right")


def _order(r) -> int:
    """A polynomial order (an integer r >= 1), as an int."""
    r = _count(r, "polynomial order")
    if r < 1:
        raise ValueError(f"polynomial order must be positive, got {r}")
    return r


def _projector(mesh: UniformMesh, r: int):
    """The projection onto order r: its max(r, 10)-point Gauss rule, which
    keeps the quadrature error far below the h^r projection error for
    smooth f, the rule's nodes in every cell (flattened), and the map from
    values at those nodes to projection coefficients."""
    r = _order(r)
    if r > MAX_POINTS:  # the projection rule has max(r, 10) points
        raise ValueError(f"polynomial order must be at most {MAX_POINTS}, got {r}")
    rule = gauss_rule(max(r, 10))
    table = basis_table(r, rule.nodes)  # (p, r)

    def to_coeffs(values: np.ndarray) -> np.ndarray:
        vals = values.reshape(mesh.n, rule.p)
        return math.sqrt(mesh.h) * ((vals * rule.weights) @ table)

    return rule, mesh.grid(rule.nodes).ravel(), to_coeffs


def _test_weights(mesh: UniformMesh, r: int, rule: GaussRule) -> np.ndarray:
    """h (1/sqrt h) w phi (p, r): values at the rule's p nodes in a cell to
    the Galerkin coefficients of order r of that cell."""
    h = mesh.h
    return h * (1.0 / math.sqrt(h)) * rule.weights[:, None] * basis_table(r, rule.nodes)


def project(f, mesh: UniformMesh, r: int) -> PiecewisePoly:
    """Cell-wise L2 projection of f onto piecewise polynomials of degree < r,
    by a max(r, 10)-point Gauss rule per cell."""
    _, nodes, to_coeffs = _projector(mesh, r)
    return PiecewisePoly(mesh=mesh, r=r, coeffs=to_coeffs(_sampled(f, nodes)))
