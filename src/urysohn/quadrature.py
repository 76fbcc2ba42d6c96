"""Gauss-Legendre quadrature on [0, 1] and composite rules that respect both
mesh cells and an integrand whose formula changes at a point t = s."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_POINTS",
    "GaussRule",
    "gauss_rule",
    "integrate_cell",
    "integrate_split",
]

MAX_POINTS = 64


@dataclass(frozen=True)
class GaussRule:
    """p-point Gauss-Legendre rule mapped to [0, 1]; weights sum to 1."""

    p: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(p: int) -> GaussRule:
    """Build the p-point Gauss-Legendre rule on [0, 1], exact to degree 2p - 1."""
    p = int(p)
    if not 1 <= p <= MAX_POINTS:
        raise ValueError(f"rule size must be in [1, {MAX_POINTS}], got {p}")
    x, w = np.polynomial.legendre.leggauss(p)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return GaussRule(p, nodes, weights)


def _sampled(g, t) -> np.ndarray:
    """Evaluate g at the points t (a scalar or an array), broadcasting
    scalar results to the shape of t."""
    return np.broadcast_to(np.asarray(g(t), dtype=float), np.shape(t))


def integrate_cell(g, a: float, b: float, rule: GaussRule) -> float:
    """Gauss approximation of the integral of g over [a, b]."""
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    width = b - a
    t = a + width * rule.nodes
    return float(width * np.dot(rule.weights, _sampled(g, t)))


class SplitOperator:
    """Integrals split at t = s, for a fixed batch of points s on a mesh.

    For each s in cell j, the integrand's first piece is integrated over
    the regular Gauss panels of cells 0..j-1 and the sub-panel [t_j, s], the
    second piece over the sub-panel [s, t_{j+1}] and cells j+1..n-1.  No
    panel straddles a mesh point or the split.  A sub-panel of zero width
    (s on a mesh point) carries zero weights.

    The geometry is built once: the regular (n, p) node grid ``t`` with the
    panel weights ``w`` shared by every cell, the split cell ``cells`` of
    each s, its sub-panel nodes ``t_sub`` (S, 2p) with weights ``w_sub``
    (first p columns on [t_j, s], last p on [s, t_{j+1}]), and the points
    grouped by split cell.  Work then loops over those groups, at most n,
    and holds one (points in the group, cells, p) block at a time.
    """

    def __init__(self, mesh, rule: GaussRule, s_points):
        s = np.asarray(s_points, dtype=float).ravel()
        cells = mesh.cell_of(s)
        pts, h = mesh.points, mesh.h
        col, lo, hi = s[:, None], pts[cells][:, None], pts[cells + 1][:, None]
        self.mesh, self.rule, self.s, self.cells = mesh, rule, s, cells
        self.t = pts[:-1, None] + h * rule.nodes
        self.w = h * rule.weights
        self.t_sub = np.concatenate([lo + (col - lo) * rule.nodes,
                                     col + (hi - col) * rule.nodes], axis=1)
        self.w_sub = np.concatenate([(col - lo) * rule.weights,
                                     (hi - col) * rule.weights], axis=1)
        order = np.argsort(cells, kind="stable")
        bounds = np.flatnonzero(np.diff(cells[order])) + 1
        self.groups = [(int(cells[rows[0]]), rows) for rows in np.split(order, bounds)
                       if rows.size]

    def _sample(self, x, t, cells):
        """x at nodes t lying in the given cells.  A piecewise polynomial on
        this mesh is evaluated on those cells (its one-sided value at a cell
        edge); anything else is called."""
        if getattr(getattr(x, "mesh", None), "n", None) == self.mesh.n:
            return x.eval_on_cells(t, cells)
        return _sampled(x, t)

    def pieces(self, fn1, fn2, x):
        """Values of fn(s, t, x(t)) on every panel, fn1 left of s and fn2
        right of it.

        Returns ``(sub, blocks)``.  ``sub`` is (S, 2p) on the sub-panels, in
        the layout of ``t_sub``.  ``blocks`` yields ``(j, rows, left,
        right)`` for the points ``rows`` in cell j: fn1 on cells 0..j-1 as
        a (len(rows), j, p) block and fn2 on cells j+1..n-1 as a
        (len(rows), n-j-1, p) block.
        """
        p, n = self.rule.p, self.mesh.n
        x_reg = self._sample(x, self.t, np.arange(n)[:, None])
        x_sub = self._sample(x, self.t_sub, self.cells[:, None])
        col, shape = self.s[:, None], (self.s.size, p)
        sub = np.concatenate([_piece(fn1, col, self.t_sub[:, :p], x_sub[:, :p], shape),
                              _piece(fn2, col, self.t_sub[:, p:], x_sub[:, p:], shape)], axis=1)

        def block(fn, s, cells):
            shape = (s.shape[0], cells.stop - cells.start, p)
            if shape[1] == 0:
                return np.zeros(shape)
            return _piece(fn, s, self.t[cells], x_reg[cells], shape)

        def blocks():
            for j, rows in self.groups:
                s = self.s[rows, None, None]
                yield j, rows, block(fn1, s, slice(0, j)), block(fn2, s, slice(j + 1, n))

        return sub, blocks()

    def apply(self, fn1, fn2, x) -> np.ndarray:
        """Integral of fn1(s, t, x(t)) over [0, s] plus fn2 over [s, 1], at
        every s."""
        sub, blocks = self.pieces(fn1, fn2, x)
        out = np.einsum("sk,sk->s", sub, self.w_sub)
        for _, rows, left, right in blocks:
            out[rows] += (left @ self.w).sum(axis=1) + (right @ self.w).sum(axis=1)
        return out

    def apply_separable(self, a1, b1, a2, b2, g, x) -> np.ndarray:
        """Integral of a1(s) b1(t) g(t, x(t)) over [0, s] plus a2(s) b2(t)
        g(t, x(t)) over [s, 1], at every s, by prefix sums.

        The cells left of the split cell enter through a cumulative sum of
        the cell integrals of b1 g, those right of it through a reversed
        one of b2 g; only the two sub-panels depend on s.  Cost: n p + 2 p S
        evaluations and no (S, n, p) block.
        """
        p, n = self.rule.p, self.mesh.n

        def weighted_g(t, cells, w):
            return np.asarray(g(t, self._sample(x, t, cells)), dtype=float) * w

        g_reg = weighted_g(self.t, np.arange(n)[:, None], self.w)  # (n, p)
        g_sub = weighted_g(self.t_sub, self.cells[:, None], self.w_sub)  # (S, 2p)
        # before[j]: cells 0..j-1 of b1 g; after[j]: cells j..n-1 of b2 g
        before = np.concatenate(([0.0], np.cumsum((_sampled(b1, self.t) * g_reg).sum(axis=1))))
        after = np.concatenate((np.cumsum((_sampled(b2, self.t) * g_reg).sum(axis=1)[::-1])[::-1],
                                [0.0]))
        left = before[self.cells] + (_sampled(b1, self.t_sub[:, :p]) * g_sub[:, :p]).sum(1)
        right = after[self.cells + 1] + (_sampled(b2, self.t_sub[:, p:]) * g_sub[:, p:]).sum(1)
        return _sampled(a1, self.s) * left + _sampled(a2, self.s) * right


def _piece(fn, s, t, xv, shape):
    """fn(s, t, x(t)) broadcast to the block shape (kernels may return
    scalars or arrays independent of some argument)."""
    return np.broadcast_to(np.asarray(fn(s, t, xv), dtype=float), shape)


def integrate_split(g1, g2, s: float, mesh, rule: GaussRule) -> float:
    """Integrate g1 over [0, s] plus g2 over [s, 1], cell by cell.

    The cell containing s is subdivided at s so that neither a mesh point
    nor the split lies inside any Gauss panel; g1 is only evaluated at
    t <= s and g2 only at t >= s.
    """
    op = SplitOperator(mesh, rule, s)
    return float(op.apply(lambda _s, t, _x: g1(t), lambda _s, t, _x: g2(t), np.zeros_like)[0])
