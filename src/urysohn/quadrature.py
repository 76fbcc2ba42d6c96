"""Gauss-Legendre quadrature on [0, 1] and the batched operator that
integrates a two-piece kernel over [0, 1] with every panel split at the
mesh points and at t = s."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_POINTS",
    "GaussRule",
    "gauss_rule",
]

MAX_POINTS = 64

# A level of far-field blocks resolves at q Chebyshev points when the last
# two coefficients of its interpolated values are at most _RESOLVED times
# the largest on the level; else it retries on the 2q - 1 nested points, up
# to _MAX_CHEBYSHEV.  The top level starts at _FIRST_CHEBYSHEV points, each
# deeper one _MARGIN past the coefficients its parent needed on its blocks.
_RESOLVED = 1e-14
_FIRST_CHEBYSHEV = 17
_MAX_CHEBYSHEV = 65
_MARGIN = 2

# A level that does not resolve is evaluated at its targets in chunks of
# whole target cells of m points: at most _CHUNK kernel values per call, or
# one target cell against each source cell of the level when that is more.
_CHUNK = 2 ** 16


@dataclass(frozen=True)
class GaussRule:
    """p-point Gauss-Legendre rule mapped to [0, 1]; weights sum to 1."""

    p: int
    nodes: np.ndarray = field(init=False, compare=False)
    weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _count(self.p, "rule size"))
        if not 1 <= self.p <= MAX_POINTS:
            raise ValueError(f"rule size must be in [1, {MAX_POINTS}], got {self.p}")
        x, w = np.polynomial.legendre.leggauss(self.p)
        object.__setattr__(self, "nodes", _frozen(0.5 * (x + 1.0))[0])
        object.__setattr__(self, "weights", _frozen(0.5 * w)[0])


def gauss_rule(p: int) -> GaussRule:
    """The p-point Gauss-Legendre rule on [0, 1], exact to degree 2p - 1, built once."""
    return _rules(_count(p, "rule size"))


_rules = cache(GaussRule)


def _count(value, what: str) -> int:
    """A size given as an integer (a bool or a float is not one), as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _frozen(*arrays):
    """The arrays, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sampled(g, t) -> np.ndarray:
    """Evaluate g at the points t (a scalar or an array), broadcasting
    scalar results to the shape of t."""
    return np.broadcast_to(np.asarray(g(t), dtype=float), np.shape(t))


@cache
def _chebyshev(q: int):
    """The q <= _MAX_CHEBYSHEV Chebyshev points of the second kind on [-1,
    1], from 1 down to -1, and their barycentric weights, built once."""
    bary = np.where(np.arange(q) % 2, -1.0, 1.0)
    bary[[0, -1]] *= 0.5
    return _frozen(np.cos(np.pi * np.arange(q) / max(q - 1, 1)), bary)


def _mapped(x, lo, hi):
    """Points x of [-1, 1] mapped to each interval [lo, hi], shape
    lo.shape + x.shape; x = -1 and 1 give lo and hi exactly."""
    return np.multiply.outer(lo, 0.5 * (1.0 - x)) + np.multiply.outer(hi, 0.5 * (1.0 + x))


@cache
def _to_coefficients(q: int) -> np.ndarray:
    """The matrix from values at the q Chebyshev points of the second kind
    to the coefficients of their interpolant (a DCT-I), built once."""
    k = np.arange(q)
    mat = np.cos(np.pi * np.outer(k, k) / (q - 1)) * (2.0 / (q - 1))
    mat[:, [0, -1]] *= 0.5
    mat[[0, -1]] *= 0.5
    return _frozen(mat)[0]


def _interpolation(xi, x, bary) -> np.ndarray:
    """Barycentric weights (R, q) from the points x to each of the R points
    xi; an xi that is one of the points takes that value exactly."""
    weights = np.subtract.outer(xi, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bary, weights, out=weights)
        total = weights.sum(axis=1)
        weights /= total[:, None]
    exact = ~np.isfinite(total)  # xi is a point: bary / 0 in its row
    weights[exact] = xi[exact, None] == x
    return weights


class _Level(NamedTuple):
    """The far-field blocks of one level of the cell tree that hold some
    target, fn1 blocks (sources left of the targets) first, and their
    targets, block by block."""

    lo: np.ndarray  # (B,) the interval of the target cells
    hi: np.ndarray
    count: np.ndarray  # (B,) targets per block
    targets: np.ndarray  # (R,) index of each target among the points
    block: np.ndarray  # (R,) the block of each target
    col: np.ndarray  # (R,) its place among the targets of its block
    xi: np.ndarray  # (R,) it mapped from its target cells to [-1, 1]
    cells: np.ndarray  # (C,) the source cells of every block
    cell_block: np.ndarray  # (C,) the block of each
    first_cell: np.ndarray  # (B,) where each block's source cells start
    split: int  # the first source cell of an fn2 block
    tgt_cells: np.ndarray  # (B, mt) target cells, the spare cell n past a block's last
    src_cells: np.ndarray  # (B, ms) source cells, likewise
    gather: np.ndarray  # (B, ms) their places in ``cells``, then the places after


class _Kept:
    """A level's geometry for q Chebyshev points, read-only: ``nodes`` (B,
    q), the points on each block's target cells.  On first use:
    ``weights``, the distinct rows (U, q) from node values to a target and
    each target's row (R,); the ``test_sums`` of each order r."""

    def __init__(self, lev: _Level, q: int):
        self.lev, self._sums = lev, {}
        self.nodes = _frozen(_mapped(_chebyshev(q)[0], lev.lo, lev.hi))[0]

    @cached_property
    def weights(self):
        key, inverse = np.unique(self.lev.xi, return_inverse=True)
        return _frozen(_interpolation(key, *_chebyshev(self.nodes.shape[1])), inverse.ravel())

    def test_sums(self, r: int, test: np.ndarray) -> np.ndarray:
        """test (m, r) on each target cell's weights, (B, mt r, q)."""
        if r not in self._sums:
            lev, (weights, inverse) = self.lev, self.weights
            (blocks, cells), m = lev.tgt_cells.shape, test.shape[0]
            first = np.cumsum(lev.count) - lev.count
            at = np.minimum(first[:, None] + np.arange(cells * m), inverse.size - 1)
            sums = test.T @ weights[inverse[at]].reshape(blocks, cells, m, -1)
            self._sums[r] = _frozen(sums.reshape(blocks, cells * r, -1))[0]
        return self._sums[r]


def _spread(cells: np.ndarray, r: int) -> np.ndarray:
    """The r rows of each cell (B, k): (B, k r)."""
    return (cells[:, :, None] * r + np.arange(r)).reshape(len(cells), -1)


def _ranges(bounds: np.ndarray):
    """The integers of every range [lo, hi) in bounds (B, 2), one after the
    other, and where each range starts in that list."""
    size = bounds[:, 1] - bounds[:, 0]
    start = np.cumsum(size) - size
    return np.repeat(bounds[:, 0] - start, size) + np.arange(size.sum()), start


class SplitOperator:
    """Integrals split at t = s, for a fixed batch of points s on a mesh.

    For each s in cell j, the integrand's first piece is integrated over
    the regular Gauss panels of cells 0..j-1 and the sub-panel [t_j, s], the
    second piece over the sub-panel [s, t_{j+1}] and cells j+1..n-1.  No
    panel straddles a mesh point or the split; a sub-panel of zero width
    (s on a mesh point) carries zero weights.  Built once and kept
    read-only: the node grid ``t`` (n, p) with the panel weights ``w``, the
    split cell ``cells`` of each s, its sub-panel nodes ``t_sub`` (S, 2p)
    and weights ``w_sub`` (first p columns on [t_j, s]), and on its first
    read the ``basis`` table of each order r at either node set or the rule.

    The regular cells are reached through an even bisection of the cells into
    a binary tree.  At each node the targets in the right child see the left
    child only through fn1, those in the left child the right child only
    through fn2.  Each piece is smooth in s on its own triangle, so a level
    with a block of more than q targets is interpolated from q Chebyshev
    points on each block's target cells, other levels at their targets.  Each
    level checks its q at every call (``_resolve``) and keeps what does not
    depend on x for each q (``_Kept``): two kernel calls per level and try
    (more, in chunks, at the targets) and two for the sub-panels.
    """

    def __init__(self, mesh, rule: GaussRule, s_points):
        s = np.asarray(s_points, dtype=float).ravel()
        cells = mesh.cell_of(s)
        pts, h = mesh.points, mesh.h
        col, lo, hi = s[:, None], pts[cells][:, None], pts[cells + 1][:, None]
        self.mesh, self.rule, self.s, self.cells = mesh, rule, s, cells
        self.t = mesh.grid(rule.nodes)
        self.w = h * rule.weights
        self.t_sub = np.concatenate([lo + (col - lo) * rule.nodes,
                                     col + (hi - col) * rule.nodes], axis=1)
        self.w_sub = np.concatenate([(col - lo) * rule.weights,
                                     (hi - col) * rule.weights], axis=1)
        grid_cells = np.arange(mesh.n)[:, None]
        _frozen(self.s, self.cells, self.t, self.w, self.t_sub, self.w_sub, grid_cells)
        self._nodes = ((self.t, grid_cells), (self.t_sub, cells[:, None]))
        self._tables, self._kept = {}, {}

    def basis(self, r: int, sub: bool | None):
        """``basis_table`` of order r at the rule's nodes (p, r) with ``sub``
        None, else at the clipped cell-local coordinates of the node grid (n,
        p, r) or with ``sub`` of the sub-panel nodes (S, 2p, r), built once."""
        from .piecewise import basis_table  # piecewise imports this module
        if (r, sub) not in self._tables:
            tau = self.rule.nodes if sub is None else self.mesh.local(*self._nodes[sub])
            self._tables[r, sub] = _frozen(basis_table(r, tau))[0]
        return self._tables[r, sub]

    def _sample(self, x, sub: bool):
        """x at the node grid, or with ``sub`` at the sub-panel nodes; a pair
        (x, v) gives both, stacked on a last axis.  A piecewise polynomial
        on this mesh is read from their basis table (its one-sided value at
        a cell edge); anything else is called."""
        if isinstance(x, tuple):
            return np.stack([self._sample(y, sub) for y in x], axis=-1)
        t, cells = self._nodes[sub]
        if getattr(x, "mesh", None) == self.mesh:
            return x.eval_on_cells(self.basis(x.r, sub), cells)
        return _sampled(x, t)

    @cached_property
    def _tree(self) -> list:
        """The ``_Level`` of every depth of the cell tree that has a block
        with some target, top first."""
        n, pts = self.mesh.n, self.mesh.points
        order = np.argsort(self.cells, kind="stable")
        first = np.searchsorted(self.cells[order], np.arange(n + 1))
        levels, nodes = [], [(0, n)]
        while nodes := [(lo, hi) for lo, hi in nodes if hi - lo > 1]:
            left = [(lo, (lo + hi) // 2) for lo, hi in nodes]
            right = [((lo + hi) // 2, hi) for lo, hi in nodes]
            tgt, src = np.array(right + left), np.array(left + right)
            nodes = left + right
            keep = first[tgt[:, 1]] > first[tgt[:, 0]]
            if not keep.any():
                continue
            half = int(keep[:len(left)].sum())
            tgt, src = tgt[keep], src[keep]
            rows = first[tgt]
            count = rows[:, 1] - rows[:, 0]
            pos, _ = _ranges(rows)
            block = np.repeat(np.arange(len(tgt)), count)
            lo, hi = pts[tgt[:, 0]], pts[tgt[:, 1]]
            s = self.s[order[pos]]
            xi = ((s - lo[block]) - (hi[block] - s)) / (hi - lo)[block]  # -1 and 1 exactly
            cells, first_cell = _ranges(src)
            m_t, m_s = np.diff(tgt).ravel(), np.diff(src).ravel()
            local, ms = np.arange(m_t.max()), np.arange(m_s.max())
            levels.append(_Level(
                lo=lo, hi=hi, count=count,
                targets=order[pos], block=block, col=pos - rows[block, 0], xi=xi, cells=cells,
                cell_block=np.repeat(np.arange(len(tgt)), m_s),
                first_cell=first_cell, split=first_cell[half] if half < len(tgt) else cells.size,
                tgt_cells=np.where(local < m_t[:, None], tgt[:, :1] + local, n),
                src_cells=np.where(ms < m_s[:, None], src[:, :1] + ms, n),
                gather=np.minimum(first_cell[:, None] + ms, cells.size - 1)))
        return levels

    def _kept_at(self, level: int, q: int) -> _Kept:
        """The ``_Kept`` of a level for q Chebyshev points, built once."""
        if (level, q) not in self._kept:
            self._kept[level, q] = _Kept(self._tree[level], q)
        return self._kept[level, q]

    def _far_field(self, fn1, fn2, x, r=None):
        """Level by level, ``(level, kept, start, values)``: fn(node, t, x(t))
        summed against ``w`` over each block's sources (B, q), or with an
        order r against the r basis functions on each source cell (C, q, r),
        at the nodes of ``kept``; for a level with no block of more than q
        targets or that does not resolve, kept None, at its targets (target i
        at node ``col[i]``) in chunks of p columns, or with r of the S/n
        points of a target cell."""
        p, q = self.rule.p, _FIRST_CHEBYSHEV
        x_reg = self._sample(x, sub=False)
        against, m = self.w, p
        if r is not None:
            phi = 1.0 / math.sqrt(self.mesh.h) * self.basis(r, None)  # (p, r)
            against, m = self.w[:, None] * phi, self.s.size // self.mesh.n
        for i, lev in enumerate(self._tree):
            def values_at(nodes, lev=lev):
                values = self._against(fn1, fn2, nodes, lev, x_reg, against)
                return np.add.reduceat(values, lev.first_cell) if r is None else values

            if lev.count.max() > q:
                kept, values, q = self._resolve(i, q, values_at)
                if kept is not None:
                    yield lev, kept, 0, values
                    continue
            nodes = np.repeat(lev.lo[:, None], int(lev.count.max()), axis=1)
            nodes[lev.block, lev.col] = self.s[lev.targets]
            width = m * max(1, _CHUNK // (lev.cells.size * m * p))
            for start in range(0, nodes.shape[1], width):
                yield lev, None, start, values_at(nodes[:, start:start + width])

    def _resolve(self, level: int, q: int, values_at):
        """``(kept, values, next q)`` where the level's rows (blocks, or
        source cells) resolve, the next level starting at the coefficients
        needed here scaled by (w'/w)^k.  None, None and q when a row is zero
        at every point (no sign of its smoothness), or no q up to
        _MAX_CHEBYSHEV that some block has more targets than resolves."""
        start, lev, kept = q, self._tree[level], self._kept_at(level, q)
        values = values_at(kept.nodes)
        if not values.reshape(len(values), -1).any(axis=1).all():
            return None, None, start
        while True:  # mag: each coefficient's largest on the level
            mag = np.abs(values.reshape(len(values), q, -1).swapaxes(1, 2).reshape(-1, q)
                         @ _to_coefficients(q).T).max(axis=0)
            if max(mag[-2:]) <= _RESOLVED * mag.max():
                break
            q = 2 * q - 1  # the q points are every other one of these
            if q > _MAX_CHEBYSHEV or lev.count.max() <= q:
                return None, None, start
            kept, both = self._kept_at(level, q), np.empty((len(values), q) + values.shape[2:])
            both[:, ::2], both[:, 1::2] = values, values_at(kept.nodes[:, 1::2])
            values = both
        widest = [(b.hi - b.lo).max() for b in self._tree[level:level + 2]]  # here and below
        ratio = widest[-1] / widest[0]
        small = mag * ratio ** np.arange(q) <= _RESOLVED * mag.max()
        return kept, values, max(int(np.argmax(small[:-1] & small[1:])) + _MARGIN, 3)

    def _against(self, fn1, fn2, nodes, lev, x_reg, against) -> np.ndarray:
        """fn1, then fn2 from cell ``split``, at the nodes of each source
        cell's block against ``against`` on its Gauss nodes: (C, Q, ...)."""
        t, xv = self.t[lev.cells][:, None, :], x_reg[lev.cells][:, None, :]
        s, k = nodes[lev.cell_block][:, :, None], lev.split
        shape = (s.shape[1], self.rule.p)
        out = np.empty(s.shape[:2] + against.shape[1:])
        out[:k] = _piece(fn1, (k,) + shape, s[:k], t[:k], xv[:k]) @ against
        out[k:] = _piece(fn2, (len(s) - k,) + shape, s[k:], t[k:], xv[k:]) @ against
        return out

    def _sub_panels(self, fn1, fn2, x) -> np.ndarray:
        """fn1 on [t_j, s] and fn2 on [s, t_{j+1}], (S, 2p) in the layout of
        ``t_sub``."""
        p = self.rule.p
        x_sub = self._sample(x, sub=True)
        col, shape = self.s[:, None], (self.s.size, p)
        return np.concatenate([_piece(fn1, shape, col, self.t_sub[:, :p], x_sub[:, :p]),
                               _piece(fn2, shape, col, self.t_sub[:, p:], x_sub[:, p:])], axis=1)

    def apply(self, fn1, fn2, x) -> np.ndarray:
        """Integral of fn1(s, t, x(t)) over [0, s] plus fn2 over [s, 1], at
        every s."""
        out = np.einsum("sk,sk->s", self._sub_panels(fn1, fn2, x), self.w_sub)
        for lev, kept, start, at_nodes in self._far_field(fn1, fn2, x):
            if kept is None:
                here = (lev.col >= start) & (lev.col < start + at_nodes.shape[1])
                out[lev.targets[here]] += at_nodes[lev.block[here], lev.col[here] - start]
            else:
                out[lev.targets] += (at_nodes @ kept.weights[0].T)[lev.block, kept.weights[1]]
        return out

    def matrix(self, fn1, fn2, x, test: np.ndarray) -> np.ndarray:
        """Galerkin matrix of the split integral over the r orthonormal cell
        basis functions phi: entry ((j, a), (k, b)) is the sum over the m
        points s in cell j of their ``test`` weights (m, r) for phi_a times
        the integral over cell k of fn(s, t, x(t)) phi_b(t), fn1 left of s
        and fn2 right of it.  Shape (n r, n r).

        The points must be the test weights' m nodes in every cell, cell by
        cell.  A far-field block enters as a rank-Q product: the test sums
        of its weights times fn at its nodes against the basis on its source
        cells.  Only the diagonal blocks use the sub-panels.
        """
        n, (m, r) = self.mesh.n, test.shape
        own = self._diagonal(self._sub_panels(fn1, fn2, x), test)
        # one spare cell past the last takes the padding of smaller blocks
        mat = np.zeros((n + 1, r, n + 1, r))
        mat[np.arange(n), :, np.arange(n), :] = own
        mat = mat.reshape((n + 1) * r, (n + 1) * r)
        for lev, kept, start, values in self._far_field(fn1, fn2, x, r):
            blocks, nodes = len(lev.count), values.shape[1]  # padded to the most source cells:
            rhs = values[lev.gather].transpose(0, 2, 1, 3).reshape(blocks, nodes, -1)
            if kept is None:  # the nodes are the targets of whole cells
                local = start // m + np.arange(nodes // m)
                block = test.T @ rhs.reshape(blocks, local.size, m, -1)
            else:  # every block padded to the most target cells
                local, block = slice(None), kept.test_sums(r, test) @ rhs
            rows, cols = _spread(lev.tgt_cells[:, local], r), _spread(lev.src_cells, r)
            mat[rows[:, :, None], cols[:, None, :]] = block.reshape(blocks, rows.shape[1], -1)
        return mat[:n * r, :n * r]

    def _diagonal(self, sub: np.ndarray, test: np.ndarray) -> np.ndarray:
        """The split cells' Galerkin blocks (n, r, r) from fn at the sub-panel nodes (S, 2p)."""
        n, (m, r) = self.mesh.n, test.shape
        own = np.einsum("sk,skb->sb", sub * self.w_sub,
                        (1.0 / math.sqrt(self.mesh.h)) * self.basis(r, sub=True))
        return test.T @ own.reshape(n, m, r)

    def _factors(self, a1, b1, a2, b2):
        """a1 and a2 at the points s, b1 and b2 at the node grid and at the
        sub-panel nodes of their side."""
        p = self.rule.p
        return (_sampled(a1, self.s), _sampled(b1, self.t), _sampled(b1, self.t_sub[:, :p]),
                _sampled(a2, self.s), _sampled(b2, self.t), _sampled(b2, self.t_sub[:, p:]))

    def separable(self, a1, b1, a2, b2, g, x) -> np.ndarray:
        """The integral of a1(s) b1(t) g(t, x(t)) over [0, s] plus a2(s)
        b2(t) g(t, x(t)) over [s, 1], at every s, by prefix sums of the cell
        integrals of b1 g and b2 g (reversed); only the two sub-panels
        depend on s.  g is read at n p + 2 p S points, with no (S, n, p)
        block."""
        p = self.rule.p
        a1_s, b1_reg, b1_sub, a2_s, b2_reg, b2_sub = self._factors(a1, b1, a2, b2)
        g_w = self.w * _piece(g, self.t.shape, self.t, self._sample(x, sub=False))
        g_sub = np.asarray(g(self.t_sub, self._sample(x, sub=True)), dtype=float) * self.w_sub
        before, after = _prefix_sums(b1_reg * g_w, b2_reg * g_w)
        left = before[self.cells] + (b1_sub * g_sub[:, :p]).sum(1)
        right = after[self.cells] + (b2_sub * g_sub[:, p:]).sum(1)
        return a1_s * left + a2_s * right

    def galerkin(self, a1, b1, a2, b2, psi, dpsi, outer: GaussRule, test: np.ndarray):
        """``(value, jacobian)`` by product integration, for points that are
        the outer rule's nodes in every cell and ``test`` (m, r) its test
        weights: ``value(x)`` the Galerkin coefficients of ``separable``'s
        integral of g = psi, ``jacobian(x)`` their exact Jacobian in the
        coefficients of x, from dpsi.  psi is read on the node grid and
        interpolated on each cell by the Lagrange basis L_l of its p nodes:
        the split cell enters as sum_l psi_jl M[j, l, i], M the sub-panel
        sums of the test weights times a b L_l, the other cells as the prefix
        sums times the test sums of a1 and a2 (rank-one Jacobian blocks).
        Exact to roundoff for psi of degree < p on every cell; where psi (or
        dpsi phi_b) is not finite or has, in some cell, one of its last two
        Legendre coefficients above _RESOLVED times the largest over all
        cells, the split cells take psi (or dpsi) on the sub-panels instead."""
        n, (m, r), p, h = self.mesh.n, test.shape, self.rule.p, self.mesh.h
        a1_s, b1_reg, b1_sub, a2_s, b2_reg, b2_sub = self._factors(a1, b1, a2, b2)
        tau, sigma = self.rule.nodes, outer.nodes[:, None]
        local = np.concatenate([sigma * tau, sigma + (1.0 - sigma) * tau], axis=1)  # (m, 2p)
        bary = (-1.0) ** np.arange(p) * np.sqrt(tau * (1.0 - tau) * self.rule.weights)
        lagrange = _interpolation(local.ravel(), tau, bary).reshape(m, 2 * p, p)

        def ab():  # a(s) b(t) at the sub-panel nodes, (S, 2p)
            return np.concatenate([a1_s[:, None] * b1_sub, a2_s[:, None] * b2_sub], axis=1)

        own = ab() * self.w_sub
        split = np.einsum("jkq,kql,ki->jli", own.reshape(n, m, 2 * p), lagrange, test,
                          optimize=True)  # M
        pa1, pa2 = a1_s.reshape(n, m) @ test, a2_s.reshape(n, m) @ test  # (n, r)
        legendre = (self.rule.weights[:, None] * self.basis(p, None)).T  # values to coefficients
        phi = self.basis(r, None) / math.sqrt(h)  # d x(t) / d c in every cell, (p, r)

        table, grid_cells = self.basis(r, sub=False), self._nodes[False][1]

        def resolved(vals) -> bool:  # vals (k, p): k functions, each on its cell's p nodes
            if not np.isfinite(vals).all():  # checked first: inf - inf warns in the product
                return False
            coeffs = np.abs(vals @ legendre.T)
            top = coeffs.max()
            return math.isfinite(top) and not (coeffs[:, -2:] > _RESOLVED * top).any()

        def value(x):  # x a PiecewisePoly of order r on this mesh
            g_reg = _piece(psi, self.t.shape, self.t, x.eval_on_cells(table, grid_cells))
            g_w = g_reg * self.w
            before, after = _prefix_sums(b1_reg * g_w, b2_reg * g_w)
            own = (np.einsum("jl,jli->ji", g_reg, split) if resolved(g_reg) else
                   (ab() * self.w_sub * psi(self.t_sub, self._sample(x, sub=True))).sum(1)
                   .reshape(n, m) @ test)
            return pa1 * before[:, None] + pa2 * after[:, None] + own

        def jacobian(x):
            d_phi = _piece(dpsi, self.t.shape, self.t, self._sample(x, sub=False))[..., None] * phi
            own = (np.einsum("jli,jlb->jib", split, d_phi)
                   if resolved(d_phi.swapaxes(1, 2).reshape(-1, p))
                   else self._diagonal(ab() * dpsi(self.t_sub, self._sample(x, sub=True)), test))
            q1, q2 = (np.einsum("jl,jlb->jb", b_reg * self.w, d_phi) for b_reg in (b1_reg, b2_reg))
            mat = pa2[:, :, None, None] * q2  # source cell right of the target
            np.multiply(pa1[:, :, None, None], q1, out=mat,
                        where=np.tri(n, k=-1, dtype=bool)[:, None, :, None])  # left of it
            mat[np.arange(n), :, np.arange(n), :] = own
            return mat.reshape(n * r, n * r)

        return value, jacobian


def _prefix_sums(b1g: np.ndarray, b2g: np.ndarray):
    """before[j]: cells 0..j-1 of b1 g, summed from cell 0; after[j]: cells
    j+1..n-1 of b2 g, summed from cell n-1."""
    before, after = np.zeros(len(b1g)), np.zeros(len(b2g))
    b1g.sum(axis=1)[:-1].cumsum(out=before[1:])
    b2g.sum(axis=1)[:0:-1].cumsum(out=after[-2::-1])
    return before, after


def _piece(fn, shape, *args):
    """fn(*args) broadcast to the block shape (kernels may return scalars
    or arrays independent of some argument)."""
    out = np.asarray(fn(*args), dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)
