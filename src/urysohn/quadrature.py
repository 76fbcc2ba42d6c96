"""Gauss-Legendre quadrature on [0, 1] and the batched operator that
integrates a two-piece kernel over [0, 1] with every panel split at the
mesh points and at t = s."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_POINTS",
    "GaussRule",
    "gauss_rule",
]

MAX_POINTS = 64

# A far-field block is probed at both end nodes of its source cells, on
# _PROBE_POINTS Chebyshev points of its target cells.  A probe needs as
# many points as it has Chebyshev coefficients before the first two in a
# row at most _RESOLVED times the largest, plus _MARGIN; a probe with no
# such pair, or with no nonzero coefficient, does not resolve.  The block
# needs the larger of its two probes and is interpolated when that is at
# most half its targets, so blocks with fewer than 2 (1 + _MARGIN) targets
# get no probe.
_RESOLVED = 1e-14
_PROBE_POINTS = 64
_MARGIN = 1

# A level that is evaluated wholly at its targets, because some block does
# not resolve, takes its nodes in chunks of whole target cells of m points:
# at most _CHUNK kernel values per call, or the m p values of one target
# cell against each of the level's source cells (n m p at most) when that
# is more.  This bounds the working memory of such a level.
_CHUNK = 2 ** 16


@dataclass(frozen=True)
class GaussRule:
    """p-point Gauss-Legendre rule mapped to [0, 1]; weights sum to 1."""

    p: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(p: int) -> GaussRule:
    """The p-point Gauss-Legendre rule on [0, 1], exact to degree 2p - 1, built once."""
    p = int(p)
    if not 1 <= p <= MAX_POINTS:
        raise ValueError(f"rule size must be in [1, {MAX_POINTS}], got {p}")
    return _gauss_rule(p)


@cache
def _gauss_rule(p: int) -> GaussRule:
    x, w = np.polynomial.legendre.leggauss(p)
    return GaussRule(p, *_frozen(0.5 * (x + 1.0), 0.5 * w))


def _frozen(*arrays):
    """The arrays, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sampled(g, t) -> np.ndarray:
    """Evaluate g at the points t (a scalar or an array), broadcasting
    scalar results to the shape of t."""
    return np.broadcast_to(np.asarray(g(t), dtype=float), np.shape(t))


def _chebyshev(q: int):
    """The q Chebyshev points of the second kind on [-1, 1], from 1 down to
    -1, and their barycentric weights."""
    bary = np.where(np.arange(q) % 2, -1.0, 1.0)
    bary[[0, -1]] *= 0.5
    return np.cos(np.pi * np.arange(q) / max(q - 1, 1)), bary


def _mapped(x, lo, hi):
    """Points x of [-1, 1] mapped to each interval [lo, hi], shape
    lo.shape + x.shape; x = -1 and 1 give lo and hi exactly."""
    return np.multiply.outer(lo, 0.5 * (1.0 - x)) + np.multiply.outer(hi, 0.5 * (1.0 + x))


def _to_coefficients(q: int) -> np.ndarray:
    """The matrix from values at the q Chebyshev points of the second kind
    to the coefficients of their Chebyshev interpolant (a DCT-I)."""
    k = np.arange(q)
    mat = np.cos(np.pi * np.outer(k, k) / (q - 1)) * (2.0 / (q - 1))
    mat[:, [0, -1]] *= 0.5
    mat[[0, -1]] *= 0.5
    return mat


_PROBE_COEFFICIENTS = _to_coefficients(_PROBE_POINTS).T


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

    tgt: np.ndarray  # (B, 2) target cells [lo, hi)
    src: np.ndarray  # (B, 2) source cells [lo, hi)
    lo: np.ndarray  # (B,) the interval of the target cells
    hi: np.ndarray
    count: np.ndarray  # (B,) targets per block
    probe: np.ndarray  # (B,) row of each block's probe, -1 for none
    targets: np.ndarray  # (R,) index of each target among the points
    block: np.ndarray  # (R,) the block of each target
    col: np.ndarray  # (R,) its place among the targets of its block
    xi: np.ndarray  # (R,) it mapped from its target cells to [-1, 1]
    cells: np.ndarray  # (C,) the source cells of every block
    cell_block: np.ndarray  # (C,) the block of each
    first_cell: np.ndarray  # (B,) where each block's source cells start
    split: int  # the first source cell of an fn2 block


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
    panel straddles a mesh point or the split.  A sub-panel of zero width
    (s on a mesh point) carries zero weights.

    The geometry is built once: the regular (n, p) node grid ``t`` with the
    panel weights ``w`` shared by every cell, the split cell ``cells`` of
    each s, and its sub-panel nodes ``t_sub`` (S, 2p) with weights ``w_sub``
    (first p columns on [t_j, s], last p on [s, t_{j+1}]).  So are, on
    first use for each order r of x, the basis tables of both node sets.
    The operator keeps only such arrays, which do not depend on x, read-only.

    The regular cells are reached through an even bisection of the cells
    into a binary tree, built on the first split-panel call.  At each node
    the targets in the right child see the left child only through fn1,
    and those in the left child see the right child only through fn2.  Each
    piece is smooth in s on its own triangle, so such a block is evaluated
    at q Chebyshev points of its target cells and interpolated to its
    targets.  q is chosen per level, at every call, from the Chebyshev
    coefficients of two probes of each block (the piece at the first and
    the last node of its source cells) down to about eps.  A block is
    interpolated only when both probes resolve, neither of them zero, with
    at most half as many points as the block has targets, and it has more
    targets than q; any other block is evaluated at its targets by the same
    code, with unit weights.  The work is batched level by level: two
    kernel calls per level (more for a level evaluated wholly at its
    targets, in chunks of whole target cells), two for the probes of all
    levels and two for the sub-panels.
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
        self._tables = {}

    def basis(self, r: int):
        """``basis_table`` of order r at the clipped cell-local coordinates
        of the node grid (n, p, r) and of the sub-panel nodes (S, 2p, r),
        built on the first call for each r."""
        from .piecewise import basis_table  # piecewise imports this module
        if r not in self._tables:
            self._tables[r] = _frozen(*(basis_table(r, self.mesh.local(t, cells))
                                        for t, cells in self._nodes))
        return self._tables[r]

    def _sample(self, x, sub: bool):
        """x at the node grid, or with ``sub`` at the sub-panel nodes; a pair
        (x, v) gives both, stacked on a last axis.  A piecewise polynomial
        on this mesh is read from their basis table (its one-sided value at
        a cell edge); anything else is called."""
        if isinstance(x, tuple):
            return np.stack([self._sample(y, sub) for y in x], axis=-1)
        t, cells = self._nodes[sub]
        if getattr(getattr(x, "mesh", None), "n", None) == self.mesh.n:
            return x.eval_on_table(self.basis(x.r)[sub], cells)
        return _sampled(x, t)

    @cached_property
    def _tree(self):
        """(levels, probes): the ``_Level`` of every depth of the cell tree,
        and the probes of all levels as s (P, _PROBE_POINTS), the flat
        indices of the first and the last source node in the node grid
        (P, 2) and whether it is an fn2 probe (P,)."""
        n, p, pts = self.mesh.n, self.rule.p, self.mesh.points
        order = np.argsort(self.cells, kind="stable")
        first = np.searchsorted(self.cells[order], np.arange(n + 1))
        x_probe = _chebyshev(_PROBE_POINTS)[0]
        levels, probes = [], []
        nodes = [(0, n)]
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
            # each block's piece at the first and the last node of its sources
            ask = np.flatnonzero(count >= 2 * (1 + _MARGIN))
            probe = np.full(len(tgt), -1)
            probe[ask] = sum(len(a) for a, _, _ in probes) + np.arange(ask.size)
            probes.append((_mapped(x_probe, lo[ask], hi[ask]), src[ask] * p - [0, 1],
                           ask >= half))
            cells, first_cell = _ranges(src)
            levels.append(_Level(
                tgt=tgt, src=src, lo=lo, hi=hi, count=count, probe=probe,
                targets=order[pos], block=block, col=pos - rows[block, 0], xi=xi, cells=cells,
                cell_block=np.repeat(np.arange(len(tgt)), np.diff(src).ravel()),
                first_cell=first_cell, split=first_cell[half] if half < len(tgt) else cells.size))
        s = np.concatenate([np.empty((0, _PROBE_POINTS))] + [a for a, _, _ in probes])
        at = np.concatenate([np.empty((0, 2), dtype=int)] + [a for _, a, _ in probes])
        of_fn2 = np.concatenate([np.empty(0, dtype=bool)] + [a for _, _, a in probes])
        return levels, (s, at, of_fn2)

    def _ranks(self, fn1, fn2, x_reg) -> list:
        """For every level, q and which blocks are interpolated."""
        levels, (s, at, of_fn2) = self._tree
        t = self.t.ravel()[at, None]  # (P, 2, 1)
        xv = x_reg.reshape((-1,) + x_reg.shape[2:])[at, None]  # a pair (x, v) keeps its axis
        vals = np.empty(at.shape + (_PROBE_POINTS,))  # (P, 2, _PROBE_POINTS)
        for fn, rows in ((fn1, ~of_fn2), (fn2, of_fn2)):
            vals[rows] = _piece(fn, s[rows, None], t[rows], xv[rows],
                                (rows.sum(),) + vals.shape[1:])
        mag = np.abs(vals @ _PROBE_COEFFICIENTS)  # Chebyshev coefficients of each probe
        top = mag.max(axis=2)
        small = mag <= _RESOLVED * top[..., None]
        tail = small[..., :-1] & small[..., 1:]  # two small coefficients in a row
        # a probe that is zero tells nothing of the piece near its node
        need = np.where(tail.any(axis=2) & (top > 0), np.argmax(tail, axis=2), _PROBE_POINTS)
        need = need.max(axis=1)  # both ends of each block's sources
        need = np.append(need, _PROBE_POINTS)  # what probe -1 reads: not resolved
        ranks = []
        for lev in levels:
            need_here = need[lev.probe] + _MARGIN
            # worth it: resolved, with at most half as many points as targets
            worth = (need_here <= _PROBE_POINTS) & (2 * need_here <= lev.count)
            q = max(2, int(need_here[worth].max(initial=0)))
            ranks.append((q, worth & (lev.count > q)))
        return ranks

    def _far_field(self, fn1, fn2, x, against, m):
        """Level by level, ``(level, start, weights, values)``.  Every block
        of the level gets Q nodes: the Chebyshev points of its target
        cells, with a direct block's own targets in front.  ``weights``
        (R, Q) take the values at a block's nodes to its targets,
        interpolating or picking a node; ``values`` (C, Q, ...) hold
        fn(node, t, x(t)) against ``against``, (p,) or (p, r), over the
        Gauss nodes of each source cell.  A level whose direct blocks hold
        more than 2q targets (some block does not resolve) is evaluated
        wholly at the targets: ``weights`` is None, target i reads node
        ``col[i]``, and the nodes come in chunks of a multiple of m (whole
        cells when each holds m targets), ``values`` holding nodes
        ``start`` onwards."""
        p = self.rule.p
        x_reg = self._sample(x, sub=False)
        for lev, (q, interp) in zip(self._tree[0], self._ranks(fn1, fn2, x_reg)):
            size = int(lev.count[~interp].max(initial=0))
            weighted = interp.any() and size <= 2 * q
            x_cheb, bary = _chebyshev(max(q, size) if weighted else int(lev.count.max()))
            nodes = _mapped(x_cheb, lev.lo, lev.hi)  # (B, Q)
            weights = _interpolation(lev.xi, x_cheb, bary) if weighted else None
            if size:
                direct = np.flatnonzero(~interp[lev.block]) if weighted else slice(None)
                cols = lev.col[direct]
                nodes[lev.block[direct], cols] = self.s[lev.targets[direct]]
                if weighted:
                    weights[direct] = 0.0
                    weights[direct, cols] = 1.0
            chunk_cells = max(1, _CHUNK // (lev.cells.size * m * p))
            width = x_cheb.size if weighted else m * chunk_cells
            for start in range(0, x_cheb.size, width):
                yield lev, start, weights, self._against(
                    fn1, fn2, nodes[:, start:start + width], lev, x_reg, against)

    def _against(self, fn1, fn2, nodes, lev, x_reg, against) -> np.ndarray:
        """For every source cell of the level, fn at the nodes of its block
        (fn1 for the cells of fn1 blocks, fn2 after) against ``against`` on
        the cell's Gauss nodes: (C, Q) + against.shape[1:]."""
        t, xv = self.t[lev.cells][:, None, :], x_reg[lev.cells][:, None, :]
        s, k = nodes[lev.cell_block][:, :, None], lev.split
        shape = (s.shape[1], self.rule.p)
        out = np.empty(s.shape[:2] + against.shape[1:])
        out[:k] = _piece(fn1, s[:k], t[:k], xv[:k], (k,) + shape) @ against
        out[k:] = _piece(fn2, s[k:], t[k:], xv[k:], (len(s) - k,) + shape) @ against
        return out

    def _sub_panels(self, fn1, fn2, x) -> np.ndarray:
        """fn1 on [t_j, s] and fn2 on [s, t_{j+1}], (S, 2p) in the layout of
        ``t_sub``."""
        p = self.rule.p
        x_sub = self._sample(x, sub=True)
        col, shape = self.s[:, None], (self.s.size, p)
        return np.concatenate([_piece(fn1, col, self.t_sub[:, :p], x_sub[:, :p], shape),
                               _piece(fn2, col, self.t_sub[:, p:], x_sub[:, p:], shape)], axis=1)

    def apply(self, fn1, fn2, x) -> np.ndarray:
        """Integral of fn1(s, t, x(t)) over [0, s] plus fn2 over [s, 1], at
        every s."""
        out = np.einsum("sk,sk->s", self._sub_panels(fn1, fn2, x), self.w_sub)
        for lev, start, weights, values in self._far_field(fn1, fn2, x, self.w, self.rule.p):
            at_nodes = np.add.reduceat(values, lev.first_cell)  # (B, nodes from start)
            if weights is None:
                here = (lev.col >= start) & (lev.col < start + at_nodes.shape[1])
                out[lev.targets[here]] += at_nodes[lev.block[here], lev.col[here] - start]
            else:
                out[lev.targets] += np.einsum("rq,rq->r", weights, at_nodes[lev.block])
        return out

    def matrix(self, fn1, fn2, x, r: int, outer: GaussRule) -> np.ndarray:
        """Galerkin matrix of the split integral over the r orthonormal cell
        basis functions phi: entry ((j, a), (k, b)) is the ``outer`` rule's
        sum over its nodes s in cell j of phi_a(s) times the integral over
        cell k of fn(s, t, x(t)) phi_b(t), fn1 left of s and fn2 right of
        it.  Shape (n r, n r).

        The points must be the outer rule's nodes in every cell, cell by
        cell (``mesh.grid(outer.nodes)``).  The test weights and the basis
        at the sub-panel nodes and at this operator's rule's nodes are built
        here.  A far-field block enters as a rank-Q product: the test sums
        of the interpolation weights on its target cells times fn at the
        Chebyshev points against the basis on its source cells.  Only the
        diagonal blocks use the sub-panels.
        """
        from .piecewise import basis_table  # piecewise imports this module
        n, m, h = self.mesh.n, outer.p, self.mesh.h
        inv_sqrt_h = 1.0 / math.sqrt(h)
        test = self._test_weights(r, outer)
        own = np.einsum("sk,skb->sb", self._sub_panels(fn1, fn2, x) * self.w_sub,
                        inv_sqrt_h * self.basis(r)[1])
        # one spare cell past the last takes the padding of smaller blocks
        mat = np.zeros((n + 1, r, n + 1, r))
        mat[np.arange(n), :, np.arange(n), :] = test.T @ own.reshape(n, m, r)
        mat = mat.reshape((n + 1) * r, (n + 1) * r)

        regular = self.w[:, None] * (inv_sqrt_h * basis_table(r, self.rule.nodes))  # (p, r)
        for lev, start, weights, values in self._far_field(fn1, fn2, x, regular, m):
            m_t, m_s = np.diff(lev.tgt).ravel(), np.diff(lev.src).ravel()
            ms, (cells, nodes) = m_s.max(), values.shape[:2]
            # every block padded to ms source cells
            rhs = values[np.minimum(lev.first_cell[:, None] + np.arange(ms), cells - 1)]
            rhs = rhs.transpose(0, 2, 1, 3).reshape(len(m_t), nodes, ms * r)
            if weights is None:  # the nodes are the targets of whole cells
                local = start // m + np.arange(nodes // m)
                block = test.T @ rhs.reshape(len(m_t), len(local), m, ms * r)
            else:  # every block padded to the most target cells
                local = np.arange(m_t.max())
                first_target = np.cumsum(m_t * m) - m_t * m
                rows = np.minimum(first_target[:, None] + np.arange(local.size * m),
                                  len(weights) - 1)
                lhs = test.T @ weights[rows].reshape(len(m_t), local.size, m, nodes)
                block = lhs.reshape(len(m_t), local.size * r, nodes) @ rhs
            rows = np.where(local < m_t[:, None], lev.tgt[:, :1] + local, n)
            cols = np.where(np.arange(ms) < m_s[:, None], lev.src[:, :1] + np.arange(ms), n)
            rows = (rows[:, :, None] * r + np.arange(r)).reshape(len(m_t), local.size * r)
            cols = (cols[:, :, None] * r + np.arange(r)).reshape(len(m_t), ms * r)
            mat[rows[:, :, None], cols[:, None, :]] = block.reshape(len(m_t), local.size * r,
                                                                    ms * r)
        return mat[:n * r, :n * r]

    def _test_weights(self, r: int, outer: GaussRule) -> np.ndarray:
        """h (1/sqrt h) w phi (m, r): values at the outer rule's nodes in a cell to
        Galerkin coefficients, for points that are those nodes in every cell."""
        from .piecewise import basis_table  # piecewise imports this module
        if not np.array_equal(self.s, self.mesh.grid(outer.nodes).ravel()):
            raise ValueError(f"Galerkin sums need the same {outer.p} nodes in every cell as "
                             "their points: those of their outer rule")
        h = self.mesh.h
        return h * (1.0 / math.sqrt(h)) * outer.weights[:, None] * basis_table(r, outer.nodes)

    def _factors(self, a1, b1, a2, b2):
        """a1 and a2 at the points s, b1 and b2 at the node grid and at the
        sub-panel nodes of their side."""
        p = self.rule.p
        return (_sampled(a1, self.s), _sampled(b1, self.t), _sampled(b1, self.t_sub[:, :p]),
                _sampled(a2, self.s), _sampled(b2, self.t), _sampled(b2, self.t_sub[:, p:]))

    def separable(self, a1, b1, a2, b2):
        """The function (g, x) -> integral of a1(s) b1(t) g(t, x(t)) over
        [0, s] plus a2(s) b2(t) g(t, x(t)) over [s, 1], at every s, by
        prefix sums.  The four factors are sampled here, once.

        The cells left of the split cell enter through a cumulative sum of
        the cell integrals of b1 g, those right of it through a reversed
        one of b2 g; only the two sub-panels depend on s.  Cost per call: g
        at n p + 2 p S points and no (S, n, p) block.
        """
        return self._integrator(self._factors(a1, b1, a2, b2))

    def _integrator(self, factors):
        """``separable``'s function on the sampled ``_factors``."""
        p = self.rule.p
        a1_s, b1_reg, b1_sub, a2_s, b2_reg, b2_sub = factors

        def integrate(g, x) -> np.ndarray:
            g_reg = np.asarray(g(self.t, self._sample(x, sub=False)), dtype=float) * self.w
            g_sub = np.asarray(g(self.t_sub, self._sample(x, sub=True)), dtype=float) * self.w_sub
            before, after = _prefix_sums(b1_reg * g_reg, b2_reg * g_reg)
            left = before[self.cells] + (b1_sub * g_sub[:, :p]).sum(1)
            right = after[self.cells + 1] + (b2_sub * g_sub[:, p:]).sum(1)
            return a1_s * left + a2_s * right

        return integrate

    def galerkin(self, a1, b1, a2, b2, r: int, outer: GaussRule, to_coeffs):
        """``(value, jacobian)`` by product integration, for points that are
        the outer rule's nodes in every cell: ``value(g, x)`` is ``to_coeffs``
        of ``separable``'s integral, ``jacobian(dg, x, fn1, fn2)`` its exact
        Jacobian in the coefficients of x, of order r.  g is read on the node
        grid only and interpolated on each cell by the Lagrange basis L_l of
        its p nodes: the split cell enters as sum_l g_jl M[j, l, i], M the
        sub-panel sums of the test weights times a b L_l, the other cells as
        the prefix sums times the test sums of a1 and a2 (rank-one Jacobian
        blocks).  Exact to roundoff for g of degree < p on every cell; a call
        in which g (or dg phi_b) has, in some cell, one of its last two
        Legendre coefficients above _RESOLVED times the largest over all
        cells, or is not finite, takes ``separable`` or ``matrix`` (on the
        derivative pieces fn1, fn2) instead.
        """
        from .piecewise import basis_table  # piecewise imports this module
        n, m, p, h = self.mesh.n, outer.p, self.rule.p, self.mesh.h
        test = self._test_weights(r, outer)  # (m, r)
        factors = a1_s, b1_reg, b1_sub, a2_s, b2_reg, b2_sub = self._factors(a1, b1, a2, b2)
        tau, sigma = self.rule.nodes, outer.nodes[:, None]
        local = np.concatenate([sigma * tau, sigma + (1.0 - sigma) * tau], axis=1)  # (m, 2p)
        bary = (-1.0) ** np.arange(p) * np.sqrt(tau * (1.0 - tau) * self.rule.weights)
        lagrange = _interpolation(local.ravel(), tau, bary).reshape(m, 2 * p, p)
        own = np.concatenate([a1_s[:, None] * b1_sub, a2_s[:, None] * b2_sub], axis=1) * self.w_sub
        split = np.einsum("jkq,kql,ki->jli", own.reshape(n, m, 2 * p), lagrange, test,
                          optimize=True)  # M
        pa1, pa2 = a1_s.reshape(n, m) @ test, a2_s.reshape(n, m) @ test  # (n, r)
        legendre = (self.rule.weights[:, None] * basis_table(p, tau)).T  # values to coefficients
        phi = basis_table(r, tau) / math.sqrt(h)  # d x(t) / d c in every cell, (p, r)

        def resolved(vals) -> bool:  # vals (n, p, k)
            with np.errstate(invalid="ignore"):
                coeffs = np.abs(legendre @ vals)
            top = coeffs.max()
            return bool(np.isfinite(top)) and not np.any(coeffs[:, -2:] > _RESOLVED * top)

        def on_grid(g, x) -> np.ndarray:  # g(t, x(t)) on the node grid, (n, p)
            return np.broadcast_to(np.asarray(g(self.t, self._sample(x, sub=False)),
                                              dtype=float), self.t.shape)

        def value(g, x):
            g_reg = on_grid(g, x)
            if not resolved(g_reg[..., None]):
                return to_coeffs(self._integrator(factors)(g, x))
            g_w = g_reg * self.w
            before, after = _prefix_sums(b1_reg * g_w, b2_reg * g_w)
            return (pa1 * before[:-1, None] + pa2 * after[1:, None]
                    + np.einsum("jl,jli->ji", g_reg, split))

        def jacobian(dg, x, fn1, fn2):
            d_phi = on_grid(dg, x)[..., None] * phi
            if not resolved(d_phi):
                return self.matrix(fn1, fn2, x, r, outer)
            q1, q2 = (np.einsum("jl,jlb->jb", b_reg * self.w, d_phi) for b_reg in (b1_reg, b2_reg))
            mat = pa2[:, :, None, None] * q2  # source cell right of the target
            np.multiply(pa1[:, :, None, None], q1, out=mat,
                        where=np.tri(n, k=-1, dtype=bool)[:, None, :, None])  # left of it
            mat[np.arange(n), :, np.arange(n), :] = np.einsum("jli,jlb->jib", split, d_phi)
            return mat.reshape(n * r, n * r)

        return value, jacobian


def _prefix_sums(b1g: np.ndarray, b2g: np.ndarray):
    """before[j]: cells 0..j-1 of b1 g; after[j]: cells j..n-1 of b2 g."""
    before = np.concatenate(([0.0], np.cumsum(b1g.sum(axis=1))))
    after = np.concatenate((np.cumsum(b2g.sum(axis=1)[::-1])[::-1], [0.0]))
    return before, after


def _piece(fn, s, t, xv, shape):
    """fn(s, t, x(t)) broadcast to the block shape (kernels may return
    scalars or arrays independent of some argument)."""
    return np.broadcast_to(np.asarray(fn(s, t, xv), dtype=float), shape)
