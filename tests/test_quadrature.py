import dataclasses

import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.integrate import quad

import urysohn as u
from urysohn.piecewise import _projector, _test_weights
from urysohn.cli import main
from urysohn.quadrature import _CHUNK, SplitOperator, _chebyshev, _mapped
from urysohn.problems import _bind_galerkin, _integral

GAMMA = np.sqrt(12.0)


def test_one_point_rule_is_midpoint():
    rule = u.gauss_rule(1)
    assert rule.nodes == pytest.approx([0.5])
    assert rule.weights == pytest.approx([1.0])


def test_two_point_rule_closed_form():
    rule = u.gauss_rule(2)
    expected = np.array([(3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6])
    np.testing.assert_allclose(rule.nodes, expected, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 20, 32, 64])
def test_weights_sum_to_one(p):
    assert abs(u.gauss_rule(p).weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 20])
def test_exact_for_monomials_up_to_degree(p):
    rule = u.gauss_rule(p)
    for k in range(2 * p):
        approx = float(np.dot(rule.weights, rule.nodes ** k))
        assert abs(approx - 1.0 / (k + 1)) < 1e-13, f"p={p}, degree {k}"


def cell_integral(g, a, b, rule):
    """Gauss approximation of the integral of g over [a, b]."""
    return (b - a) * np.dot(rule.weights, g(a + (b - a) * rule.nodes))


def split_integral(g1, g2, s, mesh, rule):
    """g1 over [0, s] plus g2 over [s, 1] by the split-panel operator."""
    op = SplitOperator(mesh, rule, s)
    return float(op.apply(lambda _s, t, _x: g1(t), lambda _s, t, _x: g2(t), np.zeros_like)[0])


def test_two_points_integrate_cubic_exactly():
    assert cell_integral(lambda t: t ** 3, 0.0, 1.0, u.gauss_rule(2)) == pytest.approx(0.25)


@pytest.mark.parametrize("p", [0, 65, -3])
def test_rule_size_out_of_range(p):
    with pytest.raises(ValueError):
        u.gauss_rule(p)


def test_rule_is_built_once_per_size():
    rule = u.gauss_rule(10)
    assert u.gauss_rule(10) is rule and u.gauss_rule(np.int64(10)) is rule
    assert u.gauss_rule(11) is not rule
    for values in (rule.nodes, rule.weights):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.5
    for p in (0, 65, 0, 65):  # a bad size raises on every call, not only the first
        with pytest.raises(ValueError, match="rule size"):
            u.gauss_rule(p)


def test_integrate_cell_constant_gives_length():
    assert cell_integral(np.ones_like, 0.25, 0.5, u.gauss_rule(4)) == pytest.approx(0.25)


def test_midpoint_exact_for_linear():
    assert cell_integral(lambda t: t, 0.0, 1.0, u.gauss_rule(1)) == pytest.approx(0.5)


def test_exponential_against_antiderivative():
    val = cell_integral(np.exp, 0.0, 1.0, u.gauss_rule(10))
    assert abs(val - (np.e - 1.0)) < 1e-12


def test_split_consistent_with_plain_composite():
    mesh = u.make_mesh(5)
    rule = u.gauss_rule(10)
    g = lambda t: np.exp(t) * np.cos(3 * t)
    plain = sum(cell_integral(g, mesh.points[j], mesh.points[j + 1], rule) for j in range(mesh.n))
    for s in (0.0, 0.1, 0.37, 0.6, 1.0):
        assert abs(split_integral(g, g, s, mesh, rule) - plain) < 1e-13


def test_split_boundary_collapse():
    mesh = u.make_mesh(4)
    rule = u.gauss_rule(8)
    g1 = lambda t: np.ones_like(t)
    g2 = lambda t: np.full_like(t, 7.0)
    # s = 0: pure g2; s = 1: pure g1
    assert split_integral(g1, g2, 0.0, mesh, rule) == pytest.approx(7.0)
    assert split_integral(g1, g2, 1.0, mesh, rule) == pytest.approx(1.0)


def test_split_green_function_row_integral():
    # integral of the symmetric kernel row at s = 0.5 equals the value at 0.5
    # of the solution of -u'' + g^2 u = 1 with zero boundary values
    g = GAMMA
    c = g * np.sinh(g)
    s = 0.5
    left = lambda t: np.sinh(g * t) * np.sinh(g * (1 - s)) / c
    right = lambda t: np.sinh(g * s) * np.sinh(g * (1 - t)) / c
    exact = (1.0 - (np.sinh(g * s) + np.sinh(g * (1 - s))) / np.sinh(g)) / g ** 2
    for n in (1, 4, 7):
        val = split_integral(left, right, s, u.make_mesh(n), u.gauss_rule(10))
        assert abs(val - exact) < 1e-14


def test_split_independent_of_mesh_for_smooth_pieces():
    rule = u.gauss_rule(10)
    g = lambda t: 1.0 / (1.0 + t ** 2)
    base = split_integral(g, g, 0.3, u.make_mesh(1), rule)
    for n in (2, 3, 8, 16):
        assert abs(split_integral(g, g, 0.3, u.make_mesh(n), rule) - base) < 1e-12


def test_doubling_points_plateaus():
    mesh = u.make_mesh(3)
    g = lambda t: np.exp(np.sin(2 * t))
    v10 = split_integral(g, g, 0.4, mesh, u.gauss_rule(10))
    v20 = split_integral(g, g, 0.4, mesh, u.gauss_rule(20))
    assert abs(v10 - v20) < 1e-12


def test_split_rejects_outside_interval():
    mesh = u.make_mesh(2)
    rule = u.gauss_rule(3)
    with pytest.raises(ValueError):
        split_integral(np.exp, np.exp, -0.1, mesh, rule)
    with pytest.raises(ValueError):
        split_integral(np.exp, np.exp, 1.5, mesh, rule)


def test_panels_never_straddle_split_or_mesh_points():
    mesh = u.make_mesh(4)
    rule = u.gauss_rule(6)
    p = rule.p
    s_points = (0.0, 0.2, 0.3, 0.25, 1.0)
    op = SplitOperator(mesh, rule, s_points)
    for i, s in enumerate(s_points):
        j = op.cells[i]
        # piece 1 covers cells 0..j-1 and [t_j, s]; piece 2 covers [s, t_{j+1}] and the rest
        t1 = np.vstack([op.t[:j], op.t_sub[i, None, :p]])
        t2 = np.vstack([op.t_sub[i, None, p:], op.t[j + 1:]])
        cells1 = np.append(np.arange(j), j)
        cells2 = np.append(j, np.arange(j + 1, mesh.n))
        if t1.size:
            assert t1.max() <= s
        if t2.size:
            assert t2.min() >= s
        for t, cells in ((t1, cells1), (t2, cells2)):
            for row, cell in zip(t, cells):
                assert row.min() >= mesh.points[cell] - 1e-15
                assert row.max() <= mesh.points[cell + 1] + 1e-15


@pytest.mark.parametrize("r", [1, 2, 3])
def test_batched_K_at_unsorted_points_against_adaptive_quadrature(hammerstein, r):
    """K(x) for a piecewise polynomial x at an unsorted batch of s, including
    both ends and exact partition points (zero-width sub-panels), against
    scipy quad split at s and at the mesh points."""
    mesh = u.make_mesh(5)
    h = mesh.h
    x = u.project(hammerstein.exact, mesh, r)
    kern = hammerstein.kernel
    s_points = np.array([0.63, 0.0, mesh.points[2], 1.0, 0.17, mesh.points[4], 0.55, 0.41])
    got = SplitOperator(mesh, u.gauss_rule(10), s_points).apply(kern.kappa1, kern.kappa2, x)

    def x_on_cell(k, t):
        tau = 2.0 * (t - mesh.points[k]) / h - 1.0
        scaled = x.coeffs[k] * np.sqrt(2 * np.arange(r) + 1) / np.sqrt(h)
        return legval(tau, scaled)

    def oracle(s):
        total = 0.0
        for k in range(mesh.n):
            a, b = mesh.points[k], mesh.points[k + 1]
            for lo, hi in ([(a, s), (s, b)] if a < s < b else [(a, b)]):
                piece = kern.kappa1 if hi <= s else kern.kappa2
                total += quad(lambda t: piece(s, t, x_on_cell(k, t)), lo, hi,
                              epsabs=1e-13, epsrel=1e-13)[0]
        return total

    expected = np.array([oracle(s) for s in s_points])
    assert np.max(np.abs(got - expected)) < 1e-11


# --- the cell tree against a dense split-panel oracle ---------------------------


def urysohn_kernel(gamma):
    """G(s, t) gamma^2 u exp(-s u / 2) with the Green's function G of
    -u'' + gamma^2 u: a plain GreenKernel, since the nonlinearity depends
    on s."""
    c, g2 = gamma * np.sinh(gamma), gamma * gamma
    lower = lambda s, t: np.sinh(gamma * t) * np.sinh(gamma * (1.0 - s)) / c
    upper = lambda s, t: np.sinh(gamma * s) * np.sinh(gamma * (1.0 - t)) / c
    psi = lambda s, x: g2 * x * np.exp(-0.5 * s * x)
    dpsi = lambda s, x: g2 * np.exp(-0.5 * s * x) * (1.0 - 0.5 * s * x)
    return u.GreenKernel(kappa1=lambda s, t, x: lower(s, t) * psi(s, x),
                         kappa2=lambda s, t, x: upper(s, t) * psi(s, x),
                         du_kappa1=lambda s, t, x: lower(s, t) * dpsi(s, x),
                         du_kappa2=lambda s, t, x: upper(s, t) * dpsi(s, x))


def dense_split(fn1, fn2, g, s, mesh, rule):
    """Brute force, shape (S, n): for every s and cell k, the Gauss sum of
    fn1(s, t, g(t)) over cell k when k is left of the cell of s, of fn2 when
    it is right of it, and for the cell of s itself fn1 on [t_j, s] plus fn2
    on [s, t_j+1].  Every (s, cell, node) triple is evaluated."""
    cells = mesh.cell_of(s)
    lo, hi, col = mesh.points[cells][:, None], mesh.points[cells + 1][:, None], s[:, None]
    t = mesh.grid(rule.nodes)
    k = np.arange(mesh.n)[None, :, None]
    pick = np.where(k < cells[:, None, None], fn1(s[:, None, None], t, g(t)),
                    np.where(k > cells[:, None, None], fn2(s[:, None, None], t, g(t)), 0.0))
    out = mesh.h * pick @ rule.weights
    t1, t2 = lo + (col - lo) * rule.nodes, col + (hi - col) * rule.nodes
    out[np.arange(s.size), cells] = (((col - lo) * fn1(col, t1, g(t1))) @ rule.weights
                                     + ((hi - col) * fn2(col, t2, g(t2))) @ rule.weights)
    return out


def cell_basis(mesh, r, t):
    """The r orthonormal basis functions of the cell holding each t."""
    cells = mesh.cell_of(t)
    return u.basis_table(r, (t - mesh.points[cells]) / mesh.h) / np.sqrt(mesh.h)


def dense_matrix(fn1, fn2, x, mesh, r, rule, outer=None):
    """Brute-force Newton matrix: the integrals of every column basis
    function by dense_split with the inner rule, at the outer rule's nodes
    in every cell (the inner rule's by default), summed against the row
    basis with the outer rule's weights."""
    n, outer = mesh.n, outer or rule
    nodes = mesh.grid(outer.nodes).ravel()
    inner = np.stack([dense_split(
        lambda s, t, xv, b=b: fn1(s, t, xv) * cell_basis(mesh, r, t)[..., b],
        lambda s, t, xv, b=b: fn2(s, t, xv) * cell_basis(mesh, r, t)[..., b],
        x, nodes, mesh, rule) for b in range(r)], axis=2)  # (n m, n, r)
    test = mesh.h * outer.weights[:, None] * u.basis_table(r, outer.nodes) / np.sqrt(mesh.h)
    mat = np.einsum("pa,jpkb->jakb", test, inner.reshape(n, outer.p, n, r))
    return mat.reshape(n * r, n * r)


def other_points_matrix(prob, x, mesh, r, rule, outer):
    """The Newton matrix as a solve assembles it: on an operator of the
    inner rule whose points are the outer rule's nodes in every cell."""
    return _bind_galerkin(prob.kernel, mesh, r, outer, rule)[1](x)


def tree_points(mesh):
    """Unsorted points with both ends, every partition point and enough
    points per cell that the top blocks are interpolated."""
    inner = np.random.default_rng(7).random(240)
    return np.concatenate(([0.7, 0.0, 1.0], mesh.points[::-1], inner, [0.999]))


def chirp_kernel(gamma):
    """Pieces whose frequency in s grows with t, cos(gamma s t) u^2 and
    sin(gamma s t + 1) u^2: a block is least smooth in s at its source
    node farthest from 0, not at the one next to its targets."""
    return u.GreenKernel(kappa1=lambda s, t, x: np.cos(gamma * s * t) * x * x,
                         kappa2=lambda s, t, x: np.sin(gamma * s * t + 1.0) * x * x,
                         du_kappa1=lambda s, t, x: 2.0 * np.cos(gamma * s * t) * x,
                         du_kappa2=lambda s, t, x: 2.0 * np.sin(gamma * s * t + 1.0) * x)


def zero_in_the_middle(x):
    """x with its two middle cells set to zero: the nodes next to the top
    split see a Green's kernel piece that is zero for every s."""
    coeffs = x.coeffs.copy()
    coeffs[max(x.mesh.n // 2 - 1, 0):x.mesh.n // 2 + 1] = 0.0
    return u.PiecewisePoly(x.mesh, x.r, coeffs)


@pytest.mark.parametrize("gamma", [0.5, np.sqrt(12.0), 10.0, 40.0])
def test_tree_matches_dense_split_panels(gamma):
    """K(x), K'v and the Newton matrix of a plain GreenKernel through the
    cell tree against the dense oracle: K and K'v within 1e-13 relative at
    every point (exact zeros stay zero), the matrix within 1e-13 relative
    and 1e-13 of its largest entry.  Also with x zero on the middle cells,
    and for pieces whose smoothness in s changes across the sources (K and
    K'v there within 1e-13 of their largest value, since they oscillate
    through zero)."""
    v = lambda t: 1.0 + t * t
    for r in (1, 2, 3):
        rule = u.gauss_rule(2 * r + 2)
        for n in (1, 3, 16, 80):
            mesh = u.make_mesh(n)
            x = u.project(lambda t: 1.0 / (1.0 + t), mesh, r)
            s = tree_points(mesh)
            for case, kern, x_case, scaled in (
                    ("green", urysohn_kernel(gamma), x, False),
                    ("green, x zero in the middle", urysohn_kernel(gamma), zero_in_the_middle(x),
                     False),
                    ("chirp", chirp_kernel(gamma), x, True)):
                prob, msg = u.UrysohnProblem(kern, f=np.cos), f"{case} r={r} n={n}"
                want = dense_split(kern.kappa1, kern.kappa2, x_case, s, mesh, rule).sum(axis=1)
                np.testing.assert_allclose(u.apply_K(prob, x_case, s, rule, mesh), want,
                                           rtol=1e-13, atol=1e-13 * np.abs(want).max() * scaled,
                                           err_msg=f"K {msg}")
                want = dense_split(lambda *a: kern.du_kappa1(*a) * v(a[1]),
                                   lambda *a: kern.du_kappa2(*a) * v(a[1]),
                                   x_case, s, mesh, rule).sum(axis=1)
                np.testing.assert_allclose(u.apply_Kprime(prob, x_case, v, s, rule, mesh), want,
                                           rtol=1e-13, atol=1e-13 * np.abs(want).max() * scaled,
                                           err_msg=f"K'v {msg}")
                want = dense_matrix(kern.du_kappa1, kern.du_kappa2, x_case, mesh, r, rule)
                got = u.assemble_linearized(prob, x_case, mesh, r, rule)
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max(),
                                           err_msg=f"matrix {msg}")


def interpolated_levels(op, fn1, fn2, x):
    """Whether an apply interpolates each level of the operator's tree."""
    seen = {}
    for lev, kept, _, _ in op._far_field(fn1, fn2, x):
        seen[id(lev)] = kept is not None
    return list(seen.values())


def test_tree_falls_back_to_direct_blocks_that_do_not_resolve():
    """Pieces that oscillate in s too fast for the wide blocks to resolve:
    those blocks are evaluated at their targets, more than one kernel call's
    worth of nodes at a time, the narrow ones are still interpolated, and K
    and the Newton matrix match the dense oracles.  The matrix also on 10
    points per cell with a 7-point inner rule, its top level in several
    chunks of whole target cells."""
    fn1 = lambda s, t, x: np.cos(200.0 * s + t) * x
    fn2 = lambda s, t, x: np.sin(200.0 * s - t) * x
    mesh, rule = u.make_mesh(32), u.gauss_rule(6)
    x = u.project(np.exp, mesh, 2)
    s = np.concatenate((tree_points(mesh), np.random.default_rng(8).random(1500)))
    op = SplitOperator(mesh, rule, s)
    interpolated = interpolated_levels(op, fn1, fn2, x)
    assert op._tree[0].count.min() > 64 and not interpolated[0]
    assert any(interpolated[1:])
    want = dense_split(fn1, fn2, x, s, mesh, rule).sum(axis=1)
    np.testing.assert_allclose(op.apply(fn1, fn2, x), want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())
    prob = u.UrysohnProblem(u.GreenKernel(fn1, fn2, fn1, fn2), f=np.cos)
    mesh, rule = u.make_mesh(64), u.gauss_rule(20)
    got = u.assemble_linearized(prob, x, mesh, 2, rule)
    want = dense_matrix(fn1, fn2, x, mesh, 2, rule)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    rule, outer = u.gauss_rule(7), u.gauss_rule(10)
    op = SplitOperator(mesh, rule, mesh.grid(outer.nodes))
    top = op._tree[0]
    assert not interpolated_levels(op, fn1, fn2, x)[0]
    assert top.count.max() > outer.p * (_CHUNK // (top.cells.size * outer.p * rule.p))
    got = other_points_matrix(prob, x, mesh, 2, rule, outer)
    want = dense_matrix(fn1, fn2, x, mesh, 2, rule, outer)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("gamma", [np.sqrt(12.0), 40.0])
@pytest.mark.parametrize("n, r, p, m", [(1, 2, 7, 10), (16, 2, 7, 10), (80, 1, 10, 4),
                                        (16, 3, 12, 9)])
def test_newton_matrix_on_points_of_another_rule(gamma, n, r, p, m):
    """m points per cell from a rule other than the inner p-point one, more
    or fewer: the matrix against the dense oracle within 1e-13 relative
    and 1e-13 of its largest entry."""
    mesh, rule, outer = u.make_mesh(n), u.gauss_rule(p), u.gauss_rule(m)
    kern = urysohn_kernel(gamma)
    x = u.project(lambda t: 1.0 / (1.0 + t), mesh, r)
    got = other_points_matrix(u.UrysohnProblem(kern, f=np.cos), x, mesh, r, rule, outer)
    want = dense_matrix(kern.du_kappa1, kern.du_kappa2, x, mesh, r, rule, outer)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("kind", ["green", "hammerstein"])
def test_kprime_samples_v_once_at_the_grid_and_the_sub_panels(kind):
    """K'v calls v at the n p grid nodes and the 2 p S sub-panel nodes, once
    each, whatever the tree does with them."""
    kern = urysohn_kernel(GAMMA) if kind == "green" else u.get_problem("paper-hammerstein").kernel
    mesh, rule = u.make_mesh(80), u.gauss_rule(10)
    s = mesh.grid(rule.nodes).ravel()
    points = []

    def v(t):
        points.append(np.size(t))
        return 1.0 + t * t

    got = u.apply_Kprime(u.UrysohnProblem(kern, f=np.cos), u.project(np.exp, mesh, 2), v, s,
                         rule, mesh)
    assert np.all(np.isfinite(got))
    assert sum(points) == mesh.n * rule.p + 2 * rule.p * s.size


OSCILLATING = (lambda s, t, x: np.cos(200.0 * s + t) * x,
               lambda s, t, x: np.sin(200.0 * s - t) * x)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("kind", ["hammerstein", "green", "oscillating"])
def test_bound_operator_gives_the_bytes_of_a_fresh_one(kind, r):
    """One operator, bound once, applies K, K'v and the Newton matrix to a
    sequence of different iterates; each result has the bytes of a fresh
    operator's one-shot call, so nothing the operator keeps goes stale.
    The iterates are piecewise polynomials of order r and of another order
    on its mesh, one on another mesh, and a callable.  The first is zero on
    the middle cells.  Each tree level is interpolated as a whole from the
    Chebyshev nodes the operator keeps, or evaluated at its targets, which
    are never kept; the oscillating pieces evaluate their top level at its
    targets in chunks."""
    if kind == "hammerstein":
        kern = u.get_problem("paper-hammerstein").kernel
    elif kind == "green":
        kern = urysohn_kernel(GAMMA)
    else:
        kern = u.GreenKernel(*OSCILLATING, *OSCILLATING)
    mesh = u.make_mesh(64 if kind == "oscillating" else 16)
    rule, outer = u.gauss_rule(7), u.gauss_rule(10)
    points = mesh.grid(outer.nodes)
    op = SplitOperator(mesh, rule, points)

    def matrix(x, op=op):
        return op.matrix(kern.du_kappa1, kern.du_kappa2, x, _test_weights(mesh, r, outer))

    other = u.make_mesh(mesh.n + 3)
    iterates = [zero_in_the_middle(u.project(np.exp, mesh, r)), u.project(np.cos, mesh, r),
                u.project(lambda t: 1.0 - t * t, mesh, r % 3 + 1),
                u.project(np.sin, other, r), lambda t: 0.5 + t * t, u.project(np.exp, mesh, r)]
    v = u.project(lambda t: np.cos(3.0 * t), other, r)
    if kind == "oscillating":
        top = op._tree[0]
        assert not interpolated_levels(op, *OSCILLATING, iterates[0])[0]
        assert top.count.max() > outer.p * (_CHUNK // (top.cells.size * outer.p * rule.p))
    for x in iterates:
        fresh = SplitOperator(mesh, rule, points)
        assert np.array_equal(_integral(kern, op, x), _integral(kern, fresh, x))
        assert np.array_equal(_integral(kern, op, x, v), _integral(kern, fresh, x, v))
        assert np.array_equal(matrix(x), matrix(x, fresh))
    tables = {(order, sub) for order in (r, r % 3 + 1) for sub in (False, True)} | {(r, None)}
    assert op._tables.keys() == tables
    assert not any(op.basis(*key).flags.writeable for key in tables)


# --- Galerkin sums of a Hammerstein kernel by product integration --------------


def solve_operator(kern, n, r):
    """A solve's operator for kern on n cells at order r: the direct
    Galerkin coefficients and Newton matrix (to_coeffs of the prefix-sum
    integral, and the tree matrix), the bound product-integration pair, and
    a pair of ``op.galerkin`` that fails off the product path: the
    coefficients when they read psi, the Newton matrix when it reads dpsi,
    anywhere but on the n p grid."""
    mesh = u.make_mesh(n)
    outer, nodes, to_coeffs = _projector(mesh, r)
    op = SplitOperator(mesh, u.gauss_rule(10), nodes)
    test = _test_weights(mesh, r, outer)
    direct = (lambda x: to_coeffs(_integral(kern, op, x)),
              lambda x: op.matrix(kern.du_kappa1, kern.du_kappa2, x, test))

    def unreachable(*args):
        raise AssertionError("took the direct path")

    def on_the_grid(fn):
        def checked(t, x):
            if np.shape(t) != op.t.shape:
                unreachable()
            return fn(t, x)
        return checked

    product = op.galerkin(kern.a1, kern.b1, kern.a2, kern.b2, on_the_grid(kern.psi),
                          on_the_grid(kern.dpsi), outer, test)
    return mesh, direct, _bind_galerkin(kern, mesh, r, outer, op.rule), product


@pytest.mark.parametrize("method", ["picard", "newton"])
def test_solve_builds_the_sub_panel_table_only_when_it_reads_it(monkeypatch, method):
    """Solves whose psi resolves on every cell read x_g on the node grid
    alone and never ask for the sub-panel basis table; an r = 4 solve on
    4 cells, whose split cells fall back on the sub-panels, does."""
    asked, basis = [], SplitOperator.basis
    monkeypatch.setattr(SplitOperator, "basis",
                        lambda self, r, sub: asked.append(sub) or basis(self, r, sub))
    prob = u.get_problem("paper-hammerstein")
    for r in (1, 2, 3):
        u.solve_galerkin(prob, u.make_mesh(16), r, u.SolveOptions(method=method))
    assert asked and not any(asked)
    u.solve_galerkin(prob, u.make_mesh(4), 4, u.SolveOptions(method=method))
    assert any(asked)


@pytest.mark.parametrize("method, tables", [("newton", 1), ("picard", 0)])
def test_a_green_kernel_solve_builds_its_column_basis_once(monkeypatch, method, tables):
    """A Newton solve of the bench kernel reads the basis at the inner
    rule's nodes, the column basis of every Newton matrix, from one table;
    a Picard solve builds no Newton matrix and never asks for it.  The
    7-point inner rule tells these tables apart from the projection rule's."""
    calls, basis_table = [], u.piecewise.basis_table
    monkeypatch.setattr(u.piecewise, "basis_table",
                        lambda r, tau: calls.append(np.asarray(tau)) or basis_table(r, tau))
    kern, phi = urysohn_kernel(GAMMA), lambda t: 1.0 + np.sin(np.pi * t)
    prob = u.UrysohnProblem(kern, u.manufactured_rhs(kern, phi), exact=phi)
    sol = u.solve_galerkin(prob, u.make_mesh(16), 2, u.SolveOptions(method=method, quad_points=7))
    assert sol.iterations > 1
    assert sum(np.array_equal(tau, u.gauss_rule(7).nodes) for tau in calls) == tables


@pytest.mark.parametrize("gamma", [0.5, np.sqrt(12.0), 10.0, 40.0])
@pytest.mark.parametrize("problem_id", ["paper-hammerstein", "linear-green"])
def test_product_integration_matches_the_direct_galerkin_sums(problem_id, gamma):
    """psi is cubic or linear in u, so on order r <= 3 it is a polynomial of
    degree < p on every cell and product integration reproduces the
    sub-panel quadrature: coefficients and Newton matrix within 1e-14 of the
    largest entry, without taking the direct path.  Also at the sizes of a
    study: n = 10, 20 and its reference 160 at r = 1, and n = 40 at r = 3."""
    kern = u.get_problem(problem_id, {"gamma": gamma}).kernel
    sizes = [(r, n) for r in (1, 2, 3) for n in (1, 3, 16)] + [(1, 10), (1, 20), (1, 160), (3, 40)]
    for r, n in sizes:
        mesh, direct, _, product = solve_operator(kern, n, r)
        x = u.project(lambda t: 2.0 / (2.0 * t + 1.0) + 0.3 * np.sin(3.0 * t), mesh, r)
        for want, got in zip((f(x) for f in direct), (f(x) for f in product)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (r, n)


@pytest.mark.parametrize("n", [1, 4, 16, 64])
@pytest.mark.parametrize("r", [4, 5])
def test_the_fallback_of_high_orders_matches_the_direct_galerkin_sums(r, n):
    """paper-hammerstein at r = 4, 5, where CLI solves on coarse meshes take
    the fallback: psi(t, x(t)) is of degree 3 (r - 1) >= p - 1 on every cell,
    so its last Legendre coefficients do not fall below the bound on n <= 16
    cells and every call reads psi off the grid; on 64 cells psi resolves
    and is read on the grid only.  Coefficients and Newton matrix lie within
    1e-14 of the direct path's largest entry."""
    kern = u.get_problem("paper-hammerstein").kernel
    mesh, direct, bound, (value, _) = solve_operator(kern, n, r)
    for shift in (0.0, 0.3, -0.2):
        x = u.project(lambda t: 2.0 / (2.0 * t + 1.0) + shift * np.sin(3.0 * t), mesh, r)
        for want, got in zip((f(x) for f in direct), (f(x) for f in bound)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        if n < 64:
            with pytest.raises(AssertionError, match="direct path"):
                value(x)
        else:
            value(x)


@pytest.mark.parametrize("n, r", [(1, 1), (3, 2), (16, 3), (7, 3)])
def test_newton_matrix_is_the_jacobian_of_the_affine_coefficient_map(n, r):
    """For linear-green the coefficient map is affine, so every column of
    the Newton matrix is the change of the coefficients when that one
    coefficient of x grows by 1."""
    kern = u.get_problem("linear-green").kernel
    mesh, _, (value, matrix), _ = solve_operator(kern, n, r)
    c = u.project(np.exp, mesh, r).coeffs
    mat, base = matrix(u.PiecewisePoly(mesh, r, c)), value(u.PiecewisePoly(mesh, r, c))
    for k in range(n * r):
        step = np.zeros(n * r)
        step[k] = 1.0
        moved = value(u.PiecewisePoly(mesh, r, c + step.reshape(n, r)))
        assert np.max(np.abs((moved - base).ravel() - mat[:, k])) < 1e-13


def test_unresolved_psi_takes_the_split_cell_sums():
    """psi = exp(u) cos(5 t) is not a polynomial of low degree on one cell:
    at n = 1, r = 3 the split cells take the sub-panel sums, so the Newton
    matrix is the direct path's bit for bit and the coefficients lie within
    1e-14 of its largest entry, and the coefficients read psi at the n p
    grid points once and the 2 p S sub-panel points; on 160 cells it
    resolves."""
    base = u.get_problem("paper-hammerstein").kernel
    points = []

    def wave(t, x):
        points.append(np.size(t))
        return np.exp(x) * np.cos(5.0 * t)

    kern = dataclasses.replace(base, psi=wave, dpsi=wave)
    mesh, direct, bound, product = solve_operator(kern, 1, 3)
    x = u.project(lambda t: 2.0 / (2.0 * t + 1.0), mesh, 3)
    (want, want_matrix), (got, got_matrix) = (f(x) for f in direct), (f(x) for f in bound)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(got_matrix, want_matrix)
    for fails in product:
        with pytest.raises(AssertionError, match="direct path"):
            fails(x)
    points.clear()
    bound[0](x)
    assert sum(points) == mesh.n * 10 + 2 * 10 * (mesh.n * 10)  # p = 10, S = 10 n
    mesh, direct, _, product = solve_operator(kern, 160, 3)
    x = u.project(lambda t: 2.0 / (2.0 * t + 1.0), mesh, 3)
    for want, got in zip((f(x) for f in direct), (f(x) for f in product)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- far-field blocks that check their own coefficients ----------------------


def mid_block_kernel(width=0.04, top=80.0):
    """Pieces cos(w(t) s) u and sin(w(t) s) u whose frequency in s peaks at
    t = 1/4 (fn1) and t = 3/4 (fn2), the middles of the top blocks' source
    halves, and is about zero at both ends of those halves."""
    def freq(t, centre):
        return top * np.exp(-((t - centre) / width) ** 2)

    fn1 = lambda s, t, x: np.cos(freq(t, 0.25) * s) * x
    fn2 = lambda s, t, x: np.sin(freq(t, 0.75) * s) * x
    return u.GreenKernel(fn1, fn2, fn1, fn2)


@pytest.mark.parametrize("n", [16, 80])
def test_tree_resolves_a_piece_least_smooth_in_the_middle_of_its_sources(n):
    """A piece that is nearly constant in s at both end nodes of a block's
    sources and oscillates in s at the nodes between them: K and the Newton
    matrix against the dense oracles, within 1e-13 of their largest value."""
    kern, rule = mid_block_kernel(), u.gauss_rule(6)
    mesh = u.make_mesh(n)
    x = u.project(lambda t: 1.0 / (1.0 + t), mesh, 2)
    s = tree_points(mesh)
    want = dense_split(kern.kappa1, kern.kappa2, x, s, mesh, rule).sum(axis=1)
    got = SplitOperator(mesh, rule, s).apply(kern.kappa1, kern.kappa2, x)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    prob = u.UrysohnProblem(kern, f=np.cos)
    want = dense_matrix(kern.du_kappa1, kern.du_kappa2, x, mesh, 2, rule)
    got = u.assemble_linearized(prob, x, mesh, 2, rule)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_operator_keeps_a_bounded_geometry_per_level_and_q():
    """A solve's operator keeps, for each level and q it is asked for, the
    q Chebyshev points of each block's target cells and no target, at most
    (S + n (2 r + 1)) q + S + 4 n r entries, all read-only, and nothing more
    when the same calls come again with other iterates of the same
    smoothness.  At the n + 1 readout points the top two levels are
    interpolated, the deep levels, whose blocks hold at most 3 targets
    (fewer than any q), are evaluated at their targets and keep nothing,
    and K matches the dense oracle."""
    kern = urysohn_kernel(GAMMA)
    n, r = 80, 2
    mesh = u.make_mesh(n)
    outer, nodes, _ = _projector(mesh, r)
    op = SplitOperator(mesh, u.gauss_rule(10), nodes)

    def calls(x):
        op.apply(kern.kappa1, kern.kappa2, x)
        op.matrix(kern.du_kappa1, kern.du_kappa2, x, _test_weights(mesh, r, outer))

    x = u.project(lambda t: 1.0 + np.sin(np.pi * t), mesh, r)
    calls(x)
    kept = dict(op._kept)
    assert kept
    for (level, q), geometry in kept.items():
        lev = op._tree[level]
        assert np.array_equal(geometry.nodes, _mapped(_chebyshev(q)[0], lev.lo, lev.hi))
        assert geometry.nodes.shape == (len(lev.count), q)
        arrays = [geometry.nodes, *geometry.__dict__.get("weights", ())]
        arrays += [a for sums in geometry._sums.values() for a in sums]
        assert not any(a.flags.writeable for a in arrays)
        assert sum(a.size for a in arrays) <= (nodes.size + n * (2 * r + 1)) * q \
            + nodes.size + 4 * n * r
    calls(u.project(lambda t: 1.0 + 0.9 * np.sin(np.pi * t), mesh, r))
    assert op._kept.keys() == kept.keys()

    readout = SplitOperator(mesh, op.rule, mesh.points)
    place = {id(lev): level for level, lev in enumerate(readout._tree)}
    levels = {place[id(lev)]: (lev.count.max(), kept) for lev, kept, _, _ in readout._far_field(
        kern.kappa1, kern.kappa2, x)}
    deep = [kept for most, kept in levels.values() if most <= 3]
    assert len(deep) >= 3 and all(kept is None for kept in deep)
    assert levels[0][1] is not None and levels[1][1] is not None  # 41 and 21 targets
    assert {level for level, _ in readout._kept} == {
        level for level, (_, kept) in levels.items() if kept is not None} != set()
    want = dense_split(kern.kappa1, kern.kappa2, x, mesh.points, mesh, op.rule).sum(axis=1)
    np.testing.assert_allclose(readout.apply(kern.kappa1, kern.kappa2, x), want, rtol=1e-13)


# --- Hammerstein kernels never enter the cell tree ----------------------------


def no_tree(*args, **kwargs):
    raise AssertionError("entered the cell tree")


@pytest.mark.parametrize("method", ["picard", "newton"])
@pytest.mark.parametrize("problem_id", ["paper-hammerstein", "linear-green"])
def test_hammerstein_solves_stay_off_the_cell_tree(monkeypatch, capsys, problem_id, method):
    """Solves at r = 1, 2, 3, their assembled Newton matrices and a
    printed-RHS Newton study through the CLI run with the tree's far field
    raising: value, Newton matrix, readout and right-hand side all go by
    prefix sums and product integration."""
    monkeypatch.setattr(SplitOperator, "_far_field", no_tree)
    prob = u.get_problem(problem_id)
    mesh = u.make_mesh(8)
    for r in (1, 2, 3):
        sol = u.solve_galerkin(prob, mesh, r, u.SolveOptions(method=method))
        x_s = u.iterated_at_partition(prob, sol, u.gauss_rule(10)).values
        assert np.max(np.abs(x_s - prob.exact(mesh.points))) < mesh.h ** (2 * r)
        mat = u.assemble_linearized(prob, sol.x_g, mesh, r, u.gauss_rule(10))
        assert mat.shape == (mesh.n * r, mesh.n * r) and np.all(np.isfinite(mat))
    assert main(["study", "--problem", "paper-hammerstein", "--rhs", "paper", "--method", method,
                 "--n", "4,8"]) == 0
    assert "t_i," in capsys.readouterr().out


@pytest.mark.parametrize("f, n, r", [(40, 4, 2), (40, 7, 3), (80, 16, 1)])
def test_unresolved_hammerstein_newton_matrix_stays_off_the_cell_tree(monkeypatch, f, n, r):
    """psi = exp(u) cos(f t) does not resolve on a cell: the Newton matrix
    reads dpsi at the n p grid points and the 2 p S sub-panel points only,
    never enters the tree, and matches both the tree matrix of an operator
    built before the patch and the dense oracle within 1e-14 of its largest
    entry."""
    points = []

    def wave(t, x):
        points.append(np.size(t))
        return np.exp(x) * np.cos(f * t)

    kern = dataclasses.replace(u.get_problem("paper-hammerstein").kernel, psi=wave, dpsi=wave)
    mesh, rule = u.make_mesh(n), u.gauss_rule(10)
    outer, nodes, _ = _projector(mesh, r)
    x = u.project(lambda t: 2.0 / (2.0 * t + 1.0), mesh, r)
    oracles = (SplitOperator(mesh, rule, nodes).matrix(kern.du_kappa1, kern.du_kappa2, x,
                                                       _test_weights(mesh, r, outer)),
               dense_matrix(kern.du_kappa1, kern.du_kappa2, x, mesh, r, rule, outer))
    monkeypatch.setattr(SplitOperator, "_far_field", no_tree)
    _, jacobian = _bind_galerkin(kern, mesh, r, outer, rule)
    points.clear()
    got = jacobian(x)
    assert sum(points) == n * rule.p + 2 * rule.p * nodes.size
    for want in oracles:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# --- the order table on a kernel that is not Hammerstein ----------------------


@pytest.mark.parametrize("r, ns, method, tol", [
    (1, (10, 20, 40, 80), "picard", 1e-12), (1, (10, 20, 40, 80), "newton", 1e-12),
    (2, (5, 10, 20, 40), "picard", 1e-12), (2, (5, 10, 20, 40), "newton", 1e-12),
    (3, (5, 10, 20, 40), "newton", 1e-15),
], ids=["r1-picard", "r1-newton", "r2-picard", "r2-newton", "r3-newton"])
def test_orders_on_a_kernel_that_is_not_hammerstein(r, ns, method, tol):
    """The bench kernel G(s, t) gamma^2 u exp(-s u / 2), whose solves run
    through the cell tree, with the manufactured right-hand side of
    phi = 1 + sin(pi s): x_s at the coarse interior partition points
    converges at order 2r (within 0.1 at the finest pair), one Richardson
    step at order 6 for r = 2 (within 0.3; at r = 1 the pairs are still
    pre-asymptotic and at r = 3 the finest E2 is at the rounding floor),
    and E2 at n lies below E1 at 2n at every point."""
    kern = urysohn_kernel(GAMMA)
    phi = lambda t: 1.0 + np.sin(np.pi * t)
    prob = u.UrysohnProblem(kern, u.manufactured_rhs(kern, phi), exact=phi)
    n0, rule = ns[0], u.gauss_rule(10)
    coarse = np.arange(1, n0)
    exact = phi(coarse / n0)
    opts = u.SolveOptions(method=method, tol=tol)
    x_s = {n: u.iterated_at_partition(prob, u.solve_galerkin(prob, u.make_mesh(n), r, opts), rule)
           for n in ns}
    e1 = {n: np.abs(exact - x_s[n].values[coarse * (n // n0)]) for n in ns}
    e2 = {a: np.abs(exact - u.richardson(x_s[a], x_s[b], r).values[coarse * (a // n0)])
          for a, b in zip(ns, ns[1:])}
    alpha = np.log2(e1[ns[-2]] / e1[ns[-1]])
    assert np.all(np.abs(alpha - 2 * r) <= 0.1), alpha
    if r == 2:
        for a, b in zip(ns, ns[1:-1]):
            beta = np.log2(e2[a] / e2[b])
            assert np.all(np.abs(beta - 6.0) <= 0.3), (a, beta)
    for a, b in zip(ns, ns[1:]):
        assert np.all(e2[a] < e1[b]), (a, e2[a], e1[b])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("r", [1, 3])
def test_a_psi_not_finite_on_one_cell_takes_the_split_cell_sums(r, bad):
    """psi NaN or inf on one cell of four does not resolve: the coefficients
    read psi off the node grid (the product pair fails there), and the check
    itself warns of nothing."""
    base = u.get_problem("paper-hammerstein").kernel

    def spoiled(t, x):
        return np.where((t > 0.5) & (t < 0.75), bad, base.psi(t, x))

    mesh, _, _, (value, _) = solve_operator(dataclasses.replace(base, psi=spoiled), 4, r)
    with pytest.raises(AssertionError, match="direct path"):
        value(u.project(lambda t: 2.0 / (2.0 * t + 1.0), mesh, r))
