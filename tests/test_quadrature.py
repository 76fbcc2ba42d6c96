import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.integrate import quad

import urysohn as u
from urysohn.quadrature import SplitOperator

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


def test_two_points_integrate_cubic_exactly():
    assert u.integrate_cell(lambda t: t ** 3, 0.0, 1.0, u.gauss_rule(2)) == pytest.approx(0.25)


@pytest.mark.parametrize("p", [0, 65, -3])
def test_rule_size_out_of_range(p):
    with pytest.raises(ValueError):
        u.gauss_rule(p)


def test_integrate_cell_constant_gives_length():
    assert u.integrate_cell(lambda t: 1.0, 0.25, 0.5, u.gauss_rule(4)) == pytest.approx(0.25)


def test_midpoint_exact_for_linear():
    assert u.integrate_cell(lambda t: t, 0.0, 1.0, u.gauss_rule(1)) == pytest.approx(0.5)


def test_exponential_against_antiderivative():
    val = u.integrate_cell(np.exp, 0.0, 1.0, u.gauss_rule(10))
    assert abs(val - (np.e - 1.0)) < 1e-12


def test_integrate_cell_rejects_reversed_interval():
    with pytest.raises(ValueError):
        u.integrate_cell(np.exp, 0.5, 0.25, u.gauss_rule(3))


def test_split_consistent_with_plain_composite():
    mesh = u.make_mesh(5)
    rule = u.gauss_rule(10)
    g = lambda t: np.exp(t) * np.cos(3 * t)
    plain = sum(
        u.integrate_cell(g, mesh.points[j], mesh.points[j + 1], rule) for j in range(mesh.n)
    )
    for s in (0.0, 0.1, 0.37, 0.6, 1.0):
        assert abs(u.integrate_split(g, g, s, mesh, rule) - plain) < 1e-13


def test_split_boundary_collapse():
    mesh = u.make_mesh(4)
    rule = u.gauss_rule(8)
    g1 = lambda t: np.ones_like(t)
    g2 = lambda t: np.full_like(t, 7.0)
    # s = 0: pure g2; s = 1: pure g1
    assert u.integrate_split(g1, g2, 0.0, mesh, rule) == pytest.approx(7.0)
    assert u.integrate_split(g1, g2, 1.0, mesh, rule) == pytest.approx(1.0)


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
        val = u.integrate_split(left, right, s, u.make_mesh(n), u.gauss_rule(10))
        assert abs(val - exact) < 1e-14


def test_split_independent_of_mesh_for_smooth_pieces():
    rule = u.gauss_rule(10)
    g = lambda t: 1.0 / (1.0 + t ** 2)
    base = u.integrate_split(g, g, 0.3, u.make_mesh(1), rule)
    for n in (2, 3, 8, 16):
        assert abs(u.integrate_split(g, g, 0.3, u.make_mesh(n), rule) - base) < 1e-12


def test_doubling_points_plateaus():
    mesh = u.make_mesh(3)
    g = lambda t: np.exp(np.sin(2 * t))
    v10 = u.integrate_split(g, g, 0.4, mesh, u.gauss_rule(10))
    v20 = u.integrate_split(g, g, 0.4, mesh, u.gauss_rule(20))
    assert abs(v10 - v20) < 1e-12


def test_split_rejects_outside_interval():
    mesh = u.make_mesh(2)
    rule = u.gauss_rule(3)
    with pytest.raises(ValueError):
        u.integrate_split(np.exp, np.exp, -0.1, mesh, rule)
    with pytest.raises(ValueError):
        u.integrate_split(np.exp, np.exp, 1.5, mesh, rule)


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
