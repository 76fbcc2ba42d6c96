import numpy as np
import pytest

import urysohn as u
from urysohn.quadrature import SplitOperator


def composite_inner(f, g, mesh, p=20):
    """Independent L2 inner product: per-cell Gauss so piecewise integrands
    with kinks only at partition points are integrated accurately."""
    rule = u.gauss_rule(p)
    total = 0.0
    for j in range(mesh.n):
        a, b = mesh.points[j], mesh.points[j + 1]
        t = a + (b - a) * rule.nodes
        total += (b - a) * np.sum(rule.weights * f(t) * g(t))
    return total


# --- meshes ---------------------------------------------------------------


def test_make_mesh_basic():
    mesh = u.make_mesh(4)
    np.testing.assert_allclose(mesh.points, [0, 0.25, 0.5, 0.75, 1], atol=0)
    assert mesh.h == 0.25


def test_make_mesh_single_cell():
    mesh = u.make_mesh(1)
    np.testing.assert_allclose(mesh.points, [0, 1], atol=0)
    assert mesh.h == 1.0


def test_make_mesh_table_abscissae():
    mesh = u.make_mesh(20)
    assert mesh.points[1] == 0.05
    assert mesh.points[10] == 0.5


def test_make_mesh_rejects_zero():
    with pytest.raises(ValueError):
        u.make_mesh(0)


def test_meshes_and_rules_are_their_one_input():
    """A mesh is built from n and a rule from p alone, so nothing derived
    can disagree with them, and both compare and hash by that number."""
    mesh = u.UniformMesh(4)
    assert mesh == u.make_mesh(4) and hash(mesh) == hash(u.make_mesh(4))
    assert mesh != u.make_mesh(5) and mesh != 4
    assert mesh.h == 0.25 and not mesh.points.flags.writeable
    with pytest.raises(TypeError):
        u.UniformMesh(4, 0.3, u.make_mesh(4).points)
    with pytest.raises(ValueError, match="cell count must be positive, got 0"):
        u.UniformMesh(0)
    rule = u.GaussRule(3)
    assert rule == u.gauss_rule(3) and {rule, u.gauss_rule(3)} == {u.gauss_rule(3)}
    assert rule != u.gauss_rule(4)
    np.testing.assert_array_equal(rule.weights, u.gauss_rule(3).weights)
    with pytest.raises(ValueError, match=r"rule size must be in \[1, 64\], got 65"):
        u.GaussRule(65)


@pytest.mark.parametrize("build, size", [
    (u.gauss_rule, 2.5), (u.gauss_rule, "3"), (u.GaussRule, True), (u.GaussRule, 2.5),
    (u.UniformMesh, 2.5), (u.UniformMesh, True), (u.make_mesh, 2.5),
])
def test_mesh_and_rule_sizes_are_integers(build, size):
    with pytest.raises(ValueError, match="must be an integer"):
        build(size)


def test_make_mesh_is_uniform_mesh_and_stores_an_int():
    assert u.make_mesh is u.UniformMesh
    mesh = u.UniformMesh(np.int64(4))
    assert type(mesh.n) is int and mesh == u.UniformMesh(4)
    assert type(u.GaussRule(np.int64(3)).p) is int


def test_mesh_points_strictly_increasing_constant_gap():
    mesh = u.make_mesh(37)
    gaps = np.diff(mesh.points)
    assert np.all(gaps > 0)
    assert np.max(np.abs(gaps - mesh.h)) < 1e-15


def test_grid_maps_points_into_every_cell():
    mesh, tau = u.make_mesh(4), np.array([0.0, 0.25, 1.0])
    grid = mesh.grid(tau)
    assert grid.shape == (4, 3)
    np.testing.assert_array_equal(grid[:, 0], mesh.points[:-1])
    np.testing.assert_array_equal(grid[:, 1], mesh.points[:-1] + 0.0625)
    np.testing.assert_array_equal(grid[:, 2], mesh.points[1:])


def test_cell_of_left_convention():
    mesh = u.make_mesh(4)
    assert mesh.cell_of(0.0) == 0
    assert mesh.cell_of(0.1) == 0
    assert mesh.cell_of(0.25) == 0  # interior partition point -> left cell
    assert mesh.cell_of(0.26) == 1
    assert mesh.cell_of(1.0) == 3
    with pytest.raises(ValueError):
        mesh.cell_of(1.2)


def test_nan_is_outside_the_domain():
    mesh = u.make_mesh(4)
    x = u.project(np.exp, mesh, 2)
    readers = (mesh.cell_of, x, x.eval_left, x.eval_right,
               lambda s: SplitOperator(mesh, u.gauss_rule(4), s))
    for read in readers:
        for s in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match=r"point outside \[0, 1\]"):
                read(s)


# --- orthonormal basis -----------------------------------------------------


def test_basis_constant_is_one():
    for tau in (0.0, 0.3, 1.0):
        assert u.basis_table(1, tau)[0] == pytest.approx(1.0)


def test_basis_linear_values():
    assert u.basis_table(2, 0.5)[1] == pytest.approx(0.0, abs=1e-15)
    assert u.basis_table(2, 1.0)[1] == pytest.approx(np.sqrt(3.0))


def test_basis_orthonormal_under_exact_rule():
    r = 6
    rule = u.gauss_rule(r)  # exact to degree 2r - 1 >= 2(r-1)
    table = u.basis_table(r, rule.nodes)
    gram = (table * rule.weights[:, None]).T @ table
    np.testing.assert_allclose(gram, np.eye(r), atol=1e-12)


def test_basis_degree_matches_index():
    tau = np.linspace(0, 1, 41)
    table = u.basis_table(6, tau)
    for q in range(6):
        vals = table[:, q]
        coeffs = np.polyfit(tau, vals, q) if q > 0 else np.array([vals.mean()])
        fit = np.polyval(coeffs, tau)
        assert np.max(np.abs(fit - vals)) < 1e-8, f"e_{q} is not a degree-{q} polynomial"
        assert abs(coeffs[0]) > 1e-8, f"e_{q} has vanishing leading coefficient"


# --- piecewise polynomials ---------------------------------------------------


def test_coefficient_shape_must_match_mesh_and_order():
    with pytest.raises(ValueError, match=r"must be \(4, 2\), got \(4, 3\)"):
        u.PiecewisePoly(u.make_mesh(4), 2, np.zeros((4, 3)))


def test_eval_on_cells_reads_a_basis_table():
    """The one evaluator: a table of the basis at cell-local points, read
    against the coefficients of the given cells, is the pointwise value."""
    mesh, tau = u.make_mesh(3), np.array([0.1, 0.5, 0.9])
    x = u.project(np.exp, mesh, 3)
    cells = np.arange(mesh.n)[:, None]
    np.testing.assert_allclose(x.eval_on_cells(u.basis_table(3, tau), cells),
                               x(mesh.grid(tau)), rtol=0, atol=1e-15)
    assert u.PiecewisePoly.__call__ is u.PiecewisePoly.eval_left


def test_constant_reproduction():
    mesh = u.make_mesh(5)
    p = u.project(lambda t: 3.0 + 0.0 * t, mesh, 1)
    assert p(0.37) == pytest.approx(3.0)
    assert p(np.array([0.0, 0.5, 1.0])) == pytest.approx([3.0, 3.0, 3.0])


def test_one_sided_limits_at_interior_breakpoint():
    mesh = u.make_mesh(2)
    # cell values 1 and 2: coefficient = value * sqrt(h)
    coeffs = np.array([[1.0], [2.0]]) * np.sqrt(mesh.h)
    p = u.PiecewisePoly(mesh, 1, coeffs)
    assert p.eval_left(0.5) == pytest.approx(1.0)
    assert p.eval_right(0.5) == pytest.approx(2.0)
    assert p(0.5) == pytest.approx(1.0)  # plain call takes the left limit


def test_eval_rejects_outside_domain():
    p = u.project(np.exp, u.make_mesh(3), 2)
    with pytest.raises(ValueError):
        p(1.0001)


def test_projection_reproduces_linear_against_lstsq_oracle():
    mesh = u.make_mesh(2)
    p = u.project(lambda t: t, mesh, 2)
    assert p(0.3) == pytest.approx(0.3, abs=1e-14)
    # dense per-cell least squares as an independent oracle
    for j in range(mesh.n):
        a, b = mesh.points[j], mesh.points[j + 1]
        t = np.linspace(a, b, 200)
        coef = np.polyfit(t, t, 1)
        probe = 0.5 * (a + b)
        assert p(probe) == pytest.approx(np.polyval(coef, probe), abs=1e-12)


def test_projection_cell_averages_for_constants():
    p = u.project(lambda t: t, u.make_mesh(2), 1)
    assert p(0.2) == pytest.approx(0.25)
    assert p(0.9) == pytest.approx(0.75)


def test_projection_of_square_single_cell():
    p = u.project(lambda t: t ** 2, u.make_mesh(1), 1)
    assert p(0.5) == pytest.approx(1.0 / 3.0)


def test_projection_error_halves_for_piecewise_constants():
    f = lambda t: np.sin(np.pi * t)
    grid = np.linspace(0, 1, 1001)
    errs = []
    for n in (8, 16, 32):
        p = u.project(f, u.make_mesh(n), 1)
        errs.append(np.max(np.abs(f(grid) - p(grid))))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(np.abs(np.log2(ratios) - 1.0) < 0.1)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_projection_error_order_r_for_smooth_functions(r):
    f = lambda t: np.sin(np.pi * t)
    grid = np.linspace(0, 1, 2001)
    ns = (8, 16, 32, 64)
    errs = [np.max(np.abs(f(grid) - u.project(f, u.make_mesh(n), r)(grid))) for n in ns]
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope - r) < 0.1


def test_projection_rejects_bad_order():
    with pytest.raises(ValueError):
        u.project(np.exp, u.make_mesh(2), 0)


# the public entry points that take an order r but build no PiecewisePoly
ORDER_ENTRY_POINTS = {
    "basis_table": lambda r: u.basis_table(r, np.array([0.25, 0.5])),
    "richardson": lambda r: u.richardson(
        *(u.PartitionValues(u.make_mesh(n), np.ones(n + 1)) for n in (2, 4)), r),
    "zeta_estimate": lambda r: u.zeta_estimate([np.ones(3), np.ones(3)], [0.5, 0.25], r),
    "assemble_linearized": lambda r: u.assemble_linearized(
        u.get_problem("zero-kernel"), u.project(np.exp, u.make_mesh(2), 2), u.make_mesh(2), r,
        u.gauss_rule(10)),
}


@pytest.mark.parametrize("r", [2.5, 2.0, True, "2", 0, -1])
@pytest.mark.parametrize("build", [
    lambda r: u.project(np.exp, u.make_mesh(4), r),
    lambda r: u.solve_galerkin(u.get_problem("zero-kernel"), u.make_mesh(4), r),
    lambda r: u.PiecewisePoly(u.make_mesh(4), r, np.zeros((4, 1))),
    *ORDER_ENTRY_POINTS.values(),
], ids=["project", "solve_galerkin", "PiecewisePoly", *ORDER_ENTRY_POINTS])
def test_orders_are_integers_of_at_least_one(build, r):
    with pytest.raises(ValueError, match="polynomial order"):
        build(r)


def test_numpy_integer_orders_are_stored_as_int():
    mesh, r = u.make_mesh(4), np.int64(2)
    assert type(u.PiecewisePoly(mesh, r, np.zeros((4, 2))).r) is int
    assert type(u.project(np.exp, mesh, r).r) is int
    assert type(u.solve_galerkin(u.get_problem("zero-kernel"), mesh, r).x_g.r) is int


@pytest.mark.parametrize("entry", ORDER_ENTRY_POINTS.values(), ids=ORDER_ENTRY_POINTS.keys())
def test_entry_points_take_a_numpy_integer_order(entry):
    entry(np.int64(2))


def test_projection_idempotent_on_random_members(rng):
    mesh = u.make_mesh(6)
    for r in (1, 2, 3):
        coeffs = rng.standard_normal((mesh.n, r))
        p = u.PiecewisePoly(mesh, r, coeffs)
        again = u.project(p, mesh, r)
        assert np.max(np.abs(again.coeffs - coeffs)) < 1e-10


def test_projection_self_adjoint(rng):
    mesh = u.make_mesh(5)
    for r in (1, 2):
        a, b, c = rng.standard_normal(3)
        f = lambda t: np.exp(a * t) + b * np.cos(3 * t)
        g = lambda t: c * t ** 2 + np.sin(2 * t)
        pf, pg = u.project(f, mesh, r), u.project(g, mesh, r)
        lhs = composite_inner(pf, g, mesh)
        rhs = composite_inner(f, pg, mesh)
        assert abs(lhs - rhs) < 1e-10


def test_projection_fixes_global_polynomials(rng):
    mesh = u.make_mesh(4)
    for r in (1, 2, 3):
        coef = rng.standard_normal(r)
        f = lambda t: np.polyval(coef, t)
        p = u.project(f, mesh, r)
        grid = np.linspace(0, 1, 101)
        assert np.max(np.abs(p(grid) - f(grid))) < 1e-12
