import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval
from scipy.integrate import quad
from scipy.optimize import fsolve

import urysohn as u
from urysohn.errors import DivergenceError, MeshMismatchError, SingularLinearizationError
from urysohn.piecewise import _projector
from urysohn.quadrature import SplitOperator
from urysohn.solver import _solve_newton_step

GAMMA = np.sqrt(12.0)


def iterated_on_grid(prob, sol, grid, rule):
    return np.array([u.iterated_eval(prob, sol, float(s), rule) for s in grid])


# --- basic solves -------------------------------------------------------------


def test_zero_kernel_fixed_point_in_one_iteration(zero_kernel):
    mesh = u.make_mesh(6)
    sol = u.solve_galerkin(zero_kernel, mesh, 2)
    assert sol.iterations == 1
    pf = u.project(zero_kernel.f, mesh, 2)
    assert np.max(np.abs(sol.x_g.coeffs - pf.coeffs)) < 1e-14
    assert sol.final_residual < 1e-13


@pytest.mark.parametrize("method", ["picard", "newton"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_zero_kernel_solve_is_the_projection_of_f(zero_kernel, method, r):
    # the solve and project share one projection: with K = 0 the Galerkin
    # solution is P f, bit for bit
    mesh = u.make_mesh(6)
    sol = u.solve_galerkin(zero_kernel, mesh, r, u.SolveOptions(method=method))
    assert np.array_equal(sol.x_g.coeffs, u.project(zero_kernel.f, mesh, r).coeffs)


def test_picard_newton_and_direct_solve_agree(linear_green):
    mesh = u.make_mesh(6)
    r = 2
    picard = u.solve_galerkin(linear_green, mesh, r, u.SolveOptions(method="picard", tol=1e-13))
    newton = u.solve_galerkin(linear_green, mesh, r, u.SolveOptions(method="newton", tol=1e-13))
    assert np.max(np.abs(picard.x_g.coeffs - newton.x_g.coeffs)) < 1e-10
    # the problem is linear: (I - A) c = P f solves the system directly
    rule = u.gauss_rule(10)
    a_mat = u.assemble_linearized(linear_green, picard.x_g, mesh, r, rule)
    b = u.project(linear_green.f, mesh, r).coeffs.ravel()
    direct = np.linalg.solve(np.eye(mesh.n * r) - a_mat, b).reshape(mesh.n, r)
    assert np.max(np.abs(picard.x_g.coeffs - direct)) < 1e-10


def green_hammerstein():
    """paper-hammerstein's pieces as a plain GreenKernel, whose Galerkin sums
    go through the split panels and the cell tree."""
    kern = u.get_problem("paper-hammerstein").kernel
    return u.UrysohnProblem(u.GreenKernel(kern.kappa1, kern.kappa2, kern.du_kappa1,
                                          kern.du_kappa2), f=lambda s: 1.0 + s * s)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("problem_id", u.PROBLEM_IDS + ("green-kernel",))
def test_assembled_matrix_is_the_one_newton_factors(monkeypatch, problem_id, r):
    """I - assemble_linearized at each Newton iterate is, bit for bit, the
    matrix that step factors, for the built-in Hammerstein problems (neither
    enters the cell tree) and for a GreenKernel."""
    mesh = u.make_mesh(16)
    prob = green_hammerstein() if problem_id == "green-kernel" else u.get_problem(problem_id)
    steps = []

    def spy(jac, rhs):
        steps.append((jac, _solve_newton_step(jac, rhs)))
        return steps[-1][1]

    def no_tree(*args, **kwargs):
        raise AssertionError("entered the cell tree")

    monkeypatch.setattr(u.solver, "_solve_newton_step", spy)
    if problem_id != "green-kernel":
        monkeypatch.setattr(SplitOperator, "_far_field", no_tree)
    u.solve_galerkin(prob, mesh, r, u.SolveOptions(method="newton"))
    x = u.project(prob.f, mesh, r)  # the first iterate
    assert steps
    for jac, step in steps:
        assert np.array_equal(jac, np.eye(mesh.n * r)
                              - u.assemble_linearized(prob, x, mesh, r, u.gauss_rule(10)))
        x = u.PiecewisePoly(mesh, r, x.coeffs + step.reshape(x.coeffs.shape))


def test_newton_with_its_own_inner_rule_agrees_with_picard():
    # quad_points unlike the projection rule: the Newton matrix is assembled
    # on the solve's one operator, at the projection nodes
    prob = green_hammerstein()
    opts = dict(tol=1e-13, quad_points=7)
    picard = u.solve_galerkin(prob, u.make_mesh(12), 2, u.SolveOptions(method="picard", **opts))
    newton = u.solve_galerkin(prob, u.make_mesh(12), 2, u.SolveOptions(method="newton", **opts))
    assert newton.iterations < 8
    assert np.max(np.abs(picard.x_g.coeffs - newton.x_g.coeffs)) < 1e-11


@pytest.mark.parametrize("r", [2, 12])
def test_solve_builds_one_operator(monkeypatch, r):
    # the applies and the Newton matrix share one operator (one cell tree),
    # also when the inner rule is not the projection rule; its points are
    # the projection rule's nodes in every cell
    built = []
    init = SplitOperator.__init__
    monkeypatch.setattr(SplitOperator, "__init__",
                        lambda self, *args: built.append(init(self, *args) or self))
    prob = u.get_problem("paper-hammerstein", rhs_mode="paper")  # f needs no operator
    mesh = u.make_mesh(4)
    sol = u.solve_galerkin(prob, mesh, r, u.SolveOptions(method="newton", quad_points=7))
    assert sol.iterations > 1 and len(built) == 1
    outer = _projector(mesh, r)[0]
    assert outer.p != 7 and built[0].rule.p == 7
    assert np.array_equal(built[0].s, mesh.grid(outer.nodes).ravel())


def test_solve_samples_the_green_factors_once():
    # the factors of G are sampled when the solve binds its operator, psi
    # at every iteration: a longer solve calls only psi more often
    prob = u.get_problem("paper-hammerstein")
    factors = ("a1", "b1", "a2", "b2")

    def solve(tol):
        calls = dict.fromkeys(factors + ("psi",), 0)

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        kern = dataclasses.replace(prob.kernel, **{name: counted(name, getattr(prob.kernel, name))
                                                   for name in calls})
        sol = u.solve_galerkin(dataclasses.replace(prob, kernel=kern), u.make_mesh(8), 1,
                               u.SolveOptions(tol=tol))
        return sol.iterations, calls

    short, long = solve(1e-4), solve(1e-12)
    assert short[0] < long[0]
    assert all(short[1][name] == long[1][name] > 0 for name in factors)
    assert short[1]["psi"] < long[1]["psi"]


@pytest.mark.parametrize("method", ["picard", "newton"])
def test_hammerstein_solve_reads_psi_and_dpsi_on_its_grid_only(method):
    """Every iteration evaluates psi at the n p points of the solve's node
    grid and nowhere else (one more call gives the final residual), and
    every Newton matrix evaluates dpsi there: no sub-panel point."""
    prob = u.get_problem("paper-hammerstein")
    n, opts = 160, u.SolveOptions(method=method)
    sizes = {"psi": [], "dpsi": []}

    def counted(name):
        fn = getattr(prob.kernel, name)

        def call(t, x):
            sizes[name].append(np.broadcast(t, x).size)
            return fn(t, x)
        return call

    kern = dataclasses.replace(prob.kernel, psi=counted("psi"), dpsi=counted("dpsi"))
    sol = u.solve_galerkin(dataclasses.replace(prob, kernel=kern), u.make_mesh(n), 1, opts)
    grid = n * opts.quad_points
    assert sizes["psi"] == [grid] * (sol.iterations + 1)
    assert sizes["dpsi"] == [grid] * (sol.iterations if method == "newton" else 0)


@pytest.mark.parametrize("problem_id", ["paper-hammerstein", "linear-green", "zero-kernel"])
def test_picard_and_newton_agree_on_every_builtin(problem_id):
    prob = u.get_problem(problem_id)
    mesh = u.make_mesh(8)
    tol = 1e-12
    picard = u.solve_galerkin(prob, mesh, 1, u.SolveOptions(method="picard", tol=tol))
    newton = u.solve_galerkin(prob, mesh, 1, u.SolveOptions(method="newton", tol=tol))
    assert np.max(np.abs(picard.x_g.coeffs - newton.x_g.coeffs)) < 100 * tol


def test_galerkin_solution_against_brute_force(hammerstein):
    """Full independent route: adaptive quadrature for every inner product and
    a dense nonlinear solve, versus the Gauss-panel Picard iteration."""
    n, r = 4, 1
    mesh = u.make_mesh(n)
    h = mesh.h
    kern = hammerstein.kernel
    f = hammerstein.f

    def op_value(x_cells, s):
        total = 0.0
        for j in range(n):
            a, b = mesh.points[j], mesh.points[j + 1]
            segs = [(a, b)] if not (a < s < b) else [(a, s), (s, b)]
            for lo, hi in segs:
                piece = kern.kappa1 if hi <= s else kern.kappa2
                total += quad(lambda t: piece(s, t, x_cells[j]), lo, hi,
                              epsabs=1e-14, epsrel=1e-14)[0]
        return total

    def system(coeffs):
        x_cells = coeffs / np.sqrt(h)
        out = np.empty(n)
        for j in range(n):
            a, b = mesh.points[j], mesh.points[j + 1]
            val = quad(lambda s: (op_value(x_cells, s) + f(s)) / np.sqrt(h), a, b,
                       epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            out[j] = coeffs[j] - val
        return out

    start = u.project(f, mesh, r).coeffs.ravel()
    oracle = fsolve(system, start, xtol=1e-13)
    sol = u.solve_galerkin(hammerstein, mesh, r, u.SolveOptions(tol=1e-13))
    assert np.max(np.abs(oracle - sol.x_g.coeffs.ravel())) < 1e-10


# --- linearization assembly -----------------------------------------------------


def test_assembled_matrix_zero_for_zero_kernel(zero_kernel):
    mesh = u.make_mesh(3)
    x = u.project(zero_kernel.f, mesh, 2)
    mat = u.assemble_linearized(zero_kernel, x, mesh, 2, u.gauss_rule(6))
    assert np.max(np.abs(mat)) == 0.0


def assembled_against_double_quadrature(prob, n, r):
    """Largest entry gap between the assembled matrix and adaptive double
    quadrature of every <K'(x) e_col, e_row> on (n, r)."""
    mesh = u.make_mesh(n)
    h = mesh.h
    kern = prob.kernel
    x = u.project(prob.f, mesh, r)
    mat = u.assemble_linearized(prob, x, mesh, r, u.gauss_rule(10))
    assert mat.shape == (n * r, n * r)

    def basis(q, cell, t):
        # degree-q orthonormal Legendre polynomial on the cell, over sqrt(h)
        tau = 2.0 * (t - mesh.points[cell]) / h - 1.0
        return np.sqrt(2 * q + 1) * legval(tau, [0.0] * q + [1.0]) / np.sqrt(h)

    def entry(j, qj, k, qk):
        def inner(s):
            a, b = mesh.points[k], mesh.points[k + 1]
            segs = [(a, b)] if not (a < s < b) else [(a, s), (s, b)]
            total = 0.0
            for lo, hi in segs:
                piece = kern.du_kappa1 if hi <= s else kern.du_kappa2
                total += quad(lambda t: piece(s, t, x(t)) * basis(qk, k, t), lo, hi,
                              epsabs=1e-13, epsrel=1e-13)[0]
            return total

        a, b = mesh.points[j], mesh.points[j + 1]
        return quad(lambda s: inner(s) * basis(qj, j, s), a, b, epsabs=1e-12, epsrel=1e-12,
                    limit=200)[0]

    oracle = np.array([[entry(j, qj, k, qk) for k in range(n) for qk in range(r)]
                       for j in range(n) for qj in range(r)])
    return np.max(np.abs(mat - oracle))


def test_assembled_matrix_against_double_quadrature(linear_green):
    for n, r in ((2, 1), (3, 2)):
        assert assembled_against_double_quadrature(linear_green, n, r) < 1e-10, (n, r)


def test_assembled_matrix_symmetric_for_constant_state(hammerstein):
    # d kappa/du at constant x is symmetric in (s, t), so the matrix is too
    mesh = u.make_mesh(5)
    x = u.PiecewisePoly(mesh, 1, np.full((5, 1), 0.8 * np.sqrt(mesh.h)))
    mat = u.assemble_linearized(hammerstein, x, mesh, 1, u.gauss_rule(10))
    assert np.max(np.abs(mat - mat.T)) < 1e-10


def test_picard_apply_memory_is_flat_in_the_point_count(hammerstein):
    # one block of (points in a cell, n, p) at a time: O(n p^2), not O(S n p)
    mesh = u.make_mesh(320)
    rule = u.gauss_rule(10)
    x = u.project(hammerstein.exact, mesh, 1)
    nodes = mesh.grid(rule.nodes).ravel()
    kern = hammerstein.kernel
    tracemalloc.start()
    try:
        vals = SplitOperator(mesh, rule, nodes).apply(kern.kappa1, kern.kappa2, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 8e6


def test_unresolved_tree_levels_keep_memory_bounded():
    # pieces too oscillatory in s for the wide blocks: those levels are
    # evaluated at their points a few target cells at a time, not padded to
    # one (points, most points in a block) array of about 40 MB
    fn1 = lambda s, t, x: np.cos(300.0 * s + t) * x
    fn2 = lambda s, t, x: np.sin(300.0 * s - t) * x
    prob = u.UrysohnProblem(u.GreenKernel(fn1, fn2, fn1, fn2), f=np.cos)
    mesh, rule = u.make_mesh(320), u.gauss_rule(10)
    x = u.project(np.exp, mesh, 2)
    nodes = mesh.grid(rule.nodes).ravel()
    for run, limit in ((lambda: SplitOperator(mesh, rule, nodes).apply(fn1, fn2, x), 8e6),
                       (lambda: u.assemble_linearized(prob, x, mesh, 2, rule), 16e6)):
        tracemalloc.start()
        try:
            vals = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vals))
        assert peak < limit


# --- iterated solution -----------------------------------------------------------


def test_iterated_equals_f_for_zero_kernel(zero_kernel, rule10):
    mesh = u.make_mesh(5)
    sol = u.solve_galerkin(zero_kernel, mesh, 1)
    pv = u.iterated_at_partition(zero_kernel, sol, rule10)
    np.testing.assert_allclose(pv.values, zero_kernel.f(mesh.points), atol=1e-14)
    assert u.iterated_eval(zero_kernel, sol, 0.37, rule10) == pytest.approx(
        zero_kernel.f(0.37), abs=1e-14
    )


def test_projection_of_iterated_recovers_galerkin(hammerstein, rule16):
    mesh = u.make_mesh(10)
    tol = 1e-12
    sol = u.solve_galerkin(hammerstein, mesh, 1, u.SolveOptions(tol=tol))

    def x_s(t):
        arr = np.asarray(t, dtype=float)
        vals = iterated_on_grid(hammerstein, sol, arr.ravel(), rule16)
        return vals.reshape(arr.shape)

    projected = u.project(x_s, mesh, 1)
    assert np.max(np.abs(projected.coeffs - sol.x_g.coeffs)) < 10 * tol


def test_galerkin_orthogonality(hammerstein, rule16):
    mesh = u.make_mesh(10)
    tol = 1e-12
    sol = u.solve_galerkin(hammerstein, mesh, 1, u.SolveOptions(tol=tol))

    def resid(t):
        arr = np.asarray(t, dtype=float)
        vals = np.array([
            u.residual(hammerstein, sol.x_g, float(s), rule16, mesh) for s in arr.ravel()
        ])
        return vals.reshape(arr.shape)

    coeffs = u.project(resid, mesh, 1).coeffs
    assert np.max(np.abs(coeffs)) < 10 * tol


@settings(derandomize=True, deadline=None, max_examples=12)
@given(n=st.integers(1, 8), r=st.integers(1, 3), scale=st.floats(-2.0, 2.0))
def test_residual_is_orthogonal_to_the_cell_basis(rule10, n, r, scale):
    # Galerkin orthogonality: the projection of x_g - K(x_g) - f onto the
    # cell basis is the last Picard update, at most about tol
    prob = u.get_problem("linear-green", {"scale": scale})
    mesh, tol = u.make_mesh(n), 1e-12
    sol = u.solve_galerkin(prob, mesh, r, u.SolveOptions(tol=tol))
    resid = u.project(lambda t: u.residual(prob, sol.x_g, t, rule10, mesh), mesh, r)
    assert np.max(np.abs(resid.coeffs)) < 10 * tol


def test_iterated_matches_f_at_interval_ends(hammerstein, rule10):
    # the Green's kernel vanishes at s in {0, 1}, so the operator adds nothing
    for n in (4, 9):
        sol = u.solve_galerkin(hammerstein, u.make_mesh(n), 1, u.SolveOptions(tol=1e-12))
        pv = u.iterated_at_partition(hammerstein, sol, rule10)
        assert pv.values[0] == pytest.approx(hammerstein.f(0.0), abs=1e-12)
        assert pv.values[-1] == pytest.approx(hammerstein.f(1.0), abs=1e-12)


# --- Richardson extrapolation ------------------------------------------------------


def test_richardson_fixed_point_when_levels_agree():
    coarse_mesh, fine_mesh = u.make_mesh(4), u.make_mesh(8)
    vals = np.sin(coarse_mesh.points)
    coarse = u.PartitionValues(coarse_mesh, vals)
    fine = u.PartitionValues(fine_mesh, np.sin(fine_mesh.points))
    out = u.richardson(coarse, fine, 2)
    np.testing.assert_allclose(out.values, vals, atol=1e-15)


def test_richardson_weights_for_piecewise_constants():
    coarse_mesh, fine_mesh = u.make_mesh(2), u.make_mesh(4)
    coarse = u.PartitionValues(coarse_mesh, np.array([1.0, 2.0, 3.0]))
    fine = u.PartitionValues(fine_mesh, np.array([1.5, 0.0, 2.5, 0.0, 3.5]))
    out = u.richardson(coarse, fine, 1)
    np.testing.assert_allclose(out.values, (4 * np.array([1.5, 2.5, 3.5]) - coarse.values) / 3)


def test_richardson_cancels_leading_term_exactly():
    # v_n = 1 + h^2 + h^4 at a fixed point: the h^2 term cancels identically
    for n in (5, 10):
        h = 1.0 / n
        coarse_mesh, fine_mesh = u.make_mesh(n), u.make_mesh(2 * n)
        v_c = 1.0 + h ** 2 + h ** 4
        v_f = 1.0 + (h / 2) ** 2 + (h / 2) ** 4
        coarse = u.PartitionValues(coarse_mesh, np.full(n + 1, v_c))
        fine = u.PartitionValues(fine_mesh, np.full(2 * n + 1, v_f))
        out = u.richardson(coarse, fine, 1)
        expected = 1.0 - h ** 4 / 4.0
        assert np.max(np.abs(out.values - expected)) < 1e-15


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 40), r=st.integers(1, 4),
       a=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_richardson_removes_an_h_to_the_2r_term(n, r, a):
    # values g(t_i) + c(t_i) h^(2r) on meshes n and 2n give back g at the
    # coarse points, up to roundoff
    g = lambda t: a[0] + a[1] * np.sin(3.0 * t)
    c = lambda t: a[2] + a[3] * np.cos(5.0 * t)
    levels = [u.make_mesh(k) for k in (n, 2 * n)]
    coarse, fine = (u.PartitionValues(mesh, g(mesh.points) + c(mesh.points) * mesh.h ** (2 * r))
                    for mesh in levels)
    out = u.richardson(coarse, fine, r)
    roundoff = 8 * np.finfo(float).eps * (np.abs(coarse.values).max() + np.abs(fine.values).max())
    np.testing.assert_allclose(out.values, g(levels[0].points), rtol=0, atol=roundoff)


def test_richardson_rejects_non_nested_meshes():
    coarse = u.PartitionValues(u.make_mesh(4), np.zeros(5))
    fine = u.PartitionValues(u.make_mesh(6), np.zeros(7))
    with pytest.raises(MeshMismatchError):
        u.richardson(coarse, fine, 1)


# --- failure modes -----------------------------------------------------------------


def test_divergence_error_carries_last_iterate():
    prob = u.get_problem("linear-green", {"scale": 30.0})  # operator norm > 1
    with pytest.raises(DivergenceError) as info:
        u.solve_galerkin(prob, u.make_mesh(6), 1, u.SolveOptions(max_iter=25))
    err = info.value
    assert isinstance(err.last_iterate, u.PiecewisePoly)
    assert err.update_norm > 1.0


def test_singular_linearization_detected():
    # kappa(s,t,u) = u gives K'v = integral of v: eigenvalue 1 on constants
    kern = u.GreenKernel(
        kappa1=lambda s, t, uu: uu,
        kappa2=lambda s, t, uu: uu,
        du_kappa1=lambda s, t, uu: np.ones_like(uu),
        du_kappa2=lambda s, t, uu: np.ones_like(uu),
    )
    prob = u.UrysohnProblem(kern, f=lambda s: np.sin(np.pi * s))
    with pytest.raises(SingularLinearizationError):
        u.solve_galerkin(prob, u.make_mesh(4), 1, u.SolveOptions(method="newton", max_iter=10))
    with pytest.raises(DivergenceError):
        u.solve_galerkin(prob, u.make_mesh(4), 1, u.SolveOptions(method="picard", max_iter=30))


def test_newton_matrix_numpy_cannot_factor_is_singular():
    with pytest.raises(SingularLinearizationError, match="^linear solve failed: Singular matrix$"):
        _solve_newton_step(np.zeros((2, 2)), np.ones(2))


def test_partition_values_need_one_value_per_partition_point():
    with pytest.raises(MeshMismatchError, match=re.escape("expected 5 partition values, got (4,)")):
        u.PartitionValues(u.make_mesh(4), np.ones(4))


@pytest.mark.parametrize("method", ["picard", "newton"])
@pytest.mark.parametrize("scheme", ["galerkin", "paper-discrete"])
def test_non_finite_update_stops_at_once(method, scheme):
    def nan_kernel(s, t, uu):
        return np.full(np.broadcast(s, t, uu).shape, np.nan)

    kern = u.GreenKernel(kappa1=nan_kernel, kappa2=nan_kernel,
                         du_kappa1=nan_kernel, du_kappa2=nan_kernel)
    prob = u.UrysohnProblem(kern, f=lambda s: np.sin(np.pi * s) + 1.0)
    opts = u.SolveOptions(method=method, max_iter=50)
    with pytest.raises(DivergenceError, match="non-finite update") as info:
        if scheme == "galerkin":
            u.solve_galerkin(prob, u.make_mesh(4), 1, opts)
        else:
            u.solve_paper_discrete(prob, u.make_mesh(4), opts)
    err = info.value
    iteration = re.search(r"iteration (\d+)", str(err))
    assert iteration and int(iteration.group(1)) < opts.max_iter
    assert not np.isfinite(err.update_norm)
    assert np.all(np.isfinite(err.last_iterate.coeffs))


@pytest.mark.parametrize("scheme", ["galerkin", "paper-discrete"])
def test_growing_updates_stop_early(scheme):
    # scale=60 puts the contraction factor near 2.6: Picard's updates grow
    # geometrically and must stop long before max_iter
    prob = u.get_problem("linear-green", {"scale": 60.0})
    opts = u.SolveOptions(method="picard", max_iter=200)
    with pytest.raises(DivergenceError, match="update grew") as info:
        if scheme == "galerkin":
            u.solve_galerkin(prob, u.make_mesh(4), 1, opts)
        else:
            u.solve_paper_discrete(prob, u.make_mesh(4), opts)
    err = info.value
    iteration = re.search(r"iteration (\d+)", str(err))
    assert iteration and int(iteration.group(1)) <= 20
    assert 1e6 < err.update_norm < 1e8
    assert np.all(np.isfinite(err.last_iterate.coeffs))


def test_stagnating_updates_stop_early():
    # the midpoint scheme on one cell has no fixed point Picard can reach:
    # its update creeps from 0.28 towards 0.18 and never converges
    prob = u.get_problem("paper-hammerstein")
    with pytest.raises(DivergenceError, match="stagnated") as info:
        u.solve_paper_discrete(prob, u.make_mesh(1), u.SolveOptions(max_iter=200))
    iteration = re.search(r"iteration (\d+)", str(info.value))
    assert iteration and int(iteration.group(1)) <= 20
    assert np.all(np.isfinite(info.value.last_iterate.coeffs))


def test_a_stop_carries_the_iterate_it_accepted_last():
    # the stagnation in iteration 11 and the exhaustion of max_iter = 11 stop
    # on the same iterate and update; one iteration fewer stops on another
    prob, mesh = u.get_problem("paper-hammerstein"), u.make_mesh(1)
    stops = {}
    for max_iter in (200, 11, 10):
        with pytest.raises(DivergenceError) as info:
            u.solve_paper_discrete(prob, mesh, u.SolveOptions(max_iter=max_iter))
        stops[max_iter] = info.value
    assert str(stops[200]).startswith("update stagnated at 2.440e-01 in iteration 11:")
    assert str(stops[11]) == "no convergence after 11 iterations (last update 2.440e-01)"
    assert stops[11].update_norm == stops[200].update_norm == pytest.approx(0.24404, abs=1e-5)
    assert np.array_equal(stops[11].last_iterate.coeffs, stops[200].last_iterate.coeffs)
    assert stops[10].update_norm > stops[11].update_norm
    assert not np.array_equal(stops[10].last_iterate.coeffs, stops[11].last_iterate.coeffs)


def test_slow_contraction_that_reaches_tol_is_not_stagnation():
    # scale 21 makes Picard contract by about 0.95 per iteration: it halves
    # the update only every 13 iterations, yet reaches tol within max_iter
    prob = u.get_problem("linear-green", {"scale": 21.0})
    for tol, max_iter in ((1e-4, 200), (1e-12, 600)):
        sol = u.solve_galerkin(prob, u.make_mesh(8), 1,
                               u.SolveOptions(method="picard", tol=tol, max_iter=max_iter))
        assert 50 < sol.iterations < max_iter and sol.final_update <= tol


def test_newton_step_is_the_plain_solve():
    # the condition screen solves its probes on their own, so the step keeps
    # the bits of np.linalg.solve with the right-hand side alone
    rng = np.random.default_rng(11)
    for m in (1, 7, 40, 160):
        jac = np.eye(m) + 0.3 * rng.standard_normal((m, m)) / np.sqrt(m)
        rhs = rng.standard_normal(m)
        assert np.array_equal(_solve_newton_step(jac, rhs), np.linalg.solve(jac, rhs))


def test_package_does_not_import_scipy():
    code = "import sys, urysohn; print('scipy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_solve_options_validation():
    with pytest.raises(ValueError):
        u.SolveOptions(method="bisection")
    with pytest.raises(ValueError):
        u.SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        u.SolveOptions(max_iter=0)
    with pytest.raises(ValueError):
        u.SolveOptions(quad_points=1)
    with pytest.raises(ValueError):
        u.SolveOptions(quad_points=65)  # above quadrature.MAX_POINTS


@pytest.mark.parametrize("field, value", [
    ("max_iter", 2.5), ("max_iter", "50"), ("quad_points", True), ("quad_points", 10.0),
    ("tol", "1e-3"), ("tol", None),
])
def test_solve_options_reject_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        u.SolveOptions(**{field: value})


# --- midpoint compatibility scheme ----------------------------------------------


def test_paper_discrete_readout_is_adjacent_cell_average(hammerstein, rule10):
    mesh = u.make_mesh(10)
    sol = u.solve_paper_discrete(hammerstein, mesh, u.SolveOptions(tol=1e-12))
    assert sol.scheme == "paper-discrete"
    pv = u.iterated_at_partition(hammerstein, sol, rule10)
    mids = mesh.points[:-1] + mesh.h / 2
    cells = sol.x_g(mids)
    np.testing.assert_allclose(pv.values[1:-1], 0.5 * (cells[:-1] + cells[1:]), atol=1e-14)
    np.testing.assert_allclose(pv.values[[0, -1]], cells[[0, -1]], atol=1e-14)


def test_paper_discrete_matches_reference_magnitude(hammerstein, rule10):
    # the classical table value at t = 0.5, n = 20 is 4.68e-3; the
    # reconstructed scheme must land within a factor of two
    sol = u.solve_paper_discrete(hammerstein, u.make_mesh(20), u.SolveOptions(tol=1e-12))
    pv = u.iterated_at_partition(hammerstein, sol, rule10)
    err = abs(hammerstein.exact(0.5) - pv.values[10])
    assert 4.68e-3 / 2 < err < 4.68e-3 * 2


def test_paper_discrete_newton_agrees_with_picard(hammerstein):
    mesh = u.make_mesh(12)
    p = u.solve_paper_discrete(hammerstein, mesh, u.SolveOptions(method="picard", tol=1e-13))
    nw = u.solve_paper_discrete(hammerstein, mesh, u.SolveOptions(method="newton", tol=1e-13))
    assert np.max(np.abs(p.x_g.coeffs - nw.x_g.coeffs)) < 1e-10
