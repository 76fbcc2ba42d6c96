import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import urysohn as u
from urysohn.errors import ConfigError, MissingDerivativeError
from urysohn.problems import _integral
from urysohn.quadrature import SplitOperator

GAMMA = np.sqrt(12.0)

# Regression value for the benchmark right-hand side at s = 0.5, computed
# with the 16-point manufactured-rhs quadrature and cross-checked against the
# closed-form boundary-value function below.
F_HALF = 0.45747054614299476


def boundary_part(s, gamma=GAMMA):
    """Solution of -w'' + g^2 w = 0 with w(0) = 2, w(1) = 2/3: the exact
    right-hand side that makes phi(s) = 2/(2s+1) solve the benchmark."""
    return (2.0 * np.sinh(gamma * (1 - s)) + (2.0 / 3.0) * np.sinh(gamma * s)) / np.sinh(gamma)


def scipy_apply_K(prob, x, s):
    """Independent operator application: adaptive quadrature split at the
    diagonal, against which the Gauss-panel path is checked."""
    k = prob.kernel
    lo = quad(lambda t: k.kappa1(s, t, x(t)), 0.0, s, epsabs=1e-13, epsrel=1e-13)[0] if s > 0 else 0.0
    hi = quad(lambda t: k.kappa2(s, t, x(t)), s, 1.0, epsabs=1e-13, epsrel=1e-13)[0] if s < 1 else 0.0
    return lo + hi


# --- kernel evaluation -------------------------------------------------------


def test_kernel_factor_on_diagonal(hammerstein):
    gamma = GAMMA
    factor = np.sinh(gamma / 2) ** 2 / (gamma * np.sinh(gamma))
    for uu in (0.0, 0.7, 1.0):
        psi = gamma ** 2 * uu - 2 * uu ** 3
        for piece in (hammerstein.kernel.kappa1, hammerstein.kernel.kappa2):
            assert piece(0.5, 0.5, uu) == pytest.approx(factor * psi, abs=1e-14)
    assert factor == pytest.approx(0.1355, abs=5e-4)


def test_kernel_vanishes_on_boundary(hammerstein):
    # each piece on its own triangle: s = 0 sees only kappa2, s = 1 only kappa1
    for t in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert hammerstein.kernel.kappa2(0.0, t, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert hammerstein.kernel.kappa1(1.0, t, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_zero_kernel_everywhere(zero_kernel):
    s, t = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7), indexing="ij")
    for piece in (zero_kernel.kernel.kappa1, zero_kernel.kernel.kappa2):
        assert np.max(np.abs(np.broadcast_to(piece(s, t, 3.0), s.shape))) == 0.0


@pytest.mark.parametrize("problem_id", ["paper-hammerstein", "linear-green", "zero-kernel"])
def test_diagonal_continuity_of_all_pieces(problem_id):
    kern = u.get_problem(problem_id).kernel
    s = np.linspace(0, 1, 50)
    uu = np.linspace(-2, 2, 20)
    sg, ug = np.meshgrid(s, uu, indexing="ij")
    for lo, hi in ((kern.kappa1, kern.kappa2), (kern.du_kappa1, kern.du_kappa2)):
        gap = np.max(np.abs(lo(sg, sg, ug) - hi(sg, sg, ug)))
        assert gap < 1e-12


def test_u_derivative_pieces_match_finite_differences(hammerstein):
    kern = hammerstein.kernel
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, size=(12, 2))
    us = rng.uniform(-1.5, 1.5, size=12)
    for (s, t), uu in zip(pts, us):
        piece, dpiece = (kern.kappa1, kern.du_kappa1) if t <= s else (kern.kappa2, kern.du_kappa2)
        errs1 = []
        for eps in (1e-3, 1e-4):
            fd1 = (piece(s, t, uu + eps) - piece(s, t, uu - eps)) / (2 * eps)
            errs1.append(abs(fd1 - dpiece(s, t, uu)))
        if errs1[1] > 1e-13:
            assert np.log10(errs1[0] / errs1[1]) >= 1.9


# --- operator applications ---------------------------------------------------


def test_apply_K_zero_kernel(zero_kernel, rule10):
    mesh = u.make_mesh(4)
    for s in (0.0, 0.3, 1.0):
        assert u.apply_K(zero_kernel, np.exp, s, rule10, mesh) == 0.0


def test_apply_K_vanishes_at_boundary_so_f_equals_phi(hammerstein, rule16):
    mesh = u.make_mesh(8)
    phi = hammerstein.exact
    assert u.apply_K(hammerstein, phi, 0.0, rule16, mesh) == pytest.approx(0.0, abs=1e-14)
    assert hammerstein.f(0.0) == pytest.approx(2.0, abs=1e-12)
    assert hammerstein.f(1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_apply_K_matches_adaptive_quadrature(hammerstein, linear_green, rule16):
    mesh = u.make_mesh(8)
    x = lambda t: 1.0 / (1.0 + t)
    for prob in (hammerstein, linear_green):
        for s in (0.15, 0.5, 0.85):
            mine = u.apply_K(prob, x, s, rule16, mesh)
            oracle = scipy_apply_K(prob, x, s)
            assert mine == pytest.approx(oracle, abs=1e-11)


def test_operator_calls_take_scalar_or_array(hammerstein, rule16):
    # one batched call at an array s equals the scalar calls point by point;
    # a scalar s gives a plain float
    mesh = u.make_mesh(5)
    sol = u.solve_galerkin(hammerstein, mesh, 2)
    x, v, w = sol.x_g, np.cos, (lambda t: 1.0 + t)
    calls = {
        "apply_K": lambda s: u.apply_K(hammerstein, x, s, rule16, mesh),
        "apply_Kprime": lambda s: u.apply_Kprime(hammerstein, x, v, s, rule16, mesh),
        "manufactured_f": lambda s: u.manufactured_f(hammerstein.kernel, w, s, rule16, mesh),
        "residual": lambda s: u.residual(hammerstein, x, s, rule16, mesh),
        "iterated_eval": lambda s: u.iterated_eval(hammerstein, sol, s, rule16),
    }
    grid = np.array([[0.9, 0.0, 0.4], [1.0, 0.4, 0.13]])  # unsorted, with ends and a t_i
    for name, call in calls.items():
        batched = call(grid)
        assert batched.shape == grid.shape, name
        singles = [call(float(s)) for s in grid.ravel()]
        assert all(type(value) is float for value in singles), name
        np.testing.assert_allclose(batched.ravel(), singles, rtol=0, atol=1e-14, err_msg=name)


def test_operator_calls_reject_nan(hammerstein, rule16):
    mesh = u.make_mesh(4)
    sol = u.solve_galerkin(hammerstein, mesh, 1)
    x = sol.x_g
    calls = {
        "apply_K": lambda s: u.apply_K(hammerstein, x, s, rule16, mesh),
        "apply_Kprime": lambda s: u.apply_Kprime(hammerstein, x, np.cos, s, rule16, mesh),
        "manufactured_f": lambda s: u.manufactured_f(hammerstein.kernel, np.cos, s, rule16, mesh),
        "residual": lambda s: u.residual(hammerstein, x, s, rule16, mesh),
        "iterated_eval": lambda s: u.iterated_eval(hammerstein, sol, s, rule16),
    }
    for call in calls.values():
        for s in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match=r"point outside \[0, 1\]"):
                call(s)


def test_exact_solution_satisfies_equation(hammerstein, rule16):
    mesh = u.make_mesh(8)
    phi = hammerstein.exact
    for s in np.linspace(0, 1, 21):
        k_val = u.apply_K(hammerstein, phi, float(s), rule16, mesh)
        assert abs(phi(s) - k_val - hammerstein.f(float(s))) < 1e-10


def test_apply_Kprime_linearity_and_reduction(hammerstein, linear_green, rule10):
    mesh = u.make_mesh(6)
    zero = lambda t: np.zeros_like(t)
    assert u.apply_Kprime(hammerstein, np.exp, zero, 0.4, rule10, mesh) == 0.0
    # at x = 0 the benchmark linearization is gamma^2 times the plain
    # Green's operator: d(psi)/du at u=0 equals gamma^2
    v = lambda t: np.cos(t)
    for s in (0.25, 0.75):
        lhs = u.apply_Kprime(hammerstein, zero, v, s, rule10, mesh)
        rhs = GAMMA ** 2 * u.apply_K(linear_green, v, s, rule10, mesh)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_apply_Kprime_matches_directional_difference(hammerstein, rule16):
    mesh = u.make_mesh(6)
    x = hammerstein.exact
    v = lambda t: np.sin(2 * t) + 0.5
    s = 0.6
    deriv = u.apply_Kprime(hammerstein, x, v, s, rule16, mesh)
    errs = []
    for eps in (1e-3, 1e-4):
        up = u.apply_K(hammerstein, lambda t: x(t) + eps * v(t), s, rule16, mesh)
        dn = u.apply_K(hammerstein, lambda t: x(t) - eps * v(t), s, rule16, mesh)
        errs.append(abs((up - dn) / (2 * eps) - deriv))
    assert np.log10(errs[0] / errs[1]) >= 1.9


def test_missing_derivative_pieces_raise():
    mesh, rule = u.make_mesh(2), u.gauss_rule(4)
    v = lambda t: np.ones_like(t)
    for kern in (u.GreenKernel(kappa1=lambda s, t, uu: uu, kappa2=lambda s, t, uu: uu),
                 u.HammersteinKernel(np.cos, np.cos, np.cos, np.cos, psi=lambda t, uu: uu)):
        prob = u.UrysohnProblem(kern, f=lambda s: 0.0 * s)
        with pytest.raises(MissingDerivativeError):
            u.apply_Kprime(prob, v, v, 0.5, rule, mesh)


def test_operator_derivative_bounded_by_kernel_sup(hammerstein, rule10):
    mesh = u.make_mesh(5)
    kern = hammerstein.kernel
    x = hammerstein.exact
    v = lambda t: np.sin(5 * t)
    grid = np.linspace(0, 1, 101)
    sg, tg = np.meshgrid(grid, grid, indexing="ij")
    mask = tg <= sg
    ell = np.where(mask, kern.du_kappa1(sg, np.minimum(tg, sg), x(tg)),
                   kern.du_kappa2(sg, np.maximum(tg, sg), x(tg)))
    bound = np.max(np.abs(ell)) * np.max(np.abs(v(grid)))
    for s in (0.2, 0.5, 0.8):
        assert abs(u.apply_Kprime(hammerstein, x, v, s, rule10, mesh)) <= bound + 1e-12


# --- prefix-sum path of Hammerstein kernels ----------------------------------


def generic_twin(kernel):
    """The same kernel as a plain GreenKernel of its derived pieces, which
    the operator calls integrate on the split panels, not by prefix sums."""
    return u.GreenKernel(kernel.kappa1, kernel.kappa2, kernel.du_kappa1, kernel.du_kappa2)


@pytest.mark.parametrize("problem_id, gamma", [
    *[(pid, g) for pid in ("paper-hammerstein", "linear-green")
      for g in (0.5, np.sqrt(12.0), 10.0, 40.0)],
    ("zero-kernel", None),
])
def test_prefix_sums_match_split_panels(problem_id, gamma):
    """K, K'v and the manufactured f of every built-in problem by
    prefix sums against the split-panel path, for x on the same mesh, on
    another mesh and as a callable, at unsorted s with both ends and every
    partition point.  Relative tolerance 1e-13; f = x - K(x) is held to
    1e-13 of max |x|, its larger term, since the two terms cancel for large
    gamma."""
    prob = u.get_problem(problem_id, None if gamma is None else {"gamma": gamma})
    assert isinstance(prob.kernel, u.HammersteinKernel)
    slow = u.UrysohnProblem(generic_twin(prob.kernel), prob.f)
    phi = lambda t: 1.0 / (1.0 + t)
    v = lambda t: 1.0 + t * t
    for r in (1, 2, 3):
        rule = u.gauss_rule(2 * r + 2)
        for n in (1, 3, 16):
            mesh = u.make_mesh(n)
            s = np.concatenate(([0.7, 0.0, 1.0, 0.33, 0.05, 0.999], mesh.points[::-1]))
            for x in (u.project(phi, mesh, r), u.project(phi, u.make_mesh(2 * n + 1), r), phi):
                calls = {
                    "K": lambda q: u.apply_K(q, x, s, rule, mesh),
                    "K'v": lambda q: u.apply_Kprime(q, x, v, s, rule, mesh),
                    "f": lambda q: u.manufactured_f(q.kernel, x, s, rule, mesh),
                }
                for name, call in calls.items():
                    atol = 1e-13 * np.max(np.abs(x(s))) if name == "f" else 0.0
                    np.testing.assert_allclose(call(prob), call(slow), rtol=1e-13, atol=atol,
                                               err_msg=f"{name} r={r} n={n} x={x!r}")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(2, 32), p=st.integers(6, 16),
       s=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0])))
def test_prefix_sum_K_against_adaptive_quadrature(n, p, s):
    prob = u.get_problem("paper-hammerstein")
    x = lambda t: 0.5 + 0.25 * np.cos(2.0 * t)
    got = u.apply_K(prob, x, s, u.gauss_rule(p), u.make_mesh(n))
    assert got == pytest.approx(scipy_apply_K(prob, x, s), abs=1e-12)


def test_prefix_sum_apply_memory_is_flat(hammerstein):
    # a Picard apply on the 12,800 projection nodes of n = 1280, r = 1
    mesh = u.make_mesh(1280)
    rule = u.gauss_rule(10)
    x = u.project(hammerstein.exact, mesh, 1)
    nodes = mesh.grid(rule.nodes).ravel()
    tracemalloc.start()
    try:
        vals = _integral(hammerstein.kernel, SplitOperator(mesh, rule, nodes), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == nodes.shape and np.all(np.isfinite(vals))
    assert peak < 16e6


def test_kernel_rebuilt_with_wrapped_fields_gives_same_K(hammerstein, rule10):
    # dataclasses.replace with every callable field wrapped, as a tracer
    # rebuilds a kernel, keeps the prefix-sum path and its values
    kern = hammerstein.kernel

    def wrapped(fn):
        return lambda *args: fn(*args)

    rebuilt = dataclasses.replace(kern, **{f.name: wrapped(getattr(kern, f.name))
                                           for f in dataclasses.fields(kern)
                                           if callable(getattr(kern, f.name))})
    mesh = u.make_mesh(7)
    s = np.linspace(0.0, 1.0, 29)
    same = u.apply_K(dataclasses.replace(hammerstein, kernel=rebuilt), np.cos, s, rule10, mesh)
    assert isinstance(rebuilt, u.HammersteinKernel)
    np.testing.assert_array_equal(same, u.apply_K(hammerstein, np.cos, s, rule10, mesh))


# --- manufactured right-hand sides and residuals -----------------------------


def test_manufactured_f_is_identity_for_zero_kernel(zero_kernel, rule10):
    mesh = u.make_mesh(4)
    phi = lambda s: np.cos(2 * s)
    for s in (0.0, 0.4, 1.0):
        assert u.manufactured_f(zero_kernel.kernel, phi, s, rule10, mesh) == pytest.approx(
            phi(s), abs=1e-15
        )


def test_benchmark_rhs_frozen_value(hammerstein):
    assert hammerstein.f(0.5) == pytest.approx(F_HALF, abs=1e-13)


def test_benchmark_rhs_matches_boundary_part(hammerstein):
    s = np.linspace(0, 1, 21)
    diff = np.abs(hammerstein.f(s) - boundary_part(s))
    assert np.max(diff) < 1e-12


@pytest.mark.parametrize("problem_id", ["paper-hammerstein", "linear-green", "zero-kernel"])
def test_residual_vanishes_at_exact_solution(problem_id, rule16):
    prob = u.get_problem(problem_id)
    mesh = u.make_mesh(8)
    grid = np.linspace(0, 1, 201)
    worst = max(abs(u.residual(prob, prob.exact, float(s), rule16, mesh)) for s in grid)
    assert worst < 1e-10  # tighter than the 1e-8 consistency requirement


def test_residual_zero_kernel_at_f(zero_kernel, rule10):
    mesh = u.make_mesh(4)
    assert u.residual(zero_kernel, zero_kernel.f, 0.3, rule10, mesh) == pytest.approx(0.0)


def test_residual_of_perturbed_solution_matches_oracle(hammerstein, rule16):
    mesh = u.make_mesh(8)
    phi = hammerstein.exact
    x = lambda t: phi(t) + 0.1
    for s in (0.2, 0.5, 0.9):
        mine = u.residual(hammerstein, x, s, rule16, mesh)
        oracle = x(s) - scipy_apply_K(hammerstein, x, s) - hammerstein.f(s)
        assert mine == pytest.approx(oracle, abs=1e-11)
        assert abs(mine) > 1e-3  # genuinely nonzero


# --- problem registry --------------------------------------------------------


def test_problem_ids_and_unknowns():
    assert set(u.PROBLEM_IDS) == {"paper-hammerstein", "linear-green", "zero-kernel"}
    with pytest.raises(ConfigError):
        u.get_problem("unknown-problem")
    with pytest.raises(ConfigError):
        u.get_problem("linear-green", {"not_a_param": 1.0})


@pytest.mark.parametrize("problem_id, params", [
    ("paper-hammerstein", {"gamma": 0}),
    ("paper-hammerstein", {"gamma": -1.0}),
    ("paper-hammerstein", {"gamma": float("nan")}),
    ("paper-hammerstein", {"gamma": float("inf")}),
    ("paper-hammerstein", {"gamma": "3.4"}),
    ("paper-hammerstein", {"gamma": True}),
    ("linear-green", {"gamma": 0.0}),
    ("linear-green", {"scale": float("inf")}),
    ("linear-green", {"scale": float("nan")}),
    ("linear-green", {"scale": "2"}),
    ("linear-green", [("scale", 2.0)]),
    ("paper-hammerstein", {"gamma": 705.0}),
    ("linear-green", {"gamma": 1e4}),
    ("paper-hammerstein", {"gamma": 703.5}),  # a finite scale, but f(0) is NaN
    ("paper-hammerstein", {"gamma": 703.9}),
])
def test_bad_problem_parameters_are_config_errors(problem_id, params):
    with pytest.raises(ConfigError):
        u.get_problem(problem_id, params)


def test_largest_gamma_below_overflow_still_solves():
    # gamma sinh(gamma) overflows from about 704 on; just below, the Green's
    # factors are finite and a solve converges to finite values
    prob = u.get_problem("paper-hammerstein", {"gamma": 700.0})
    sol = u.solve_galerkin(prob, u.make_mesh(4), 1, u.SolveOptions(method="newton"))
    values = u.iterated_at_partition(prob, sol, u.gauss_rule(10)).values
    assert sol.iterations < 10 and np.all(np.isfinite(values))
    assert np.any(values != prob.f(u.make_mesh(4).points))  # the kernel is not zero


def test_gamma_with_finite_right_hand_side_still_solves():
    # 703.5 makes f(0) NaN (a ConfigError above); 703 keeps f finite
    prob = u.get_problem("paper-hammerstein", {"gamma": 703.0})
    sol = u.solve_galerkin(prob, u.make_mesh(4), 1, u.SolveOptions(method="newton"))
    assert np.all(np.isfinite(u.iterated_at_partition(prob, sol, u.gauss_rule(10)).values))


def test_gamma_override_changes_kernel():
    prob = u.get_problem("paper-hammerstein", {"gamma": 2.0})
    base = u.get_problem("paper-hammerstein")
    assert prob.kernel.kappa1(0.5, 0.25, 1.0) != base.kernel.kappa1(0.5, 0.25, 1.0)
    # manufactured rhs keeps the exact solution in place for any gamma
    assert prob.f(0.0) == pytest.approx(2.0, abs=1e-12)


def test_printed_rhs_mode():
    prob = u.get_problem("paper-hammerstein", rhs_mode="paper")
    assert prob.exact is None  # inconsistent normalization: no exact solution attached
    assert prob.f(0.0) == pytest.approx(2.0 / GAMMA)
    with pytest.raises(ConfigError):
        u.get_problem("linear-green", rhs_mode="paper")
    with pytest.raises(ConfigError):
        u.get_problem("zero-kernel", rhs_mode="bogus")
