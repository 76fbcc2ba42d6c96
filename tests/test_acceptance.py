"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 reproduce the classical comparison tables, which tabulate the
hand-discretized midpoint scheme with its adjacent-cell-average readout at
partition points; those run in `paper-discrete` mode.  The underlying order
claims for the default full-quadrature pipeline are asserted alongside
(criteria 1, 3) and in criteria 4, 5, 7.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import numpy as np
import pytest

import urysohn as u

TABLE_E1_AT_HALF = 4.68e-3  # classical table value at t = 0.5, n = 20
EDGE_POINTS = (0.05, 0.10, 0.90, 0.95)


def check(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table_report():
    """Criterion-1 study: table-reproduction run (midpoint compatibility)."""
    cfg = u.StudyConfig(problem_id="paper-hammerstein", r=1, n_sequence=(20, 40, 80),
                        method="picard", tol=1e-12, discrete_mode="paper-discrete")
    return u.run_study(cfg)


@pytest.fixture(scope="module")
def default_report():
    """Same study under the default full-quadrature Galerkin pipeline."""
    cfg = u.StudyConfig(problem_id="paper-hammerstein", r=1, n_sequence=(20, 40, 80),
                        method="picard", tol=1e-12)
    return u.run_study(cfg)


@pytest.fixture(scope="module")
def r2_linear_data():
    """Solutions and partition values for the r = 2 study on the linear problem."""
    prob = u.get_problem("linear-green")
    rule = u.gauss_rule(10)
    sols, pvs = {}, {}
    for n in (8, 16, 32):
        sols[n] = u.solve_galerkin(prob, u.make_mesh(n), 2, u.SolveOptions(tol=1e-13))
        pvs[n] = u.iterated_at_partition(prob, sols[n], rule)
    return prob, sols, pvs


def test_criterion_1_order_reproduction(table_report, default_report):
    alphas = np.concatenate([table_report.alpha[20], table_report.alpha[40]])
    ok_table = bool(np.all((alphas >= 1.9) & (alphas <= 2.1)))

    # default pipeline: same window pm 0.2 away from the zero crossing of the
    # leading error coefficient (near t ~ 0.66 the local order is undefined)
    zeta_fine = default_report.zeta[80]
    informative = np.abs(zeta_fine) >= 0.03 * np.max(np.abs(zeta_fine))
    alpha_def = np.concatenate([default_report.alpha[20][informative],
                                default_report.alpha[40][informative]])
    ok_default = bool(np.all((alpha_def >= 1.8) & (alpha_def <= 2.2)))

    excluded = [f"{t:.2f}" for t in default_report.points[~informative]]
    check(
        "criterion 1", ok_table and ok_default,
        f"table-scheme alpha in [{alphas.min():.2f}, {alphas.max():.2f}] (need [1.9, 2.1]) "
        f"at all interior t_i; default-scheme alpha in "
        f"[{alpha_def.min():.2f}, {alpha_def.max():.2f}] away from the coefficient "
        f"sign change (excluded t: {excluded or 'none'})",
    )


def test_criterion_2_magnitude_sanity(table_report, default_report):
    i_half = int(np.argmin(np.abs(table_report.points - 0.5)))
    compat = float(table_report.e1[20][i_half])
    default = float(default_report.e1[20][i_half])
    ratio = max(compat / TABLE_E1_AT_HALF, TABLE_E1_AT_HALF / compat)
    ok = ratio < 2.0  # within a factor of 2, hence also within 3
    # the exact-projection pipeline removes the quadrature error the tables
    # are dominated by; it must not be less accurate than the compatibility one
    ok = ok and default < compat
    check(
        "criterion 2", ok,
        f"paper-discrete E1(0.5, n=20) = {compat:.3e} vs table {TABLE_E1_AT_HALF:.2e} "
        f"(factor {ratio:.2f}, need < 2); default pipeline gives {default:.3e} "
        f"({TABLE_E1_AT_HALF / default:.0f}x below the table: its quadrature error "
        f"is gone and only the true leading term remains)",
    )


def test_criterion_3_extrapolation_order(table_report, default_report):
    details, ok = [], True
    for label, report in (("table-scheme", table_report), ("default", default_report)):
        beta = report.beta[20]
        pts = report.points
        edge_mask = np.isin(np.round(pts, 2), EDGE_POINTS)
        edge_ok = bool(np.all((beta[edge_mask] >= 3.8) & (beta[edge_mask] <= 4.2)))
        mid_ok = bool(np.all(beta >= 3.6))
        ok = ok and edge_ok and mid_ok
        details.append(f"{label} beta in [{beta.min():.2f}, {beta.max():.2f}]")
    check("criterion 3", ok,
          "; ".join(details) + " (need [3.8, 4.2] at t in {0.05, 0.1, 0.9, 0.95}, >= 3.6 inside)")


def test_criterion_4_higher_order_space(r2_linear_data):
    prob, _, pvs = r2_linear_data
    phi = prob.exact
    pts = u.make_mesh(8).points
    e1 = {n: np.abs(phi(pts) - pvs[n].values[:: n // 8])[1:-1] for n in (8, 16, 32)}
    a1 = np.log2(e1[8] / e1[16])
    a2 = np.log2(e1[16] / e1[32])
    ex8 = u.richardson(pvs[8], pvs[16], 2)
    ex16 = u.richardson(pvs[16], pvs[32], 2)
    e2_8 = np.abs(phi(pts) - ex8.values)[1:-1]
    e2_16 = np.abs(phi(pts) - ex16.values[::2])[1:-1]
    beta = np.log2(e2_8 / e2_16)
    ok = (
        bool(np.all((a1 >= 3.8) & (a1 <= 4.2)))
        and bool(np.all((a2 >= 3.8) & (a2 <= 4.2)))
        and bool(np.all((beta >= 5.5) & (beta <= 6.5)))
    )
    check(
        "criterion 4", ok,
        f"r=2 partition orders alpha in [{min(a1.min(), a2.min()):.2f}, "
        f"{max(a1.max(), a2.max()):.2f}] (need [3.8, 4.2]); extrapolated beta in "
        f"[{beta.min():.2f}, {beta.max():.2f}] (need [5.5, 6.5])",
    )


def test_criterion_5_sup_norm_orders(r2_linear_data):
    rule = u.gauss_rule(10)
    grid = np.linspace(0.0, 1.0, 401)

    def slopes(prob, sols, ns):
        phi = prob.exact
        eg, es = [], []
        for n in ns:
            sol = sols[n]
            eg.append(np.max(np.abs(phi(grid) - sol.x_g(grid))))
            xs = np.array([u.iterated_eval(prob, sol, float(s), rule) for s in grid])
            es.append(np.max(np.abs(phi(grid) - xs)))
        fit = lambda errs: -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        return fit(eg), fit(es)

    ham = u.get_problem("paper-hammerstein")
    ham_sols = {
        n: u.solve_galerkin(ham, u.make_mesh(n), 1, u.SolveOptions(tol=1e-12))
        for n in (20, 40, 80)
    }
    g1, s1 = slopes(ham, ham_sols, (20, 40, 80))

    prob2, sols2, _ = r2_linear_data
    g2, s2 = slopes(prob2, sols2, (8, 16, 32))

    ok = (0.9 <= g1 <= 1.1) and (1.9 <= s1 <= 2.1) and (1.8 <= g2 <= 2.2) and (3.8 <= s2 <= 4.2)
    check(
        "criterion 5", ok,
        f"sup-norm slopes r=1: galerkin {g1:.2f} (need ~1), iterated {s1:.2f} (need ~2); "
        f"r=2: galerkin {g2:.2f} (need ~2), iterated {s2:.2f} (need ~4)",
    )


def test_criterion_6_property_suite():
    rng = np.random.default_rng(42)
    failures = []

    # projection idempotence, self-adjointness, polynomial reproduction
    mesh = u.make_mesh(6)
    for r in (1, 2, 3):
        coeffs = rng.standard_normal((mesh.n, r))
        p = u.PiecewisePoly(mesh, r, coeffs)
        if np.max(np.abs(u.project(p, mesh, r).coeffs - coeffs)) > 1e-10:
            failures.append(f"idempotence r={r}")
        coef = rng.standard_normal(r)
        poly = lambda t: np.polyval(coef, t)
        grid = np.linspace(0, 1, 101)
        if np.max(np.abs(u.project(poly, mesh, r)(grid) - poly(grid))) > 1e-10:
            failures.append(f"poly reproduction r={r}")

    rule20 = u.gauss_rule(20)

    def inner(f, g):
        total = 0.0
        for j in range(mesh.n):
            a, b = mesh.points[j], mesh.points[j + 1]
            t = a + (b - a) * rule20.nodes
            total += (b - a) * np.sum(rule20.weights * f(t) * g(t))
        return total

    f = lambda t: np.exp(t) * np.cos(2 * t)
    g = lambda t: 1.0 / (1.0 + t)
    pf, pg = u.project(f, mesh, 2), u.project(g, mesh, 2)
    if abs(inner(pf, g) - inner(f, pg)) > 1e-10:
        failures.append("self-adjointness")

    # Gauss exactness to degree 2p - 1
    for p in (1, 2, 5, 10, 20):
        rule = u.gauss_rule(p)
        for k in range(2 * p):
            if abs(float(np.dot(rule.weights, rule.nodes ** k)) - 1.0 / (k + 1)) > 1e-13:
                failures.append(f"gauss exactness p={p} k={k}")

    # kernel diagonal continuity
    ham = u.get_problem("paper-hammerstein")
    s = np.linspace(0, 1, 50)
    uu = np.linspace(-2, 2, 20)
    sg, ug = np.meshgrid(s, uu, indexing="ij")
    kern = ham.kernel
    for lo, hi in ((kern.kappa1, kern.kappa2), (kern.du_kappa1, kern.du_kappa2)):
        if np.max(np.abs(lo(sg, sg, ug) - hi(sg, sg, ug))) > 1e-12:
            failures.append("kernel diagonal continuity")

    # Frechet derivative finite-difference order
    mesh8, rule16 = u.make_mesh(8), u.gauss_rule(16)
    x, v = ham.exact, (lambda t: np.sin(2 * t) + 0.5)
    deriv = u.apply_Kprime(ham, x, v, 0.6, rule16, mesh8)
    errs = []
    for eps in (1e-3, 1e-4):
        up = u.apply_K(ham, lambda t: x(t) + eps * v(t), 0.6, rule16, mesh8)
        dn = u.apply_K(ham, lambda t: x(t) - eps * v(t), 0.6, rule16, mesh8)
        errs.append(abs((up - dn) / (2 * eps) - deriv))
    if np.log10(errs[0] / errs[1]) < 1.9:
        failures.append("frechet fd order")

    # Galerkin orthogonality and the projection identity
    tol = 1e-12
    mesh10 = u.make_mesh(10)
    sol = u.solve_galerkin(ham, mesh10, 1, u.SolveOptions(tol=tol))

    def resid(t):
        arr = np.asarray(t, dtype=float)
        vals = np.array([u.residual(ham, sol.x_g, float(sv), rule16, mesh10)
                         for sv in arr.ravel()])
        return vals.reshape(arr.shape)

    if np.max(np.abs(u.project(resid, mesh10, 1).coeffs)) > 10 * tol:
        failures.append("galerkin orthogonality")

    def x_s(t):
        arr = np.asarray(t, dtype=float)
        vals = np.array([u.iterated_eval(ham, sol, float(sv), rule16) for sv in arr.ravel()])
        return vals.reshape(arr.shape)

    if np.max(np.abs(u.project(x_s, mesh10, 1).coeffs - sol.x_g.coeffs)) > 10 * tol:
        failures.append("projection identity pi x_s = x_g")

    # Richardson identity and synthetic cancellation
    cm, fm = u.make_mesh(5), u.make_mesh(10)
    vals = np.cos(cm.points)
    out = u.richardson(u.PartitionValues(cm, vals), u.PartitionValues(fm, np.cos(fm.points)), 1)
    if np.max(np.abs(out.values - vals)) > 1e-15:
        failures.append("richardson identity")
    h = 0.2
    synth = u.richardson(
        u.PartitionValues(cm, np.full(6, 1 + h ** 2 + h ** 4)),
        u.PartitionValues(fm, np.full(11, 1 + (h / 2) ** 2 + (h / 2) ** 4)),
        1,
    )
    if np.max(np.abs(synth.values - (1 - h ** 4 / 4))) > 1e-15:
        failures.append("richardson cancellation")

    check("criterion 6", not failures, f"property suite failures: {failures or 'none'}")


def test_criterion_7_zeta_stabilization(default_report):
    metric = default_report.zeta_stabilization[40]
    check(
        "criterion 7", metric <= 0.15,
        f"zeta stabilization between n=40 and n=80: {metric:.4f} (need <= 0.15)",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = dict(problem_id="paper-hammerstein", r=1, n_sequence=(20, 40, 80),
               method="picard", tol=1e-12, discrete_mode="paper-discrete")
    outputs = {}
    for tag in ("first", "second"):
        report = u.run_study(u.StudyConfig(**cfg))
        for fmt in ("csv", "json", "md"):
            path = tmp_path / f"{tag}.{fmt}"
            u.emit_report(report, fmt, str(path))
            outputs[(tag, fmt)] = path.read_bytes()
    same = {fmt: outputs[("first", fmt)] == outputs[("second", fmt)] for fmt in ("csv", "json", "md")}
    # the md table carries one row per interior t_i = 0.05 .. 0.95
    md_rows = sum(1 for line in outputs[("first", "md")].splitlines() if line.startswith(b"| 0."))
    check(
        "criterion 8", all(same.values()) and md_rows == 19,
        f"two runs byte-identical: {same}; md rows per t_i: {md_rows} (need 19)",
    )


def test_criterion_9_higher_order_extrapolation():
    """r = 3 at a tolerance below the error floor of the finest level: the
    partition orders approach 2r = 6 and the extrapolated ones 2r + 2 = 8,
    with Picard and with Newton."""
    details, ok = [], True
    for method in ("picard", "newton"):
        report = u.run_study(u.StudyConfig(problem_id="paper-hammerstein", r=3,
                                           n_sequence=(5, 10, 20, 40), method=method,
                                           tol=1e-15))
        alpha, beta = report.alpha[20], report.beta[10]
        ok = ok and bool(np.all(np.abs(alpha - 6.0) <= 0.1) and np.all(np.abs(beta - 8.0) <= 0.3))
        details.append(f"{method} alpha@(20:40) in [{alpha.min():.3f}, {alpha.max():.3f}], "
                       f"beta@(10:20) in [{beta.min():.3f}, {beta.max():.3f}]")
    check("criterion 9", ok, "; ".join(details) + " (need alpha within 0.1 of 6, beta within "
          "0.3 of 8)")
