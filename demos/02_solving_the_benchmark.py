# Solve the built-in nonlinear benchmark: a Hammerstein equation whose
# kernel is the Green's function of -u'' + g^2 u with Dirichlet conditions,
# g = sqrt(12), and whose exact solution is phi(s) = 2/(2s+1).  The
# right-hand side is manufactured from phi, so errors are measured exactly.

import numpy as np

import urysohn as u

prob = u.get_problem("paper-hammerstein")
phi = prob.exact
mesh = u.make_mesh(20)
rule = u.gauss_rule(10)

picard = u.solve_galerkin(prob, mesh, 1, u.SolveOptions(method="picard", tol=1e-12))
newton = u.solve_galerkin(prob, mesh, 1, u.SolveOptions(method="newton", tol=1e-12))
print(f"picard: {picard.iterations} iterations, final update {picard.final_update:.2e}")
print(f"newton: {newton.iterations} iterations, final update {newton.final_update:.2e}")
print(f"coefficient agreement: {np.max(np.abs(picard.x_g.coeffs - newton.x_g.coeffs)):.2e}")

# The Galerkin solution is a piecewise constant here (r = 1): first order.
# Applying the operator once more gives the iterated solution, which is
# continuous and much more accurate.
grid = np.linspace(0, 1, 401)
eg = np.max(np.abs(phi(grid) - picard.x_g(grid)))
xs = u.iterated_eval(prob, picard, grid, rule)  # one batched call for the grid
es = np.max(np.abs(phi(grid) - xs))
print(f"\nsup-norm errors at n=20: galerkin {eg:.2e}, iterated {es:.2e}")

# At the partition points the iterated solution superconverges again.
pv = u.iterated_at_partition(prob, picard, rule)
err = np.abs(phi(mesh.points) - pv.values)
print(f"partition-point error: max {err[1:-1].max():.2e} at interior points, "
      f"{err[0]:.1e} at s=0 (the kernel vanishes on the boundary)")
print("\nerror profile at a few partition points:")
for i in (1, 5, 10, 15, 19):
    print(f"  t={mesh.points[i]:.2f}   |phi - x_s| = {err[i]:.3e}")
