"""Piecewise-polynomial Galerkin solver for Urysohn integral equations with
Green's-function-type kernels, with superconvergent iterated solutions at
partition points, Richardson extrapolation, and convergence-study tooling."""

from .errors import (
    ConfigError,
    DivergenceError,
    MeshMismatchError,
    MissingDerivativeError,
    SingularLinearizationError,
)
from .quadrature import GaussRule, gauss_rule
from .piecewise import (
    PiecewisePoly,
    UniformMesh,
    basis_table,
    make_mesh,
    project,
)
from .problems import (
    GAMMA_DEFAULT,
    PROBLEM_IDS,
    GreenKernel,
    HammersteinKernel,
    UrysohnProblem,
    apply_K,
    apply_Kprime,
    get_problem,
    manufactured_f,
    manufactured_rhs,
    residual,
)
from .solver import (
    GalerkinSolution,
    PartitionValues,
    SolveOptions,
    assemble_linearized,
    iterated_at_partition,
    iterated_eval,
    richardson,
    solve_galerkin,
    solve_paper_discrete,
)
from .study import (
    ConvergenceReport,
    StudyConfig,
    emit_report,
    estimate_order,
    render_report,
    run_study,
    zeta_estimate,
)

__version__ = "0.1.0"
