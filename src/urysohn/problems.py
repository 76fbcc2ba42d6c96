"""Urysohn integral equations with Green's-function-type kernels.

A kernel kappa(s, t, u) is given by two pieces that agree on the diagonal
t = s but whose s/t derivatives may jump there, so every integral is taken
with panels split at the diagonal; a Hammerstein kernel G(s, t) psi(t, u)
whose G has rank one on each triangle is integrated by prefix sums
instead.  The module provides the integral operator, its u-derivative,
residual evaluation and manufactured right-hand sides, each at a scalar or
an array of points s in one batched call, and a small registry of built-in
benchmark problems.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, MissingDerivativeError
from .piecewise import UniformMesh, _test_weights, make_mesh
from .quadrature import GaussRule, SplitOperator, _sampled, gauss_rule

__all__ = [
    "GreenKernel",
    "HammersteinKernel",
    "UrysohnProblem",
    "apply_K",
    "apply_Kprime",
    "manufactured_f",
    "manufactured_rhs",
    "residual",
    "get_problem",
    "PROBLEM_IDS",
    "GAMMA_DEFAULT",
]

# Fixed internals for manufactured right-hand sides; fine enough that their
# quadrature error sits far below anything the solvers can resolve.
_RHS_MESH = make_mesh(8)
_RHS_RULE = gauss_rule(16)


class _TwoPieces:
    """The derivative check shared by both kernel types."""

    def require_first_derivative(self):
        if self.du_kappa1 is None or self.du_kappa2 is None:
            raise MissingDerivativeError("kernel has no first u-derivative pieces")


@dataclass(frozen=True)
class GreenKernel(_TwoPieces):
    """Two-piece kernel: ``kappa1`` on t <= s, ``kappa2`` on s <= t.

    The pieces agree on the diagonal.  ``du_*`` are the u-derivative
    pieces, optional and only needed for Newton solves.  ``du2_*`` (second
    u-derivative pieces) are accepted for existing callers and never read.
    All callables take (s, t, u) as numpy arrays that broadcast against
    each other, and may return any value that broadcasts to their common
    shape.
    """

    kappa1: Callable
    kappa2: Callable
    du_kappa1: Optional[Callable] = None
    du_kappa2: Optional[Callable] = None
    du2_kappa1: Optional[Callable] = None
    du2_kappa2: Optional[Callable] = None


def _factored(a, b, psi):
    """The kernel piece a(s) b(t) psi(t, u), or None without psi."""
    return None if psi is None else (lambda s, t, u: a(s) * b(t) * psi(t, u))


@dataclass(frozen=True)
class HammersteinKernel(_TwoPieces):
    """kappa(s, t, u) = G(s, t) psi(t, u), with G of rank one on each
    triangle: a1(s) b1(t) on t <= s and a2(s) b2(t) on s <= t.

    The four factors take one array; ``psi`` and its optional u-derivative
    ``dpsi`` take (t, u).  The pieces ``kappa1/2`` and ``du_kappa1/2`` of a
    GreenKernel are derived from them, so every generic consumer takes this
    kernel too, while the operator calls integrate it by prefix sums
    (``SplitOperator.separable``) in O(n p + S p), not O(S n p), and a
    solve by product integration from psi on n p nodes (``galerkin``).
    """

    a1: Callable
    b1: Callable
    a2: Callable
    b2: Callable
    psi: Callable
    dpsi: Optional[Callable] = None

    kappa1 = property(lambda self: _factored(self.a1, self.b1, self.psi))
    kappa2 = property(lambda self: _factored(self.a2, self.b2, self.psi))
    du_kappa1 = property(lambda self: _factored(self.a1, self.b1, self.dpsi))
    du_kappa2 = property(lambda self: _factored(self.a2, self.b2, self.dpsi))


@dataclass(frozen=True)
class UrysohnProblem:
    """The equation x(s) - integral_0^1 kappa(s, t, x(t)) dt = f(s) on [0, 1].

    ``exact`` is the known solution when available (manufactured problems),
    enabling exact error measurement in convergence studies.
    """

    kernel: GreenKernel | HammersteinKernel
    f: Callable
    exact: Optional[Callable] = None
    name: str = ""


def _like(s, values):
    """values at the points s: a float for a scalar s, else shaped like s."""
    out = np.reshape(values, np.shape(s))
    return float(out) if out.ndim == 0 else out


def _times(fn):
    """fn(..., t, x(t)) v(t), for fn a u-derivative piece or dpsi, called
    with x and v sampled together: u[..., 0] is x(t) and u[..., 1] v(t)."""
    return lambda *args: fn(*args[:-1], args[-1][..., 0]) * args[-1][..., 1]


def _bind_integral(kernel, op: SplitOperator) -> Callable:
    """The function (x, v=None) -> at every point s of ``op``, K(x), the
    integral over t of kappa(s, t, x(t)), or with v given K'(x)v, that of
    du kappa(s, t, x(t)) v(t).  A HammersteinKernel is integrated by prefix
    sums, with its Green's factors sampled here once, any other kernel on
    the split panels.  v is sampled where x is, once per call."""
    if isinstance(kernel, HammersteinKernel):
        separable = op.separable(kernel.a1, kernel.b1, kernel.a2, kernel.b2)
        return lambda x, v=None: (separable(kernel.psi, x) if v is None
                                  else separable(_times(kernel.dpsi), (x, v)))
    return lambda x, v=None: (
        op.apply(kernel.kappa1, kernel.kappa2, x) if v is None
        else op.apply(_times(kernel.du_kappa1), _times(kernel.du_kappa2), (x, v)))


def _bind_galerkin(kernel, mesh: UniformMesh, r: int, outer: GaussRule, inner: GaussRule):
    """x -> the Galerkin coefficients of K(x) at order r and x -> the Newton
    matrix at x, from an operator of the ``inner`` rule at the ``outer`` rule's
    nodes in every cell and that rule's test weights, both built here once: by
    product integration for a HammersteinKernel, else on the split panels."""
    test = _test_weights(mesh, r, outer)
    op = SplitOperator(mesh, inner, mesh.grid(outer.nodes))
    if isinstance(kernel, HammersteinKernel):
        value, jacobian = op.galerkin(kernel.a1, kernel.b1, kernel.a2, kernel.b2, outer, test)
        return lambda x: value(kernel.psi, x), lambda x: jacobian(kernel.dpsi, x)
    return (lambda x: op.apply(kernel.kappa1, kernel.kappa2, x).reshape(mesh.n, -1) @ test,
            lambda x: op.matrix(kernel.du_kappa1, kernel.du_kappa2, x, test))


def apply_K(prob: UrysohnProblem, x, s, rule: GaussRule, mesh: UniformMesh):
    """The integral operator: integral_0^1 kappa(s, t, x(t)) dt."""
    return _like(s, _bind_integral(prob.kernel, SplitOperator(mesh, rule, s))(x))


def apply_Kprime(prob: UrysohnProblem, x, v, s, rule: GaussRule, mesh: UniformMesh):
    """Derivative of the operator at x applied to v:
    integral of d kappa/du (s, t, x(t)) v(t) dt."""
    prob.kernel.require_first_derivative()
    return _like(s, _bind_integral(prob.kernel, SplitOperator(mesh, rule, s))(x, v))


def manufactured_f(kernel, phi, s, rule: GaussRule, mesh: UniformMesh):
    """f(s) := phi(s) - integral kappa(s, t, phi(t)) dt, so that phi solves the
    problem exactly up to quadrature error."""
    k_vals = _bind_integral(kernel, SplitOperator(mesh, rule, s))(phi)
    return _like(s, _sampled(phi, s) - k_vals.reshape(np.shape(s)))


def manufactured_rhs(kernel, phi) -> Callable:
    """A right-hand-side callable built from a prescribed solution phi.

    Uses a fixed 8-cell mesh with 16-point Gauss panels; for kernels that
    are analytic off the diagonal the quadrature error is negligible
    against every effect the solvers can measure.  Accepts scalars or
    arrays; an array is evaluated in one batch, each point with its own
    split.
    """

    def f(s):
        return manufactured_f(kernel, phi, s, _RHS_RULE, _RHS_MESH)

    return f


def residual(prob: UrysohnProblem, x, s, rule: GaussRule, mesh: UniformMesh):
    """x(s) - K(x)(s) - f(s); zero at the exact solution."""
    return _like(s, _sampled(x, s) - apply_K(prob, x, s, rule, mesh) - _sampled(prob.f, s))


# ---------------------------------------------------------------------------
# Built-in problems

GAMMA_DEFAULT = float(np.sqrt(12.0))

PROBLEM_IDS = ("paper-hammerstein", "linear-green", "zero-kernel")

RHS_MODES = ("manufactured", "paper")


def _green_factors(gamma: float):
    """(a1, b1, a2, b2) of sinh(g*min) sinh(g*(1-max)) / (g sinh g), the
    Green's function of -u'' + g^2 u with Dirichlet conditions:
    a1(s) b1(t) on t <= s and a2(s) b2(t) on s <= t."""
    c = gamma * np.sinh(gamma)
    return (lambda s: np.sinh(gamma * (1.0 - s)) / c, lambda t: np.sinh(gamma * t),
            lambda s: np.sinh(gamma * s) / c, lambda t: np.sinh(gamma * (1.0 - t)))


def _hammerstein_problem(gamma: float, rhs_mode: str) -> UrysohnProblem:
    g2 = gamma * gamma
    kernel = HammersteinKernel(*_green_factors(gamma),
                               psi=lambda t, u: g2 * u - 2.0 * u ** 3,
                               dpsi=lambda t, u: g2 - 6.0 * u ** 2)

    def phi(s):
        return 2.0 / (2.0 * s + 1.0)

    if rhs_mode == "manufactured":
        return UrysohnProblem(kernel, manufactured_rhs(kernel, phi), exact=phi,
                              name="paper-hammerstein")

    # Historical closed form kept for comparison runs.  Its normalization is
    # inconsistent with phi (f(0) = 2/gamma instead of phi(0) = 2), so no
    # exact solution is attached and studies fall back to a reference solve.
    def f_printed(s):
        return (2.0 * np.sinh(gamma * (1.0 - s)) + (2.0 / 3.0) * np.sinh(gamma * s)) / (
            gamma * np.sinh(gamma)
        )

    return UrysohnProblem(kernel, f_printed, exact=None, name="paper-hammerstein[paper-rhs]")


def _linear_green_problem(gamma: float, scale: float) -> UrysohnProblem:
    kernel = HammersteinKernel(*_green_factors(gamma), psi=lambda t, u: scale * u,
                               dpsi=lambda t, u: scale)
    phi = np.exp
    return UrysohnProblem(kernel, manufactured_rhs(kernel, phi), exact=phi, name="linear-green")


def _zero_kernel_problem() -> UrysohnProblem:
    def zero(t, u):
        return 0.0

    kernel = HammersteinKernel(*_green_factors(GAMMA_DEFAULT), psi=zero, dpsi=zero)

    def f(s):
        return np.sin(np.pi * s) + 1.0

    return UrysohnProblem(kernel, f, exact=f, name="zero-kernel")


def get_problem(problem_id: str, params: Optional[dict] = None, rhs_mode: str = "manufactured") -> UrysohnProblem:
    """Look up a built-in problem by identifier.

    ``params`` may override numeric problem parameters (``gamma`` > 0 for
    the Green's-kernel problems, plus ``scale`` for linear-green); both must
    be finite numbers, and gamma sinh(gamma), the scale of the Green's
    factors, must be a finite normal number too (gamma from about 1.49e-154
    to about 704), as must the right-hand side at the partition points of
    its own mesh (for paper-hammerstein, gamma up to about 703).
    ``rhs_mode`` selects the manufactured right-hand side (default) or, for
    paper-hammerstein only, the historical printed one.
    """
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"params must be a mapping, got {params!r}")
    params = dict(params or {})
    if problem_id not in PROBLEM_IDS:
        raise ConfigError(f"unknown problem {problem_id!r}; expected one of {PROBLEM_IDS}")
    if rhs_mode not in RHS_MODES:
        raise ConfigError(f"unknown rhs mode {rhs_mode!r}; expected one of {RHS_MODES}")
    if rhs_mode != "manufactured" and problem_id != "paper-hammerstein":
        raise ConfigError(f"{problem_id} has no printed right-hand side")

    def take(key, default):
        value = params.pop(key, default)
        try:
            finite = not isinstance(value, bool) and isinstance(value, numbers.Real) \
                and math.isfinite(float(value))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"parameter {key!r} must be a finite number, got {value!r}")
        return float(value)

    def take_gamma():
        gamma = take("gamma", GAMMA_DEFAULT)
        if not gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {gamma!r}")
        with np.errstate(over="ignore", under="ignore"):
            scale = gamma * np.sinh(gamma)
        if not np.isfinite(scale):
            raise ConfigError(f"gamma {gamma!r} is too large: gamma sinh(gamma) overflows")
        if scale < np.finfo(float).tiny:
            raise ConfigError(f"gamma {gamma!r} is too small: gamma sinh(gamma) underflows")
        return gamma

    if problem_id == "paper-hammerstein":
        prob = _hammerstein_problem(take_gamma(), rhs_mode)
    elif problem_id == "linear-green":
        prob = _linear_green_problem(take_gamma(), take("scale", 1.0))
    else:
        prob = _zero_kernel_problem()

    if params:
        raise ConfigError(f"unknown parameters for {problem_id}: {sorted(params)}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(prob.f(_RHS_MESH.points))):
            raise ConfigError(f"the right-hand side of {problem_id} is not finite at the "
                              "points of its mesh: the parameters are too large")
    return prob
