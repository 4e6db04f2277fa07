"""Value function of the inner maximization on the smooth path: phi(x) =
f(x, y(x)) with gradient grad_x L and Hessian from the sensitivity system.

The smooth path is the |beta| = 0 case of the nonsmooth analysis: its one
projection selector W is 0 on alpha and 1 on gamma, and the sensitivity
system is that selector's sweep, the bordered matrix A(x, W) of
`lower.kkt_jacobian_blocks` with right-hand side
rhs = (grad_yx L; J_x h; (I - W) J_x g).  The solution map moves by
(y', mu', lam') = -A^{-1} rhs d_x, so
hess phi = grad_xx L - [(grad_yx L)^T, J_x h^T, -J_x g^T] A^{-1} rhs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CheckConfig
from .lower import KktSolution, classify_partition, lagrangian_eval
from .nonsmooth import enumerate_b_selectors, stack_selectors
from .problem import ProblemSpec, eval_bundle

SMOOTH_RESIDUAL_TOL = 1e-8
HESSIAN_SYM_TOL = 1e-8


class SingularSensitivityError(Exception):
    """No sensitivity system at this solution: an inequality is degenerate
    (active with a zero multiplier) or A(x, W) is singular to tolerance."""

    def __init__(self, reason: str, pivot: float | None = None):
        self.pivot = pivot
        super().__init__(f"{reason}; Jacobian uniqueness cannot hold at this solution")


class AsymmetricValueHessianError(ValueError):
    """hess phi as assembled from the sensitivity system is not symmetric to
    HESSIAN_SYM_TOL."""


@dataclass
class SensitivitySystem:
    """A(x, W) (order m + m1 + m2), its right-hand side rhs (same rows, n
    columns) and H = A^{-1} rhs for the smooth path's selector W."""

    A: np.ndarray
    rhs: np.ndarray
    H: np.ndarray
    min_pivot: float
    condition: float
    condition_warning: bool


def _check_residual(sol: KktSolution) -> None:
    if sol.residual > SMOOTH_RESIDUAL_TOL:
        raise ValueError(
            f"solution residual {sol.residual:.3e} exceeds {SMOOTH_RESIDUAL_TOL:.1e}"
        )


def assemble_sensitivity_system(
    spec: ProblemSpec, sol: KktSolution, config: CheckConfig | None = None
) -> SensitivitySystem:
    config = config or CheckConfig()
    if sol.path != "smooth":
        raise ValueError("sensitivity system requires a smooth-path solution")
    _check_residual(sol)
    bundle = eval_bundle(spec, sol.x, sol.y)
    partition = classify_partition(bundle.g, sol.lam, config.tol_act)
    if partition.beta:
        names = ", ".join(f"g{i + 1}" for i in partition.beta)
        raise SingularSensitivityError(
            f"{names} active with zero multiplier (strict complementarity fails)"
        )
    lag = lagrangian_eval(bundle, sol.mu, sol.lam)
    sweep = stack_selectors(bundle, lag, enumerate_b_selectors(partition))
    error = sweep.lu.error(0)
    if error is not None:
        raise SingularSensitivityError(
            f"sensitivity matrix A(x, W) is singular to tolerance (pivot {error.pivot:.3e})",
            error.pivot,
        ) from error
    A = sweep.A[0]
    condition = float(np.linalg.cond(A, 1)) if A.size else 1.0
    return SensitivitySystem(
        A=A,
        rhs=sweep.rhs[0],
        H=sweep.H[0],
        min_pivot=float(sweep.lu.min_pivots[0]),
        condition=condition,
        condition_warning=condition > config.cond_warn,
    )


def phi_gradient(spec: ProblemSpec, sol: KktSolution) -> np.ndarray:
    """grad phi(x) = grad_x L(x; y(x), mu(x), lam(x))."""
    _check_residual(sol)
    bundle = eval_bundle(spec, sol.x, sol.y)
    return lagrangian_eval(bundle, sol.mu, sol.lam).grad_x


@dataclass
class ValueDerivatives:
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    system: SensitivitySystem


def value_derivatives(
    spec: ProblemSpec, sol: KktSolution, config: CheckConfig | None = None
) -> ValueDerivatives:
    """phi, grad phi and hess phi = grad_xx L - [(grad_yx L)^T, J_x h^T, -J_x g^T] H
    (symmetrized on return) with the assembled sensitivity system."""
    system = assemble_sensitivity_system(spec, sol, config)
    bundle = eval_bundle(spec, sol.x, sol.y)
    lag = lagrangian_eval(bundle, sol.mu, sol.lam)
    raw = lag.xx - np.hstack([lag.yx.T, bundle.h_jx.T, -bundle.g_jx.T]) @ system.H
    asym = float(np.max(np.abs(raw - raw.T), initial=0.0))
    if asym > HESSIAN_SYM_TOL:
        raise AsymmetricValueHessianError(
            f"value-function Hessian asymmetry {asym:.3e} exceeds 1e-8")
    return ValueDerivatives(
        value=bundle.f,
        gradient=lag.grad_x,
        hessian=0.5 * (raw + raw.T),
        system=system,
    )


def phi_hessian(spec: ProblemSpec, sol: KktSolution) -> np.ndarray:
    """hess phi(x), as computed by value_derivatives."""
    return value_derivatives(spec, sol).hessian
