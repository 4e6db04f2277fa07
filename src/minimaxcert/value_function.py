"""Value function of the inner maximization on the smooth path: phi(x) =
f(x, y(x)) with gradient grad_x L and Hessian from the squared-slack
sensitivity system (the bordered matrix K and cross-derivative stack N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CheckConfig
from .linalg import PLUFactors, SingularMatrixError, plu
from .lower import KktSolution, lagrangian_eval, squared_slack_matrix
from .problem import ProblemSpec, eval_bundle

SMOOTH_RESIDUAL_TOL = 1e-8
HESSIAN_SYM_TOL = 1e-8


class SingularSensitivityError(Exception):
    """K(x) singular to tolerance: the smooth-path hypotheses fail here."""

    def __init__(self, pivot: float):
        self.pivot = pivot
        super().__init__(
            f"sensitivity matrix K is singular to tolerance (pivot {pivot:.3e}); "
            "Jacobian uniqueness cannot hold at this solution"
        )


@dataclass
class SensitivitySystem:
    """K (order m + m2 + m1 + m2) and N (same rows, n columns) with the block
    layout recorded; K uses the symmetric display with slacks w = sqrt(-g)."""

    K: np.ndarray
    N: np.ndarray
    blocks: dict[str, slice]
    min_pivot: float
    condition: float
    condition_warning: bool
    _factors: PLUFactors

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._factors.solve(rhs)


def assemble_sensitivity_system(
    spec: ProblemSpec, sol: KktSolution, config: CheckConfig | None = None
) -> SensitivitySystem:
    config = config or CheckConfig()
    if sol.path != "smooth":
        raise ValueError("sensitivity system requires a smooth-path solution")
    if sol.residual > SMOOTH_RESIDUAL_TOL:
        raise ValueError(
            f"solution residual {sol.residual:.3e} exceeds {SMOOTH_RESIDUAL_TOL:.1e}"
        )
    bundle = eval_bundle(spec, sol.x, sol.y)
    lag = lagrangian_eval(bundle, sol.mu, sol.lam)
    K, blocks = squared_slack_matrix(lag, bundle, sol.w, sol.lam)
    N = np.zeros((K.shape[0], spec.n))
    N[blocks["y"]] = lag.yx
    N[blocks["mu"]] = bundle.h_jx
    N[blocks["lam"]] = bundle.g_jx
    try:
        factors = plu(K)
    except SingularMatrixError as exc:
        raise SingularSensitivityError(exc.pivot) from exc
    condition = float(np.linalg.cond(K, 1)) if K.size else 1.0
    return SensitivitySystem(
        K=K,
        N=N,
        blocks=blocks,
        min_pivot=factors.min_pivot,
        condition=condition,
        condition_warning=condition > config.cond_warn,
        _factors=factors,
    )


def phi_gradient(spec: ProblemSpec, sol: KktSolution) -> np.ndarray:
    """grad phi(x) = grad_x L(x; y(x), mu(x), lam(x))."""
    if sol.residual > SMOOTH_RESIDUAL_TOL:
        raise ValueError(
            f"solution residual {sol.residual:.3e} exceeds {SMOOTH_RESIDUAL_TOL:.1e}"
        )
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
    """phi, grad phi and hess phi = grad_xx L - N^T K^{-1} N (symmetrized on
    return) with the assembled sensitivity system."""
    system = assemble_sensitivity_system(spec, sol, config)
    bundle = eval_bundle(spec, sol.x, sol.y)
    lag = lagrangian_eval(bundle, sol.mu, sol.lam)
    raw = lag.xx - system.N.T @ system.solve(system.N)
    asym = float(np.max(np.abs(raw - raw.T), initial=0.0))
    if asym > HESSIAN_SYM_TOL:
        raise ValueError(f"value-function Hessian asymmetry {asym:.3e} exceeds 1e-8")
    return ValueDerivatives(
        value=bundle.f,
        gradient=lag.grad_x,
        hessian=0.5 * (raw + raw.T),
        system=system,
    )


def phi_hessian(spec: ProblemSpec, sol: KktSolution) -> np.ndarray:
    """hess phi(x), as computed by value_derivatives."""
    return value_derivatives(spec, sol).hessian
