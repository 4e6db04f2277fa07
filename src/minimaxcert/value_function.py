"""Value function of the inner maximization on the smooth path: phi(x) =
f(x, y(x)) with gradient grad_x L and Hessian from the sensitivity system.

The smooth path is the |beta| = 0 case of the nonsmooth analysis: its one
projection selector W is 0 on alpha and 1 on gamma, and the sensitivity
system is that selector's sweep, the bordered matrix A(x, W) of
`lower.kkt_jacobian_blocks` with right-hand side
rhs = (grad_yx L; J_x h; (I - W) J_x g).  The solution map moves by
(y', mu', lam') = -A^{-1} rhs d_x, so
hess phi = grad_xx L - [(grad_yx L)^T, J_x h^T, -J_x g^T] A^{-1} rhs.

That is L_xx - rhs^T K^{-1} rhs with K = A diag(I, I, -I): the left factor
is rhs^T diag(I, I, -I) once the gamma rows, whose rhs rows are zero, drop
out, and K is symmetric on the rest.  So hess phi is symmetric in exact
arithmetic, and the assembled product differs from its transpose by rounding
only.

A(x, W) is nonsingular when `linalg.solve_stack`'s test passes: its
smallest singular value sigma_min, the margin reported, exceeds
`linalg.SINGULAR_RTOL` * max(sigma_max, 1).  The condition estimate that
`certify` reports is the 2-norm sigma_max / sigma_min from the same SVD.

`value_derivatives` opens its solution with `nonsmooth._solution_point` and
checks beta before it enumerates or solves anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CheckConfig
from .lower import KktSolution
from .nonsmooth import SelectorSweep, _solution_point, enumerate_b_selectors, stack_selectors
from .problem import ProblemSpec


class SingularSensitivityError(Exception):
    """No sensitivity system at this solution: an inequality is degenerate
    (active with a zero multiplier) or A(x, W) is singular to tolerance."""

    def __init__(self, reason: str, sigma_min: float | None = None):
        self.sigma_min = sigma_min
        super().__init__(f"{reason}; Jacobian uniqueness cannot hold at this solution")


@dataclass
class ValueDerivatives:
    """phi, grad phi and hess phi with the one-selector sweep they came from:
    A(x, W) is `sweep.A[0]`, its right-hand side `sweep.rhs[0]`, H(x, W)
    `sweep.H[0]`, and its singular values are in `sweep.solved`."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    sweep: SelectorSweep


def value_derivatives(
    spec: ProblemSpec, sol: KktSolution, config: CheckConfig | None = None
) -> ValueDerivatives:
    """phi, grad phi and hess phi = grad_xx L - [(grad_yx L)^T, J_x h^T, -J_x g^T] H
    with the assembled sensitivity system.  That product is symmetric in exact
    arithmetic (see the module docstring), so it is symmetrised on return and
    not checked: its asymmetry is rounding, and a test bounds it."""
    bundle, lag, partition = _solution_point(spec, sol, config)
    if partition.beta:
        names = ", ".join(f"g{i + 1}" for i in partition.beta)
        raise SingularSensitivityError(
            f"{names} active with zero multiplier (strict complementarity fails)"
        )
    sweep = stack_selectors(bundle, lag, enumerate_b_selectors(partition), True)
    error = sweep.solved.error(0)
    if error is not None:
        raise SingularSensitivityError(f"sensitivity {error}", error.sigma_min) from error
    raw = lag.xx - np.hstack([lag.yx.T, bundle.h_jx.T, -bundle.g_jx.T]) @ sweep.H[0]
    return ValueDerivatives(value=bundle.f, gradient=lag.grad_x,
                            hessian=0.5 * (raw + raw.T), sweep=sweep)
