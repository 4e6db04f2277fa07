"""Nonsmooth-path machinery: projection selectors, the bordered matrices
A(x,W), the solution-map sensitivity blocks H(x,W), and the resulting
directional-derivative / subgradient candidate sets.

`_solution_point` opens every inner solution, here and in `value_function`:
it is the one check that a `KktSolution` has converged (at `tol_newton`).

Everything runs off one selector sweep per nonsmooth solution
(`selector_sweep`).  It opens the solution once and takes the 2^|beta|
B-selectors, the binary selectors on the degenerate set beta.  Under the
standing regularity assumption (LICQ plus strong second-order sufficiency,
hence strong regularity) every element of the Clarke generalized Jacobian
is nonsingular and phi is C^1 with grad phi = grad_x L, so a grid over the
Clarke box cannot change a verdict: only `subdiff`
(`phi_generalized_gradients(kind="outer_approx")`) adds it.
The sweep assembles every A(x, W) as one stack (`lower.kkt_jacobian_blocks`
on the stacked selector diagonals, the assembler the inner Newton uses too)
with its right-hand-side stack, and `linalg.solve_stack` settles the stack
in two LAPACK calls: one batched SVD gives every A(x, W) its singularity
test and its margin sigma_min, and one batched solve gives every
nonsingular H(x, W) = A(x, W)^{-1} rhs (`stack_selectors`, which also
builds the smooth path's one-selector sensitivity system, the sweep that
`value_function.value_derivatives` returns).  numpy runs LAPACK slice by
slice, so the singular values, H entries and SingularMatrixErrors equal
those of each matrix alone bit for bit, and verdicts and reports do not
depend on the batching.  The `SelectorSweep` keeps the selectors and those
stacks, and its consumers index them: `kkt_map_directional` and
`phi_generalized_gradients` here, the B-selector nonsingularity check and
the smooth path's sensitivity-system check in `certify`, and the
admissible-selector search `upper.first_order_nonsmooth_necessary`.
`assemble_a_matrix` and `assemble_h_matrix` run the same stacked step on a
one-selector stack and return fresh values.

Sign convention: A is assembled as the exact (y, mu, lambda)-derivative of
the projected KKT map (the lambda column carries -J_y g^T and -W), so it is
not symmetric: relative to a symmetric bordered display its lambda column is
negated.  Candidate (y', mu', lambda') vectors from binary selectors then
equal the one-sided derivatives of the tracked solution path, which finite
differences confirm.  The convention is recorded in reports as
LAMBDA_SIGN_CONVENTION.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import CheckConfig
from .linalg import SolvedStack, solve_stack
from .lower import (
    ActivePartition,
    KktSolution,
    classify_partition,
    kkt_jacobian_blocks,
    lagrangian_eval,
)
from .problem import ProblemSpec, eval_bundle

LAMBDA_SIGN_CONVENTION = "kkt-derivative (lambda column negated, sigma = -1)"


class SelectorCapError(Exception):
    pass


@dataclass(frozen=True)
class WSelector:
    """Diagonal selector from the generalized Jacobian of the projection:
    0 on alpha, 1 on gamma, [0,1] (binary for B-elements) on beta."""

    values: tuple[float, ...]
    provenance: tuple[str, ...]
    binary: bool

    def __post_init__(self):
        for v, tag in zip(self.values, self.provenance):
            if tag == "alpha" and v != 0.0:
                raise ValueError("selector must be 0 on alpha")
            if tag == "gamma" and v != 1.0:
                raise ValueError("selector must be 1 on gamma")
            if not 0.0 <= v <= 1.0:
                raise ValueError("selector entries must lie in [0, 1]")
            if self.binary and tag == "beta" and v not in (0.0, 1.0):
                raise ValueError("B-subdifferential selectors are binary on beta")

    @property
    def diag(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def _base_selector(partition: ActivePartition) -> tuple[list[float], list[str]]:
    values = [0.0] * partition.size
    tags = ["alpha"] * partition.size
    for i in partition.beta:
        tags[i] = "beta"
    for i in partition.gamma:
        values[i] = 1.0
        tags[i] = "gamma"
    return values, tags


def enumerate_b_selectors(
    partition: ActivePartition, cap: int = 16
) -> list[WSelector]:
    """All 2^|beta| binary selectors, beta-subset bitmask ascending."""
    beta = list(partition.beta)
    if len(beta) > cap:
        raise SelectorCapError(f"{len(beta)} degenerate indices exceed cap {cap}")
    values, tags = _base_selector(partition)
    out = []
    for mask in range(1 << len(beta)):
        vals = list(values)
        for bit, idx in enumerate(beta):
            vals[idx] = 1.0 if (mask >> bit) & 1 else 0.0
        out.append(WSelector(tuple(vals), tuple(tags), binary=True))
    return out


def clarke_selector_grid(
    partition: ActivePartition, resolution: int = 5, cap: int = 4096
) -> list[WSelector]:
    """Grid sample of the Clarke box: `resolution` points per beta index."""
    beta = list(partition.beta)
    count = resolution ** len(beta)
    if count > cap:
        raise SelectorCapError(f"{count} grid selectors exceed cap {cap}")
    values, tags = _base_selector(partition)
    levels = np.linspace(0.0, 1.0, resolution)
    out = []
    for combo in product(levels, repeat=len(beta)):
        vals = list(values)
        for idx, v in zip(beta, combo):
            vals[idx] = float(v)
        out.append(WSelector(tuple(vals), tuple(tags), binary=False))
    return out


def _solution_point(spec: ProblemSpec, sol: KktSolution, config: CheckConfig | None = None):
    """(bundle, Lagrangian, partition) at a solution whose residual is within
    `tol_newton`, where `solve_lower` stops; a ValueError otherwise."""
    config = config or CheckConfig()
    if not sol.residual <= config.tol_newton:
        raise ValueError(f"solution residual {sol.residual:.3e} exceeds "
                         f"tol_newton {config.tol_newton:.1e}")
    bundle = eval_bundle(spec, sol.x, sol.y)
    return (bundle, lagrangian_eval(bundle, sol.mu, sol.lam),
            classify_partition(bundle.g, sol.lam, config.tol_act))


@dataclass
class SelectorSweep:
    """Selectors at one nonsmooth solution as a struct of arrays: slice s of
    every stack belongs to selectors[s].  The stacks are read-only."""

    selectors: list[WSelector]  # the B-selectors, bitmask order (then new grid points)
    A: np.ndarray  # (S, N, N): A(x, W)
    rhs: np.ndarray  # (S, N, n): (grad_yx L; J_x h; (I - W) J_x g)
    H: np.ndarray  # (S, N, n): A^{-1} rhs; NaN where A is singular
    solved: SolvedStack
    grad_x: np.ndarray  # grad_x L
    stack: np.ndarray  # (grad_y L; h; -g)

    def h_matrix(self, s: int) -> np.ndarray:
        """H(x, W_s); raises the SingularMatrixError of a singular A(x, W_s)."""
        error = self.solved.error(s)
        if error is not None:
            raise error
        return self.H[s]

    def phi_gradients(self) -> np.ndarray:
        """Candidate gradients grad_x L - H(x, W)^T (grad_y L; h; -g), one row
        per selector; rows of singular selectors are NaN."""
        return self.grad_x - np.swapaxes(self.H, 1, 2) @ self.stack


def stack_selectors(bundle, lag, selectors: list[WSelector]) -> SelectorSweep:
    """The sweep's stacked step: assemble every A(x, W) and its right-hand
    side as one stack, test every A(x, W) for singularity and solve every
    nonsingular H(x, W) at once."""
    w = np.array([W.values for W in selectors], dtype=float).reshape(
        len(selectors), bundle.g.shape[0])
    A = kkt_jacobian_blocks(lag, bundle, w)
    top = np.vstack([lag.yx, bundle.h_jx])
    rhs = np.concatenate([np.broadcast_to(top, (len(selectors),) + top.shape),
                          (1.0 - w)[:, :, None] * bundle.g_jx], axis=1)
    solved = solve_stack(A, rhs)
    H = solved.solution
    for arr in (A, rhs, H, solved.sigma_min, solved.sigma_max, solved.singular):
        arr.flags.writeable = False
    return SelectorSweep(selectors, A, rhs, H, solved, lag.grad_x,
                         np.concatenate([lag.grad_y, bundle.h, -bundle.g]))


def selector_sweep(
    spec: ProblemSpec,
    sol: KktSolution,
    config: CheckConfig | None = None,
    clarke: bool = False,
) -> SelectorSweep:
    """Evaluate the solution once and solve with A(x, W) once per distinct
    selector: the B-selectors, then (with clarke) the Clarke grid points not
    among them.  Raises SelectorCapError before any solve when a cap is exceeded."""
    config = config or CheckConfig()
    bundle, lag, partition = _solution_point(spec, sol, config)
    selectors = enumerate_b_selectors(partition, config.selector_cap)
    if clarke:
        grid = clarke_selector_grid(partition, config.beta_grid_resolution,
                                    config.clarke_grid_cap)
        seen = {W.values for W in selectors}
        selectors += [W for W in grid if W.values not in seen]
    return stack_selectors(bundle, lag, selectors)


def _single_selector(spec, sol, W: WSelector, config) -> SelectorSweep:
    """The sweep's stacked step on a one-selector stack."""
    return stack_selectors(*_solution_point(spec, sol, config)[:2], [W])


def assemble_a_matrix(spec: ProblemSpec, sol: KktSolution, W: WSelector,
                      config: CheckConfig | None = None) -> np.ndarray:
    """Bordered matrix of order m + m1 + m2 for the selector W."""
    return _single_selector(spec, sol, W, config).A[0].copy()


def assemble_h_matrix(spec: ProblemSpec, sol: KktSolution, W: WSelector,
                      config: CheckConfig | None = None) -> np.ndarray:
    """H(x, W) = A(x, W)^{-1} (grad_yx L; J_x h; (I - W) J_x g)."""
    return _single_selector(spec, sol, W, config).h_matrix(0).copy()


@dataclass
class GeneralizedDerivativeSet:
    """Per-selector candidates; kind tags which object they approximate."""

    kind: str  # 'directional' | 'b_subdifferential' | 'outer_approx'
    items: list[tuple[WSelector, np.ndarray]] = field(default_factory=list)
    errors: list[tuple[WSelector, str]] = field(default_factory=list)

    @property
    def vectors(self) -> list[np.ndarray]:
        return [v for _, v in self.items]


def _candidate_set(kind: str, sweep: SelectorSweep, rows: np.ndarray) -> GeneralizedDerivativeSet:
    """Row s of the stacked candidates for each selector whose A(x, W) is
    nonsingular; the SingularMatrixError for the others."""
    out = GeneralizedDerivativeSet(kind=kind)
    for s, W in enumerate(sweep.selectors):
        error = sweep.solved.error(s)
        if error is not None:
            out.errors.append((W, str(error)))
        else:
            out.items.append((W, rows[s]))
    return out


def kkt_map_directional(
    spec: ProblemSpec,
    sol: KktSolution,
    d_x: np.ndarray,
    config: CheckConfig | None = None,
) -> GeneralizedDerivativeSet:
    """Candidate one-sided derivatives (y'; mu'; lambda') along d_x, one per
    binary selector.  The true directional derivative is a member."""
    d_x = np.atleast_1d(np.asarray(d_x, dtype=float))
    sweep = selector_sweep(spec, sol, config)
    return _candidate_set("directional", sweep, -sweep.solved.solve(sweep.rhs @ d_x))


def phi_generalized_gradients(
    spec: ProblemSpec,
    sol: KktSolution,
    config: CheckConfig | None = None,
    kind: str = "b_subdifferential",
) -> GeneralizedDerivativeSet:
    """Candidate gradients grad_x L - H(x,W)^T grad_{(y,mu,lam)} L per selector.

    kind='b_subdifferential' takes the binary selectors; kind='outer_approx'
    adds the Clarke grid samples (the `subdiff` command).
    """
    if kind not in ("b_subdifferential", "outer_approx"):
        raise ValueError(f"unknown kind {kind!r}")
    sweep = selector_sweep(spec, sol, config, clarke=kind == "outer_approx")
    return _candidate_set(kind, sweep, sweep.phi_gradients())
