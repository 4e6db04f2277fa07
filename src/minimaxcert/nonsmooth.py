"""Nonsmooth-path machinery: projection selectors, the bordered matrices
A(x,W), the solution-map sensitivity blocks H(x,W), and the resulting
directional-derivative / subgradient candidate sets.

`_solution_point` opens every inner solution, here and in `value_function`:
it is the one check that a `KktSolution` has converged (at `tol_newton`).

A selector W is diagonal, and a selector is the row of its diagonal: 0 on
alpha, 1 on gamma and in [0, 1] on the degenerate set beta.  Selectors come
and go as the rows of one read-only (S, m2) float array, never one object
each: `enumerate_b_selectors` gives the 2^|beta| B-selectors, binary on
beta, by bit arithmetic in bitmask order, and `clarke_selector_grid` a grid
over the Clarke box in `itertools.product` order.

Everything runs off one selector sweep per nonsmooth solution
(`selector_sweep`).  It opens the solution once and takes the B-selectors.
Under the standing regularity assumption (LICQ plus strong second-order
sufficiency, hence strong regularity) every element of the Clarke
generalized Jacobian is nonsingular and phi is C^1 with grad phi = grad_x L,
so a grid over the Clarke box cannot change a verdict: only `subdiff`
(`phi_generalized_gradients(kind="outer_approx")`) appends the grid rows
that are not all 0/1.  Those that are all 0/1 are B-selectors already, so
`is_binary` marks exactly the B-selector rows of a sweep.
The sweep assembles every A(x, W) as one stack (`lower.kkt_jacobian_blocks`
on the stacked selector diagonals, the assembler the inner Newton uses too),
and `linalg.solve_stack` gives every A(x, W) its singularity test and its
margin sigma_min in one batched SVD (`stack_selectors`, which also builds
the smooth path's one-selector sensitivity system, the sweep that
`value_function.value_derivatives` returns).  The right-hand-side stack and
every nonsingular H(x, W) = A(x, W)^{-1} rhs, by one batched solve, are
computed when first read.  certify's nonsmooth path reads only the singular
values and grad_x L (under the standing assumption grad phi = grad_x L), so
it makes no solve.  numpy runs LAPACK slice by slice, so the singular
values, H entries and SingularMatrixErrors equal those of each matrix alone
bit for bit, and verdicts and reports do not depend on the batching.  The
`SelectorSweep` keeps the selector rows and those stacks, with one flag for
the whole family, `exact` (beta is empty, so the one selector is the whole
generalized Jacobian), and its consumers index them: `kkt_map_directional`
and `phi_generalized_gradients` here, `certify`'s one runner (its
nonsingularity row and outer polytope on grad_x L, on either path), and
`upper.first_order_nonsmooth`, which reads the singularity test.
`assemble_a_matrix` and `assemble_h_matrix` run the same stacked step on a
one-selector stack, given one selector row, and return fresh values.

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
from functools import cached_property

import numpy as np

from .config import CheckConfig
from .linalg import SolvedStack, solve_stack
from .lower import (
    ActivePartition,
    KktSolution,
    LagrangianEval,
    classify_partition,
    kkt_jacobian_blocks,
    lagrangian_eval,
)
from .problem import DerivativeBundle, ProblemSpec, eval_bundle

LAMBDA_SIGN_CONVENTION = "kkt-derivative (lambda column negated, sigma = -1)"


class SelectorCapError(Exception):
    pass


def _selector_rows(partition: ActivePartition, on_beta: np.ndarray) -> np.ndarray:
    """One read-only selector row per row of `on_beta`: 0 on alpha, 1 on
    gamma and that row's entries on beta."""
    rows = np.zeros((on_beta.shape[0], partition.size))
    rows[:, list(partition.gamma)] = 1.0
    rows[:, list(partition.beta)] = on_beta
    rows.flags.writeable = False
    return rows


def enumerate_b_selectors(partition: ActivePartition, cap: int = 16) -> np.ndarray:
    """All 2^|beta| binary selectors, beta-subset bitmask ascending: on beta,
    row s holds the bits of s, beta's first index the lowest bit."""
    k = len(partition.beta)
    if k > cap:
        raise SelectorCapError(f"{k} degenerate indices exceed cap {cap}")
    return _selector_rows(partition, (np.arange(1 << k)[:, None] >> np.arange(k)) & 1)


def clarke_selector_grid(
    partition: ActivePartition, resolution: int = 5, cap: int = 4096
) -> np.ndarray:
    """Grid sample of the Clarke box: `resolution` points per beta index, in
    `itertools.product` order (beta's last index varies fastest)."""
    k = len(partition.beta)
    count = resolution ** k
    if count > cap:
        raise SelectorCapError(f"{count} grid selectors exceed cap {cap}")
    levels = np.linspace(0.0, 1.0, resolution)
    return _selector_rows(partition, levels[np.indices((resolution,) * k).reshape(k, count).T])


def is_binary(W: np.ndarray) -> np.ndarray:
    """Per selector row: every entry is 0 or 1, which on a sweep's rows marks
    the B-selectors."""
    return np.all((W == 0.0) | (W == 1.0), axis=-1)


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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class SelectorSweep:
    """Selectors at one nonsmooth solution as a struct of arrays: row s of
    `selectors` is the diagonal of W_s, and slice s of every stack belongs to
    it.  Every array is read-only.  `exact` says the family is the whole
    generalized Jacobian (beta is empty: one selector).  `solved` holds the
    singularity test of every A(x, W); `rhs`, `H` and `stack` are computed
    when first read, so only a consumer that reads H pays its batched solve."""

    selectors: np.ndarray  # (S, m2): the B-selectors, bitmask order (then new grid points)
    exact: bool
    A: np.ndarray  # (S, N, N): A(x, W)
    solved: SolvedStack  # singular values of A, no solution
    bundle: DerivativeBundle
    lag: LagrangianEval

    @property
    def grad_x(self) -> np.ndarray:
        """grad_x L."""
        return self.lag.grad_x

    @cached_property
    def rhs(self) -> np.ndarray:
        """(S, N, n): (grad_yx L; J_x h; (I - W) J_x g)."""
        top = np.vstack([self.lag.yx, self.bundle.h_jx])
        return _read_only(np.concatenate(
            [np.broadcast_to(top, (len(self.selectors),) + top.shape),
             (1.0 - self.selectors)[:, :, None] * self.bundle.g_jx], axis=1))

    @cached_property
    def H(self) -> np.ndarray:
        """(S, N, n): A^{-1} rhs by one batched solve; NaN where A is singular."""
        return _read_only(self.solved.solve(self.rhs))

    @cached_property
    def stack(self) -> np.ndarray:
        """(grad_y L; h; -g)."""
        return _read_only(np.concatenate([self.lag.grad_y, self.bundle.h, -self.bundle.g]))

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


def stack_selectors(bundle, lag, selectors: np.ndarray, exact: bool) -> SelectorSweep:
    """The sweep's stacked step on the (S, m2) selector rows: assemble every
    A(x, W) as one stack and test every A(x, W) for singularity at once."""
    A = kkt_jacobian_blocks(lag, bundle, selectors)
    solved = solve_stack(A)
    for arr in (selectors, A, solved.sigma_min, solved.sigma_max, solved.singular):
        arr.flags.writeable = False
    return SelectorSweep(selectors, exact, A, solved, bundle, lag)


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
        selectors = np.concatenate([selectors, grid[~is_binary(grid)]])
    return stack_selectors(bundle, lag, selectors, not partition.beta)


def _single_selector(spec, sol, W: np.ndarray, config) -> SelectorSweep:
    """The sweep's stacked step on a one-selector stack."""
    bundle, lag, partition = _solution_point(spec, sol, config)
    return stack_selectors(bundle, lag, np.asarray(W, dtype=float).reshape(1, -1),
                           not partition.beta)


def assemble_a_matrix(spec: ProblemSpec, sol: KktSolution, W: np.ndarray,
                      config: CheckConfig | None = None) -> np.ndarray:
    """Bordered matrix of order m + m1 + m2 for the selector row W."""
    return _single_selector(spec, sol, W, config).A[0].copy()


def assemble_h_matrix(spec: ProblemSpec, sol: KktSolution, W: np.ndarray,
                      config: CheckConfig | None = None) -> np.ndarray:
    """H(x, W) = A(x, W)^{-1} (grad_yx L; J_x h; (I - W) J_x g)."""
    return _single_selector(spec, sol, W, config).h_matrix(0).copy()


@dataclass
class GeneralizedDerivativeSet:
    """Per-selector candidates; kind tags which object they approximate."""

    kind: str  # 'directional' | 'b_subdifferential' | 'outer_approx'
    items: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)  # (W row, vector)
    errors: list[tuple[np.ndarray, str]] = field(default_factory=list)

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
