"""Nonsmooth-path machinery: projection selectors, the bordered matrices
A(x,W), the solution-map sensitivity blocks H(x,W), and the resulting
directional-derivative / subgradient candidate sets.

Everything runs off one selector sweep per nonsmooth solution
(`selector_sweep`).  It evaluates the derivative bundle and the Lagrangian
once and builds the selector family once (the B-selectors, then the Clarke
grid points not among them).  It assembles every distinct A(x, W) as one
stack (`lower.kkt_jacobian_blocks` on the stacked selector diagonals, the
assembler the inner Newton uses too) with its right-hand-side stack, factors
the stack with one batched partial-pivot LU (`linalg.plu_batch`) and solves
every H(x, W) = A(x, W)^{-1} rhs in one stacked substitution.  Pivots, LU
entries, H entries and SingularMatrixErrors equal those of factoring each
matrix alone bit for bit, so verdicts and reports do not depend on the
batching.  Each selector gets a `SelectorFactor` of read-only views into
those stacks.  Its consumers only read them: `kkt_map_directional` and `phi_generalized_gradients` here,
the two selector-nonsingularity checks in `certify`, and the
admissible-selector search `upper.first_order_nonsmooth_necessary`.
`assemble_a_matrix`, `assemble_h_matrix` and `a_matrix_min_pivot` run the same
stacked step on a one-selector stack and return fresh arrays.

Sign convention: A is assembled as the exact x-derivative of the projected
KKT map (the lambda column carries -J_y g^T and -W).  Relative to the
symmetric display convention this negates the lambda column; candidate
(y', mu', lambda') vectors from binary selectors then equal the one-sided
derivatives of the tracked solution path, which finite differences confirm.
The convention is recorded in reports as LAMBDA_SIGN_CONVENTION.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import CheckConfig
from .linalg import PLUFactors, SingularMatrixError, plu_batch
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


def project_nonpositive(v: np.ndarray) -> np.ndarray:
    """Componentwise projection onto the nonpositive orthant: min(v, 0)."""
    return np.minimum(np.asarray(v, dtype=float), 0.0)


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
        raise SelectorCapError(f"|beta| = {len(beta)} exceeds cap {cap}")
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


def _solution_point(spec: ProblemSpec, sol: KktSolution):
    if sol.residual > 1e-8:
        raise ValueError(f"solution residual {sol.residual:.3e} exceeds 1e-8")
    bundle = eval_bundle(spec, sol.x, sol.y)
    return bundle, lagrangian_eval(bundle, sol.mu, sol.lam)


@dataclass
class SelectorFactor:
    """A(x, W) with its right-hand side (grad_yx L; J_x h; (I - W) J_x g) and
    either the LU factors of A or the SingularMatrixError that stopped them.
    The arrays are read-only views into the stacks of the sweep."""

    W: WSelector
    A: np.ndarray
    rhs: np.ndarray
    factors: PLUFactors | None
    error: SingularMatrixError | None
    min_pivot: float  # smallest pivot; the breakdown pivot when A is singular
    H: np.ndarray = field(repr=False)  # A^{-1} rhs; meaningless when A is singular

    def h_matrix(self) -> np.ndarray:
        """H(x, W) = A(x, W)^{-1} rhs; raises the stored SingularMatrixError."""
        if self.error is not None:
            raise self.error
        return self.H


def _factor_selectors(bundle, lag, selectors: list[WSelector]) -> list[SelectorFactor]:
    """The sweep's stacked step: assemble every A(x, W) and its right-hand
    side as one stack, factor the stack with one batched LU and solve every
    H(x, W) at once."""
    w = np.array([W.values for W in selectors], dtype=float).reshape(
        len(selectors), bundle.g.shape[0])
    A = kkt_jacobian_blocks(lag, bundle, w)
    top = np.vstack([lag.yx, bundle.h_jx])
    rhs = np.concatenate([np.broadcast_to(top, (len(selectors),) + top.shape),
                          (1.0 - w)[:, :, None] * bundle.g_jx], axis=1)
    batch = plu_batch(A)
    H = batch.solve(rhs)
    min_pivots = batch.min_pivots
    for arr in (A, rhs, H, batch.lu, batch.perm, batch.pivots):
        arr.flags.writeable = False
    out = []
    for s, W in enumerate(selectors):
        error = batch.error(s)
        factors = batch.factors(s) if error is None else None
        out.append(SelectorFactor(W, A[s], rhs[s], factors, error,
                                  float(min_pivots[s]), H[s]))
    return out


@dataclass
class SelectorSweep:
    """Every selector at one nonsmooth solution, each A(x, W) factored once."""

    partition: ActivePartition
    grad_x: np.ndarray  # grad_x L
    stack: np.ndarray  # (grad_y L; h; -g)
    entries: list[SelectorFactor]  # distinct selectors: binary, then new grid points
    binary: list[SelectorFactor]  # the B-selectors, bitmask order
    clarke: list[SelectorFactor]  # the Clarke grid, grid order

    def phi_gradient(self, entry: SelectorFactor) -> np.ndarray:
        """Candidate gradient grad_x L - H(x, W)^T (grad_y L; h; -g)."""
        return self.grad_x - entry.h_matrix().T @ self.stack


def selector_sweep(
    spec: ProblemSpec,
    sol: KktSolution,
    config: CheckConfig | None = None,
    clarke: bool = True,
) -> SelectorSweep:
    """Evaluate the solution once and factor A(x, W) once per distinct selector:
    the B-selectors, then (with clarke) the Clarke grid points not among them.
    Raises SelectorCapError before any factoring when a cap is exceeded."""
    config = config or CheckConfig()
    bundle, lag = _solution_point(spec, sol)
    partition = classify_partition(bundle.g, sol.lam, config.tol_act)
    b_sel = enumerate_b_selectors(partition, config.selector_cap)
    c_sel = (
        clarke_selector_grid(partition, config.beta_grid_resolution, config.clarke_grid_cap)
        if clarke
        else []
    )
    distinct: dict[tuple[float, ...], WSelector] = {}
    for W in b_sel + c_sel:
        distinct.setdefault(W.values, W)
    factored = dict(zip(distinct, _factor_selectors(bundle, lag, list(distinct.values()))))
    return SelectorSweep(
        partition=partition,
        grad_x=lag.grad_x,
        stack=np.concatenate([lag.grad_y, bundle.h, -bundle.g]),
        entries=list(factored.values()),
        binary=[factored[W.values] for W in b_sel],
        clarke=[factored[W.values] for W in c_sel],
    )


def _single_selector(spec: ProblemSpec, sol: KktSolution, W: WSelector) -> SelectorFactor:
    """The sweep's stacked step on a one-selector stack."""
    return _factor_selectors(*_solution_point(spec, sol), [W])[0]


def assemble_a_matrix(spec: ProblemSpec, sol: KktSolution, W: WSelector) -> np.ndarray:
    """Bordered matrix of order m + m1 + m2 for the selector W."""
    return _single_selector(spec, sol, W).A.copy()


def a_matrix_min_pivot(spec: ProblemSpec, sol: KktSolution, W: WSelector) -> float:
    return _single_selector(spec, sol, W).min_pivot


def assemble_h_matrix(spec: ProblemSpec, sol: KktSolution, W: WSelector) -> np.ndarray:
    """H(x, W) = A(x, W)^{-1} (grad_yx L; J_x h; (I - W) J_x g)."""
    return _single_selector(spec, sol, W).h_matrix().copy()


@dataclass
class GeneralizedDerivativeSet:
    """Per-selector candidates; kind tags which object they approximate."""

    kind: str  # 'directional' | 'b_subdifferential' | 'clarke_sample' | 'outer_approx'
    items: list[tuple[WSelector, np.ndarray]] = field(default_factory=list)
    errors: list[tuple[WSelector, str]] = field(default_factory=list)

    @property
    def vectors(self) -> list[np.ndarray]:
        return [v for _, v in self.items]

    def closest_to(self, target: np.ndarray) -> tuple[float, np.ndarray | None]:
        best = np.inf
        best_vec = None
        for _, v in self.items:
            dist = float(np.max(np.abs(v - target)))
            if dist < best:
                best = dist
                best_vec = v
        return best, best_vec


def kkt_map_directional(
    spec: ProblemSpec,
    sol: KktSolution,
    d_x: np.ndarray,
    config: CheckConfig | None = None,
) -> GeneralizedDerivativeSet:
    """Candidate one-sided derivatives (y'; mu'; lambda') along d_x, one per
    binary selector.  The true directional derivative is a member."""
    d_x = np.atleast_1d(np.asarray(d_x, dtype=float))
    out = GeneralizedDerivativeSet(kind="directional")
    for entry in selector_sweep(spec, sol, config, clarke=False).binary:
        if entry.error is not None:
            out.errors.append((entry.W, str(entry.error)))
        else:
            out.items.append((entry.W, -entry.factors.solve(entry.rhs @ d_x)))
    return out


def phi_generalized_gradients(
    spec: ProblemSpec,
    sol: KktSolution,
    config: CheckConfig | None = None,
    kind: str = "b_subdifferential",
) -> GeneralizedDerivativeSet:
    """Candidate gradients grad_x L - H(x,W)^T grad_{(y,mu,lam)} L per selector.

    kind='b_subdifferential' takes the binary selectors; kind='outer_approx'
    takes the whole sweep, binary selectors and Clarke grid samples.
    """
    if kind not in ("b_subdifferential", "outer_approx"):
        raise ValueError(f"unknown kind {kind!r}")
    sweep = selector_sweep(spec, sol, config, clarke=kind == "outer_approx")
    out = GeneralizedDerivativeSet(kind=kind)
    for entry in sweep.entries:
        if entry.error is not None:
            out.errors.append((entry.W, str(entry.error)))
        else:
            out.items.append((entry.W, sweep.phi_gradient(entry)))
    return out
