"""Dense linear algebra and a small LP kernel.

Matrices are plain numpy ndarrays (row-major).  The linear solver is
partial-pivoted elimination with an explicit, reported pivot threshold; the LP
solver is a dense two-phase simplex with Bland's anti-cycling rule.  Both are
deterministic.  The LP's feasibility tolerance is the caller's `CheckConfig`
field.  Nullspaces and restricted eigenvalues use numpy's SVD/eigh.

One LU kernel serves every caller.  `plu_batch` factors a stack of
equal-order matrices with each elimination step vectorised over the stack:
the selector sweep passes hundreds of matrices of order about 10 at once,
and the smooth-path sensitivity system is its stack of one.  `plu` is the
stack of one for the inner Newton steps.  The kernel eliminates one work
array [perm | A | rhs] with the stack axis last (Golub & Van Loan, Matrix
Computations, 4th ed., sections 3.2 and 3.4):

- a right-hand side handed to `plu_batch` rides along, and the rank-one
  update of each step is also the forward sweep on its columns;
- the permutation is a column of the work array, so one row swap moves
  L\\U, perm and rhs together;
- the pivots are read once at the end as |diag(U)|;
- every expression of the loop broadcasts over the trailing stack axis, so a
  stack of one runs the same loop on its matrix view.

Every slice runs the elementwise operations of the classic one-matrix
elimination in the same order, so a slice's factors, pivots, breakdown and
solution do not depend on the stack it was factored in, nor on whether its
right-hand side rode along or was substituted afterwards (`_lu_solve`).  The
one exception is the sign and payload of a NaN made where two NaNs meet,
which IEEE 754 leaves unspecified and numpy's loops pick by their layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Noise floors: each tells rounding from data, which no CheckConfig field should move.
PIVOT_RTOL = 1e-12  # LU pivot, relative to max(1, |A|), below which A is singular
SOLVE_RESIDUAL_TOL = 1e-10  # solve_linear's residual bound, relative to 1 + |b|_inf
LP_PIVOT_TOL = 1e-9  # simplex pivot and ratio threshold (feasibility is the caller's)
RANK_TOL = 1e-10  # singular values of constraint rows at or below it are zero


class SingularMatrixError(Exception):
    def __init__(self, pivot: float, step: int, scale: float):
        self.pivot = pivot
        self.step = step
        self.scale = scale
        super().__init__(
            f"matrix singular to tolerance: pivot {pivot:.3e} at step {step} "
            f"(threshold {PIVOT_RTOL:.0e} * scale {scale:.3e})"
        )


class LinearSolveError(Exception):
    pass


@dataclass
class PLUFactors:
    """Combined L\\U storage with row permutation and pivot magnitudes."""

    lu: np.ndarray
    perm: np.ndarray
    pivots: np.ndarray
    scale: float

    @property
    def min_pivot(self) -> float:
        return float(self.pivots.min()) if self.pivots.size else np.inf

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        B = _lu_solve(self.lu, b.reshape(len(self.perm), -1)[self.perm])
        return B[:, 0] if b.ndim == 1 else B


def plu(A: np.ndarray) -> PLUFactors:
    """Partial-pivoted LU; raises SingularMatrixError below the pivot threshold."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LinearSolveError(f"expected a square matrix, got shape {A.shape}")
    batch = plu_batch(A[None])
    error = batch.error(0)
    if error is not None:
        raise error
    return batch.factors(0)


@dataclass
class PLUBatch:
    """`plu` of every slice of a stack of equal-order matrices, with
    A^{-1} rhs of every slice when the stack was factored with a right-hand
    side.

    A slice whose pivot fell below its threshold at step k has step[s] = k,
    and its pivots after k, lu, perm, solution and solves are meaningless.
    step[s] = -1 marks a slice that factored."""

    lu: np.ndarray  # (S, n, n)
    perm: np.ndarray  # (S, n)
    pivots: np.ndarray  # (S, n)
    scale: np.ndarray  # (S,)
    step: np.ndarray  # (S,)
    solution: np.ndarray | None = None  # shaped like rhs

    @property
    def min_pivots(self) -> np.ndarray:
        """Per slice: the smallest pivot, or the breakdown pivot when singular."""
        if self.pivots.shape[1] == 0:
            return np.full(len(self.step), np.inf)
        rows = np.arange(len(self.step))
        return np.where(self.step < 0, self.pivots.min(axis=1),
                        self.pivots[rows, np.maximum(self.step, 0)])

    def error(self, s: int) -> SingularMatrixError | None:
        """The SingularMatrixError `plu` raises on slice s, or None."""
        k = int(self.step[s])
        if k < 0:
            return None
        return SingularMatrixError(self.pivots[s, k], k, float(self.scale[s]))

    def factors(self, s: int) -> PLUFactors:
        """Slice s as PLUFactors over views of the stack (factored slices only)."""
        return PLUFactors(lu=self.lu[s], perm=self.perm[s], pivots=self.pivots[s],
                          scale=float(self.scale[s]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """`PLUFactors.solve` of every slice at once; b is (S, n) or (S, n, r)."""
        b = np.asarray(b, dtype=float)
        S, n = self.perm.shape
        B = b.reshape(S, n, -1)[np.arange(S)[:, None], self.perm]
        with np.errstate(all="ignore"):  # singular slices may divide by zero
            _lu_solve(self.lu.transpose(1, 2, 0), B.transpose(1, 2, 0))
        return B[:, :, 0] if b.ndim == 2 else B


def _lu_solve(lu: np.ndarray, B: np.ndarray, forward: bool = True) -> np.ndarray:
    """Substitution in place on B = P b: the forward sweep with the unit
    lower triangle of lu (skipped with forward=False, where `plu_batch` ran
    it inside the elimination), then the backward sweep with the upper
    triangle.  One matrix, lu (n, n) and B (n, r), or a stack with the stack
    axis last, lu (n, n, S) and B (n, r, S): the same expressions broadcast
    over it."""
    n = lu.shape[0]
    if forward:
        for k in range(n):
            B[k + 1 :] -= lu[k + 1 :, k, None] * B[k, None]
    for k in range(n - 1, -1, -1):
        B[k] /= lu[k, k]
        B[:k] -= lu[:k, k, None] * B[k, None]
    return B


def _swap_rows(W: np.ndarray, k: int, p) -> None:
    """Swap row k with row p of a work array: of the matrix (n, c), or of
    each slice of the stack (n, c, S), p then holding one row per slice (a
    no-op where p == k)."""
    if W.ndim == 2:
        row_p = W[p].copy()
        W[p] = W[k]
    else:
        slices = np.arange(W.shape[2])
        row_p = W[p, :, slices].T
        W[p, :, slices] = W[k].T
    W[k] = row_p


def plu_batch(As: np.ndarray, rhs: np.ndarray | None = None) -> PLUBatch:
    """Partial-pivoted LU of each slice of As (S, n, n), vectorised over the
    slices, and with rhs ((S, n) or (S, n, r)) the solution A^{-1} rhs of
    every slice.

    The stack is eliminated in one work array [perm | A | rhs] of shape
    (n, 1 + n + r, S).  One row swap moves the permutation, L\\U and the
    right-hand side together, and the rank-one update of step k runs the
    forward sweep on the rhs columns with the rest of the row; the backward
    sweep follows.  Every expression of the loop broadcasts over the
    trailing stack axis, so a stack of one runs the same loop on the matrix
    view work[..., 0] and pays no stack indexing.  Every slice goes through
    the same elementwise operations in the same order (first-index argmax,
    row swap, column division, rank-one update), so its lu, perm, pivots,
    scale and solution do not depend on S, and equal those of factoring
    first and substituting after.  pivots is |diag(U)|: row k of U is final
    once step k has swapped it in.  A slice whose pivot falls below
    PIVOT_RTOL * max(scale, 1) at step k records step = k; that pivot and
    step make its SingularMatrixError."""
    As = np.asarray(As, dtype=float)
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise LinearSolveError(f"expected a stack of square matrices, got shape {As.shape}")
    S, n, _ = As.shape
    B = np.zeros((S, n, 0)) if rhs is None else np.asarray(rhs, dtype=float)
    B = B[:, :, None] if B.ndim == 2 else B
    work = np.empty((n, 1 + n + B.shape[2], S))
    work[:, 0] = np.arange(n)[:, None]
    work[:, 1 : n + 1] = As.transpose(1, 2, 0)
    work[:, n + 1 :] = B.transpose(1, 2, 0)
    W = work[..., 0] if S == 1 else work
    with np.errstate(all="ignore"):  # slices past their breakdown may divide by 0
        for k in range(n):
            c = k + 1  # column k of A
            off = np.abs(W[k:, c]).argmax(axis=0)
            if np.count_nonzero(off):
                _swap_rows(W, k, k + off)
            W[k + 1 :, c] /= W[k, c]
            W[k + 1 :, c + 1 :] -= W[k + 1 :, c, None] * W[k, None, c + 1 :]
        if rhs is not None:
            _lu_solve(W[:, 1 : n + 1], W[:, n + 1 :], forward=False)
    lu = work[:, 1 : n + 1].transpose(2, 0, 1)
    pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2))
    # a slice breaks down at its first pivot below the threshold; the steps
    # after it run on meaningless entries that no caller reads
    scale = np.max(np.abs(As), axis=(1, 2), initial=0.0)
    low = pivots < (PIVOT_RTOL * np.maximum(scale, 1.0))[:, None]
    step = np.where(low.any(axis=1), np.argmax(low, axis=1), -1)
    solution = None
    if rhs is not None:  # C order: numpy's matrix products round differently on strided views
        solution = np.ascontiguousarray(work[:, n + 1 :].transpose(2, 0, 1))
        solution = solution[:, :, 0] if np.ndim(rhs) == 2 else solution
    return PLUBatch(lu=lu, perm=work[:, 0].T.astype(np.intp), pivots=pivots,
                    scale=scale, step=step, solution=solution)


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Az = b; guarantees |Az - b|_inf <= SOLVE_RESIDUAL_TOL (1 + |b|_inf) or raises."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    factors = plu(A)
    z = factors.solve(b)
    bound = SOLVE_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    resid = float(np.max(np.abs(A @ z - b), initial=0.0))
    if resid > bound:
        z = z + factors.solve(b - A @ z)  # one refinement step
        resid = float(np.max(np.abs(A @ z - b), initial=0.0))
        if resid > bound:
            raise LinearSolveError(
                f"solve residual {resid:.3e} exceeds bound {bound:.3e}"
            )
    return z


def nullspace_basis(A: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace: ||A b||_inf <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        A = np.atleast_2d(A)
    ncols = A.shape[1]
    if A.shape[0] == 0 or not np.any(A):
        return np.eye(ncols)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > tol))
    return vt[rank:].T.copy()


def smallest_singular_value(A: np.ndarray) -> float:
    """The row-rank margin of A: its least singular value, 0.0 when A has more
    rows than columns (its rows are then dependent), and +inf for an empty
    matrix (vacuous rank conditions)."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.inf
    if A.shape[0] > A.shape[1]:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def max_eigenvalue_on_subspace(M: np.ndarray, basis: np.ndarray) -> float:
    """Largest eigenvalue of basis^T M basis, symmetrised; -inf for a zero-column basis."""
    M = np.asarray(M, dtype=float)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] == 0:
        return -np.inf
    reduced = basis.T @ M @ basis
    reduced = 0.5 * (reduced + reduced.T)
    return float(np.linalg.eigvalsh(reduced)[-1])


# ---------------------------------------------------------------------------
# linear programming: maximize c^T z  s.t.  A_eq z = b_eq, A_in z <= b_in,
# lower <= z <= upper  (entries may be +-inf)


@dataclass
class LpProblem:
    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        nv = self.c.shape[0]
        if self.A_eq is None:
            self.A_eq = np.zeros((0, nv))
            self.b_eq = np.zeros(0)
        else:
            self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if self.A_in is None:
            self.A_in = np.zeros((0, nv))
            self.b_in = np.zeros(0)
        else:
            self.A_in = np.atleast_2d(np.asarray(self.A_in, dtype=float))
            self.b_in = np.atleast_1d(np.asarray(self.b_in, dtype=float))
        self.lower = (
            np.full(nv, -np.inf) if self.lower is None
            else np.atleast_1d(np.asarray(self.lower, dtype=float))
        )
        self.upper = (
            np.full(nv, np.inf) if self.upper is None
            else np.atleast_1d(np.asarray(self.upper, dtype=float))
        )
        if self.A_eq.shape != (self.b_eq.shape[0], nv):
            raise ValueError("A_eq/b_eq dimensions inconsistent")
        if self.A_in.shape != (self.b_in.shape[0], nv):
            raise ValueError("A_in/b_in dimensions inconsistent")
        if self.lower.shape != (nv,) or self.upper.shape != (nv,):
            raise ValueError("bound dimensions inconsistent")


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    z: np.ndarray | None
    value: float | None
    iterations: int = 0
    dual_objective: float | None = None


class LpCyclingError(Exception):
    """Iteration cap reached (unreachable with Bland's rule in exact arithmetic)."""


def _to_standard_form(p: LpProblem):
    """Rewrite with nonnegative variables s and equality rows As = b.

    Returns (A, b, c_std, const, back) where back maps s -> original z.
    """
    nv = p.c.shape[0]
    cols: list[tuple[int, float]] = []  # (original var, sign)
    offsets = np.zeros(nv)
    extra_rows: list[tuple[int, float]] = []  # (col index, upper bound) for boxed vars
    for j in range(nv):
        lo, up = p.lower[j], p.upper[j]
        if np.isfinite(lo):
            offsets[j] = lo
            cols.append((j, 1.0))
            if np.isfinite(up):
                extra_rows.append((len(cols) - 1, up - lo))
        elif np.isfinite(up):
            offsets[j] = up
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
    ns = len(cols)
    T = np.zeros((nv, ns))  # z = offsets + T s
    for k, (j, sgn) in enumerate(cols):
        T[j, k] = sgn

    A_eq = p.A_eq @ T
    b_eq = p.b_eq - p.A_eq @ offsets
    A_in = p.A_in @ T
    b_in = p.b_in - p.A_in @ offsets
    if extra_rows:
        box = np.zeros((len(extra_rows), ns))
        box_b = np.zeros(len(extra_rows))
        for r, (k, ub) in enumerate(extra_rows):
            box[r, k] = 1.0
            box_b[r] = ub
        A_in = np.vstack([A_in, box])
        b_in = np.concatenate([b_in, box_b])

    n_in = A_in.shape[0]
    A = np.zeros((A_eq.shape[0] + n_in, ns + n_in))
    A[: A_eq.shape[0], :ns] = A_eq
    A[A_eq.shape[0] :, :ns] = A_in
    A[A_eq.shape[0] :, ns:] = np.eye(n_in)
    b = np.concatenate([b_eq, b_in])
    c_std = np.zeros(ns + n_in)
    c_std[:ns] = p.c @ T
    const = float(p.c @ offsets)
    return A, b, c_std, const, (T, offsets, ns)


def _simplex_phase(T, basis, cost_row, max_iter):
    """Run Bland-rule simplex on tableau T (rows x cols+1, rhs last column).

    cost_row holds reduced costs for maximization (positive = improving) with
    the objective value's negative in its last entry.  Mutates T/basis/cost_row.
    """
    m, tol = T.shape[0], LP_PIVOT_TOL
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise LpCyclingError(f"simplex iteration cap {max_iter} reached")
        enter = -1
        for j in range(T.shape[1] - 1):
            if cost_row[j] > tol:
                enter = j
                break
        if enter < 0:
            return it
        best_ratio = None
        leave = -1
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                ratio = T[i, -1] / a
                if best_ratio is None or ratio < best_ratio - tol:
                    best_ratio = ratio
                    leave = i
                elif abs(ratio - best_ratio) <= tol and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return -1  # unbounded direction on entering column
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        cost_row -= cost_row[enter] * T[leave]
        basis[leave] = enter


def solve_lp(p: LpProblem, feas_tol: float, max_iter: int = 5000) -> LpSolution:
    """Two-phase simplex with Bland's rule, feasible to feas_tol * max(1, |b|_inf);
    deterministic.  A NaN or an infinity in b_eq, or a NaN or -inf in b_in, is infeasible."""
    if not np.all(np.isfinite(p.b_eq)) or np.any(np.isnan(p.b_in) | (p.b_in == -np.inf)):
        return LpSolution("infeasible", None, None)
    nv = p.c.shape[0]
    if nv == 0:
        feas = np.all(np.abs(p.b_eq) <= feas_tol) and np.all(p.b_in >= -feas_tol)
        if feas:
            return LpSolution("optimal", np.zeros(0), 0.0)
        return LpSolution("infeasible", None, None)

    A, b, c_std, const, (T_map, offsets, ns) = _to_standard_form(p)
    m, ncols = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b = np.abs(b) * 1.0
    b[b == 0.0] = 0.0

    # phase 1: artificials on every row
    T = np.zeros((m, ncols + m + 1))
    T[:, :ncols] = A
    T[:, ncols : ncols + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(ncols, ncols + m))
    cost = np.zeros(ncols + m + 1)
    cost[:ncols] = T[:, :ncols].sum(axis=0)  # reduced costs of max(-sum artificials)
    cost[-1] = b.sum()
    iters = _simplex_phase(T, basis, cost, max_iter)
    if iters < 0:
        raise LpCyclingError("phase-1 reported unbounded; artificial sum is bounded")
    phase1 = cost[-1]  # remaining infeasibility
    if phase1 > feas_tol * max(1.0, float(np.max(np.abs(b), initial=0.0))):
        return LpSolution("infeasible", None, None, iterations=iters)

    # drive residual artificials out of the basis, drop redundant rows
    keep_rows = []
    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = -1
            for j in range(ncols):
                if abs(T[i, j]) > LP_PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant constraint row
            piv = T[i, pivot_col]
            T[i] /= piv
            for r in range(m):
                if r != i and T[r, pivot_col] != 0.0:
                    T[r] -= T[r, pivot_col] * T[i]
            basis[i] = pivot_col
        keep_rows.append(i)
    T2 = T[keep_rows][:, list(range(ncols)) + [ncols + m]]
    basis2 = [basis[i] for i in keep_rows]

    # phase 2
    cost2 = np.zeros(ncols + 1)
    cost2[:ncols] = c_std
    for i, bi in enumerate(basis2):
        if abs(cost2[bi]) > 0.0:
            cost2 -= cost2[bi] * T2[i]
    iters2 = _simplex_phase(T2, basis2, cost2, max_iter)
    if iters2 < 0:
        return LpSolution("unbounded", None, None, iterations=iters)

    s = np.zeros(ncols)
    for i, bi in enumerate(basis2):
        s[bi] = T2[i, -1]
    z = offsets + T_map @ s[:ns]
    value = float(c_std @ s) + const

    # dual certificate: y solves B^T y = c_B over the surviving rows
    dual_std = np.zeros(m)
    rows = keep_rows
    if rows:
        B = A[rows][:, basis2].T
        try:
            y = np.linalg.solve(B, c_std[basis2])
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(B, c_std[basis2], rcond=None)[0]
        for r, i in enumerate(rows):
            dual_std[i] = y[r]
    dual_obj = float(dual_std @ b) + const
    return LpSolution(
        "optimal",
        z,
        value,
        iterations=iters + iters2,
        dual_objective=dual_obj,
    )
