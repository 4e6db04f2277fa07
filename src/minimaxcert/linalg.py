"""Dense linear algebra and a small LP kernel.

Matrices are plain numpy ndarrays (row-major).  Square systems are solved
by LAPACK through numpy, behind an explicit, reported singularity test; the
LP solver is a dense two-phase simplex with Bland's anti-cycling rule.  The
LP's feasibility tolerance is the caller's `CheckConfig` field.  Nullspaces
and restricted eigenvalues use numpy's SVD/eigh.

One kernel serves every square solve.  `solve_stack` takes a stack of
equal-order matrices: the selector sweep passes hundreds of matrices of
order about 10 at once, and the smooth-path sensitivity system is its stack
of one.  It

- marks a slice with a non-finite entry singular, with margin NaN, and
  leaves it out of the LAPACK calls (one NaN slice makes a batched SVD
  raise);
- takes the singular values of the other slices with one batched
  `np.linalg.svd(..., compute_uv=False)`, and calls a slice singular when
  not sigma_min > SINGULAR_RTOL * max(sigma_max, 1).  sigma_min is the
  2-norm distance to the nearest singular matrix (Eckart-Young-Mirsky), so
  unlike the pivots of a partial-pivot LU it cannot hide a near-singularity:
  Kahan's M = T^T T, T = I minus the strict upper triangle of ones, has
  pivots 1 and sigma_min 8.2e-12 at order 20 (Higham, Accuracy and
  Stability of Numerical Algorithms, 2002, sections 8 and 9);
- solves the nonsingular slices against a right-hand side with one batched
  `np.linalg.solve` (LAPACK's LU with partial pivoting), leaving NaN on the
  singular ones.

numpy's batched linalg calls run LAPACK on each slice in turn, so a slice's
singular values and solution do not depend on the stack it came in, nor on
which other slices were left out.  `solve_linear`, the inner Newton step,
runs the same test on its one matrix and gates the solve on its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Noise floors: each tells rounding from data, which no CheckConfig field should move.
SINGULAR_RTOL = 1e-12  # sigma_min, relative to max(1, sigma_max), at or below which A is singular
SOLVE_RESIDUAL_TOL = 1e-10  # solve_linear's residual bound, relative to 1 + |b|_inf
LP_PIVOT_TOL = 1e-9  # simplex pivot and ratio threshold (feasibility is the caller's)
RANK_TOL = 1e-10  # singular values of constraint rows at or below it are zero


class SingularMatrixError(Exception):
    """A matrix singular to tolerance; sigma_min and sigma_max are NaN when
    it has a non-finite entry."""

    def __init__(self, sigma_min: float, sigma_max: float):
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        if np.isnan(sigma_min):
            super().__init__("matrix singular: non-finite entries")
        else:
            super().__init__(
                f"matrix singular to tolerance: sigma_min {sigma_min:.3e} "
                f"(threshold {SINGULAR_RTOL:.0e} * max(sigma_max {sigma_max:.3e}, 1))"
            )


class LinearSolveError(Exception):
    pass


@dataclass
class SolvedStack:
    """A stack of square matrices with each slice's extreme singular values
    and singularity flag, and A^{-1} rhs of every slice when the stack was
    solved with a right-hand side.  Singular slices of a solution are NaN."""

    A: np.ndarray  # (S, n, n)
    sigma_min: np.ndarray  # (S,): the nonsingularity margin; NaN where A is non-finite
    sigma_max: np.ndarray  # (S,)
    singular: np.ndarray  # (S,) bool
    solution: np.ndarray | None = None  # shaped like rhs

    def error(self, s: int) -> SingularMatrixError | None:
        """The SingularMatrixError of slice s, or None."""
        if not self.singular[s]:
            return None
        return SingularMatrixError(float(self.sigma_min[s]), float(self.sigma_max[s]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b of every slice at once, NaN on the singular ones; b is
        (S, n) or (S, n, r)."""
        b = np.asarray(b, dtype=float)
        B = b[..., None] if b.ndim == 2 else b
        X = np.full(B.shape, np.nan)
        ok = ~self.singular
        X[ok] = np.linalg.solve(self.A[ok], B[ok])
        return X[..., 0] if b.ndim == 2 else X


def solve_stack(As: np.ndarray, rhs: np.ndarray | None = None) -> SolvedStack:
    """The singularity test of every slice of As (S, n, n) and, with rhs
    ((S, n) or (S, n, r)), the solution A^{-1} rhs of every nonsingular
    slice: one batched SVD and one batched solve (see the module docstring).
    An order-0 slice is nonsingular with margin +inf."""
    As = np.asarray(As, dtype=float)
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise LinearSolveError(f"expected a stack of square matrices, got shape {As.shape}")
    finite = np.isfinite(As).all(axis=(1, 2))
    sigma = np.linalg.svd(As[finite], compute_uv=False)
    sigma_min = np.full(len(As), np.nan)
    sigma_max = np.full(len(As), np.nan)
    sigma_min[finite] = sigma.min(axis=1, initial=np.inf)
    sigma_max[finite] = sigma.max(axis=1, initial=0.0)
    singular = ~(sigma_min > SINGULAR_RTOL * np.maximum(sigma_max, 1.0))
    solved = SolvedStack(As, sigma_min, sigma_max, singular)
    if rhs is not None:
        solved.solution = solved.solve(rhs)
    return solved


@dataclass
class SolvedMatrix:
    """A nonsingular matrix: the stack of one of `solve_stack`, read without
    the stack axis."""

    stack: SolvedStack

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for b (n,) or (n, r)."""
        return self.stack.solve(np.asarray(b, dtype=float)[None])[0]


def plu(A: np.ndarray) -> SolvedMatrix:
    """`solve_stack`'s test of the one matrix A, raising its
    SingularMatrixError.  The name is kept because perfbench's tracer wraps
    `linalg.plu` to count the Newton step's solves, until an in-package
    trace replaces the tracer's list of wrapped names."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LinearSolveError(f"expected a square matrix, got shape {A.shape}")
    stack = solve_stack(A[None])
    error = stack.error(0)
    if error is not None:
        raise error
    return SolvedMatrix(stack)


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
