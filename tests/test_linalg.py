import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxcert.linalg import (
    SINGULAR_RTOL,
    SOLVE_RESIDUAL_TOL,
    LinearSolveError,
    LpProblem,
    SingularMatrixError,
    max_eigenvalue_on_subspace,
    nullspace_basis,
    plu,
    smallest_singular_value,
    solve_linear,
    solve_lp,
    solve_stack,
)


def test_solve_identity():
    z = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(z, [1.0, 2.0, 3.0])


def test_solve_sensitivity_fixture():
    # a symmetric indefinite bordered matrix; det = 4, first solution entry -1
    K = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    assert np.linalg.det(K) == pytest.approx(4.0)
    z = solve_linear(K, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(z, [-1.0, 0.5, 0.0], atol=1e-12)


def test_singular_matrix_reports_sigma_min():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    assert err.value.sigma_min < 1e-10
    assert err.value.sigma_max == pytest.approx(2.0)
    assert "sigma_min" in str(err.value)


def test_solve_residual_on_random_well_conditioned():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        while np.linalg.cond(A) > 1e6:
            A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = rng.standard_normal(n)
        z = solve_linear(A, b)
        res = np.max(np.abs(A @ z - b))
        assert res <= 1e-8 * np.max(np.abs(b))


def test_nullspace_axis_case():
    basis = nullspace_basis(np.array([[1.0, 0.0]]), 1e-10)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) < 1e-12
    assert np.max(np.abs(np.array([[1.0, 0.0]]) @ basis)) <= 1e-10


def test_nullspace_zero_matrix():
    basis = nullspace_basis(np.zeros((1, 2)), 1e-10)
    assert basis.shape == (2, 2)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-10)


def test_nullspace_sum_row():
    A = np.array([[1.0, 1.0]])
    basis = nullspace_basis(A, 1e-10)
    assert basis.shape == (2, 1)
    assert np.max(np.abs(A @ basis)) <= 1e-12
    assert abs(abs(basis[0, 0]) - 1 / np.sqrt(2)) < 1e-12


def test_nullspace_orthonormal_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = int(rng.integers(0, 4))
        cols = int(rng.integers(1, 6))
        A = rng.standard_normal((rows, cols)) if rows else np.zeros((0, cols))
        basis = nullspace_basis(A, 1e-10)
        if basis.shape[1]:
            assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-10
        if rows:
            assert np.max(np.abs(A @ basis), initial=0.0) <= 1e-9


def test_max_eigenvalue_on_subspace():
    M = np.diag([-2.0, 5.0])
    basis = np.array([[1.0], [0.0]])
    assert max_eigenvalue_on_subspace(M, basis) == pytest.approx(-2.0)
    # scalar case: certifies negative definiteness on the whole line
    assert max_eigenvalue_on_subspace(np.array([[-2.0]]), np.eye(1)) == pytest.approx(-2.0)
    # empty basis: vacuously negative definite
    assert max_eigenvalue_on_subspace(M, np.zeros((2, 0))) == -np.inf


def test_smallest_singular_value_empty():
    assert smallest_singular_value(np.zeros((0, 3))) == np.inf


def test_smallest_singular_value_is_zero_with_more_rows_than_columns():
    # two rows in one column are dependent, though the one singular value is 1
    assert smallest_singular_value(np.array([[0.0], [-1.0]])) == 0.0
    assert smallest_singular_value(np.array([[0.0, -1.0]])) == 1.0


def test_lp_opposing_rows_force_zero():
    # maximize t  s.t.  d + t <= 0, -d + t <= 0, |d| <= 1
    p = LpProblem(
        c=[0.0, 1.0],
        A_in=[[1.0, 1.0], [-1.0, 1.0]],
        b_in=[0.0, 0.0],
        lower=[-1.0, -np.inf],
        upper=[1.0, np.inf],
    )
    sol = solve_lp(p, 1e-9)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_lp_single_constraint_geometry():
    # maximize t  s.t.  -d + t <= 0, |d| <= 1  ->  t* = 1 at d = 1
    p = LpProblem(
        c=[0.0, 1.0],
        A_in=[[-1.0, 1.0]],
        b_in=[0.0],
        lower=[-1.0, -np.inf],
        upper=[1.0, np.inf],
    )
    sol = solve_lp(p, 1e-9)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.z[0] == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible():
    p = LpProblem(
        c=[1.0],
        A_in=[[1.0], [-1.0]],
        b_in=[-1.0, -1.0],  # z <= -1 and z >= 1
    )
    assert solve_lp(p, 1e-9).status == "infeasible"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_lp_non_finite_equality_rhs_is_infeasible(value):
    # -z = b has no solution when b is not a finite number
    p = LpProblem(np.zeros(1), [[-1.0]], [value], None, None, [0.0], None)
    sol = solve_lp(p, 1e-9)
    assert (sol.status, sol.z) == ("infeasible", None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_lp_nan_or_minus_inf_inequality_rhs_is_infeasible(value):
    # z <= b holds for no z when b is NaN or -inf
    p = LpProblem(np.zeros(1), None, None, [[1.0]], [value], [0.0], None)
    sol = solve_lp(p, 1e-9)
    assert (sol.status, sol.z) == ("infeasible", None)


@pytest.mark.parametrize("feas_tol, status", [(1e-9, "infeasible"), (1e-8, "optimal")])
def test_lp_feasibility_is_read_at_the_callers_tolerance(feas_tol, status):
    # 0 z = 5e-9 leaves a phase-1 infeasibility of 5e-9
    p = LpProblem(np.zeros(1), [[0.0]], [5e-9], None, None, [0.0], None)
    assert solve_lp(p, feas_tol).status == status


def test_lp_unbounded():
    p = LpProblem(c=[1.0], A_in=[[-1.0]], b_in=[0.0])
    assert solve_lp(p, 1e-9).status == "unbounded"


def test_lp_equalities_and_free_variables():
    # maximize u + v  s.t.  u + v = 1, v >= 0  ->  value 1
    p = LpProblem(
        c=[1.0, 1.0],
        A_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        lower=[-np.inf, 0.0],
    )
    sol = solve_lp(p, 1e-9)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_lp_duals_reproduce_objective():
    rng = np.random.default_rng(23)
    for _ in range(20):
        nv = int(rng.integers(1, 5))
        ni = int(rng.integers(1, 4))
        A_in = rng.standard_normal((ni, nv))
        b_in = rng.uniform(0.5, 2.0, ni)
        c = rng.standard_normal(nv)
        p = LpProblem(c=c, A_in=A_in, b_in=b_in, lower=-np.ones(nv), upper=np.ones(nv))
        sol = solve_lp(p, 1e-9)
        assert sol.status == "optimal"
        assert np.all(A_in @ sol.z <= b_in + 1e-9)
        assert np.all(sol.z >= -1.0 - 1e-9) and np.all(sol.z <= 1.0 + 1e-9)
        assert sol.dual_objective == pytest.approx(sol.value, abs=1e-8)


def test_plu_solve_multiple_rhs():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    B = rng.standard_normal((4, 3))
    X = plu(A).solve(B)
    assert np.max(np.abs(A @ X - B)) < 1e-10


# --- the LAPACK kernel ---------------------------------------------------------

def _kahan(n):
    """M = T^T T with T = I minus the strict upper triangle of ones."""
    T = np.eye(n) - np.triu(np.ones((n, n)), 1)
    return T.T @ T


def _partial_pivot_pivots(A):
    """|diag(U)| of a textbook partial-pivot LU of A."""
    U = A.copy()
    n = len(U)
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        U[[k, p]] = U[[p, k]]
        U[k + 1 :] -= np.outer(U[k + 1 :, k] / U[k, k], U[k])
    return np.abs(np.diag(U))


@pytest.mark.parametrize("n, sigma_min", [(20, 8.19e-12), (30, 4.5e-16)])
def test_kahan_matrix_is_singular_though_its_pivots_are_one(n, sigma_min):
    """Partial pivoting sees pivots of 1 on Kahan's T^T T; its smallest
    singular value, the 2-norm distance to singularity, is below the rule's
    threshold."""
    M = _kahan(n)
    assert np.array_equal(_partial_pivot_pivots(M), np.ones(n))
    solved = solve_stack(M[None], np.ones((1, n)))
    assert solved.sigma_min[0] == pytest.approx(sigma_min, rel=0.05)
    assert solved.sigma_min[0] <= SINGULAR_RTOL * solved.sigma_max[0]
    assert solved.singular[0] and np.isnan(solved.solution).all()
    with pytest.raises(SingularMatrixError, match="sigma_min"):
        solve_linear(M, np.ones(n))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_singularity_rule_at_both_sides_of_the_threshold(scale):
    """Singular exactly when sigma_min <= SINGULAR_RTOL * max(sigma_max, 1);
    the margins are the singular values."""
    threshold = SINGULAR_RTOL * max(scale, 1.0)
    sigmas = [2.0 * threshold, threshold, 0.5 * threshold, 0.0]
    As = np.array([np.diag([scale, s]) for s in sigmas])
    solved = solve_stack(As)
    assert solved.singular.tolist() == [False, True, True, True]
    assert solved.sigma_min.tolist() == sigmas
    assert solved.sigma_max.tolist() == [scale] * 4
    assert solved.error(0) is None
    for s in (1, 2, 3):
        error = solved.error(s)
        assert (error.sigma_min, error.sigma_max) == (sigmas[s], scale)


def test_solve_stack_solution_residual():
    rng = np.random.default_rng(3)
    As = rng.standard_normal((40, 8, 8)) + 4.0 * np.eye(8)
    B = rng.standard_normal((40, 8, 3))
    solved = solve_stack(As, B)
    assert not solved.singular.any()
    assert np.all(solved.sigma_max / solved.sigma_min < 1e3)
    bound = SOLVE_RESIDUAL_TOL * (1.0 + np.max(np.abs(B)))
    assert np.max(np.abs(As @ solved.solution - B)) <= bound
    x = solved.solve(B[:, :, 0])  # a stack of vectors
    assert x.shape == (40, 8)
    assert np.max(np.abs((As @ x[:, :, None])[:, :, 0] - B[:, :, 0])) <= bound


def test_order_zero_stack_has_infinite_margin():
    solved = solve_stack(np.zeros((3, 0, 0)), np.zeros((3, 0, 2)))
    assert solved.sigma_min.tolist() == [np.inf] * 3
    assert not solved.singular.any()
    assert solved.solution.shape == (3, 0, 2)


def test_solve_stack_rejects_non_square_stacks():
    with pytest.raises(LinearSolveError):
        solve_stack(np.zeros((2, 3, 2)))
    with pytest.raises(LinearSolveError):
        solve_stack(np.eye(3))
    with pytest.raises(LinearSolveError):
        plu(np.zeros((2, 3)))


# how one slice of a drawn stack is built
_SLICE_KINDS = ("gaussian", "ties", "signed-zeros", "zero-column", "duplicate-row",
                "tiny", "near-threshold", "at-threshold", "zero", "kahan", "non-finite")


@st.composite
def _stacks(draw):
    """A stack (S, n, n), S in 1..20 and n in 1..9, whose slices are a mix of
    regular, tied, rank-deficient, badly scaled and non-finite matrices, and
    a right-hand side stack (S, n) or (S, n, r)."""
    n = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(_SLICE_KINDS), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    As = rng.standard_normal((len(kinds), n, n))
    for A, kind in zip(As, kinds):
        if kind == "ties":  # small integers: equal magnitudes
            A[:] = rng.integers(-2, 3, (n, n))
        elif kind == "signed-zeros":
            A[:] = -rng.integers(-1, 2, (n, n)).astype(float)
        elif kind == "zero-column":
            A[:, rng.integers(n)] = 0.0
        elif kind == "duplicate-row" and n > 1:
            i, j = rng.choice(n, 2, replace=False)
            A[j] = A[i]
        elif kind == "tiny":
            A *= 1e-14
        elif kind == "near-threshold":  # singular values on both sides of SINGULAR_RTOL
            A *= 1e-12
        elif kind == "at-threshold":  # every singular value equals the threshold
            A[:] = 1e-12 * np.eye(n)[rng.permutation(n)]
        elif kind == "zero":
            A[:] = 0.0
        elif kind == "kahan":
            A[:] = _kahan(n)
        elif kind == "non-finite":
            A[tuple(rng.integers(n, size=2))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    r = draw(st.integers(0, 3))
    b = rng.standard_normal((len(kinds), n) if r == 0 else (len(kinds), n, r))
    return As, b


def _bits(a):
    return np.asarray(a).tobytes()


@settings(max_examples=300)
@given(_stacks())
def test_solve_stack_matches_per_slice_lapack_bit_for_bit(stack):
    """Every slice of a stack, of the stack's finite slices alone and of
    `plu` on that slice alone, equals numpy's one-matrix SVD and solve bit
    for bit; a non-finite slice is singular with NaN margins."""
    As, b = stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # singular slices must not leak warnings
        solved = solve_stack(As, b)
        finite = np.isfinite(As).all(axis=(1, 2))
        alone = solve_stack(As[finite], b[finite])
    assert solved.solution.shape == b.shape
    for s, A in enumerate(As):
        error = solved.error(s)
        if not finite[s]:
            assert np.isnan(solved.sigma_min[s]) and np.isnan(solved.sigma_max[s])
            assert str(error) == "matrix singular: non-finite entries"
            assert np.isnan(solved.solution[s]).all()
            continue
        sigma = np.linalg.svd(A, compute_uv=False)
        assert (_bits(solved.sigma_min[s]), _bits(solved.sigma_max[s])) == (
            _bits(sigma[-1]), _bits(sigma[0]))
        assert solved.singular[s] == (not sigma[-1] > SINGULAR_RTOL * max(sigma[0], 1.0))
        if solved.singular[s]:
            assert np.isnan(solved.solution[s]).all()
            with pytest.raises(SingularMatrixError) as single:
                plu(A)
            assert str(single.value) == str(error)
            continue
        assert error is None
        B = b[s].reshape(len(A), -1)
        X = np.linalg.solve(A, B).reshape(b[s].shape)
        assert _bits(solved.solution[s]) == _bits(X) == _bits(plu(A).solve(b[s]))
    for name in ("sigma_min", "sigma_max", "singular", "solution"):
        assert _bits(getattr(alone, name)) == _bits(getattr(solved, name)[finite])


def test_non_finite_slices_are_singular_and_leave_the_others_bit_identical():
    rng = np.random.default_rng(7)
    As = rng.standard_normal((6, 5, 5)) + 3.0 * np.eye(5)
    rhs = rng.standard_normal((6, 5, 2))
    clean = solve_stack(As, rhs)
    dirty = As.copy()
    dirty[1, 2, 3] = np.nan
    dirty[4, 0, 0] = np.inf
    solved = solve_stack(dirty, rhs)  # no LinAlgError from the batched SVD
    assert np.flatnonzero(solved.singular).tolist() == [1, 4]
    rest = [0, 2, 3, 5]
    for name in ("sigma_min", "sigma_max", "solution"):
        assert _bits(getattr(solved, name)[rest]) == _bits(getattr(clean, name)[rest])
    for s in (1, 4):
        assert np.isnan(solved.sigma_min[s]) and np.isnan(solved.solution[s]).all()
        assert "non-finite entries" in str(solved.error(s))
    with pytest.raises(SingularMatrixError, match="non-finite entries"):
        solve_linear(dirty[1], rhs[1, :, 0])
