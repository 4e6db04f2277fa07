import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxcert.linalg import (
    PIVOT_RTOL,
    LinearSolveError,
    LpProblem,
    SingularMatrixError,
    max_eigenvalue_on_subspace,
    nullspace_basis,
    plu,
    plu_batch,
    smallest_singular_value,
    solve_linear,
    solve_lp,
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


def test_singular_matrix_reports_pivot():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    assert err.value.pivot < 1e-10


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
    with pytest.raises(ValueError):
        max_eigenvalue_on_subspace(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


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
    sol = solve_lp(p)
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
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.z[0] == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible():
    p = LpProblem(
        c=[1.0],
        A_in=[[1.0], [-1.0]],
        b_in=[-1.0, -1.0],  # z <= -1 and z >= 1
    )
    assert solve_lp(p).status == "infeasible"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_lp_non_finite_equality_rhs_is_infeasible(value):
    # -z = b has no solution when b is not a finite number
    p = LpProblem(np.zeros(1), [[-1.0]], [value], None, None, [0.0], None)
    sol = solve_lp(p)
    assert (sol.status, sol.z) == ("infeasible", None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_lp_nan_or_minus_inf_inequality_rhs_is_infeasible(value):
    # z <= b holds for no z when b is NaN or -inf
    p = LpProblem(np.zeros(1), None, None, [[1.0]], [value], [0.0], None)
    sol = solve_lp(p)
    assert (sol.status, sol.z) == ("infeasible", None)


def test_lp_unbounded():
    p = LpProblem(c=[1.0], A_in=[[-1.0]], b_in=[0.0])
    assert solve_lp(p).status == "unbounded"


def test_lp_equalities_and_free_variables():
    # maximize u + v  s.t.  u + v = 1, v >= 0  ->  value 1
    p = LpProblem(
        c=[1.0, 1.0],
        A_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        lower=[-np.inf, 0.0],
    )
    sol = solve_lp(p)
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
        sol = solve_lp(p)
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


# --- the batched LU ------------------------------------------------------------

# how one slice of a drawn stack is built
_SLICE_KINDS = ("gaussian", "ties", "signed-zeros", "zero-column", "duplicate-row",
                "tiny", "near-threshold", "at-threshold", "zero")


@st.composite
def _stacks(draw):
    """A stack (S, n, n), S in 1..20 and n in 1..9, whose slices are a mix of
    regular, tied, rank-deficient and badly scaled matrices, and a right-hand
    side stack (S, n) or (S, n, r)."""
    n = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(_SLICE_KINDS), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    As = rng.standard_normal((len(kinds), n, n))
    for A, kind in zip(As, kinds):
        if kind == "ties":  # small integers: equal magnitudes in pivot columns
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
        elif kind == "near-threshold":  # pivots on both sides of PIVOT_RTOL
            A *= 1e-12
        elif kind == "at-threshold":  # every pivot equals the threshold
            A[:] = 1e-12 * np.eye(n)[rng.permutation(n)]
        elif kind == "zero":
            A[:] = 0.0
    r = draw(st.integers(0, 3))
    b = rng.standard_normal((len(kinds), n) if r == 0 else (len(kinds), n, r))
    return As, b


def _bits(a):
    return np.asarray(a).tobytes()


def _reference_plu(A):
    """Textbook one-matrix partial-pivot LU with the library's threshold rule:
    (lu, perm, pivots, scale), or the SingularMatrixError it stops with."""
    n = A.shape[0]
    lu = A.copy()
    perm = np.arange(n)
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    threshold = PIVOT_RTOL * max(scale, 1.0)
    pivots = np.zeros(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[p, k])
        pivots[k] = pivot
        if pivot < threshold:
            return SingularMatrixError(pivot, k, scale)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm, pivots, scale


def _reference_solve(lu, perm, b):
    n = lu.shape[0]
    B = b.reshape(n, -1)[perm].astype(float)
    for k in range(n):  # forward
        B[k + 1 :] -= np.outer(lu[k + 1 :, k], B[k])
    for k in range(n - 1, -1, -1):  # backward
        B[k] /= lu[k, k]
        B[:k] -= np.outer(lu[:k, k], B[k])
    return B[:, 0] if b.ndim == 1 else B


@settings(max_examples=300)
@given(_stacks())
def test_plu_batch_matches_plu_bit_for_bit(stack):
    """Every slice of a stack, and `plu` on that slice alone, equal the
    textbook one-matrix elimination bit for bit."""
    As, b = stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # broken-down slices must not leak warnings
        batch = plu_batch(As)
        X = batch.solve(b)
    assert X.shape == b.shape
    for s, A in enumerate(As):
        ref = _reference_plu(A)
        if isinstance(ref, SingularMatrixError):
            with pytest.raises(SingularMatrixError) as single:
                plu(A)
            for err in (batch.error(s), single.value):
                assert err is not None
                assert (_bits(err.pivot), err.step, err.scale) == (
                    _bits(ref.pivot), ref.step, ref.scale)
                assert str(err) == str(ref)
            assert _bits(batch.min_pivots[s]) == _bits(ref.pivot)
            continue
        lu, perm, pivots, scale = ref
        assert batch.error(s) is None
        for got in (batch.factors(s), plu(A)):
            assert _bits(got.lu) == _bits(lu)
            assert np.array_equal(got.perm, perm)
            assert _bits(got.pivots) == _bits(pivots)
            assert _bits(got.scale) == _bits(scale)
            assert _bits(got.solve(b[s])) == _bits(_reference_solve(lu, perm, b[s]))
        assert _bits(batch.min_pivots[s]) == _bits(pivots.min())
        assert _bits(X[s]) == _bits(_reference_solve(lu, perm, b[s]))


@st.composite
def _fused_stacks(draw):
    """A `_stacks` stack, often cut to a stack of one, with some entries of
    A and of the right-hand side set to +-inf or NaN, and a right-hand side
    of one column (S, n) or several (S, n, r)."""
    As, _ = draw(_stacks())
    if draw(st.booleans()):
        As = As[:1]
    S, n, _ = As.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(1, 4))
    b = rng.standard_normal((S, n) if r == 1 and draw(st.booleans()) else (S, n, r))
    for arr in (As, b):
        for _ in range(draw(st.integers(0, 2))):
            index = tuple(int(rng.integers(d)) for d in arr.shape)
            arr[index] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return As, b


def _float_bits(a):
    """Bytes of a with every NaN written as the one NaN.  Where two NaNs meet
    in a product or a difference, IEEE 754 leaves the sign and payload of the
    result unspecified, and which operand's NaN numpy returns depends on how
    its loop is laid out: the fused rows are longer than the rows of a
    separate substitution."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


@settings(max_examples=300)
@given(_fused_stacks())
def test_fused_solve_matches_textbook_substitution_bit_for_bit(stack):
    """The right-hand side carried through the elimination gives, on every
    slice that factors, the bits of the textbook factor-then-substitute
    solve, and leaves the factors as they are without it.  A NaN is
    compared as NaN (see `_float_bits`)."""
    As, b = stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # broken-down slices must not leak warnings
        fused = plu_batch(As, b)
        alone = plu_batch(As)
    assert fused.solution.shape == b.shape
    assert _float_bits(fused.lu) == _float_bits(alone.lu)
    for name in ("perm", "pivots", "scale", "step"):
        assert _bits(getattr(fused, name)) == _bits(getattr(alone, name))
    for s, A in enumerate(As):
        with np.errstate(all="ignore"):
            ref = _reference_plu(A)
            if isinstance(ref, SingularMatrixError):
                assert fused.step[s] == ref.step
                continue
            lu, perm, _, _ = ref
            assert fused.step[s] == -1 and np.array_equal(fused.perm[s], perm)
            assert _float_bits(fused.solution[s]) == _float_bits(
                _reference_solve(lu, perm, b[s]))


def test_plu_batch_rejects_non_square_stacks():
    with pytest.raises(LinearSolveError):
        plu_batch(np.zeros((2, 3, 2)))
    with pytest.raises(LinearSolveError):
        plu_batch(np.eye(3))
