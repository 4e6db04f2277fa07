import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minimaxcert import (
    CheckConfig,
    assemble_a_matrix,
    assemble_h_matrix,
    check_assumption_a,
    enumerate_b_selectors,
    kkt_map_directional,
    phi_generalized_gradients,
    solve_lower,
    value_derivatives,
)
from minimaxcert.lower import classify_partition
from minimaxcert.nonsmooth import (
    SelectorCapError,
    clarke_selector_grid,
    selector_sweep,
)
from minimaxcert.problem import eval_bundle, parse_problem

from conftest import (
    closest_to,
    corner_instance,
    reference_b_selectors,
    reference_clarke_grid,
    reference_sweep_selectors,
)


def nonsmooth_solution(spec, x, config, y0=None):
    y0 = y0 if y0 is not None else [0.0] * spec.m
    return solve_lower(spec, x, (y0, None, None), config)


def partition_at(spec, sol, config):
    bundle = eval_bundle(spec, sol.x, sol.y)
    return classify_partition(bundle.g, sol.lam, config.tol_act, config.tol_sc)


# --- selectors ------------------------------------------------------------------

def test_selector_forced_entries():
    part = classify_partition(np.array([0.0, -1.0]), np.array([1.0, 0.0]), 1e-8, 1e-8)
    sels = enumerate_b_selectors(part)
    assert len(sels) == 1
    assert sels[0].tolist() == [0.0, 1.0]


def test_selector_beta_enumeration_order():
    part = classify_partition(np.array([0.0]), np.array([0.0]), 1e-8, 1e-8)
    sels = enumerate_b_selectors(part)
    assert sels.tolist() == [[0.0], [1.0]]


def test_selector_two_beta_bitmask_order():
    part = classify_partition(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 1e-8, 1e-8)
    sels = enumerate_b_selectors(part)
    assert sels.tolist() == [
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]
    ]


def test_selector_cap():
    g = np.zeros(17)
    lam = np.zeros(17)
    part = classify_partition(g, lam, 1e-8, 1e-8)
    with pytest.raises(SelectorCapError):
        enumerate_b_selectors(part, cap=16)


_LABELS = st.sampled_from(("alpha", "beta", "gamma"))


def _labelled_problem(labels):
    """An inner problem whose solution at x = 0 (y = 0) has the partition the
    labels give: g_i = y_i active with multiplier 2 (alpha) or 0 (beta), or
    g_i = y_i - 1 inactive (gamma)."""
    f = " ".join(f"- (y{i} - 1)^2" if lab == "alpha" else f"- y{i}^2"
                 for i, lab in enumerate(labels or [None], start=1))
    g = "".join(f"g{i} = y{i}{' - 1' if lab == 'gamma' else ''}\n"
                for i, lab in enumerate(labels, start=1))
    m = max(len(labels), 1)
    return parse_problem(f"dims 1 {m} 0 {len(labels)} 0 0\nf = x1^2 {f}\n{g}")


@given(st.lists(_LABELS, max_size=8).filter(lambda labs: labs.count("beta") <= 6),
       st.integers(1, 5))
def test_selector_rows_match_the_loop_reference(labels, resolution):
    # the selector arrays against the loop enumeration, the product grid and
    # the tuple dedup they replaced: same rows, order and value bits
    config = CheckConfig(beta_grid_resolution=resolution, clarke_grid_cap=5 ** 6)
    spec = _labelled_problem(labels)
    sol = nonsmooth_solution(spec, [0.0], config)
    part = partition_at(spec, sol, config)
    assert (part.alpha, part.beta, part.gamma) == tuple(
        tuple(i for i, lab in enumerate(labels) if lab == name)
        for name in ("alpha", "beta", "gamma"))
    m2 = len(labels)
    b_rows = enumerate_b_selectors(part)
    grid = clarke_selector_grid(part, resolution, config.clarke_grid_cap)
    sweep = selector_sweep(spec, sol, config, clarke=True)
    for rows, ref in ((b_rows, reference_b_selectors(part)),
                      (grid, reference_clarke_grid(part, resolution)),
                      (sweep.selectors, reference_sweep_selectors(part, resolution))):
        assert rows.shape == (len(ref), m2)
        assert rows.dtype == np.float64 and not rows.flags.writeable
        assert rows.tobytes() == np.array(ref, dtype=float).tobytes()
        # the invariants of a selector of the projection's generalized Jacobian
        assert np.all(rows[:, list(part.alpha)] == 0.0)
        assert np.all(rows[:, list(part.gamma)] == 1.0)
        assert np.all((rows >= 0.0) & (rows <= 1.0))
    assert np.all(np.isin(b_rows[:, list(part.beta)], (0.0, 1.0)))
    assert np.array_equal(sweep.selectors[: len(b_rows)], b_rows)
    assert sweep.exact == (not part.beta)


def test_clarke_grid_density():
    part = classify_partition(np.array([0.0]), np.array([0.0]), 1e-8, 1e-8)
    grid = clarke_selector_grid(part, resolution=5)
    assert [w.tolist()[0] for w in grid] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


# --- A and H -------------------------------------------------------------------

def test_a_matrix_p2_both_selectors(p2, config):
    sol = nonsmooth_solution(p2, [0.0], config)
    part = partition_at(p2, sol, config)
    w0, w1 = enumerate_b_selectors(part)
    A0 = assemble_a_matrix(p2, sol, w0)
    A1 = assemble_a_matrix(p2, sol, w1)
    # magnitudes as displayed; the lambda column carries the derivative sign
    assert np.allclose(np.abs(A0), [[2.0, 1.0], [1.0, 0.0]], atol=1e-9)
    assert np.allclose(np.abs(A1), [[2.0, 1.0], [0.0, 1.0]], atol=1e-9)
    assert abs(np.linalg.det(A0)) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.linalg.det(A1)) == pytest.approx(2.0, abs=1e-9)
    # the sweep's margin sigma_min of both selectors, in order w0, w1
    assert min(selector_sweep(p2, sol, config).solved.sigma_min) >= 1e-8


def test_a_matrix_p1_gamma_case(p1, config):
    sol = nonsmooth_solution(p1, [0.0], config)
    part = partition_at(p1, sol, config)
    (w,) = enumerate_b_selectors(part)
    assert w.tolist() == [1.0]
    A = assemble_a_matrix(p1, sol, w)
    assert np.allclose(np.abs(A), [[1.0, 1.0], [0.0, 1.0]], atol=1e-9)
    assert abs(np.linalg.det(A)) == pytest.approx(1.0, abs=1e-9)


def test_h_matrix_p1(p1, config):
    sol = nonsmooth_solution(p1, [0.0], config)
    part = partition_at(p1, sol, config)
    (w,) = enumerate_b_selectors(part)
    H = assemble_h_matrix(p1, sol, w)
    assert np.allclose(H.ravel(), [-1.0, 0.0], atol=1e-9)


def test_single_selector_helpers_return_writable_arrays(p1, config):
    sol = nonsmooth_solution(p1, [0.0], config)
    (w,) = enumerate_b_selectors(partition_at(p1, sol, config))
    for helper in (assemble_a_matrix, assemble_h_matrix):
        first = helper(p1, sol, w)
        first += 1.0
        assert np.array_equal(helper(p1, sol, w), first - 1.0)


def test_h_matrix_p2_active_selector_kills_y(p2, config):
    sol = nonsmooth_solution(p2, [0.0], config)
    part = partition_at(p2, sol, config)
    w0 = enumerate_b_selectors(part)[0]
    H = assemble_h_matrix(p2, sol, w0)
    assert H[0, 0] == pytest.approx(0.0, abs=1e-9)  # y-component forced by row 2


def test_h_matrix_zero_for_separable_objective(config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 1 1 0 1 0 0\nf = -0.5*x1^2 - 0.5*y1^2\ng1 = y1 - 1\n")
    sol = nonsmooth_solution(spec, [0.2], config)
    part = partition_at(spec, sol, config)
    for w in enumerate_b_selectors(part):
        H = assemble_h_matrix(spec, sol, w)
        assert np.max(np.abs(H)) <= 1e-9


# --- directional derivatives ---------------------------------------------------

def test_directional_candidates_p2(p2, config):
    sol = nonsmooth_solution(p2, [0.0], config)
    for d, expected in ((+1.0, 0.0), (-1.0, -1.0)):
        cands = kkt_map_directional(p2, sol, [d], config)
        ys = sorted(float(v[0]) for _, v in cands.items)
        assert any(abs(y - expected) <= 1e-9 for y in ys)
        # FD on the tracked path confirms membership of the y-component
        t = 1e-6
        st = solve_lower(p2, [d * t], (sol.y, sol.mu, sol.lam), config)
        fd = float((st.y[0] - sol.y[0]) / t)
        assert min(abs(y - fd) for y in ys) <= 1e-6


def test_directional_unique_on_smooth_point(p1, config):
    sol = nonsmooth_solution(p1, [0.0], config)
    for d in (1.0, -1.0, 0.3):
        cands = kkt_map_directional(p1, sol, [d], config)
        assert len(cands.items) == 1
        assert cands.items[0][1][0] == pytest.approx(d, abs=1e-9)  # y' = d_x


def test_directional_fd_membership_random_directions(config):
    # corner instance with beta = {1}: candidates bracket both branches
    spec, x_star, y_star = corner_instance()
    sol = solve_lower(spec, x_star, (y_star, None, None), config)
    assert check_assumption_a(spec, x_star, y_star, config).assumption_a
    rng = np.random.default_rng(13)
    size = spec.m + spec.m1 + spec.m2
    for _ in range(20):
        d = rng.standard_normal(spec.n)
        d /= np.linalg.norm(d)
        cands = kkt_map_directional(spec, sol, d, config)
        assert cands.items
        for t in (1e-4, 1e-5):
            st = solve_lower(spec, sol.x + t * d, (sol.y, sol.mu, sol.lam),
                             config)
            fd = np.concatenate([(st.y - sol.y), (st.mu - sol.mu),
                                 (st.lam - sol.lam)]) / t
            dist, _ = closest_to(cands, fd)
            assert dist <= 1e-3


# --- phi subgradients ------------------------------------------------------------

def test_phi_gradients_unique_at_p1(p1, config):
    sol = nonsmooth_solution(p1, [0.0], config)
    gset = phi_generalized_gradients(p1, sol, config)
    assert len(gset.items) == 1
    assert gset.items[0][1][0] == pytest.approx(0.0, abs=1e-10)


def test_phi_gradients_p2_all_zero(p2, config):
    sol = nonsmooth_solution(p2, [0.0], config)
    gset = phi_generalized_gradients(p2, sol, config)
    assert len(gset.items) == 2
    for _, v in gset.items:
        assert v[0] == pytest.approx(0.0, abs=1e-10)


def test_phi_gradients_separable(config):
    from minimaxcert.problem import parse_problem

    spec = parse_problem("dims 1 1 0 1 0 0\nf = -0.5*x1^2 - 0.5*y1^2\ng1 = y1 - 1\n")
    sol = nonsmooth_solution(spec, [0.2], config)
    gset = phi_generalized_gradients(spec, sol, config)
    for _, v in gset.items:
        assert v[0] == pytest.approx(-0.2, abs=1e-10)  # = d f / d x


def test_phi_gradients_match_smooth_gradient(p1, config):
    # on smooth fixtures the single candidate equals the smooth-path gradient
    for x in (-0.3, 0.0, 0.4):
        sol = solve_lower(p1, [x], ([0.0], None, None), config)
        gset = phi_generalized_gradients(p1, sol, config)
        assert len(gset.items) == 1
        assert abs(gset.items[0][1][0] - value_derivatives(p1, sol).gradient[0]) <= 1e-10


def test_outer_approx_includes_clarke_samples(p2, config):
    sol = nonsmooth_solution(p2, [0.0], config)
    gset = phi_generalized_gradients(p2, sol, config, kind="outer_approx")
    assert len(gset.items) == 2 + 3  # binary plus interior grid points
    for _, v in gset.items:
        assert abs(v[0]) <= 1e-9


def _envelope_cases(p2, p4, config):
    from minimaxcert.problem import parse_problem

    from conftest import degenerate_text

    cases = [(p2, nonsmooth_solution(p2, [0.0], config)),
             (p4, nonsmooth_solution(p4, [1.0], config, y0=[1.0]))]
    for k in range(1, 5):
        spec = parse_problem(degenerate_text(k))
        cases.append((spec, nonsmooth_solution(spec, [0.0] * k, config)))
    # off the origin, with grad_x L = (0.8 sin x1, 1.1 sin x2) != 0
    shifted = parse_problem(
        "dims 2 2 0 2 0 0\n"
        "f = -1.3*(y1 - x1)^2 - 1.7*(y2 - x2)^2 + 0.8*(1 - cos(x1)) + 1.1*(1 - cos(x2))\n"
        "g1 = y1 - x1\ng2 = y2 - x2\n")
    cases.append((shifted, nonsmooth_solution(shifted, [0.3, -0.2], config, y0=[0.3, -0.2])))
    return cases


def test_clarke_grid_adds_no_gradient(p2, p4, config):
    # under the standing assumption phi is C^1: every selector of the Clarke
    # box, binary or not, gives the same candidate gradient grad_x L
    for spec, sol in _envelope_cases(p2, p4, config):
        part = partition_at(spec, sol, config)
        assert part.beta
        gset = phi_generalized_gradients(spec, sol, config, kind="outer_approx")
        assert not gset.errors
        assert len(gset.items) == 5 ** len(part.beta)
        first = gset.items[0][1]
        spread = max(float(np.max(np.abs(v - first))) for v in gset.vectors)
        assert spread <= 1e-12


# --- nonsingularity suites --------------------------------------------------------

def fixture_solutions(p1, p2, p4, config):
    return [
        (p1, nonsmooth_solution(p1, [0.0], config)),
        (p2, nonsmooth_solution(p2, [0.0], config)),
        (p4, nonsmooth_solution(p4, [1.0], config, y0=[1.0])),
    ]


def test_all_selector_matrices_nonsingular(p1, p2, p4, config):
    # every B-selector and Clarke grid point, the sweep that subdiff runs
    for spec, sol in fixture_solutions(p1, p2, p4, config):
        assert check_assumption_a(spec, sol.x, sol.y, config).assumption_a
        solved = selector_sweep(spec, sol, config, clarke=True).solved
        assert min(solved.sigma_min) >= 1e-8


def test_nonsingularity_persists_under_perturbation(p1, p2, p4, config):
    for spec, sol in fixture_solutions(p1, p2, p4, config):
        deltas = [1e-3, -1e-3, 5e-4, -5e-4]
        for delta in deltas:
            xp = sol.x + delta
            sp = solve_lower(spec, xp, (sol.y, sol.mu, sol.lam), config)
            solved = selector_sweep(spec, sp, config, clarke=True).solved
            assert min(solved.sigma_min) >= 1e-8


# --- the stacked sweep against the per-selector reference ---------------------------

def _sweep_cases(p1, p2, p4, config):
    from minimaxcert.problem import parse_problem

    from conftest import degenerate_text

    spec3 = parse_problem(degenerate_text(3))
    # g1 does not depend on y: the selector W = 0 zeroes its row of A
    flat = parse_problem("dims 1 1 0 1 0 0\nf = -y1^2\ng1 = x1\n")
    return fixture_solutions(p1, p2, p4, config) + [
        (spec3, nonsmooth_solution(spec3, [0.0] * 3, config)),
        (flat, nonsmooth_solution(flat, [0.0], config)),
    ]


def _reference_a(lag, bundle, w):
    """A(x, W) for one selector, block by block, with the lambda block
    -np.diag(w) (-0.0 off the diagonal)."""
    m, m1, m2 = lag.yy.shape[0], bundle.h.shape[0], bundle.g.shape[0]
    return np.block([
        [lag.yy, bundle.h_jy.T, -bundle.g_jy.T],
        [bundle.h_jy, np.zeros((m1, m1 + m2))],
        [(1.0 - w)[:, None] * bundle.g_jy, np.zeros((m2, m1)), -np.diag(w)],
    ])


def _assert_first_read_values(sweep, lag, bundle, stack):
    """A sweep's right-hand sides, H and (grad_y L; h; -g), computed when
    first read, equal the per-selector right-hand sides, `solve_stack`'s
    solution with them (NaN on singular slices) and the stacked gradient, bit
    for bit, read-only and the same object on every read."""
    from minimaxcert.linalg import solve_stack

    rhs = np.stack([np.vstack([lag.yx, bundle.h_jx, (1.0 - w)[:, None] * bundle.g_jx])
                    for w in sweep.selectors])
    want = {"rhs": rhs, "H": solve_stack(sweep.A).solve(rhs), "stack": stack}
    for name, value in want.items():
        got = getattr(sweep, name)
        assert got.tobytes() == value.tobytes(), name
        assert getattr(sweep, name) is got and not got.flags.writeable, name


def test_sweep_matches_per_selector_reference_bit_for_bit(p1, p2, p4, config):
    from minimaxcert.linalg import SINGULAR_RTOL, SingularMatrixError
    from minimaxcert.lower import kkt_jacobian_blocks, lagrangian_eval

    singular = 0
    for spec, sol in _sweep_cases(p1, p2, p4, config):
        bundle = eval_bundle(spec, sol.x, sol.y)
        lag = lagrangian_eval(bundle, sol.mu, sol.lam)
        stack = np.concatenate([lag.grad_y, bundle.h, -bundle.g])
        d_x = np.linspace(-1.0, 0.7, spec.n)
        directional = kkt_map_directional(spec, sol, d_x, config)
        # the values computed on first read, read before and after the
        # candidates and h_matrix read them
        for clarke, read_first in ((False, True), (False, False), (True, True), (True, False)):
            sweep = selector_sweep(spec, sol, config, clarke=clarke)
            if read_first:
                _assert_first_read_values(sweep, lag, bundle, stack)
            gradients = sweep.phi_gradients()
            for s, w in enumerate(sweep.selectors):
                A = _reference_a(lag, bundle, w)
                assert kkt_jacobian_blocks(lag, bundle, w).tobytes() == A.tobytes()
                rhs = np.vstack([lag.yx, bundle.h_jx, (1.0 - w)[:, None] * bundle.g_jx])
                assert sweep.A[s].tobytes() == A.tobytes()
                assert sweep.rhs[s].tobytes() == rhs.tobytes()
                sigma = np.linalg.svd(A, compute_uv=False)
                assert sweep.solved.sigma_min[s] == sigma[-1]
                assert sweep.solved.sigma_max[s] == sigma[0]
                if not sigma[-1] > SINGULAR_RTOL * max(sigma[0], 1.0):
                    singular += 1
                    assert sweep.solved.singular[s]
                    assert str(sweep.solved.error(s)) == str(
                        SingularMatrixError(sigma[-1], sigma[0]))
                    with pytest.raises(SingularMatrixError):
                        sweep.h_matrix(s)
                    continue
                assert sweep.solved.error(s) is None
                H = np.linalg.solve(A, rhs)
                assert sweep.h_matrix(s).tobytes() == sweep.H[s].tobytes() == H.tobytes()
                # the stacked candidates equal their per-selector forms
                grad = lag.grad_x - H.T @ stack
                assert gradients[s].tobytes() == grad.tobytes()
                if not clarke:
                    dy = -np.linalg.solve(A, (rhs @ d_x)[:, None])[:, 0]
                    assert [v.tobytes() for u, v in directional.items
                            if np.array_equal(u, w)] == [dy.tobytes()]
            if not read_first:
                _assert_first_read_values(sweep, lag, bundle, stack)
    assert singular  # the flat case reaches the singular branch
