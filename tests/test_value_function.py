import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxcert import CheckConfig, solve_lower, value_derivatives
from minimaxcert.lower import lagrangian_eval
from minimaxcert.oracle import fd_derivatives
from minimaxcert.problem import eval_bundle, parse_problem
from minimaxcert.value_function import SingularSensitivityError

from conftest import kahan_problem_text, random_smooth_instance


def smooth_solution(spec, x, config, seed_y=None, seed_lam=None):
    y0 = seed_y if seed_y is not None else [0.0] * spec.m
    lam0 = seed_lam if seed_lam is not None else None
    return solve_lower(spec, x, (y0, None, lam0), config)


def phi_of(spec, config, sol):
    def func(xv):
        s = solve_lower(spec, xv, (sol.y, sol.mu, sol.lam), config)
        return eval_bundle(spec, s.x, s.y).f

    return func


# --- assembly ----------------------------------------------------------------

def test_sensitivity_system_p1_origin(p1, config):
    # g1 = y1 - 1 is inactive (gamma, W = 1): its row is -lam' = 0
    sol = smooth_solution(p1, [0.0], config)
    sweep = value_derivatives(p1, sol, config).sweep
    assert np.array_equal(sweep.A[0], [[-1.0, -1.0], [0.0, -1.0]])
    assert np.array_equal(sweep.rhs[0].ravel(), [1.0, 0.0])


def test_sensitivity_blocks_active_case(p2, config):
    # lam = 1 (alpha, W = 0): the constraint row is J_y g with a zero lambda
    # entry, and its right-hand side is J_x g
    sol = smooth_solution(p2, [0.5], config)
    sweep = value_derivatives(p2, sol, config).sweep
    assert np.array_equal(sweep.A[0], [[-2.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(sweep.rhs[0].ravel(), [2.0, 0.0])
    assert sweep.H.shape == (1, 2, 1)


def test_sensitivity_degenerate_no_constraints(config):
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -(y1-x1)^2\n")
    sol = smooth_solution(spec, [0.3], config)
    sweep = value_derivatives(spec, sol, config).sweep
    assert sweep.A.shape == (1, 1, 1)
    assert sweep.A[0, 0, 0] == pytest.approx(-2.0)


def test_singular_k_is_reported(p2, config):
    # at the degenerate point (beta nonempty, g = lam = 0) strict
    # complementarity fails: the smooth-path hypotheses genuinely fail there
    from minimaxcert.lower import KktSolution

    sol = KktSolution(
        x=np.array([0.0]), y=np.array([0.0]), w=np.array([0.0]),
        mu=np.zeros(0), lam=np.array([0.0]), residual=0.0,
    )
    with pytest.raises(SingularSensitivityError):
        value_derivatives(p2, sol, config)


# --- gradient ----------------------------------------------------------------

def test_phi_gradient_p1(p1, config):
    sol = smooth_solution(p1, [0.3], config)
    assert value_derivatives(p1, sol).gradient[0] == pytest.approx(0.3, abs=1e-10)
    sol0 = smooth_solution(p1, [0.0], config)
    assert value_derivatives(p1, sol0).gradient[0] == pytest.approx(0.0, abs=1e-10)


def test_phi_gradient_p2_interior(p2, config):
    sol = smooth_solution(p2, [-0.5], config)
    assert value_derivatives(p2, sol).gradient[0] == pytest.approx(0.0, abs=1e-9)


def test_solution_is_opened_at_tol_newton(p1):
    # y off P1's maximiser at x = 0.5 by 5e-7: the seed is the solution at
    # tol_newton = 1e-6, and value_derivatives, which opens it, checks that bound
    loose = CheckConfig(tol_newton=1e-6)
    sol = solve_lower(p1, [0.5], ([0.5 + 5e-7], None, None), loose)
    assert sol.iterations == 1 and 0.0 < sol.residual <= loose.tol_newton
    vd = value_derivatives(p1, sol, loose)
    assert vd.gradient[0] == pytest.approx(0.5, abs=1e-6)
    assert vd.hessian[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="exceeds tol_newton 1.0e-10"):
        value_derivatives(p1, sol)


# --- Hessian -----------------------------------------------------------------

def test_phi_hessian_p1(p1, config):
    sol = smooth_solution(p1, [0.0], config)
    assert value_derivatives(p1, sol).hessian[0, 0] == pytest.approx(1.0, abs=1e-9)
    sol5 = smooth_solution(p1, [0.5], config)
    assert value_derivatives(p1, sol5).hessian[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_phi_hessian_unconstrained_toy(config):
    spec = parse_problem("dims 1 1 0 0 0 0\nf = -(y1-x1)^2\n")
    sol = smooth_solution(spec, [0.2], config)
    assert value_derivatives(spec, sol).hessian[0, 0] == pytest.approx(0.0, abs=1e-10)


# --- FD agreement ------------------------------------------------------------

@pytest.mark.parametrize("x", [-0.4, -0.2, 0.0, 0.2, 0.4])
def test_phi_derivatives_match_fd_p1(p1, config, x):
    sol = smooth_solution(p1, [x], config)
    vd = value_derivatives(p1, sol, config)
    grad_fd, hess_fd = fd_derivatives(
        phi_of(p1, config, sol), [x], config.fd_step, config.fd_hess_step
    )
    assert abs(vd.gradient[0] - grad_fd[0]) <= 1e-6
    assert abs(vd.hessian[0, 0] - hess_fd[0, 0]) <= 1e-4


@pytest.mark.parametrize("x", [-0.6, -0.3, 0.3, 0.45, 0.6])
def test_phi_derivatives_match_fd_p2_smooth_regions(p2, config, x):
    sol = smooth_solution(p2, [x], config)
    vd = value_derivatives(p2, sol, config)
    grad_fd, hess_fd = fd_derivatives(
        phi_of(p2, config, sol), [x], config.fd_step, config.fd_hess_step
    )
    assert abs(vd.gradient[0] - grad_fd[0]) <= 1e-6
    assert abs(vd.hessian[0, 0] - hess_fd[0, 0]) <= 1e-4


def test_hessian_consistent_with_gradient_jacobian(p1, config):
    # hess phi equals the FD Jacobian of the analytic gradient
    h = 1e-6
    for x in (-0.2, 0.0, 0.3):
        sol = smooth_solution(p1, [x], config)
        vd = value_derivatives(p1, sol, config)
        gp, gm = (value_derivatives(p1, solve_lower(p1, [x + s], (sol.y, sol.mu, sol.lam),
                                                    config)).gradient
                  for s in (h, -h))
        fd = (gp[0] - gm[0]) / (2 * h)
        assert abs(vd.hessian[0, 0] - fd) <= 1e-6


def test_random_instances_match_fd(config):
    rng = np.random.default_rng(17)
    for _ in range(4):
        spec, x, y, mu, lam = random_smooth_instance(rng, max_dim=2, max_m2=2)
        sol = solve_lower(spec, x, (y, mu, lam), config)
        vd = value_derivatives(spec, sol, config)
        grad_fd, hess_fd = fd_derivatives(
            phi_of(spec, config, sol), x, config.fd_step, config.fd_hess_step
        )
        assert np.max(np.abs(vd.gradient - grad_fd)) <= 1e-6
        assert np.max(np.abs(vd.hessian - hess_fd)) <= 1e-4


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_value_hessian_is_symmetric_and_matches_central_differences(seed):
    """hess phi = L_xx - rhs^T K^{-1} rhs with K symmetric, so the assembled
    product is symmetric up to rounding; and it is the derivative of
    grad phi = grad_x L along the solution map.  The instances are quadratic
    with affine constraints, so grad phi is affine near x* and a central
    difference of it is exact up to rounding."""
    config = CheckConfig()
    spec, x, y, mu, lam = random_smooth_instance(np.random.default_rng(seed))
    sol = solve_lower(spec, x, (y, mu, lam), config)
    vd = value_derivatives(spec, sol, config)
    bundle = eval_bundle(spec, sol.x, sol.y)
    lag = lagrangian_eval(bundle, sol.mu, sol.lam)
    raw = lag.xx - np.hstack([lag.yx.T, bundle.h_jx.T, -bundle.g_jx.T]) @ vd.sweep.H[0]
    assert np.max(np.abs(raw - raw.T), initial=0.0) <= 1e-10 * (1 + np.max(np.abs(raw)))
    np.testing.assert_array_equal(vd.hessian, 0.5 * (raw + raw.T))

    t = 1e-3
    start = (sol.y, sol.mu, sol.lam)
    columns = []
    for e in np.eye(spec.n):
        plus, minus = (value_derivatives(spec, solve_lower(spec, x + s * t * e, start,
                                                           config)).gradient
                       for s in (1.0, -1.0))
        columns.append((plus - minus) / (2 * t))
    fd = np.column_stack(columns)
    assert np.max(np.abs(vd.hessian - fd)) <= 1e-9 * (1 + np.max(np.abs(fd)))


# --- sign-convention guard ----------------------------------------------------

def test_symmetric_display_equals_exact_jacobian_assembly(config):
    """-H = -A^{-1} rhs is the exact derivative of the solution map
    (y, mu, lam)(x), lambda sign included, and the bordered Hessian formula
    built from it reproduces the FD Hessian."""
    rng = np.random.default_rng(29)
    specs = []
    for _ in range(3):
        specs.append(random_smooth_instance(rng, max_dim=2, max_m2=2))
    # include a case with an x-dependent active constraint
    specs.append((
        parse_problem("dims 1 1 0 1 0 0\nf = -(y1-x1)^2\ng1 = y1 - x1 + 0.5\n"),
        np.array([0.5]), np.array([0.0]), np.zeros(0), np.array([1.0]),
    ))
    step = 1e-6
    for spec, x, y, mu, lam in specs:
        sol = solve_lower(spec, x, (y, mu, lam), config)
        vd = value_derivatives(spec, sol, config)
        A, H, rhs = vd.sweep.A[0], vd.sweep.H[0], vd.sweep.rhs[0]
        assert np.allclose(A @ H, rhs, atol=1e-9)

        def triple(xv):
            s = solve_lower(spec, xv, (sol.y, sol.mu, sol.lam), config)
            return np.concatenate([s.y, s.mu, s.lam])

        jac_fd = np.column_stack([
            (triple(x + step * e) - triple(x - step * e)) / (2 * step)
            for e in np.eye(spec.n)
        ])
        assert np.max(np.abs(-H - jac_fd)) <= 1e-5
        _, hess_fd = fd_derivatives(phi_of(spec, config, sol), x,
                                    config.fd_step, config.fd_hess_step)
        assert np.max(np.abs(vd.hessian - hess_fd)) <= 1e-4


def test_kahan_sensitivity_matrix_is_singular(config):
    """A(x, W) = -T^T T at m = 20: partial pivoting saw pivots of 1 and
    returned a hess phi of rounding noise (about 9e10); sigma_min = 8.187e-12
    is below the threshold 1e-12 * sigma_max = 1.4e-10."""
    from minimaxcert import CandidatePoint, certify

    spec = parse_problem(kahan_problem_text(20))
    sol = smooth_solution(spec, [0.0], config)
    with pytest.raises(SingularSensitivityError, match="sigma_min 8.187e-12") as err:
        value_derivatives(spec, sol, config)
    assert err.value.sigma_min == pytest.approx(8.187e-12, rel=1e-3)
    # lower SOSC fails first, so certify takes the invalid path as before
    rep = certify(spec, CandidatePoint([0.0], [0.0] * 20), config)
    assert (rep.path, rep.verdict) == ("invalid", "inconclusive")


def test_condition_estimate_attached(p1, p2, config):
    # certify reports the sweep's sigma_min as the margin and
    # sigma_max / sigma_min as the condition estimate
    from minimaxcert import CandidatePoint, certify

    solved = value_derivatives(p1, smooth_solution(p1, [0.0], config), config).sweep.solved
    assert not solved.singular[0]
    condition = solved.sigma_max[0] / solved.sigma_min[0]
    assert condition > 0
    rep = certify(p1, CandidatePoint([0.0], [0.0]), config)
    check = next(c for c in rep.results if c.name == "sensitivity_system")
    assert check.value == solved.sigma_min[0]
    assert check.detail == f"condition estimate {condition:.3e}"
    # g1 = -1e-6 is inactive but close: A(x, W) stays well conditioned
    solved = value_derivatives(p2, smooth_solution(p2, [-1e-6], config), config).sweep.solved
    assert solved.sigma_max[0] / solved.sigma_min[0] < 10
